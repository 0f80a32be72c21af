"""The package names that perfbench/ uses, checked without running it.

perfbench reaches twopass through `from twopass import <module>` and then
`<module>.<name>`, or through `from twopass.<module> import <name>`. Each
such name must still resolve, and every keyword argument perfbench passes
to it must bind to its signature. Otherwise a removal shows up only as a
failed benchmark run. Attribute reads on instances (such as
`options.phoneme_log_priors`) are not followed.
"""
import ast
import importlib
import inspect
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _pins():
    """(where, module, name, call or None) for every pinned use."""
    pins = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}  # local alias -> twopass submodule
        direct = {}   # local name -> (twopass submodule, name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and (node.module or "").split(".")[0] == "twopass":
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module == "twopass":
                        modules[local] = alias.name
                    else:
                        direct[local] = (node.module[len("twopass."):], alias.name)
                        pins.append(("%s:%d" % (path.name, node.lineno),
                                     direct[local][0], alias.name, None))
        calls = {id(node.func): node for node in ast.walk(tree)
                 if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in modules:
                module, name = modules[node.value.id], node.attr
            elif isinstance(node, ast.Name) and node.id in direct \
                    and id(node) in calls:
                module, name = direct[node.id]
            else:
                continue
            pins.append(("%s:%d" % (path.name, node.lineno), module, name,
                         calls.get(id(node))))
    return pins


@pytest.fixture(scope="module")
def pins():
    return _pins()


def test_perfbench_pins_are_found(pins):
    pinned = {(module, name) for _, module, name, _ in pins}
    assert ("aligner", "viterbi_align") in pinned
    assert ("fusion", "default_weight_grid") in pinned
    assert ("ngram", "NGramModel") in pinned


def test_pinned_names_resolve_and_keywords_bind(pins):
    faults = []
    for where, module, name, call in pins:
        obj = getattr(importlib.import_module("twopass." + module), name, None)
        if obj is None:
            faults.append("%s: twopass.%s has no %s" % (where, module, name))
            continue
        if call is None or not callable(obj):
            continue
        keywords = {kw.arg: None for kw in call.keywords if kw.arg is not None}
        positional = [] if any(isinstance(a, ast.Starred) for a in call.args) \
            else [None] * len(call.args)
        try:
            inspect.signature(obj).bind_partial(*positional, **keywords)
        except TypeError as exc:
            faults.append("%s: twopass.%s.%s: %s" % (where, module, name, exc))
    assert not faults, "\n".join(faults)
