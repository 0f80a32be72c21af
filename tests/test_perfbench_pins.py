"""The package names that perfbench/ uses, checked without running it.

perfbench reaches twopass through `from twopass import <module>` and then
`<module>.<name>`, or through `from twopass.<module> import <name>`. Each
such name must still resolve, and every keyword argument perfbench passes
to it must bind to its signature. Attribute reads on instances are
followed one step: in each perfbench file, a name assigned from a pinned
class (`options = aligner.AlignOptions(...)`), or from a pinned call whose
return annotation is a class (`graph = aligner.expand_pronunciations(...)`),
stands for that class, and every `name.attr` read must be one of the
class's attributes or dataclass fields. A name assigned from two different
classes in one file is skipped; other bindings of a name (function
parameters, unpinned calls) are not looked at. Otherwise a removal shows up
only as a failed benchmark run.
"""
import ast
import collections
import dataclasses
import importlib
import inspect
import pathlib
import typing

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _files():
    """(file name, tree, modules, direct) for every perfbench file: modules
    maps a local alias to its twopass submodule, direct a local name to
    (twopass submodule, name)."""
    files = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}
        direct = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and (node.module or "").split(".")[0] == "twopass":
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module == "twopass":
                        modules[local] = alias.name
                    else:
                        direct[local] = (node.module[len("twopass."):], alias.name)
        files.append((path.name, tree, modules, direct))
    return files


def _target(node, modules, direct):
    """The (twopass submodule, name) that node refers to, or None."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id in modules:
        return modules[node.value.id], node.attr
    if isinstance(node, ast.Name):
        return direct.get(node.id)
    return None


def _pins():
    """(where, module, name, call or None) for every pinned use."""
    pins = []
    for filename, tree, modules, direct in _files():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and (node.module or "").startswith("twopass."):
                for alias in node.names:
                    pins.append(("%s:%d" % (filename, node.lineno),
                                 node.module[len("twopass."):], alias.name, None))
        calls = {id(node.func): node for node in ast.walk(tree)
                 if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            target = _target(node, modules, direct)
            if target is None or (isinstance(node, ast.Name)
                                  and id(node) not in calls):
                continue
            pins.append(("%s:%d" % (filename, node.lineno), *target,
                         calls.get(id(node))))
    return pins


def _class_made_by(module, name):
    """The class a pinned name makes: the class itself, or the class its
    return annotation names; None for anything else."""
    obj = getattr(importlib.import_module("twopass." + module), name, None)
    if inspect.isclass(obj):
        return obj
    if callable(obj):
        made = typing.get_type_hints(obj).get("return")
        if inspect.isclass(made):
            return made
    return None


def _attribute_reads():
    """(where, class, name, attr) for every `name.attr` read in a perfbench
    file whose name is assigned from exactly one pinned class."""
    reads = []
    for filename, tree, modules, direct in _files():
        classes = collections.defaultdict(set)
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name) \
                    and isinstance(node.value, ast.Call):
                target = _target(node.value.func, modules, direct)
                made = target and _class_made_by(*target)
                if made is not None:
                    classes[node.targets[0].id].add(made)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) \
                    and isinstance(node.value, ast.Name) \
                    and len(classes.get(node.value.id, ())) == 1:
                (cls,) = classes[node.value.id]
                reads.append(("%s:%d" % (filename, node.lineno), cls,
                              node.value.id, node.attr))
    return reads


@pytest.fixture(scope="module")
def pins():
    return _pins()


@pytest.fixture(scope="module")
def attribute_reads():
    return _attribute_reads()


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


def test_instance_attribute_reads_are_found(attribute_reads):
    read = {(cls.__name__, name, attr) for _, cls, name, attr in attribute_reads}
    assert ("PronGraph", "graph", "min_path_states") in read
    assert ("PronGraph", "graph", "phoneme_ids") in read
    assert ("AlignOptions", "options", "phoneme_log_priors") in read
    assert ("PosteriorMatrix", "matrix", "frames") in read


def test_instance_attribute_reads_resolve(attribute_reads):
    faults = []
    for where, cls, name, attr in attribute_reads:
        fields = {f.name for f in dataclasses.fields(cls)} \
            if dataclasses.is_dataclass(cls) else set()
        if not hasattr(cls, attr) and attr not in fields:
            faults.append("%s: %s (a twopass %s) has no %s"
                          % (where, name, cls.__name__, attr))
    assert not faults, "\n".join(faults)
