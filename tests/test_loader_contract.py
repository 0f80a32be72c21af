"""The loader contract, checked with generated inputs.

Any bytes given to a loader either load or raise ToolkitError, which the
CLI turns into exit 2. Files the toolkit writes load back unchanged. Text
files are opened in exactly one reader and one writer (core.read_lines and
core.write_lines), so these properties hold for every text format at once.

Examples come from hypothesis with a fixed derivation and no example
database, so every run tries the same inputs.
"""
import ast
import math
import pathlib
import struct

import pytest
from hypothesis import given, settings, strategies as st

from twopass import cli, core, ngram
from twopass.core import (
    BLANK,
    Hypothesis,
    NBestList,
    ScoreBundle,
    ToolkitError,
    Vocabulary,
)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "twopass"

CHECK = settings(database=None, derandomize=True, max_examples=60,
                 deadline=None)

VOCAB = Vocabulary((BLANK, "▁a", "b", "▁c"))
PHONEMES = Vocabulary(("p0", "p1"))

# Pieces of every text format, so that generated files get past the first
# line often enough to reach the later checks.
FRAGMENTS = [
    "", " ", "\t", "\n", "\r", "\r\n", "\x0b", "\x85", " ", "\x00",
    "a", "▁a", "b", "▁c", "<blank>", "p0", "p1", "u1", "x.fpm", "é",
    "1", "2", "0", "-1.0", "0.5", "1e400", "nan", "inf", "-inf", "NA",
    "\\data\\", "ngram 1=1", "ngram 2=1", "\\1-grams:", "\\2-grams:",
    "\\end\\", "\\", "beam = 4", "=", "#",
]
TEXT = st.one_of(
    st.binary(max_size=64),
    st.lists(st.sampled_from(FRAGMENTS), max_size=40).map(
        lambda parts: "".join(parts).encode("utf-8")))
FPM = st.one_of(
    st.binary(max_size=64),
    st.builds(lambda t, v, body: b"FPM1" + struct.pack("<II", t, v) + body,
              st.integers(0, 3), st.integers(0, 5), st.binary(max_size=64)))

LOADERS = {
    "vocabulary": (core.load_vocabulary, TEXT),
    "lexicon": (lambda path: core.load_lexicon(path, PHONEMES), TEXT),
    "nbest": (lambda path: core.load_nbest(path, VOCAB), TEXT),
    "transcripts": (core.load_transcripts, TEXT),
    "manifest": (core.load_manifest, TEXT),
    "arpa": (ngram.load_arpa, TEXT),
    "config": (cli._read_config_file, TEXT),
    "posteriors": (lambda path: core.load_posteriors(path, VOCAB), FPM),
}


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_any_bytes_load_or_raise_toolkit_error(scratch, name):
    load, data = LOADERS[name]
    path = scratch / name

    @CHECK
    @given(data)
    def check(blob):
        path.write_bytes(blob)
        try:
            load(str(path))
        except ToolkitError:
            pass

    check()


FINITE = st.floats(allow_nan=False, allow_infinity=False)
HYPOTHESES = st.lists(
    st.tuples(st.lists(st.integers(1, len(VOCAB) - 1), max_size=4).map(tuple),
              st.builds(ScoreBundle, e2e=FINITE, lm=FINITE, ilm=FINITE,
                        am=st.one_of(st.none(), FINITE, st.just(-math.inf)))),
    min_size=1, max_size=4, unique_by=lambda pair: pair[0])
# Utterance ids hold anything but the tab and the two newline characters.
UTTERANCE_IDS = st.text(
    st.characters(blacklist_categories=("Cs",),
                  blacklist_characters="\t\n\r"), max_size=6)


@CHECK
@given(st.lists(st.tuples(UTTERANCE_IDS, HYPOTHESES), max_size=4,
                unique_by=lambda pair: pair[0]))
def test_nbest_round_trip_is_lossless(tmp_path_factory, lists):
    nbest_lists = [NBestList(utt, tuple(Hypothesis(*h) for h in hyps))
                   for utt, hyps in lists]
    path = tmp_path_factory.getbasetemp() / "round_trip.nbest"
    core.write_nbest(nbest_lists, VOCAB, path)
    assert core.load_nbest(path, VOCAB) == nbest_lists


WORDS = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp")),
                min_size=1, max_size=4)
# ARPA stores log10 values with 7 decimals; values already on that grid
# load back as the same floats.
LOG10 = st.integers(-99 * 10**7, 0).map(lambda n: n / 1e7 * ngram.LN10)
BACKOFF = st.integers(-10**8, 10**8).map(lambda n: n / 1e7 * ngram.LN10)


@st.composite
def arpa_tables(draw):
    words = draw(st.lists(WORDS, min_size=1, max_size=4, unique=True))
    tables = [{(w,): (draw(LOG10), draw(BACKOFF)) for w in words}]
    for _ in range(draw(st.integers(0, 2))):
        grams = [ctx + (w,) for ctx in tables[-1] for w in words]
        grams = draw(st.lists(st.sampled_from(grams), max_size=6, unique=True)) \
            if grams else []
        tables.append({g: (draw(LOG10), draw(BACKOFF)) for g in grams})
    return tables


@CHECK
@given(arpa_tables())
def test_arpa_round_trip_is_lossless(tmp_path_factory, tables):
    path = tmp_path_factory.getbasetemp() / "round_trip.arpa"
    ngram.write_arpa(ngram.NGramModel(len(tables), tables), path)
    clone = ngram.load_arpa(path)
    assert [clone.ngrams(k) for k in range(1, clone.order + 1)] == tables


# Every place in the package that opens a file.
OPENERS = {("core", "read_lines"), ("core", "write_lines"),
           ("core", "load_posteriors"), ("core", "write_posteriors")}


def _is_open(func) -> bool:
    if isinstance(func, ast.Name):
        return func.id == "open"
    return isinstance(func, ast.Attribute) and func.attr in (
        "open", "read_text", "write_text", "read_bytes", "write_bytes")


def test_files_are_opened_only_by_the_four_readers_and_writers():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).with_suffix("").as_posix()
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            where = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and _is_open(node.func):
                    found.add((module, where))
    assert found == OPENERS
