"""Shared domain types and file formats for the two-pass decoding toolkit.

Every log quantity in this package is a natural logarithm. Token ids index a
Vocabulary; blank (for CTC matrices) is always ``<blank>`` at id 0. Word
boundaries inside token strings are marked with U+2581.
"""
from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field, replace

import numpy as np

WORD_BOUNDARY = "▁"
BLANK = "<blank>"
MINUS_INF = float("-inf")

_FPM_MAGIC = b"FPM1"
_ROW_NORM_TOL = 1e-3


class ToolkitError(Exception):
    """Base class for data-level errors raised by the toolkit."""


class FormatError(ToolkitError):
    """A file does not conform to its documented format."""


class OOVError(ToolkitError):
    """A word or token is missing from the relevant inventory."""


class VocabMismatchError(ToolkitError):
    """Two components disagree about the symbol inventory."""


class AlignmentError(ToolkitError):
    """A sequence cannot be aligned to the available frames."""


class DanglingTokenError(FormatError, AlignmentError, ValueError):
    """A token sequence opens with a word continuation piece, so it has no
    word sequence to align."""


def read_lines(path: str | os.PathLike):
    """Yield (line number, line) for every line of a UTF-8 text file, from 1.

    LF, CR LF and a lone CR each end a line; the newline is removed and
    blank lines are kept. A file that is not UTF-8 raises FormatError.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                yield lineno, line.rstrip("\n")
        except UnicodeDecodeError:
            raise FormatError("%s: not UTF-8 text" % path) from None


def write_lines(path: str | os.PathLike, lines) -> None:
    """Write each string of lines, newline-terminated, as UTF-8 text."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in lines)


def log_add_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stable log(exp(a) + exp(b)) elementwise over two same-shape float64
    arrays, tolerating -inf.

    Where either is -inf the result is the other, which is the larger;
    elsewhere it is max + log1p(exp(min - max)), with math's exp and log1p
    mapped over a list: NumPy's exp is not libm's on every machine, and
    rounds differently. Each element has the bits of that scalar rule in
    Python floats, in either argument order.
    """
    hi = np.maximum(a, b)
    lo = np.minimum(a, b)
    both = (lo != MINUS_INF).nonzero()
    with np.errstate(over="ignore"):  # a gap past -1.8e308 is -inf, as in Python
        gaps = (lo[both] - hi[both]).tolist()
    hi[both] += np.fromiter(map(math.log1p, map(math.exp, gaps)), float, len(gaps))
    return hi


@dataclass(frozen=True)
class Vocabulary:
    """Immutable ordered symbol table mapping ids to unique non-empty strings."""

    symbols: tuple[str, ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.symbols:
            raise ValueError("vocabulary is empty")
        index: dict[str, int] = {}
        for i, sym in enumerate(self.symbols):
            if not sym:
                raise ValueError("empty symbol at id %d" % i)
            if sym in index:
                raise ValueError("duplicate symbol %r" % sym)
            index[sym] = i
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._index

    def id_of(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise OOVError("unknown symbol: %s" % symbol) from None

    def symbol(self, token_id: int) -> str:
        return self.symbols[token_id]

    @property
    def has_blank(self) -> bool:
        return self.symbols[0] == BLANK

    def require_blank(self) -> None:
        if not self.has_blank:
            raise VocabMismatchError(
                "CTC vocabulary must have %r at id 0" % BLANK)


def load_vocabulary(path: str | os.PathLike) -> Vocabulary:
    """Load a one-symbol-per-line UTF-8 vocabulary file."""
    try:
        return Vocabulary(tuple(line for _, line in read_lines(path)))
    except ValueError as exc:
        raise FormatError("%s: %s" % (path, exc)) from None


def save_vocabulary(vocab: Vocabulary, path: str | os.PathLike) -> None:
    write_lines(path, vocab.symbols)


@dataclass(frozen=True)
class PosteriorMatrix:
    """Frame-by-symbol natural-log posterior matrix with its symbol table.

    values is a read-only float32 array of shape (T, V); every row must be a
    normalized log-distribution (|logsumexp| <= 1e-3) with finite entries.
    """

    values: np.ndarray
    vocab: Vocabulary

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.values, dtype=np.float32)
        if arr.ndim != 2:
            raise ValueError("posterior matrix must be 2-dimensional")
        t, v = arr.shape
        if t < 1 or v < 1:
            raise ValueError("posterior matrix must be at least 1x1")
        if v != len(self.vocab):
            raise ValueError(
                "matrix has %d symbols but vocabulary has %d" % (v, len(self.vocab)))
        if not np.isfinite(arr).all():
            raise ValueError("non-finite value")
        rows = arr.astype(np.float64)
        m = rows.max(axis=1, keepdims=True)
        lse = m[:, 0] + np.log(np.exp(rows - m).sum(axis=1))
        if np.abs(lse).max() > _ROW_NORM_TOL:
            raise ValueError("unnormalized posteriors")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def frames(self) -> int:
        return self.values.shape[0]

    @property
    def symbols(self) -> int:
        return self.values.shape[1]


def load_posteriors(path: str | os.PathLike, vocab: Vocabulary) -> PosteriorMatrix:
    """Load an FPM1 binary posterior file against a known vocabulary.

    Layout: magic "FPM1", little-endian uint32 T and V, then T*V float32
    natural-log posteriors in row-major order.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _FPM_MAGIC:
        raise FormatError("%s: bad magic" % path)
    if len(blob) < 12:
        raise FormatError("%s: truncated payload" % path)
    t, v = struct.unpack("<II", blob[4:12])
    expected = 12 + 4 * t * v
    if len(blob) < expected:
        raise FormatError("%s: truncated payload" % path)
    if len(blob) > expected:
        raise FormatError("%s: trailing bytes after payload" % path)
    if v != len(vocab):
        raise FormatError(
            "%s: matrix has %d symbols but vocabulary has %d" % (path, v, len(vocab)))
    arr = np.frombuffer(blob, dtype="<f4", offset=12).reshape(t, v).copy()
    try:
        return PosteriorMatrix(arr, vocab)
    except ValueError as exc:
        raise FormatError("%s: %s" % (path, exc)) from None


def write_posteriors(matrix: PosteriorMatrix, path: str | os.PathLike) -> None:
    with open(path, "wb") as fh:
        fh.write(_FPM_MAGIC)
        fh.write(struct.pack("<II", matrix.frames, matrix.symbols))
        fh.write(matrix.values.astype("<f4").tobytes())


def detokenize(tokens, vocab: Vocabulary) -> list[str]:
    """Collapse wordpiece tokens into words.

    A token whose string starts with the word-boundary marker opens a new word
    (marker stripped); any other token continues the current word. A leading
    non-boundary token has no word to continue and is an error.
    """
    words: list[str] = []
    for tid in tokens:
        sym = vocab.symbol(tid)
        if sym.startswith(WORD_BOUNDARY):
            words.append(sym[len(WORD_BOUNDARY):])
        elif not words:
            raise DanglingTokenError("dangling continuation token: %s" % sym)
        else:
            words[-1] += sym
    return words


def tokenize(words, vocab: Vocabulary) -> tuple[int, ...]:
    """Greedy longest-match re-tokenization of words into vocabulary pieces."""
    out: list[int] = []
    for word in words:
        s = WORD_BOUNDARY + word
        pos = 0
        while pos < len(s):
            match = None
            for end in range(len(s), pos, -1):
                piece = s[pos:end]
                if piece in vocab:
                    match = piece
                    break
            if match is None:
                raise OOVError("word not coverable by vocabulary: %s" % word)
            out.append(vocab.id_of(match))
            pos += len(match)
    return tuple(out)


@dataclass(frozen=True)
class ScoreBundle:
    """Per-hypothesis log-score components; am is absent until rescoring.

    e2e, lm and ilm are finite, since a zero fusion weight times an infinite
    score is NaN; am may also be -inf (a floored hypothesis), because fusion
    skips the am term at weight 0.
    """

    e2e: float
    lm: float = 0.0
    ilm: float = 0.0
    am: float | None = None

    def __post_init__(self) -> None:
        for name in ("e2e", "lm", "ilm"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError("non-finite %s score" % name)
        if self.am is not None and not (math.isfinite(self.am) or self.am == MINUS_INF):
            raise ValueError("am score must be finite or -inf")


@dataclass(frozen=True)
class Hypothesis:
    tokens: tuple[int, ...]
    scores: ScoreBundle

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))


@dataclass(frozen=True)
class NBestList:
    """Ranked hypotheses for one utterance; token sequences are unique."""

    utterance_id: str
    hypotheses: tuple[Hypothesis, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "hypotheses", tuple(self.hypotheses))
        if not self.hypotheses:
            raise ValueError("empty N-best list")
        seen = set()
        for hyp in self.hypotheses:
            if hyp.tokens in seen:
                raise ValueError("duplicate token sequence in N-best list")
            seen.add(hyp.tokens)

    def __len__(self) -> int:
        return len(self.hypotheses)

    def top(self) -> Hypothesis:
        return self.hypotheses[0]


@dataclass(frozen=True)
class FusionWeights:
    lambda_am: float = 0.0
    lambda_lm: float = 0.0
    lambda_ilm: float = 0.0

    def __post_init__(self) -> None:
        for name in ("lambda_am", "lambda_lm", "lambda_ilm"):
            val = getattr(self, name)
            if not math.isfinite(val) or val < 0.0:
                raise ValueError("%s must be finite and >= 0" % name)


@dataclass(frozen=True)
class Lexicon:
    """word -> ((phoneme ids, prior), ...); priors per word sum to 1."""

    entries: dict

    def pronunciations(self, word: str):
        try:
            return self.entries[word]
        except KeyError:
            raise OOVError("OOV word: %s" % word) from None


def parse_lexicon(lines, phoneme_vocab: Vocabulary) -> Lexicon:
    """Build a Lexicon from TSV lines: word [TAB prob] TAB "ph1 ph2 ...".

    Within one word either every pronunciation carries an explicit probability
    or none does; explicit probabilities must lie in (0, 1]. Priors are
    normalized to sum to 1 per word (uniform when absent).
    """
    raw: dict[str, list[tuple[tuple[int, ...], float | None]]] = {}
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) == 2:
            word, prob, phones = fields[0], None, fields[1]
        elif len(fields) == 3:
            word, phones = fields[0], fields[2]
            try:
                prob = float(fields[1])
            except ValueError:
                raise FormatError(
                    "line %d: malformed probability %r" % (lineno, fields[1])) from None
            if not (0.0 < prob <= 1.0):
                raise FormatError(
                    "line %d: probability outside (0,1]" % lineno)
        else:
            raise FormatError("line %d: expected 2 or 3 tab-separated fields" % lineno)
        if not word:
            raise FormatError("line %d: empty word" % lineno)
        syms = phones.split()
        if not syms:
            raise FormatError("line %d: empty pronunciation" % lineno)
        try:
            phoneme_ids = tuple(phoneme_vocab.id_of(p) for p in syms)
        except OOVError as exc:
            raise FormatError("line %d: %s" % (lineno, exc)) from None
        raw.setdefault(word, [])
        for existing, _ in raw[word]:
            if existing == phoneme_ids:
                raise FormatError(
                    "line %d: duplicate pronunciation for %r" % (lineno, word))
        raw[word].append((phoneme_ids, prob))
    if not raw:
        raise FormatError("empty lexicon")
    entries: dict[str, tuple[tuple[tuple[int, ...], float], ...]] = {}
    for word, prons in raw.items():
        probs = [p for _, p in prons]
        if all(p is None for p in probs):
            norm = [1.0 / len(prons)] * len(prons)
        elif any(p is None for p in probs):
            raise FormatError(
                "word %r mixes explicit and missing probabilities" % word)
        else:
            total = sum(probs)
            norm = [p / total for p in probs]
            if 0.0 in norm:
                raise FormatError(
                    "word %r: a probability normalizes to 0" % word)
        entries[word] = tuple(
            (phones, prior) for (phones, _), prior in zip(prons, norm))
    return Lexicon(entries)


def load_lexicon(path: str | os.PathLike, phoneme_vocab: Vocabulary) -> Lexicon:
    lines = [line for _, line in read_lines(path)]
    try:
        return parse_lexicon(lines, phoneme_vocab)
    except FormatError as exc:
        raise FormatError("%s: %s" % (path, exc)) from None


_NA = "NA"


def write_nbest(nbest_lists, vocab: Vocabulary, path: str | os.PathLike) -> None:
    """Write N-best lists as TSV: utt_id, rank, e2e, lm, ilm, am, text.

    The text column is the space-joined token strings (boundary markers kept),
    so reading the file back recovers the exact token sequences.
    """
    def lines():
        for nbest in nbest_lists:
            for rank, hyp in enumerate(nbest.hypotheses, start=1):
                s = hyp.scores
                am = _NA if s.am is None else repr(s.am)
                text = " ".join(vocab.symbol(t) for t in hyp.tokens)
                yield "%s\t%d\t%r\t%r\t%r\t%s\t%s" % (
                    nbest.utterance_id, rank, s.e2e, s.lm, s.ilm, am, text)

    write_lines(path, lines())


def load_nbest(path: str | os.PathLike, vocab: Vocabulary) -> list[NBestList]:
    """Read an N-best TSV back into NBestList objects (file order kept)."""
    per_utt: dict[str, list[Hypothesis]] = {}
    for lineno, line in read_lines(path):
        if not line:
            continue
        fields = line.split("\t")
        try:
            if len(fields) != 7:
                raise FormatError("expected 7 fields, got %d" % len(fields))
            utt, rank_s, e2e_s, lm_s, ilm_s, am_s, text = fields
            rank = int(rank_s)
            scores = ScoreBundle(
                e2e=float(e2e_s), lm=float(lm_s), ilm=float(ilm_s),
                am=None if am_s == _NA else float(am_s))
            hyps = per_utt.setdefault(utt, [])
            if rank != len(hyps) + 1:
                raise FormatError("rank %d out of order for %s" % (rank, utt))
            tokens = tuple(vocab.id_of(sym) for sym in text.split(" ") if sym)
        except (ValueError, ToolkitError) as exc:
            raise FormatError("%s: line %d: %s" % (path, lineno, exc)) from None
        hyps.append(Hypothesis(tokens, scores))
    out = []
    for utt, hyps in per_utt.items():
        try:
            out.append(NBestList(utt, tuple(hyps)))
        except ValueError as exc:
            raise FormatError("%s: %s: %s" % (path, utt, exc)) from None
    return out


def _tab_lines(path):
    """(line number, key, rest) of each non-blank "key TAB rest" line; keys
    are unique."""
    seen: set[str] = set()
    for lineno, line in read_lines(path):
        if not line:
            continue
        if "\t" not in line:
            raise FormatError("%s: line %d: missing tab" % (path, lineno))
        key, rest = line.split("\t", 1)
        if key in seen:
            raise FormatError(
                "%s: line %d: duplicate utterance %s" % (path, lineno, key))
        seen.add(key)
        yield lineno, key, rest


def load_transcripts(path: str | os.PathLike) -> list[tuple[str, tuple[str, ...]]]:
    """Read "utt_id TAB text" transcript lines; text may be empty, ids unique."""
    return [(utt, tuple(text.split())) for _, utt, text in _tab_lines(path)]


def write_transcripts(entries, path: str | os.PathLike) -> None:
    write_lines(path, ("%s\t%s" % (utt, " ".join(words)) for utt, words in entries))


def load_manifest(path: str | os.PathLike) -> list[tuple[str, str]]:
    """Read an "utt_id TAB path" list file; paths resolve against the file.

    A path with a NUL byte names no file and is a FormatError.
    """
    base = os.path.dirname(os.path.abspath(path))
    entries = []
    for lineno, utt, rel in _tab_lines(path):
        if "\0" in rel:
            raise FormatError("%s: line %d: NUL byte in path" % (path, lineno))
        entries.append((utt, os.path.join(base, rel)))
    return entries


def write_manifest(entries, path: str | os.PathLike) -> None:
    base = os.path.dirname(os.path.abspath(path))
    write_lines(path, (
        "%s\t%s" % (utt, os.path.relpath(target, base)) for utt, target in entries))


def with_am(hyp: Hypothesis, am: float) -> Hypothesis:
    return Hypothesis(hyp.tokens, replace(hyp.scores, am=am))
