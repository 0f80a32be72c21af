"""Backoff n-gram language model: ARPA reading/writing, scoring, perplexity.

ARPA files store log10 probabilities; everything is converted to natural log
at load time and stays natural log in memory. Scoring pads the history with a
single sentence-start symbol and never emits a probability for it.
"""
from __future__ import annotations

import math
import os
import re
from collections import Counter

import numpy as np

from .core import FormatError, OOVError, read_lines, write_lines

SENTENCE_START = "<s>"
SENTENCE_END = "</s>"
UNKNOWN = "<unk>"

LN10 = math.log(10.0)

# log10 probability conventionally given to symbols that must exist but never
# be predicted (the sentence-start symbol).
_NEVER_PREDICTED_LOG10 = -99.0


class NGramModel:
    """Backoff n-gram model over token strings, natural-log internals."""

    def __init__(self, order: int, tables: list[dict]) -> None:
        if order < 1 or len(tables) != order:
            raise ValueError("tables must cover orders 1..order")
        self.order = order
        # tables[k-1]: dict mapping k-tuples of tokens to (logprob, backoff).
        self._tables = tables
        self.vocab = frozenset(key[0] for key in tables[0])
        # (LM state, token tuple) -> read-only row of conditionals.
        self._rows: dict[tuple, np.ndarray] = {}
        # Built by the first conditional_row call: token -> column, the
        # unigram log-probs by column, and per context its explicit
        # children as (columns, log-probs) arrays. Then per token tuple of a
        # row, the columns it gathers.
        self._columns: dict[str, int] | None = None
        self._unigrams: np.ndarray | None = None
        self._children: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        self._gathers: dict[tuple, np.ndarray] = {}

    @property
    def has_unk(self) -> bool:
        return UNKNOWN in self.vocab

    def conditional(self, context: tuple[str, ...], token: str,
                    use_unk: bool = False) -> float:
        """Natural-log P(token | context) resolved with backoff.

        context may be any length; only the last order-1 symbols are used.
        Unknown tokens raise OOVError unless use_unk is set and the model
        has an <unk> entry to map them to.
        """
        if token not in self.vocab:
            if use_unk and self.has_unk:
                token = UNKNOWN
            else:
                raise OOVError("token not in LM vocabulary: %s" % token)
        if self.order > 1:
            ctx = tuple(context[-(self.order - 1):])
        else:
            ctx = ()
        acc = 0.0
        while True:
            entry = self._tables[len(ctx)].get(ctx + (token,))
            if entry is not None:
                return acc + entry[0]
            if not ctx:
                # The unigram exists (vocab membership checked above).
                raise AssertionError("unigram table missing %r" % token)
            bow = self._tables[len(ctx) - 1].get(ctx)
            if bow is not None:
                acc += bow[1]
            ctx = ctx[1:]

    def conditional_row(self, context: tuple[str, ...],
                        tokens: tuple[str, ...]) -> np.ndarray:
        """Read-only float64 array of conditional(context, t) for t in tokens.

        Memoised per LM state (the last order-1 symbols of context) and
        token tuple for the life of the model. The row is filled one
        backoff level at a time from the model's tables, without calling
        conditional: every token gets the empty context's backoff total
        plus its unigram log-probability, then each context of the state,
        shortest first, overwrites its explicit children with its own
        backoff total plus their log-probabilities. The totals are
        conditional's float additions in its order, and float64 addition
        in NumPy rounds as Python's does, so every entry has the bits of
        conditional, including -inf where a total overflows.
        """
        state = tuple(context[-(self.order - 1):]) if self.order > 1 else ()
        row = self._rows.get((state, tokens))
        if row is None:
            if self._columns is None:
                self._index_children()
            gather = self._gathers.get(tokens)
            if gather is None:
                columns = self._columns
                for token in tokens:
                    if token not in columns:
                        raise OOVError("token not in LM vocabulary: %s" % token)
                gather = np.array([columns[t] for t in tokens], dtype=np.intp)
                self._gathers[tokens] = gather
            levels = []  # (context, its backoff total), longest first
            acc = 0.0
            ctx = state
            while ctx:
                levels.append((ctx, acc))
                bow = self._tables[len(ctx) - 1].get(ctx)
                if bow is not None:
                    acc += bow[1]
                ctx = ctx[1:]
            with np.errstate(over="ignore"):
                full = acc + self._unigrams
                for ctx, total in reversed(levels):
                    children = self._children.get(ctx)
                    if children is not None:
                        full[children[0]] = total + children[1]
            row = full[gather]
            row.setflags(write=False)
            self._rows[(state, tokens)] = row
        return row

    def _index_children(self) -> None:
        """Index the tables for conditional_row: a column per vocabulary
        token, the unigram log-probs by column, and per context the columns
        and log-probs of its explicit children."""
        columns = {gram[0]: i for i, gram in enumerate(self._tables[0])}
        grouped: dict[tuple, tuple[list, list]] = {}
        for table in self._tables[1:]:
            for gram, (logp, _) in table.items():
                column = columns.get(gram[-1])
                if column is not None:  # conditional never reaches the rest
                    ids, logps = grouped.setdefault(gram[:-1], ([], []))
                    ids.append(column)
                    logps.append(logp)
        self._unigrams = np.array([logp for logp, _ in self._tables[0].values()],
                                  dtype=np.float64)
        self._children = {
            ctx: (np.array(ids, dtype=np.intp), np.array(logps, dtype=np.float64))
            for ctx, (ids, logps) in grouped.items()}
        self._columns = columns

    def score_sequence(self, tokens, include_eos: bool = False,
                       use_unk: bool = False) -> float:
        """Total natural-log probability of a token sequence.

        History starts at <s>; with include_eos the </s> term is added.
        """
        history: list[str] = [SENTENCE_START]
        total = 0.0
        for token in tokens:
            total += self.conditional(tuple(history), token, use_unk=use_unk)
            history.append(token)
        if include_eos:
            total += self.conditional(tuple(history), SENTENCE_END, use_unk=use_unk)
        return total

    def perplexity(self, tokens) -> float:
        """exp(-score / (len + 1)) with the end-of-sentence term included;
        tokens may be any iterable, an iterator included. OverflowError if
        the perplexity is not finite."""
        tokens = list(tokens)
        score = self.score_sequence(tokens, include_eos=True)
        try:
            ppl = math.exp(-score / (len(tokens) + 1))
        except OverflowError:
            ppl = math.inf
        if not math.isfinite(ppl):
            raise OverflowError("perplexity of %d tokens overflows float64 "
                                "(log-prob %r)" % (len(tokens), score))
        return ppl

    def ngrams(self, k: int) -> dict:
        """The raw (logprob, backoff) table for k-grams (natural log)."""
        return self._tables[k - 1]


# int() refuses strings of more than 4300 digits; longer numbers do not match.
_COUNT_RE = re.compile(r"^ngram (\d{1,4300})=(\d{1,4300})$")
_SECTION_RE = re.compile(r"^\\(\d{1,4300})-grams:$")


def load_arpa(path: str | os.PathLike) -> NGramModel:
    """Parse an ARPA file into an NGramModel.

    Checks: declared counts match section contents, every higher-order gram's
    context exists at the next order down, log-probabilities are <= 0, every
    value is finite once scaled to natural log (so -1e308 is rejected), no
    duplicate grams. Backoff weights default to 0 (log) when absent. Blank
    lines and lines after \\end\\ are ignored.
    """
    counts: list[int] | None = None  # declared counts, from the \data\ line on
    tables: list[dict] | None = None  # one per order, once the counts end
    k = 0  # order of the open n-gram section

    def bad(what: str) -> FormatError:
        return FormatError("%s: line %d: %s" % (path, lineno, what))

    for lineno, line in read_lines(path):
        line = line.strip()
        if not line:
            continue
        if counts is None:
            if line != "\\data\\":
                raise FormatError("%s: expected \\data\\ header" % path)
            counts = []
            continue
        if tables is None:
            m = _COUNT_RE.match(line)
            if m:
                if int(m.group(1)) != len(counts) + 1:
                    raise FormatError("%s: non-consecutive ngram counts" % path)
                counts.append(int(m.group(2)))
                continue
            if not counts:
                raise FormatError("%s: no ngram counts declared" % path)
            tables = [dict() for _ in counts]
        if k and not line.startswith("\\"):
            fields = line.split()
            try:
                if len(fields) not in (k + 1, k + 2):
                    raise ValueError("field count")
                bow10 = float(fields.pop()) if len(fields) == k + 2 else 0.0
                logp10 = float(fields[0])
            except ValueError:
                raise bad("malformed line") from None
            logp, bow = logp10 * LN10, bow10 * LN10
            if not (math.isfinite(logp) and math.isfinite(bow)):
                raise bad("non-finite value")
            if logp > 0.0:
                raise bad("positive log-probability")
            gram = tuple(fields[1:])
            if gram in tables[k - 1]:
                raise bad("duplicate n-gram")
            if k > 1 and gram[:-1] not in tables[k - 2]:
                raise bad("n-gram referencing unseen context")
            tables[k - 1][gram] = (logp, bow)
            continue
        if line == "\\end\\":
            break
        m = _SECTION_RE.match(line)
        if not m:
            raise bad("unexpected line %r" % line)
        if int(m.group(1)) != k + 1 or k + 1 > len(counts):
            raise FormatError("%s: sections out of order" % path)
        k += 1
    else:
        if counts is None:
            raise FormatError("%s: missing \\data\\ header" % path)
        if not counts:
            raise FormatError("%s: no ngram counts declared" % path)
        raise FormatError("%s: missing \\end\\ marker" % path)
    if k != len(counts):
        raise FormatError("%s: missing n-gram sections" % path)
    for order, (declared, table) in enumerate(zip(counts, tables), start=1):
        if len(table) != declared:
            raise FormatError(
                "%s: %d-gram count mismatch (declared %d, found %d)"
                % (path, order, declared, len(table)))
    return NGramModel(len(counts), tables)


def write_arpa(model: NGramModel, path: str | os.PathLike) -> None:
    """Write the model in ARPA format (log10, 7 decimals, sorted grams)."""
    orders = range(1, model.order + 1)
    lines = ["\\data\\"] + ["ngram %d=%d" % (k, len(model.ngrams(k))) for k in orders]
    for k in orders:
        lines += ["", "\\%d-grams:" % k]
        for gram, (logp, bow) in sorted(model.ngrams(k).items()):
            line = "%.7f\t%s" % (logp / LN10, " ".join(gram))
            if bow != 0.0:
                line += "\t%.7f" % (bow / LN10)
            lines.append(line)
    write_lines(path, lines + ["", "\\end\\"])


def train_add_one(sentences, order: int, vocabulary=None) -> NGramModel:
    """Minimal add-one count-based backoff model over token strings.

    Each sentence is padded with one <s> and one </s>. Seen k-grams get
    (count+1)/(context_total+V) probabilities; backoff weights are computed
    so every conditional distribution sums to exactly 1 over the predicted
    vocabulary (all real tokens plus </s>, never <s>).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    sentences = [list(s) for s in sentences]
    predicted: set[str] = set()
    for sent in sentences:
        for tok in sent:
            if tok in (SENTENCE_START, SENTENCE_END):
                raise ValueError("sentence contains reserved symbol %r" % tok)
            predicted.add(tok)
    if vocabulary is not None:
        for tok in vocabulary:
            if tok not in (SENTENCE_START, SENTENCE_END):
                predicted.add(tok)
    if not predicted:
        raise ValueError("no tokens to train on")
    predicted.add(SENTENCE_END)
    vsize = len(predicted)

    counts: list[Counter] = [Counter() for _ in range(order)]
    for sent in sentences:
        seq = [SENTENCE_START] + sent + [SENTENCE_END]
        for k in range(1, order + 1):
            for i in range(len(seq) - k + 1):
                gram = tuple(seq[i:i + k])
                if gram[-1] == SENTENCE_START:
                    continue
                counts[k - 1][gram] += 1

    # Probabilities. Context totals are continuation sums, not standalone
    # counts, so sentence-final contexts stay consistent.
    probs: list[dict] = [dict() for _ in range(order)]
    ctx_totals: list[Counter] = [Counter() for _ in range(order)]
    for k in range(2, order + 1):
        for gram, c in counts[k - 1].items():
            ctx_totals[k - 1][gram[:-1]] += c
    total_tokens = sum(counts[0].values())
    for tok in sorted(predicted):
        probs[0][(tok,)] = (counts[0][(tok,)] + 1) / (total_tokens + vsize)
    for k in range(2, order + 1):
        for gram, c in sorted(counts[k - 1].items()):
            probs[k - 1][gram] = (c + 1) / (ctx_totals[k - 1][gram[:-1]] + vsize)

    # Backoff weights for every context that has continuations.
    bows: list[dict] = [dict() for _ in range(order)]
    for k in range(2, order + 1):
        by_ctx: dict[tuple, list] = {}
        for gram in probs[k - 1]:
            by_ctx.setdefault(gram[:-1], []).append(gram[-1])
        for ctx, toks in by_ctx.items():
            seen_hi = sum(probs[k - 1][ctx + (t,)] for t in toks)
            seen_lo = sum(probs[k - 2][ctx[1:] + (t,)] for t in toks)
            num = 1.0 - seen_hi
            den = 1.0 - seen_lo
            if den <= 1e-12 or num <= 1e-12:
                bows[k - 2][ctx] = 1.0
            else:
                bows[k - 2][ctx] = num / den

    tables: list[dict] = [dict() for _ in range(order)]
    for tok in sorted(predicted):
        gram = (tok,)
        bow = bows[0].get(gram, 1.0) if order > 1 else 1.0
        tables[0][gram] = (math.log(probs[0][gram]), math.log(bow))
    # <s> exists only as context; conventional tiny probability.
    sos = (SENTENCE_START,)
    bow = bows[0].get(sos, 1.0) if order > 1 else 1.0
    tables[0][sos] = (_NEVER_PREDICTED_LOG10 * LN10, math.log(bow))
    for k in range(2, order + 1):
        for gram in sorted(probs[k - 1]):
            bow = bows[k - 1].get(gram, 1.0) if k < order else 1.0
            tables[k - 1][gram] = (math.log(probs[k - 1][gram]), math.log(bow))
    return NGramModel(order, tables)
