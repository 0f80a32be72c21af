"""First pass: CTC prefix beam search with external-LM shallow fusion and
internal-LM negation, run over a batch of utterances at once.

Hypotheses are ranked by e2e + lambda_lm * lm - lambda_ilm * ilm. LM terms
are charged once per emitted token (never on blank or repeat-collapse) with
the history padded by a single sentence start; no end-of-sentence term is
added in this pass. The last frame's survivors are ranked by
fusion.rank_hypotheses, ties to the lexicographically smaller token-id
sequence. With a beam at least as wide as the number of live prefixes the
e2e score of every returned hypothesis is the exact CTC probability.

The batch step. decode_batch sorts a batch by frame count, longest first,
so the utterances still running at frame t are its first rows, and holds
every beam in (utterance x beam) arrays: blank-ending and nonblank-ending
log mass p_b and p_nb, their log_add total, the LM and ILM totals, the
last symbol, the prefix id and the parent's prefix id. A padding slot has
id -1 and -inf mass. Each frame is one array step over the (utterance x
beam x symbol) extension candidates of every running utterance (Hannun et
al. 2014, arXiv:1408.2873; batched as in ESPnet's BatchBeamSearch,
Watanabe et al. 2018). An extension's mass is its beam entry's total plus
the frame's log-posterior; on the repeat column only the blank-ending mass
extends, since a genuine repeated label needs a blank in between.
Unreachable (-inf) extensions are dropped. A beam entry finds its parent
in its own beam by prefix id, and the parent's extension then folds into
the entry's nonblank mass instead of being a new candidate. Prefix ids
come from a per-batch table keyed by parent id * symbols + symbol, so
equal prefixes get equal ids. The kept set is exactly the top beam_width
candidates by (-fused, tokens): np.partition along the candidate axis
finds each utterance's width-th score, and only an utterance whose
candidates tied with that score do not all fit builds token tuples to
order them. Arrays are sized by the live prefixes, never by beam_width.

Exactness. Additions, maxima and comparisons in NumPy round as Python's
float operations do, and they run in the scalar definition's order. An
array log_add would not: NumPy's exp is not libm's on every machine, so
core.log_add_array maps math.exp and math.log1p over lists. A prefix gets
at most two nonblank terms, its repeat-collapse and its parent's
extension, and log_add is exactly symmetric, so the fold has the bits of
a scalar loop in any order.

The chunk rule. A batch holds batch_size(config, symbols) utterances:
BATCH_CELLS // (beam_width * symbols), and at least one, so one (utterance
x beam x symbol) array of a batch has at most BATCH_CELLS float64 cells.
The CLI loads and decodes a --list in chunks of that size.

LM and ILM scores come from NGramModel.conditional_row, which trims <s> +
prefix to each model's state (its last order-1 symbols) and memoises one
row of conditionals over the vocabulary per state, filled one backoff
level at a time with the bits of NGramModel.conditional, so one decode
command, or one --jobs worker, fills each state once across all
utterances. A batch keeps each state's pair of memoised rows (LM, ILM)
under a small state index, and each frame gathers them per beam entry
into one (utterance x beam x symbol) array per model, so a batch holds
no copy of a row between frames. A conditional overflows to -inf when a
backoff weight plus a log-prob does, and a sum of finite ones over a
prefix can overflow too: an LM or ILM total that is not finite raises
OverflowError before any weight multiplies it.

Each survivor's CTC total log_add(p_b, p_nb) is carried to the next frame:
a kept beam entry's is the total it was ranked by, and a new extension's is
its nonblank mass, since log_add(-inf, x) is x. With no LM and no ILM the
weights are 0 and the fused score is that total, so a frame builds no LM
arrays and survivors keep lm = ilm = 0.0 (x + 0.0 - 0.0 differs from x
only in the sign of zero, which no comparison sees). With a model
attached, the live candidates (never a padding cell) are fused by
fusion.fuse_scores, which applies its rule: a weight times a score that
overflows to -inf ranks silently, and a NaN candidate score raises
ValueError.

Errors. The error raised is the first failing utterance's in input order,
as if each utterance were decoded alone: a batch that raises anything is
decoded again one utterance at a time, in order, by the same search.
"""
from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .core import (
    MINUS_INF,
    Hypothesis,
    NBestList,
    PosteriorMatrix,
    ScoreBundle,
    FusionWeights,
    VocabMismatchError,
    log_add_array,
)
from .fusion import fuse_scores, rank_hypotheses
from .ngram import SENTENCE_START, NGramModel

# Cells of one (utterance x beam x symbol) float64 array of a batch; see
# batch_size.
BATCH_CELLS = 1 << 14


@dataclass(frozen=True)
class BeamConfig:
    """Prefix beam search settings.

    Survivors are ranked by fusion.rank_hypotheses with these weights.
    lambda_am must be 0: acoustic-model fusion happens in the second pass.
    Attached LMs must cover every non-blank symbol of the posterior
    vocabulary.
    """

    beam_width: int = 8
    n_best: int | None = None
    weights: FusionWeights = FusionWeights()
    lm: NGramModel | None = None
    ilm: NGramModel | None = None

    def __post_init__(self) -> None:
        if self.beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        if self.n_best is None:
            object.__setattr__(self, "n_best", min(10, self.beam_width))
        if self.n_best < 1 or self.n_best > self.beam_width:
            raise ValueError("n_best must be in 1..beam_width")
        if self.weights.lambda_am != 0.0:
            raise ValueError("lambda_am must be 0 in the first pass")
        if self.weights.lambda_lm > 0.0 and self.lm is None:
            raise ValueError("lambda_lm > 0 requires an external LM")
        if self.weights.lambda_ilm > 0.0 and self.ilm is None:
            raise ValueError("lambda_ilm > 0 requires an internal LM")


def _check_lm_coverage(model: NGramModel, symbols, what: str) -> None:
    missing = [s for s in symbols[1:] if s not in model.vocab]
    if missing:
        raise VocabMismatchError(
            "%s does not cover posterior symbols: %s" % (what, " ".join(missing)))


def batch_size(config: BeamConfig, symbols: int) -> int:
    """Utterances per search batch under the chunk rule: BATCH_CELLS //
    (beam_width * symbols), and at least one."""
    return max(1, BATCH_CELLS // (config.beam_width * symbols))


def prefix_beam_search(posteriors: PosteriorMatrix, config: BeamConfig,
                       utterance_id: str = "utt") -> NBestList:
    """Decode one utterance into an NBestList: decode_batch on a batch of one.

    Parameters
    ----------
    posteriors : PosteriorMatrix
        CTC log-posteriors; the vocabulary must carry blank at id 0.
    config : BeamConfig
        Beam width, N-best size, fusion weights and optional LM/ILM.

    Returns
    -------
    NBestList with 1..n_best unique hypotheses ranked by the fused
    first-pass score; each ScoreBundle carries e2e/lm/ilm, am stays None.
    """
    return decode_batch([posteriors], config, [utterance_id])[0]


def decode_batch(matrices, config: BeamConfig, utterance_ids) -> list[NBestList]:
    """Decode utterances together: one NBestList per matrix, in input order.

    The matrices share one vocabulary, with blank at id 0; utterance_ids
    names them in the same order. They are searched in batches of
    batch_size(config, symbols). A batch that raises is decoded again one
    utterance at a time, so the error raised is the first failing
    utterance's, as if each were decoded alone.
    """
    if not matrices:
        return []
    vocab = matrices[0].vocab
    if any(m.vocab != vocab for m in matrices):
        raise ValueError("decode_batch: the matrices must share one vocabulary")
    vocab.require_blank()
    if config.lm is not None:
        _check_lm_coverage(config.lm, vocab.symbols, "external LM")
    if config.ilm is not None:
        _check_lm_coverage(config.ilm, vocab.symbols, "internal LM")
    size = batch_size(config, len(vocab))
    results = []
    for start in range(0, len(matrices), size):
        batch = matrices[start:start + size]
        ids = utterance_ids[start:start + size]
        try:
            results += _search(batch, ids, config)
        except Exception:
            # One utterance at a time, the first to fail raises its error.
            for matrix, utt in zip(batch, ids):
                _search([matrix], [utt], config)
            raise  # none fails alone: the fault is the batch step's
    return results


def _search(matrices, utterance_ids, config: BeamConfig) -> list[NBestList]:
    """One batch through the frame loop: an NBestList per matrix, in order."""
    syms = matrices[0].vocab.symbols
    n_sym, n_ext = len(syms), len(syms) - 1
    tokens = syms[1:]
    width = config.beam_width
    models = (config.lm, config.ilm)
    fusing = any(m is not None for m in models)
    k = max((m.order - 1 for m in models if m is not None), default=0)
    order = sorted(range(len(matrices)), key=lambda u: -matrices[u].frames)
    frames = [matrices[u].frames for u in order]
    values = [matrices[u].values for u in order]

    # The prefix table: prefix id i extends prefix p by symbol c, where
    # key_of[i] is p * n_sym + c, and ids maps a key to its id; id 0 is the
    # empty prefix. With a model attached, the (LM, ILM) conditional rows
    # after prefix i are rows[state[i]], the models' own memoised rows, one
    # pair per distinct last k symbols (the longest model state); state 0,
    # and a model that is not attached, has a row of zeros.
    ids, key_of, state = {}, [0], [1]
    zeros = np.zeros(n_ext)
    rows, tails, row_of, moves = [(zeros, zeros)], [None], {}, {}

    def state_row(tail):
        """The rows index of the state after tail, entered if new."""
        row = row_of.get(tail)
        if row is None:
            row = row_of[tail] = len(rows)
            history = (SENTENCE_START,) + tuple(syms[i] for i in tail)
            rows.append(tuple(zeros if model is None else
                              model.conditional_row(history, tokens)
                              for model in models))
            tails.append(tail)
        return row

    def extend(parents, added):
        """Prefix ids of parents extended by added, new ones entered."""
        keys = (parents * n_sym + added).tolist()
        new = [key for key in dict.fromkeys(keys) if key not in ids]
        if new:
            ids.update(zip(new, range(len(key_of), len(key_of) + len(new))))
            key_of.extend(new)
            for key in new if fusing else ():
                p, c = divmod(key, n_sym)
                move = state[p] * n_sym + c
                if move not in moves:
                    tail = tails[state[p]] + (c,)
                    moves[move] = state_row(tail[-k:] if k else ())
                state.append(moves[move])
        return list(map(ids.__getitem__, keys))

    def tokens_of(i):
        out = []
        while i:
            i, c = divmod(key_of[i], n_sym)
            out.append(c)
        return tuple(out[::-1])

    if fusing:
        state_row(())  # state 1, the empty prefix's

    # Beam state, one row per running utterance, packed as floats (p_b,
    # p_nb, total, LM total, ILM total) and ints (last symbol, prefix id,
    # parent id, state). Slots past a row's live prefixes are padding: -inf
    # mass, last symbol 0, id -1, parent id -3 (the empty prefix's is -2)
    # and state 0, so they extend to nothing.
    n = len(order)
    floats = np.zeros((n, 1, 5))
    floats[:, :, 1] = MINUS_INF
    ints = np.array([[[0, 0, -2, 1]]] * n, np.intp)
    results = [None] * n

    def finish(r):
        survivors = [
            Hypothesis(tokens_of(i), ScoreBundle(e2e=f[2], lm=f[3], ilm=f[4]))
            for i, f in zip(ints[r, :, 1].tolist(), floats[r].tolist()) if i >= 0]
        ranked = rank_hypotheses(survivors, config.weights)
        results[order[r]] = NBestList(utterance_ids[order[r]],
                                      tuple(ranked[:config.n_best]))

    running = n
    for t in range(frames[0]):
        a, slots = running, floats.shape[1]
        floats, ints = floats[:a], ints[:a]
        p_b, p_nb, total, s_lm, s_ilm = floats.transpose(2, 0, 1)
        last, pid, ppid, srow = ints.transpose(2, 0, 1)
        row = np.array([v[t] for v in values[:a]], np.float64)
        # Candidate columns of row u: its beam slots, then the extension of
        # slot i by symbol c at slots + i * n_ext + c - 1. scores holds their
        # e2e totals (-inf where not live) and valid marks the live ones;
        # contrib and is_new are (utterance x beam x symbol) views of the
        # extension columns.
        scores = np.empty((a, slots * n_sym))
        valid = np.empty(scores.shape, bool)
        contrib = scores[:, slots:].reshape(a, slots, n_ext)
        is_new = valid[:, slots:].reshape(a, slots, n_ext)
        np.add(total[:, :, None], row[:, None, 1:], out=contrib)
        ru, ri = (last > 0).nonzero()
        rl = last[ru, ri]
        contrib[ru, ri, rl - 1] = p_b[ru, ri] + row[ru, rl]

        # Each beam entry keeps its blank mass, collapses its repeat frames
        # and takes its parent's extension, if the parent is in its beam;
        # that extension is then no candidate of its own.
        self_b = total + row[:, :1]
        self_nb = np.full(self_b.shape, MINUS_INF)
        self_nb[ru, ri] = p_nb[ru, ri] + row[ru, rl]
        is_parent = ppid[:, :, None] == pid[:, None, :]
        fu, fi, fj = np.unravel_index(is_parent.ravel().nonzero()[0], is_parent.shape)
        fc = last[fu, fi] - 1
        self_nb[fu, fi] = log_add_array(self_nb[fu, fi], contrib[fu, fj, fc])
        contrib[fu, fj, fc] = MINUS_INF
        np.not_equal(contrib, MINUS_INF, out=is_new)
        self_total = log_add_array(self_b, self_nb)
        scores[:, :slots] = self_total
        valid[:, :slots] = pid >= 0

        # The fused scores of the live candidates: their e2e totals unless a
        # model is attached; -inf elsewhere.
        fused = scores
        if fusing:
            picked = [rows[r] for r in srow.ravel().tolist()]
            cands = []
            with np.errstate(over="ignore", invalid="ignore"):
                for m, (s, what) in enumerate(((s_lm, "external LM"),
                                               (s_ilm, "internal LM"))):
                    cand = np.empty(scores.shape)
                    cand[:, :slots] = s
                    grid = cand[:, slots:].reshape(a, slots, n_ext)
                    conditionals = np.array([pair[m] for pair in picked])
                    np.add(s[:, :, None], conditionals.reshape(a, slots, n_ext), out=grid)
                    if not np.isfinite(grid).all():
                        bad = ~np.isfinite(grid).all(axis=(1, 2))
                        raise OverflowError("%s total overflows float64 in %s" % (
                            what, utterance_ids[order[int(bad.argmax())]]))
                    cands.append(cand)
                live = valid.ravel().nonzero()[0]
                fused_live = fuse_scores(SimpleNamespace(
                    e2e=scores.ravel()[live], lm=cands[0].ravel()[live],
                    ilm=cands[1].ravel()[live], am=None), config.weights)
            fused = np.full(scores.shape, MINUS_INF)
            fused.ravel()[live] = fused_live

        # Keep each row's width best by (-fused, prefix): everything at or
        # above its width-th score, the cut, and where more than width
        # candidates tie with the cut, the smallest prefixes among those.
        keep = valid
        n_cand = scores.shape[1]
        if n_cand > width:
            kth = n_cand - width
            cut = np.partition(fused, kth, axis=1)[:, kth, None]
            keep = fused >= cut
            if (cut == MINUS_INF).any():
                keep &= valid
            for u in (keep.sum(axis=1) > width).nonzero()[0].tolist():
                beam = pid[u].tolist()

                def prefix(col):
                    if col < slots:
                        return tokens_of(beam[col])
                    i, c = divmod(col - slots, n_ext)
                    return tokens_of(beam[i]) + (c + 1,)

                above = fused[u] > cut[u]
                tied = (keep[u] & ~above).nonzero()[0].tolist()
                keep[u, sorted(tied, key=prefix)[width - int(above.sum()):]] = False

        # Row u's kept candidates fill its first slots, in column order: a
        # beam entry's own state, or the state of the extension at ext of
        # slot src by symbol off % n_ext + 1. A new extension's blank mass
        # is -inf, so its total is its nonblank mass: log_add(-inf, x) is x.
        ku, col = np.divmod(keep.ravel().nonzero()[0], n_cand)
        counts = np.bincount(ku, minlength=a)
        slot = np.arange(len(ku)) - np.repeat(counts.cumsum() - counts, counts)
        ext = (col >= slots).nonzero()[0]
        off = col[ext] - slots
        src = col.copy()
        src[ext] = off // n_ext
        own = np.stack((self_b, self_nb, self_total, s_lm, s_ilm), axis=2)
        kept_f = own[ku, src]
        kept_i = ints[ku, src]
        at = ku[ext], col[ext]
        kept_f[ext, 0] = MINUS_INF
        kept_f[ext, 1] = kept_f[ext, 2] = scores[at]
        kept_i[ext, 0] = off % n_ext + 1
        kept_i[ext, 2] = kept_i[ext, 1]
        kept_i[ext, 1] = new_ids = extend(kept_i[ext, 2], kept_i[ext, 0])
        if fusing:
            kept_f[ext, 3] = cands[0][at]
            kept_f[ext, 4] = cands[1][at]
            kept_i[ext, 3] = [state[i] for i in new_ids]
        floats = np.empty((a, int(counts.max()), 5))
        floats[...] = (MINUS_INF, MINUS_INF, MINUS_INF, 0.0, 0.0)
        floats[ku, slot] = kept_f
        ints = np.empty(floats.shape[:2] + (4,), np.intp)
        ints[...] = (0, -1, -3, 0)
        ints[ku, slot] = kept_i
        while running and frames[running - 1] == t + 1:
            running -= 1
            finish(running)
    return results
