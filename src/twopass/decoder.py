"""First pass: CTC prefix beam search with external-LM shallow fusion and
internal-LM negation.

Hypotheses are ranked by e2e + lambda_lm * lm - lambda_ilm * ilm. LM terms
are charged once per emitted token (never on blank or repeat-collapse) with
the history padded by a single sentence start; no end-of-sentence term is
added in this pass. The last frame's survivors are ranked by
fusion.rank_hypotheses, ties to the lexicographically smaller token-id
sequence. With a beam at least as wide as the number of live prefixes the
e2e score of every returned hypothesis is the exact CTC probability.

Each frame is one array step over the (beam x symbol) matrix of extension
candidates (Hannun et al. 2014, arXiv:1408.2873): extension mass and fused
scores are float64 arrays computed in the same operation order as the
scalar definitions, unreachable (-inf) extensions are dropped, and the
width-th best score is found with np.partition; candidates tied with it
are ordered by token tuple, so the kept set is exactly the top beam_width
by (-fused, tokens). A prefix already in the beam gets at most two
nonblank terms, its repeat-collapse and its parent's extension, which are
folded with the scalar log_add (exactly symmetric in its two arguments);
np.logaddexp is avoided because it rounds differently. LM and ILM scores
come from NGramModel.conditional_row, which trims <s> + prefix to each
model's state (its last order-1 symbols) and memoises one row of
conditionals over the vocabulary per state, filled one backoff level at a
time with the bits of NGramModel.conditional, so one decode command, or
one --jobs worker, fills each state once across all utterances. A
conditional overflows to -inf when a backoff weight plus a log-prob does,
and a sum of finite ones over a prefix can overflow too: an LM or ILM
total that is not finite raises OverflowError before any weight
multiplies it.

Each survivor's CTC total log_add(p_b, p_nb) is carried to the next frame:
a kept beam entry's is the total it was ranked by, and a new extension's is
its nonblank mass, since log_add(-inf, x) is x. With no LM and no ILM the
weights are 0 and the fused score is that total, so a frame builds no LM
arrays and survivors keep lm = ilm = 0.0 (x + 0.0 - 0.0 differs from x
only in the sign of zero, which no comparison sees). With a model
attached, the candidates are fused by fusion.fuse_scores, which applies
its rule: a weight times a score that overflows to -inf ranks silently,
and a NaN candidate score raises ValueError.
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
    log_add,
)
from .fusion import fuse_scores, rank_hypotheses
from .ngram import SENTENCE_START, NGramModel


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


def _candidate_totals(model, totals, rows, new_at, what: str, utterance_id: str):
    """LM totals of the candidates of one frame: each beam entry's own total,
    then each new extension new_at of the (beam x symbol) matrix, its
    prefix's total plus that row's conditional. OverflowError if one of
    the matrix's totals is not finite; without a model every entry is 0.0.
    The caller silences NumPy's overflow warning."""
    if model is None:
        return np.zeros(len(totals) + len(new_at))
    ext = np.array(totals)[:, None] + np.array(rows)
    if not np.isfinite(ext).all():
        raise OverflowError("%s total overflows float64 in %s" % (what, utterance_id))
    return np.concatenate((totals, ext.ravel()[new_at]))


def prefix_beam_search(posteriors: PosteriorMatrix, config: BeamConfig,
                       utterance_id: str = "utt") -> NBestList:
    """Decode one utterance into an NBestList.

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
    vocab = posteriors.vocab
    vocab.require_blank()
    syms = vocab.symbols
    lm, ilm = config.lm, config.ilm
    models = [m for m in (lm, ilm) if m is not None]
    if lm is not None:
        _check_lm_coverage(lm, syms, "external LM")
    if ilm is not None:
        _check_lm_coverage(ilm, syms, "internal LM")
    width = config.beam_width
    tokens = syms[1:]
    n_ext = len(tokens)
    k = max((m.order for m in models), default=1)

    def rows(prefix):  # k symbols hold any attached model's state
        history = (SENTENCE_START,) + tuple(syms[i] for i in prefix[-k:])
        return (None if lm is None else lm.conditional_row(history, tokens),
                None if ilm is None else ilm.conditional_row(history, tokens))

    # Beam entry i: prefixes[i] with log p(blank-ending) p_b[i], log
    # p(nonblank-ending) p_nb[i] and their log_add totals[i]; with a model
    # attached, also LM/ILM totals s_lm[i]/s_ilm[i] and the (LM, ILM)
    # conditional rows state_rows[i] of its state.
    prefixes = [()]
    p_b, p_nb, totals = [0.0], [MINUS_INF], [0.0]
    s_lm, s_ilm = [0.0], [0.0]
    state_rows = [rows(())] if models else []
    values = posteriors.values.astype(np.float64)
    for t in range(posteriors.frames):
        row = values[t]
        row_l = row.tolist()
        n = len(prefixes)
        # Extension of beam i by symbol c sits at [i, c - 1]; on the repeat
        # column only the blank-ending mass extends (a genuine repeated
        # label needs a blank in between).
        contrib = np.add.outer(totals, row[1:])
        rep = [i for i, prefix in enumerate(prefixes) if prefix]
        if rep:
            lasts = [prefixes[i][-1] for i in rep]
            contrib[rep, [c - 1 for c in lasts]] = (
                np.array([p_b[i] for i in rep]) + row[lasts])
        is_new = contrib != MINUS_INF

        # Each prefix already in the beam keeps its blank mass, collapses
        # its repeat frames and takes its parent's extension, if any.
        index = {prefix: i for i, prefix in enumerate(prefixes)}
        blank = row_l[0]
        self_b, self_nb, self_total = [], [], []
        for i, prefix in enumerate(prefixes):
            b = totals[i] + blank
            nb = MINUS_INF
            if prefix:
                nb = p_nb[i] + row_l[prefix[-1]]
                parent = index.get(prefix[:-1])
                if parent is not None:
                    at = (parent, prefix[-1] - 1)
                    nb = log_add(nb, contrib[at].item())
                    is_new[at] = False
            self_b.append(b)
            self_nb.append(nb)
            self_total.append(log_add(b, nb))

        # Candidates: the n beam entries, then the new extensions new_at.
        # Their e2e totals are the fused scores unless a model is attached.
        new_at = is_new.ravel().nonzero()[0]
        scores = np.concatenate((self_total, contrib.ravel()[new_at]))
        if models:
            with np.errstate(over="ignore", invalid="ignore"):
                cand_lm = _candidate_totals(
                    lm, s_lm, [r[0] for r in state_rows], new_at,
                    "external LM", utterance_id)
                cand_ilm = _candidate_totals(
                    ilm, s_ilm, [r[1] for r in state_rows], new_at,
                    "internal LM", utterance_id)
                fused = fuse_scores(SimpleNamespace(
                    e2e=scores, lm=cand_lm, ilm=cand_ilm, am=None), config.weights)
        else:
            fused = scores

        def candidate_prefix(pos):
            if pos < n:
                return prefixes[pos]
            i, c = divmod(int(new_at[pos - n]), n_ext)
            return prefixes[i] + (c + 1,)

        # Keep the width best by (-fused, prefix): everything above the
        # width-th score, then the smallest prefixes among its ties.
        keep = range(len(fused))
        if len(fused) > width:
            cut = np.partition(fused, len(fused) - width)[len(fused) - width]
            keep = (fused > cut).nonzero()[0].tolist()
            tied = (fused == cut).nonzero()[0].tolist()
            if len(keep) + len(tied) > width:
                tied = sorted(tied, key=candidate_prefix)[:width - len(keep)]
            keep += tied

        # A new extension's blank mass is -inf, so its total is its
        # nonblank mass: log_add(-inf, x) is x.
        prefixes = [candidate_prefix(pos) for pos in keep]
        p_b = [self_b[pos] if pos < n else MINUS_INF for pos in keep]
        totals = scores[keep].tolist()
        p_nb = [self_nb[pos] if pos < n else total
                for pos, total in zip(keep, totals)]
        if models:
            s_lm = cand_lm[keep].tolist()
            s_ilm = cand_ilm[keep].tolist()
            state_rows = [state_rows[pos] if pos < n else rows(prefix)
                          for pos, prefix in zip(keep, prefixes)]

    if not models:
        s_lm = s_ilm = [0.0] * len(prefixes)
    survivors = [
        Hypothesis(prefix, ScoreBundle(e2e=total, lm=x, ilm=y))
        for prefix, total, x, y in zip(prefixes, totals, s_lm, s_ilm)]
    ranked = rank_hypotheses(survivors, config.weights)
    return NBestList(utterance_id, tuple(ranked[:config.n_best]))
