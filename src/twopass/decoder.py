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
conditionals over the vocabulary per state, so one decode command, or one
--jobs worker, fills each state once across all utterances. Conditionals
are finite, but their sum over a prefix can overflow: an LM or ILM total
that is not finite raises OverflowError before any weight multiplies it.
"""
from __future__ import annotations

from dataclasses import dataclass

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
from .fusion import rank_hypotheses
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


def _extension_totals(totals, rows, model, what: str, utterance_id: str):
    """(beam x symbol) LM totals of every extension: each prefix's total
    plus its row of conditionals. OverflowError if an attached model's
    total is not finite; without a model every entry is 0.0."""
    if model is None:
        return np.array(totals)[:, None] + np.array(rows)
    with np.errstate(over="ignore"):
        ext = np.array(totals)[:, None] + np.array(rows)
    if not np.isfinite(ext).all():
        raise OverflowError("%s total overflows float64 in %s" % (what, utterance_id))
    return ext


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
    if lm is not None:
        _check_lm_coverage(lm, syms, "external LM")
    if ilm is not None:
        _check_lm_coverage(ilm, syms, "internal LM")
    w_lm = config.weights.lambda_lm
    w_ilm = config.weights.lambda_ilm
    width = config.beam_width
    tokens = syms[1:]
    n_ext = len(tokens)
    k = max((m.order for m in (lm, ilm) if m is not None), default=1)
    flat = np.zeros(n_ext)

    def rows(prefix):  # k symbols hold any attached model's state
        if lm is None and ilm is None:
            return flat, flat
        history = (SENTENCE_START,) + tuple(syms[i] for i in prefix[-k:])
        return (flat if lm is None else lm.conditional_row(history, tokens),
                flat if ilm is None else ilm.conditional_row(history, tokens))

    # Beam entry i: prefixes[i] with log p(blank-ending) p_b[i], log
    # p(nonblank-ending) p_nb[i], LM/ILM totals s_lm[i]/s_ilm[i] and the
    # LM/ILM conditional rows of its state.
    prefixes = [()]
    p_b, p_nb, s_lm, s_ilm = [0.0], [MINUS_INF], [0.0], [0.0]
    lm_row, ilm_row = rows(())
    lm_rows, ilm_rows = [lm_row], [ilm_row]
    values = posteriors.values.astype(np.float64)
    for t in range(posteriors.frames):
        row = values[t]
        row_l = row.tolist()
        n = len(prefixes)
        totals = [log_add(a, b) for a, b in zip(p_b, p_nb)]
        # Extension of beam i by symbol c sits at [i, c - 1]; on the repeat
        # column only the blank-ending mass extends (a genuine repeated
        # label needs a blank in between).
        contrib = np.add.outer(np.array(totals), row[1:])
        rep = [i for i, prefix in enumerate(prefixes) if prefix]
        lasts = [prefixes[i][-1] for i in rep]
        contrib[rep, [c - 1 for c in lasts]] = (
            np.array([p_b[i] for i in rep]) + row[lasts])
        ext_lm = _extension_totals(s_lm, lm_rows, lm, "external LM", utterance_id)
        ext_ilm = _extension_totals(s_ilm, ilm_rows, ilm, "internal LM", utterance_id)
        ext_fused = contrib + w_lm * ext_lm - w_ilm * ext_ilm
        is_new = contrib != MINUS_INF

        # Each prefix already in the beam keeps its blank mass, collapses
        # its repeat frames and takes its parent's extension, if any.
        index = {prefix: i for i, prefix in enumerate(prefixes)}
        blank = row_l[0]
        self_b, self_nb = [], []
        for i, prefix in enumerate(prefixes):
            nb = MINUS_INF
            if prefix:
                nb = p_nb[i] + row_l[prefix[-1]]
                parent = index.get(prefix[:-1])
                if parent is not None:
                    at = (parent, prefix[-1] - 1)
                    nb = log_add(nb, contrib[at].item())
                    is_new[at] = False
            self_b.append(totals[i] + blank)
            self_nb.append(nb)
        self_fused = [
            log_add(b, nb) + w_lm * x - w_ilm * y
            for b, nb, x, y in zip(self_b, self_nb, s_lm, s_ilm)]

        # Candidates: the n beam entries, then the new extensions new_at.
        new_at = np.flatnonzero(is_new)
        scores = np.concatenate((self_fused, ext_fused.ravel()[new_at]))

        def candidate_prefix(pos):
            if pos < n:
                return prefixes[pos]
            i, c = divmod(int(new_at[pos - n]), n_ext)
            return prefixes[i] + (c + 1,)

        # Keep the width best by (-fused, prefix): everything above the
        # width-th score, then the smallest prefixes among its ties.
        keep = np.arange(len(scores))
        if len(scores) > width:
            cut = np.partition(scores, len(scores) - width)[len(scores) - width]
            keep = np.flatnonzero(scores > cut)
            tied = np.flatnonzero(scores == cut).tolist()
            if len(keep) + len(tied) > width:
                tied = sorted(tied, key=candidate_prefix)[:width - len(keep)]
            keep = np.concatenate((keep, np.array(tied, dtype=np.intp)))

        kept_self = keep[keep < n].tolist()
        kept_ext = keep[keep >= n]
        ext = new_at[kept_ext - n]
        ext_prefixes = [candidate_prefix(pos) for pos in kept_ext.tolist()]
        ext_rows = [rows(prefix) for prefix in ext_prefixes]
        prefixes = [prefixes[i] for i in kept_self] + ext_prefixes
        p_b = [self_b[i] for i in kept_self] + [MINUS_INF] * len(ext_prefixes)
        p_nb = [self_nb[i] for i in kept_self] + contrib.ravel()[ext].tolist()
        s_lm = [s_lm[i] for i in kept_self] + ext_lm.ravel()[ext].tolist()
        s_ilm = [s_ilm[i] for i in kept_self] + ext_ilm.ravel()[ext].tolist()
        lm_rows = [lm_rows[i] for i in kept_self] + [r[0] for r in ext_rows]
        ilm_rows = [ilm_rows[i] for i in kept_self] + [r[1] for r in ext_rows]

    survivors = [
        Hypothesis(prefix, ScoreBundle(e2e=log_add(b, nb), lm=x, ilm=y))
        for prefix, b, nb, x, y in zip(prefixes, p_b, p_nb, s_lm, s_ilm)]
    ranked = rank_hypotheses(survivors, config.weights)
    return NBestList(utterance_id, tuple(ranked[:config.n_best]))
