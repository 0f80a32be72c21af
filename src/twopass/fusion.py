"""Second pass: log-linear score fusion and N-best re-ranking.

fused = e2e + lambda_am * am + lambda_lm * lm - lambda_ilm * ilm

An AM-fusion configuration (lambda_am, lambda_lm, 0) ranks identically to
the LM/ILM configuration (0, lambda_lm/(1+lambda_am), lambda_am/(1+lambda_am))
whenever am = e2e - ilm; equivalent_lm_weights computes that mapping.

fuse_scores is the one place the formula is written. It takes one
hypothesis's floats or same-shape float64 arrays, and a NaN result is a
ValueError rather than a rank. grid_search fuses a (list x hypothesis)
array per grid point and picks each row's argmax. That is exactly
rank_hypotheses' top: each element goes through the same IEEE float64
operations in the same order as the scalar call, the columns are sorted by
tokens, and argmax returns the first maximum, i.e. the smallest tokens
among tied scores (0.0 and -0.0 tie, as they do in the sort key).
"""
from __future__ import annotations

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from .core import (
    MINUS_INF,
    FusionWeights,
    Hypothesis,
    Lexicon,
    NBestList,
    PosteriorMatrix,
    ScoreBundle,
    Vocabulary,
    detokenize,
    with_am,
)
from .aligner import AlignOptions, am_scores
from .metrics import normalize, wer
from .ngram import NGramModel


def fuse_scores(bundle: ScoreBundle, weights: FusionWeights):
    """Log-linear fused score of one hypothesis, or elementwise over any
    bundle whose e2e/lm/ilm/am are same-shape float64 arrays.

    A weight times a score can overflow to an infinity, and opposite
    infinities sum to NaN, which has no rank: ValueError.
    """
    total = bundle.e2e
    if weights.lambda_am != 0.0:
        if bundle.am is None:
            raise ValueError("lambda_am > 0 but am score is missing")
        total = total + weights.lambda_am * bundle.am
    total = total + weights.lambda_lm * bundle.lm
    total = total - weights.lambda_ilm * bundle.ilm
    # total != total is the NaN test that stays cheap on a float
    if np.isnan(total).any() if isinstance(total, np.ndarray) else total != total:
        raise ValueError("fused score is NaN: a fusion weight times a score overflows")
    return total


def equivalent_lm_weights(weights: FusionWeights) -> FusionWeights:
    """LM/ILM weights ranking-equivalent to an AM-fusion configuration.

    Valid when the fused AM score is the domain-invariant e2e - ilm and
    lambda_ilm is zero on input.
    """
    if weights.lambda_ilm != 0.0:
        raise ValueError("equivalent_lm_weights requires lambda_ilm == 0")
    denom = 1.0 + weights.lambda_am
    return FusionWeights(
        lambda_am=0.0,
        lambda_lm=weights.lambda_lm / denom,
        lambda_ilm=weights.lambda_am / denom)


def _rank_key(weights: FusionWeights):
    """Sort key: higher fused score first, ties to the smaller tokens."""
    return lambda h: (-fuse_scores(h.scores, weights), h.tokens)


def rank_hypotheses(hypotheses, weights: FusionWeights) -> list[Hypothesis]:
    """Sort by fused score, ties to the lexicographically smaller tokens."""
    return sorted(hypotheses, key=_rank_key(weights))


def rescore_nbest(nbest: NBestList, posteriors: PosteriorMatrix,
                  lexicon: Lexicon, vocab: Vocabulary,
                  weights: FusionWeights,
                  options: AlignOptions = AlignOptions()) -> NBestList:
    """Fill am scores via forced alignment and re-rank by the fused score."""
    ams = am_scores(nbest.hypotheses, posteriors, lexicon, vocab, options)
    scored = [with_am(h, am) for h, am in zip(nbest.hypotheses, ams)]
    return NBestList(nbest.utterance_id, tuple(rank_hypotheses(scored, weights)))


def score_with_word_lm(nbest: NBestList, lm: NGramModel,
                       vocab: Vocabulary) -> NBestList:
    """Replace each lm component with a word-level LM score.

    The hypothesis is detokenized and scored as a complete sentence (the
    end-of-sentence term included, unlike the first pass). A sum that
    overflows float64 raises OverflowError.
    """
    out = []
    for hyp in nbest.hypotheses:
        words = detokenize(hyp.tokens, vocab)
        lm_score = lm.score_sequence(words, include_eos=True)
        if not math.isfinite(lm_score):
            raise OverflowError("word LM score of %s overflows to %r"
                                % (nbest.utterance_id, lm_score))
        out.append(Hypothesis(hyp.tokens, replace(hyp.scores, lm=lm_score)))
    return NBestList(nbest.utterance_id, tuple(out))


def default_weight_grid() -> list[FusionWeights]:
    """All weight triples over the tenths 0.0..1.0 with at most two nonzero
    axes: 11^3 - 10^3 = 331 points, lambda_am slowest, lambda_ilm fastest."""
    values = [k / 10 for k in range(11)]
    return [FusionWeights(a, l, i) for a in values for l in values for i in values
            if 0.0 in (a, l, i)]


def grid_search(dev, grid, vocab: Vocabulary) -> list[tuple[FusionWeights, float]]:
    """Corpus WER of every grid point on a dev set, in grid order.

    dev is a sequence of (NBestList, reference word sequence) pairs whose
    lists already carry every score component a grid point needs. The
    components are stacked once into (list x hypothesis) arrays, each row's
    columns sorted by tokens; padding is e2e and am -inf, lm and ilm 0.0,
    so it fuses to -inf at any weight and never beats a real column. Each
    point is one fuse_scores call and a row argmax, which selects exactly
    what rank_hypotheses puts first (see the module docstring). A list's
    top hypothesis is scored once, when a point first selects it.
    """
    dev = list(dev)
    grid = list(grid)
    if not grid:
        raise ValueError("empty weight grid")
    if not dev:
        raise ValueError("empty dev set")
    if sum(len(ref) for _, ref in dev) == 0:
        raise ValueError("dev references are empty")
    lists = [sorted(nbest.hypotheses, key=lambda h: h.tokens) for nbest, _ in dev]
    width = max(len(hyps) for hyps in lists)

    def stacked(name, pad):
        out = np.full((len(lists), width), pad)
        for row, hyps in zip(out, lists):
            row[:len(hyps)] = [getattr(h.scores, name) for h in hyps]
        return out

    has_am = all(h.scores.am is not None for hyps in lists for h in hyps)
    stack = SimpleNamespace(
        e2e=stacked("e2e", MINUS_INF), lm=stacked("lm", 0.0),
        ilm=stacked("ilm", 0.0), am=stacked("am", MINUS_INF) if has_am else None)
    ref_words = sum(len(normalize(" ".join(ref))) for _, ref in dev)
    rows = np.arange(len(lists))
    errors = np.full((len(lists), width), -1)  # -1: not scored yet
    results = []
    for weights in grid:
        with np.errstate(over="ignore", invalid="ignore"):
            pick = fuse_scores(stack, weights).argmax(axis=1)
        for index in np.flatnonzero(errors[rows, pick] < 0).tolist():
            words = detokenize(lists[index][pick[index]].tokens, vocab)
            errors[index, pick[index]] = wer(dev[index][1], words).errors
        results.append((weights, int(errors[rows, pick].sum()) / ref_words))
    return results


def select_weights(results) -> tuple[FusionWeights, float]:
    """The minimum-WER (weights, WER) of grid_search results; ties prefer
    the lexicographically smaller (lambda_am, lambda_lm, lambda_ilm)."""
    return min(results, key=lambda point: (
        point[1], (point[0].lambda_am, point[0].lambda_lm, point[0].lambda_ilm)))
