"""Second pass: log-linear score fusion and N-best re-ranking.

fused = e2e + lambda_am * am + lambda_lm * lm - lambda_ilm * ilm

An AM-fusion configuration (lambda_am, lambda_lm, 0) ranks identically to
the LM/ILM configuration (0, lambda_lm/(1+lambda_am), lambda_am/(1+lambda_am))
whenever am = e2e - ilm; equivalent_lm_weights computes that mapping.
"""
from __future__ import annotations

import math
from dataclasses import replace

from .core import (
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
from .metrics import ErrorCounts, wer
from .ngram import NGramModel


def fuse_scores(bundle: ScoreBundle, weights: FusionWeights) -> float:
    """Log-linear fused score of one hypothesis."""
    total = bundle.e2e
    if weights.lambda_am != 0.0:
        if bundle.am is None:
            raise ValueError("lambda_am > 0 but am score is missing")
        total += weights.lambda_am * bundle.am
    total += weights.lambda_lm * bundle.lm
    total -= weights.lambda_ilm * bundle.ilm
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
    lists already carry every score component a grid point needs. A list's
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
    errors: dict[tuple[int, tuple[int, ...]], ErrorCounts] = {}
    results = []
    for weights in grid:
        key = _rank_key(weights)
        counts = ErrorCounts()
        for index, (nbest, ref) in enumerate(dev):
            top = min(nbest.hypotheses, key=key).tokens
            if (index, top) not in errors:
                errors[index, top] = wer(ref, detokenize(top, vocab))
            counts = counts + errors[index, top]
        results.append((weights, counts.wer))
    return results


def select_weights(results) -> tuple[FusionWeights, float]:
    """The minimum-WER (weights, WER) of grid_search results; ties prefer
    the lexicographically smaller (lambda_am, lambda_lm, lambda_ilm)."""
    return min(results, key=lambda point: (
        point[1], (point[0].lambda_am, point[0].lambda_lm, point[0].lambda_ilm)))
