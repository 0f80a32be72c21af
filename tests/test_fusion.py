"""Log-linear fusion, re-ranking and weight tuning."""
import math

import numpy as np
import pytest

from twopass import fusion
from twopass.aligner import AlignOptions, AmScorer
from twopass.core import (
    BLANK,
    DanglingTokenError,
    FormatError,
    FusionWeights,
    Hypothesis,
    NBestList,
    PosteriorMatrix,
    ScoreBundle,
    Vocabulary,
    detokenize,
    parse_lexicon,
)
from twopass.fusion import (
    default_weight_grid,
    equivalent_lm_weights,
    fuse_scores,
    grid_search,
    rank_hypotheses,
    rescore_nbest,
    score_with_word_lm,
    select_weights,
)
from twopass.metrics import ErrorCounts, wer
from twopass.ngram import train_add_one

from oracles import tune_weights

WP = Vocabulary((BLANK, "▁x", "▁y"))


def bundle(e2e, lm=0.0, ilm=0.0, am=None):
    return ScoreBundle(e2e=e2e, lm=lm, ilm=ilm, am=am)


class TestFuseScores:

    def test_worked_example(self):
        b = bundle(-1.0, lm=-1.5, ilm=-0.5, am=-2.0)
        w = FusionWeights(0.3, 0.4, 0.2)
        # -1.0 + 0.3*(-2.0) + 0.4*(-1.5) - 0.2*(-0.5) = -2.1
        np.testing.assert_allclose(fuse_scores(b, w), -2.1, atol=1e-12)

    def test_all_zero_weights_reduce_to_e2e(self):
        b = bundle(-3.25, lm=-9.0, ilm=-4.0, am=-100.0)
        np.testing.assert_allclose(
            fuse_scores(b, FusionWeights()), -3.25, atol=1e-15)

    def test_ilm_is_subtracted(self):
        b = bundle(0.0, ilm=-2.0)
        np.testing.assert_allclose(
            fuse_scores(b, FusionWeights(0.0, 0.0, 0.5)), 1.0, atol=1e-15)

    def test_am_weight_without_am_score(self):
        b = bundle(-1.0)
        with pytest.raises(ValueError):
            fuse_scores(b, FusionWeights(0.5, 0.0, 0.0))
        # zero weight tolerates the missing component
        np.testing.assert_allclose(
            fuse_scores(b, FusionWeights()), -1.0, atol=1e-15)


class TestEquivalentLmWeights:

    def test_mapping_values(self):
        mapped = equivalent_lm_weights(FusionWeights(0.5, 0.3, 0.0))
        np.testing.assert_allclose(mapped.lambda_am, 0.0, atol=1e-15)
        np.testing.assert_allclose(mapped.lambda_lm, 0.2, atol=1e-12)
        np.testing.assert_allclose(mapped.lambda_ilm, 1 / 3, atol=1e-12)

    def test_requires_zero_ilm_weight(self):
        with pytest.raises(ValueError):
            equivalent_lm_weights(FusionWeights(0.5, 0.3, 0.1))

    def test_ranking_equivalence_when_am_is_e2e_minus_ilm(self):
        # When the second-pass acoustic score is exactly e2e - ilm, fusing it
        # with weight lambda_am is a positive rescaling of fusing nothing but
        # LM and ILM with the mapped weights, so rankings must agree.
        rng = np.random.default_rng(1905)
        for trial in range(25):
            hyps = []
            for i in range(5):
                e2e = float(-rng.random() * 10)
                lm = float(-rng.random() * 10)
                ilm = float(-rng.random() * 10)
                hyps.append(Hypothesis(
                    (1, 2, i + 1), bundle(e2e, lm=lm, ilm=ilm, am=e2e - ilm)))
            orig = FusionWeights(float(rng.random() * 2),
                                 float(rng.random() * 2), 0.0)
            mapped = equivalent_lm_weights(orig)
            order_a = [h.tokens for h in rank_hypotheses(hyps, orig)]
            order_b = [h.tokens for h in rank_hypotheses(hyps, mapped)]
            assert order_a == order_b, "trial=%d" % trial
            scale = 1.0 + orig.lambda_am
            for h in hyps:
                np.testing.assert_allclose(
                    fuse_scores(h.scores, orig),
                    scale * fuse_scores(h.scores, mapped), atol=1e-9)


class TestRankHypotheses:

    def test_orders_by_fused_score(self):
        h1 = Hypothesis((1,), bundle(-2.0, am=-1.0))
        h2 = Hypothesis((2,), bundle(-1.0, am=-5.0))
        w = FusionWeights(1.0, 0.0, 0.0)
        assert [h.tokens for h in rank_hypotheses([h1, h2], w)] == [(1,), (2,)]
        assert [h.tokens for h in rank_hypotheses([h1, h2], FusionWeights())] \
            == [(2,), (1,)]

    def test_tie_breaks_toward_smaller_tokens(self):
        h1 = Hypothesis((2, 1), bundle(-1.0))
        h2 = Hypothesis((1, 2), bundle(-1.0))
        ranked = rank_hypotheses([h1, h2], FusionWeights())
        assert [h.tokens for h in ranked] == [(1, 2), (2, 1)]


PH = Vocabulary(("p0", "p1"))
LEX = parse_lexicon(["x\tp0", "y\tp1"], PH)


def phoneme_matrix(rows):
    arr = np.asarray(rows, dtype=np.float64)
    return PosteriorMatrix(np.log(arr).astype(np.float32), PH)


def rescore_one(nbest, matrix, weights, options=AlignOptions()):
    (out,) = rescore_nbest([(nbest, matrix)], AmScorer(LEX, WP, options), weights)
    return out


class TestRescoreNBest:

    def test_alignment_flips_ranking(self):
        # first pass prefers "y" but the phoneme stream clearly says p0 ("x")
        nbest = NBestList("u", (
            Hypothesis((2,), bundle(-0.9)),
            Hypothesis((1,), bundle(-1.1)),
        ))
        m = phoneme_matrix([[0.9, 0.1], [0.9, 0.1]])
        out = rescore_one(nbest, m, FusionWeights(1.0, 0.0, 0.0))
        assert [h.tokens for h in out.hypotheses] == [(1,), (2,)]
        for h in out.hypotheses:
            assert h.scores.am is not None

    def test_zero_am_weight_keeps_first_pass_order(self):
        nbest = NBestList("u", (
            Hypothesis((2,), bundle(-0.9)),
            Hypothesis((1,), bundle(-1.1)),
        ))
        m = phoneme_matrix([[0.9, 0.1], [0.9, 0.1]])
        out = rescore_one(nbest, m, FusionWeights())
        assert [h.tokens for h in out.hypotheses] == [(2,), (1,)]
        np.testing.assert_allclose(
            out.hypotheses[1].scores.am, 2 * math.log(0.9), atol=1e-6)

    def test_utterance_id_preserved(self):
        nbest = NBestList("keep-me", (Hypothesis((1,), bundle(-1.0)),))
        m = phoneme_matrix([[0.5, 0.5]])
        out = rescore_one(nbest, m, FusionWeights())
        assert out.utterance_id == "keep-me"

    def test_am_matches_standalone_scorer(self):
        rng = np.random.default_rng(3)
        probs = rng.random((3, 2)) + 0.1
        probs /= probs.sum(axis=1, keepdims=True)
        m = phoneme_matrix(probs)
        nbest = NBestList("u", (
            Hypothesis((1, 2), bundle(-1.0)),
            Hypothesis((2,), bundle(-2.0)),
        ))
        opts = AlignOptions(oov_policy="floor")
        out = rescore_one(nbest, m, FusionWeights(), opts)
        for h in out.hypotheses:
            np.testing.assert_allclose(
                h.scores.am, next(AmScorer(LEX, WP, opts).scores([([h], m)]))[0],
                atol=1e-12)

    def test_lists_keep_their_order_and_scores(self):
        # three lists rescored together equal each rescored alone
        rng = np.random.default_rng(4)
        pairs = []
        for utt, frames in (("a", 2), ("b", 5), ("c", 3)):
            probs = rng.random((frames, 2)) + 0.1
            probs /= probs.sum(axis=1, keepdims=True)
            pairs.append((NBestList(utt, (
                Hypothesis((1,), bundle(-1.0)), Hypothesis((1, 2), bundle(-1.5)),
                Hypothesis((2, 1, 2), bundle(-2.0)))), phoneme_matrix(probs)))
        opts = AlignOptions(oov_policy="floor")
        weights = FusionWeights(0.5, 0.0, 0.0)
        together = rescore_nbest(pairs, AmScorer(LEX, WP, opts), weights)
        assert together == [rescore_one(nb, m, weights, opts) for nb, m in pairs]


class TestScoreWithWordLm:

    def test_replaces_lm_with_sentence_score(self):
        lm = train_add_one([["x", "y"], ["x"]], order=2)
        nbest = NBestList("u", (
            Hypothesis((1, 2), bundle(-1.0, lm=-123.0, ilm=-4.0, am=-5.0)),
        ))
        out = score_with_word_lm(nbest, lm, WP)
        h = out.top()
        np.testing.assert_allclose(
            h.scores.lm,
            lm.score_sequence(["x", "y"], include_eos=True), atol=1e-12)
        assert h.scores.e2e == -1.0
        assert h.scores.ilm == -4.0
        assert h.scores.am == -5.0

    def test_hypothesis_without_words_is_format_error(self):
        # rescore --word-lm exits 2 on it, even below the top
        lm = train_add_one([["x", "y"]], order=2)
        vocab = Vocabulary((BLANK, "▁x", "y"))
        nbest = NBestList("u", (Hypothesis((1,), bundle(-1.0)),
                                Hypothesis((2, 1), bundle(-2.0))))
        with pytest.raises(FormatError, match="dangling continuation token: y"):
            score_with_word_lm(nbest, lm, vocab)


class TestWeightGrid:

    def test_default_grid_shape(self):
        grid = default_weight_grid()
        # 11 values per axis, triples with at most two nonzero axes:
        # 11^3 - 10^3 = 331
        assert len(grid) == 331
        assert FusionWeights(0.0, 0.0, 0.0) in grid
        assert FusionWeights(1.0, 0.3, 0.0) in grid
        for w in grid:
            nonzero = sum(
                1 for v in (w.lambda_am, w.lambda_lm, w.lambda_ilm) if v != 0.0)
            assert nonzero <= 2

    def test_grid_values_are_exact_tenths(self):
        for w in default_weight_grid():
            for v in (w.lambda_am, w.lambda_lm, w.lambda_ilm):
                assert abs(v * 10 - round(v * 10)) < 1e-9


def _dev_pair():
    nbest = NBestList("u", (
        Hypothesis((2,), bundle(-0.5, am=-5.0)),
        Hypothesis((1,), bundle(-1.0, am=-1.0)),
    ))
    return [(nbest, ("x",))]


class TestTuning:

    def test_grid_search_werss_by_hand(self):
        dev = _dev_pair()
        grid = [FusionWeights(), FusionWeights(1.0, 0.0, 0.0)]
        results = grid_search(dev, grid, WP)
        assert results[0][0] == FusionWeights()
        np.testing.assert_allclose(results[0][1], 1.0, atol=1e-12)
        np.testing.assert_allclose(results[1][1], 0.0, atol=1e-12)

    def test_tune_picks_lowest_wer(self):
        dev = _dev_pair()
        grid = [FusionWeights(), FusionWeights(1.0, 0.0, 0.0)]
        best, best_wer = tune_weights(dev, grid, WP)
        assert best == FusionWeights(1.0, 0.0, 0.0)
        np.testing.assert_allclose(best_wer, 0.0, atol=1e-12)

    def test_tie_prefers_smaller_triple(self):
        dev = _dev_pair()
        # both points rank "x" on top -> identical WER 0; smaller wins
        grid = [FusionWeights(1.0, 0.0, 0.0), FusionWeights(0.5, 0.0, 0.0)]
        best, _ = tune_weights(dev, grid, WP)
        assert best == FusionWeights(0.5, 0.0, 0.0)

    def test_corpus_wer_aggregates_counts_not_rates(self):
        # one 1-word utterance with an error, one 3-word utterance without:
        # corpus WER must be 1/4, not the mean of 1.0 and 0.0
        long_ref = ("x", "x", "x")
        good = NBestList("a", (Hypothesis((1, 1, 1), bundle(-1.0)),))
        bad = NBestList("b", (Hypothesis((2,), bundle(-1.0)),))
        results = grid_search(
            [(good, long_ref), (bad, ("x",))], [FusionWeights()], WP)
        np.testing.assert_allclose(results[0][1], 0.25, atol=1e-12)

    def test_validation(self):
        dev = _dev_pair()
        with pytest.raises(ValueError):
            grid_search(dev, [], WP)
        with pytest.raises(ValueError):
            grid_search([], [FusionWeights()], WP)
        empty_ref = [(dev[0][0], ())]
        with pytest.raises(ValueError):
            grid_search(empty_ref, [FusionWeights()], WP)

    def test_select_weights_breaks_ties_by_triple_not_grid_order(self):
        results = [(FusionWeights(0.0, 0.2, 0.0), 0.5),
                   (FusionWeights(0.0, 0.1, 0.3), 0.5),
                   (FusionWeights(0.0, 0.1, 0.0), 0.75)]
        assert select_weights(results) == (FusionWeights(0.0, 0.1, 0.3), 0.5)

    def test_wer_runs_once_per_selected_pair(self, monkeypatch):
        calls = []

        def counting_wer(ref, hyp):
            calls.append((tuple(ref), tuple(hyp)))
            return wer(ref, hyp)

        monkeypatch.setattr(fusion, "wer", counting_wer)
        dev = _dev_pair() + _dev_pair()
        grid = [FusionWeights(a / 10, 0.0, 0.0) for a in range(11)]
        results = grid_search(dev, grid, WP)
        # "y" tops both lists up to lambda_am 0.1, "x" from 0.2 on: two
        # distinct tops per utterance, each scored once
        assert len(calls) == 4
        assert sorted(calls) == [(("x",), ("x",))] * 2 + [(("x",), ("y",))] * 2
        assert [r[1] for r in results] == [1.0, 1.0] + [0.0] * 9

    def test_unselected_dangling_hypothesis_is_never_detokenized(self):
        vocab = Vocabulary((BLANK, "▁x", "▁y", "z"))
        nbest = NBestList("u", (
            Hypothesis((1,), bundle(-0.5, am=-1.0)),
            Hypothesis((3, 1), bundle(-9.0, am=-9.0)),
        ))
        with pytest.raises(ValueError, match="dangling"):
            detokenize((3, 1), vocab)
        grid = [FusionWeights(), FusionWeights(1.0, 0.0, 0.0)]
        assert grid_search([(nbest, ("x",))], grid, vocab) == [
            (grid[0], 0.0), (grid[1], 0.0)]

    def test_matches_sort_and_rescore_at_every_point(self):
        # the per-point loop grid_search replaced, kept as the oracle
        def reference_grid_search(dev, grid, vocab):
            out = []
            for weights in grid:
                counts = ErrorCounts()
                for nbest, ref in dev:
                    top = rank_hypotheses(nbest.hypotheses, weights)[0]
                    counts = counts + wer(ref, detokenize(top.tokens, vocab))
                out.append((weights, counts.wer))
            return out

        rng = np.random.default_rng(2024)
        levels = (-2.0, -1.0, -0.5)  # few values, so fused scores tie
        dev = []
        for u in range(12):
            seqs = sorted({tuple(int(t) for t in rng.integers(1, 3, rng.integers(1, 4)))
                           for _ in range(6)})
            # file order is not token order, so min must break ties by tokens
            seqs = [seqs[i] for i in rng.permutation(len(seqs))]
            hyps = [Hypothesis(seq, bundle(
                float(rng.choice(levels)), lm=float(rng.choice(levels)),
                ilm=float(rng.choice(levels)),
                am=-math.inf if rng.random() < 0.2 else float(rng.choice(levels))))
                for seq in seqs]
            ref = tuple(rng.choice(["x", "y"], rng.integers(1, 4)))
            dev.append((NBestList("u%d" % u, hyps), ref))
        # every am -inf: at lambda_am > 0 the whole row fuses to -inf
        dev.append((NBestList("inf", (
            Hypothesis((2, 1), bundle(-0.5, lm=-1.0, am=-math.inf)),
            Hypothesis((1, 2), bundle(-2.0, ilm=-1.0, am=-math.inf)),
            Hypothesis((2,), bundle(-1.0, am=-math.inf)))), ("x", "y")))
        # one-hypothesis lists beside longer ones leave padding columns
        dev.append((NBestList("one", (
            Hypothesis((2, 2), bundle(-3.0, lm=-1.0, am=-2.0)),)), ("y",)))
        dev.append((NBestList("one-inf", (
            Hypothesis((1,), bundle(-1.0, am=-math.inf)),)), ("x",)))
        # -0.0 and 0.0 fuse to themselves at every point, and tie on top
        for name, negative, positive in (("zero-a", (2,), (1,)),
                                         ("zero-b", (1,), (2,))):
            dev.append((NBestList(name, (
                Hypothesis(negative, bundle(-0.0, lm=-0.0, am=-0.0)),
                Hypothesis(positive, bundle(0.0, am=0.0)),
                Hypothesis((1, 1), bundle(-1.0, lm=-1.0, am=-1.0)))), ("y",)))
        halves = (0.0, 0.5, 1.0)
        grid = [FusionWeights(a, l, i) for a in halves for l in halves
                for i in halves if 0.0 in (a, l, i)]
        assert grid_search(dev, grid, WP) == reference_grid_search(dev, grid, WP)

        # "z ▁x" cannot be detokenized and tops its list only once lambda_am
        # reaches 0.5, after every lambda_am = 0 point has been scored
        vocab = Vocabulary(WP.symbols + ("z",))
        dangling = dev + [(NBestList("dangling", (
            Hypothesis((1,), bundle(-0.5, am=-1.0)),
            Hypothesis((3, 1), bundle(-9.0, am=20.0)))), ("x",))]
        raised = []
        for search in (grid_search, reference_grid_search):
            with pytest.raises(DanglingTokenError) as info:
                search(dangling, grid, vocab)
            raised.append(str(info.value))
        assert raised == ["dangling continuation token: z"] * 2
