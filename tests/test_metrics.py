"""WER accounting and the perplexity-bucket comparison."""
import math

import numpy as np
import pytest

from twopass.core import (
    BLANK,
    Hypothesis,
    NBestList,
    ScoreBundle,
    Vocabulary,
)
from twopass.metrics import (
    BucketStats,
    ErrorCounts,
    corpus_counts,
    normalize,
    oracle_wer,
    ppl_buckets,
    wer,
    werr,
)
from twopass.ngram import load_arpa, train_add_one


class TestNormalize:

    def test_lowercase_and_split(self):
        assert normalize("The  CAT sat") == ("the", "cat", "sat")

    def test_empty(self):
        assert normalize("   ") == ()


class TestWer:

    def test_identical(self):
        counts = wer(["a", "b", "c"], ["a", "b", "c"])
        assert counts.errors == 0
        assert counts.ref_length == 3
        np.testing.assert_allclose(counts.wer, 0.0, atol=1e-15)

    def test_classic_example(self):
        counts = wer("the cat sat".split(), "the hat on sat".split())
        assert (counts.substitutions, counts.deletions, counts.insertions) \
            == (1, 0, 1)
        np.testing.assert_allclose(counts.wer, 2 / 3, atol=1e-12)

    def test_single_substitution(self):
        counts = wer(["a", "b", "c"], ["a", "x", "c"])
        assert (counts.substitutions, counts.deletions, counts.insertions) \
            == (1, 0, 0)

    def test_single_deletion(self):
        counts = wer(["a", "b", "c"], ["a", "c"])
        assert (counts.substitutions, counts.deletions, counts.insertions) \
            == (0, 1, 0)

    def test_single_insertion(self):
        counts = wer(["a", "c"], ["a", "b", "c"])
        assert (counts.substitutions, counts.deletions, counts.insertions) \
            == (0, 0, 1)

    def test_empty_hypothesis_is_all_deletions(self):
        counts = wer(["a", "b"], [])
        assert counts.deletions == 2
        np.testing.assert_allclose(counts.wer, 1.0, atol=1e-15)

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            wer([], ["a"])

    def test_wer_can_exceed_one(self):
        counts = wer(["a"], ["x", "y", "z"])
        assert counts.errors == 3
        np.testing.assert_allclose(counts.wer, 3.0, atol=1e-15)

    def _random_words(self, rng, lo, hi):
        length = int(rng.integers(lo, hi))
        return [("w%d" % rng.integers(4)) for _ in range(length)]

    def test_distance_is_symmetric(self):
        rng = np.random.default_rng(606)
        for _ in range(200):
            a = self._random_words(rng, 1, 7)
            b = self._random_words(rng, 1, 7)
            assert wer(a, b).errors == wer(b, a).errors

    def test_counts_are_consistent_with_lengths(self):
        # matches + subs + dels = len(ref); matches + subs + ins = len(hyp)
        rng = np.random.default_rng(607)
        for _ in range(200):
            a = self._random_words(rng, 1, 7)
            b = self._random_words(rng, 0, 7)
            c = wer(a, b)
            assert c.ref_length == len(a)
            assert len(b) == len(a) - c.deletions + c.insertions

    def test_triangle_inequality(self):
        rng = np.random.default_rng(608)
        for _ in range(100):
            a = self._random_words(rng, 1, 6)
            b = self._random_words(rng, 1, 6)
            c = self._random_words(rng, 1, 6)
            assert wer(a, c).errors <= wer(a, b).errors + wer(b, c).errors


class TestErrorCounts:

    def test_addition(self):
        total = ErrorCounts(1, 2, 3, 10) + ErrorCounts(1, 0, 0, 5)
        assert total == ErrorCounts(2, 2, 3, 15)

    def test_wer_property(self):
        np.testing.assert_allclose(ErrorCounts(1, 1, 0, 8).wer, 0.25,
                                   atol=1e-15)

    def test_zero_reference_length_rejected(self):
        with pytest.raises(ValueError):
            ErrorCounts().wer

    def test_corpus_counts_pools_before_dividing(self):
        total = corpus_counts([
            (["x", "x", "x"], ["x", "x", "x"]),
            (["y"], ["x"]),
        ])
        np.testing.assert_allclose(total.wer, 0.25, atol=1e-15)


WP = Vocabulary((BLANK, "▁x", "▁y", "▁z"))


def _nbest(*token_seqs):
    hyps = tuple(
        Hypothesis(toks, ScoreBundle(e2e=-float(i)))
        for i, toks in enumerate(token_seqs))
    return NBestList("u", hyps)


class TestOracleWer:

    def test_picks_minimum_error_hypothesis(self):
        nbest = _nbest((2,), (1,))  # rank1 "y", rank2 "x"
        counts = oracle_wer(nbest, ("x",), WP)
        assert counts.errors == 0

    def test_tie_keeps_higher_rank(self):
        # rank1: 1 substitution; rank2: 1 deletion -- same error count
        nbest = _nbest((1, 3), (1,))
        counts = oracle_wer(nbest, ("x", "y"), WP)
        assert (counts.substitutions, counts.deletions) == (1, 0)

    def test_hypotheses_that_do_not_detokenize_are_skipped(self):
        vocab = Vocabulary((BLANK, "▁foo", "▁bar", "z"))
        # "z ▁bar" opens with a continuation token; "▁foo z" is "fooz bar"
        counts = oracle_wer(_nbest((3, 2), (1, 3, 2), (1, 2)), ("foo", "bar"), vocab)
        assert (counts.errors, counts.ref_length) == (0, 2)
        counts = oracle_wer(_nbest((3, 2), (1, 3, 2)), ("foo", "bar"), vocab)
        assert (counts.substitutions, counts.ref_length) == (1, 2)
        with pytest.raises(ValueError, match="no hypothesis of u detokenizes"):
            oracle_wer(_nbest((3, 2), (3,)), ("foo",), vocab)

    def test_oracle_never_worse_than_top(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            seqs = []
            seen = set()
            for _ in range(int(rng.integers(1, 5))):
                toks = tuple(
                    int(rng.integers(1, 4))
                    for _ in range(int(rng.integers(0, 4))))
                if toks not in seen:
                    seen.add(toks)
                    seqs.append(toks)
            nbest = _nbest(*seqs)
            ref = tuple(
                ("x", "y", "z")[int(rng.integers(3))]
                for _ in range(int(rng.integers(1, 4))))
            from twopass.core import detokenize
            top_err = wer(ref, detokenize(nbest.top().tokens, WP)).errors
            assert oracle_wer(nbest, ref, WP).errors <= top_err


class TestWerr:

    def test_relative_reduction(self):
        np.testing.assert_allclose(werr(0.10, 0.08), 0.2, atol=1e-12)

    def test_negative_when_worse(self):
        np.testing.assert_allclose(werr(0.10, 0.12), -0.2, atol=1e-12)

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            werr(0.0, 0.0)


def _bucket_lm():
    sents = [["▁x"], ["▁x"], ["▁x", "▁x"], ["▁y"]]
    return train_add_one(sents, order=1,
                         vocabulary=["▁x", "▁y", "▁z"])


class TestPplBuckets:
    """Fixture: P(x)=5/12, P(y)=2/12 under the bucket LM, so references with
    more y score a strictly higher perplexity: ppl(x)=2.4 < ppl(y)=3.79... <
    ppl(y y)=4.41...
    """

    def test_partition_sizes_and_order(self):
        lm = _bucket_lm()
        corpus = [
            (("y", "y"), ("y", "y"), ("y", "y")),
            (("x",), ("x",), ("x",)),
            (("y",), ("y",), ("y",)),
        ]
        stats = ppl_buckets(corpus, lm, 2, WP)
        assert [s.bucket for s in stats] == [0, 1]
        assert [s.size for s in stats] == [2, 1]
        assert stats[0].mean_ppl <= stats[1].mean_ppl
        np.testing.assert_allclose(
            stats[0].mean_ppl,
            (lm.perplexity(["▁x"]) + lm.perplexity(["▁y"])) / 2,
            atol=1e-9)

    def test_extra_items_go_to_leading_buckets(self):
        lm = _bucket_lm()
        corpus = [(("x",), ("x",), ("x",))] * 2 + [
            (("y",), ("y",), ("y",)),
            (("y", "y"), ("y", "y"), ("y", "y")),
            (("y", "x"), ("y", "x"), ("y", "x")),
        ]
        stats = ppl_buckets(corpus, lm, 3, WP)
        assert [s.size for s in stats] == [2, 2, 1]

    def test_bucket_error_rates_and_reduction(self):
        lm = _bucket_lm()
        corpus = [
            # low-ppl bucket: baseline already right -> werr fixed at 0.0
            (("x",), ("x",), ("x",)),
            (("y",), ("y",), ("y",)),
            # high-ppl bucket: baseline deletes both words, fused fixes one
            (("y", "y"), (), ("y",)),
        ]
        stats = ppl_buckets(corpus, lm, 2, WP)
        np.testing.assert_allclose(stats[0].baseline_wer, 0.0, atol=1e-15)
        np.testing.assert_allclose(stats[0].werr, 0.0, atol=1e-15)
        np.testing.assert_allclose(stats[1].baseline_wer, 1.0, atol=1e-15)
        np.testing.assert_allclose(stats[1].fused_wer, 0.5, atol=1e-15)
        np.testing.assert_allclose(stats[1].werr, 0.5, atol=1e-12)

    def test_single_bucket_is_whole_corpus(self):
        lm = _bucket_lm()
        corpus = [
            (("x",), ("y",), ("x",)),
            (("y",), ("y",), ("y",)),
        ]
        (s,) = ppl_buckets(corpus, lm, 1, WP)
        assert isinstance(s, BucketStats)
        assert s.size == 2
        np.testing.assert_allclose(s.baseline_wer, 0.5, atol=1e-15)
        np.testing.assert_allclose(s.fused_wer, 0.0, atol=1e-15)
        np.testing.assert_allclose(s.werr, 1.0, atol=1e-15)

    def test_mean_perplexity_that_overflows_raises(self, tmp_path):
        # -308.2 per term: each perplexity is e^709.66, finite, and two of
        # them sum to inf
        path = tmp_path / "huge.arpa"
        path.write_text("\n".join([
            "\\data\\", "ngram 1=3", "", "\\1-grams:", "-308.2\t<s>",
            "-308.2\t▁x", "-308.2\t</s>", "", "\\end\\", ""]),
            encoding="utf-8")
        lm = load_arpa(path)
        assert math.isfinite(lm.perplexity(["▁x"]))
        corpus = [(("x",), ("x",), ("x",))] * 2
        with pytest.raises(OverflowError, match="mean perplexity of bucket 0"):
            ppl_buckets(corpus, lm, 1, WP)

    def test_validation(self):
        lm = _bucket_lm()
        corpus = [(("x",), ("x",), ("x",))]
        with pytest.raises(ValueError):
            ppl_buckets(corpus, lm, 0, WP)
        with pytest.raises(ValueError):
            ppl_buckets(corpus, lm, 2, WP)
