"""First-pass decoder tests.

The important oracle here is exhaustive path enumeration: for tiny matrices
every one of the V^T frame paths is generated, collapsed (repeats first,
then blanks) and its probability accumulated per label sequence.  Both the
exact scorer and the beam search (run with a beam wide enough to disable
pruning) must reproduce those numbers, and the per-sequence masses must sum
to one because collapsing partitions the path space.

The second oracle, oracles.reference_prefix_beam_search, is a frozen copy
of the scalar per-(prefix, symbol) loop the array decoder replaced: with
pruning, exact ties and LM/ILM fusion the decoder must reproduce its
tokens and the bits of every score.
"""
import itertools
import math

import numpy as np
import pytest

from twopass.core import (
    AlignmentError,
    BLANK,
    FusionWeights,
    PosteriorMatrix,
    VocabMismatchError,
    Vocabulary,
)
from twopass import decoder
from twopass.decoder import BeamConfig, decode_batch, prefix_beam_search
from twopass.fusion import fuse_scores
from twopass.ngram import train_add_one

from oracles import ctc_label_prob, random_arpa_lm, reference_prefix_beam_search

WIDE = 4096  # beam wide enough that nothing is ever pruned in these tests


def make_vocab(n_labels):
    return Vocabulary((BLANK,) + tuple("▁%c" % (97 + i) for i in range(n_labels)))


def random_matrix(rng, frames, vocab):
    probs = rng.random((frames, len(vocab))) + 1e-3
    probs /= probs.sum(axis=1, keepdims=True)
    return PosteriorMatrix(np.log(probs).astype(np.float32), vocab)


def matrix_from_rows(rows, vocab):
    return PosteriorMatrix(np.log(np.asarray(rows, dtype=np.float64)).astype(np.float32), vocab)


def collapse(path):
    """CTC collapse: merge repeats, then drop blanks."""
    out = []
    prev = None
    for s in path:
        if s != prev and s != 0:
            out.append(s)
        prev = s
    return tuple(out)


def enumerate_label_probs(matrix):
    """Probability of every label sequence by brute-force path enumeration."""
    values = np.exp(matrix.values.astype(np.float64))
    probs = {}
    for path in itertools.product(range(matrix.symbols), repeat=matrix.frames):
        p = 1.0
        for t, s in enumerate(path):
            p *= values[t, s]
        key = collapse(path)
        probs[key] = probs.get(key, 0.0) + p
    return probs


class TestExactScorer:

    def test_single_frame_blank_vs_label(self):
        vocab = make_vocab(1)
        m = matrix_from_rows([[0.4, 0.6]], vocab)
        np.testing.assert_allclose(ctc_label_prob(m, (1,)), math.log(0.6),
                                   atol=1e-6)
        np.testing.assert_allclose(ctc_label_prob(m, ()), math.log(0.4),
                                   atol=1e-6)

    def test_two_frames_by_hand(self):
        vocab = make_vocab(1)
        m = matrix_from_rows([[0.5, 0.5], [0.6, 0.4]], vocab)
        # P([a]) = a- + -a + aa = .5*.6 + .5*.4 + .5*.4 = 0.7
        np.testing.assert_allclose(ctc_label_prob(m, (1,)), math.log(0.7),
                                   atol=1e-6)
        np.testing.assert_allclose(ctc_label_prob(m, ()), math.log(0.3),
                                   atol=1e-6)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(2024)
        for trial in range(12):
            frames = int(rng.integers(1, 5))
            vocab = make_vocab(int(rng.integers(1, 4)))
            m = random_matrix(rng, frames, vocab)
            expected = enumerate_label_probs(m)
            for labels, prob in expected.items():
                np.testing.assert_allclose(
                    ctc_label_prob(m, labels), math.log(prob), atol=1e-5,
                    err_msg="trial=%d labels=%r" % (trial, labels))

    def test_total_mass_is_one(self):
        rng = np.random.default_rng(31337)
        for _ in range(8):
            frames = int(rng.integers(1, 5))
            vocab = make_vocab(int(rng.integers(1, 4)))
            m = random_matrix(rng, frames, vocab)
            total = sum(
                math.exp(ctc_label_prob(m, labels))
                for labels in enumerate_label_probs(m))
            np.testing.assert_allclose(total, 1.0, atol=1e-4)

    def test_empty_labels_is_blank_product(self):
        rng = np.random.default_rng(5)
        vocab = make_vocab(2)
        m = random_matrix(rng, 4, vocab)
        np.testing.assert_allclose(
            ctc_label_prob(m, ()),
            float(m.values[:, 0].astype(np.float64).sum()), atol=1e-9)

    def test_repeated_label_needs_separating_blank(self):
        vocab = make_vocab(1)
        m = matrix_from_rows([[0.5, 0.5]] * 2, vocab)
        with pytest.raises(AlignmentError, match="too long"):
            ctc_label_prob(m, (1, 1))
        m3 = matrix_from_rows([[0.5, 0.5]] * 3, vocab)
        # only path is a - a
        np.testing.assert_allclose(ctc_label_prob(m3, (1, 1)),
                                   math.log(0.125), atol=1e-6)

    def test_sequence_longer_than_frames(self):
        vocab = make_vocab(2)
        m = matrix_from_rows([[0.2, 0.4, 0.4]] * 2, vocab)
        with pytest.raises(AlignmentError):
            ctc_label_prob(m, (1, 2, 1))

    def test_label_validation(self):
        vocab = make_vocab(2)
        m = matrix_from_rows([[0.2, 0.4, 0.4]], vocab)
        with pytest.raises(ValueError):
            ctc_label_prob(m, (0,))
        with pytest.raises(ValueError):
            ctc_label_prob(m, (3,))


class TestBeamSearch:

    def test_single_frame_ranking(self):
        vocab = make_vocab(1)
        m = matrix_from_rows([[0.4, 0.6]], vocab)
        nbest = prefix_beam_search(m, BeamConfig(beam_width=4, n_best=2))
        assert [h.tokens for h in nbest.hypotheses] == [(1,), ()]
        np.testing.assert_allclose(nbest.hypotheses[0].scores.e2e,
                                   math.log(0.6), atol=1e-6)
        np.testing.assert_allclose(nbest.hypotheses[1].scores.e2e,
                                   math.log(0.4), atol=1e-6)

    def test_unpruned_beam_matches_enumeration(self):
        rng = np.random.default_rng(777)
        for trial in range(10):
            frames = int(rng.integers(1, 5))
            vocab = make_vocab(int(rng.integers(1, 4)))
            m = random_matrix(rng, frames, vocab)
            expected = enumerate_label_probs(m)
            nbest = prefix_beam_search(
                m, BeamConfig(beam_width=WIDE, n_best=WIDE))
            assert len(nbest) == len(expected)
            for hyp in nbest.hypotheses:
                np.testing.assert_allclose(
                    hyp.scores.e2e, math.log(expected[hyp.tokens]), atol=1e-5,
                    err_msg="trial=%d tokens=%r" % (trial, hyp.tokens))
            # ranking is by score with ties toward smaller token tuples
            keys = [(-h.scores.e2e, h.tokens) for h in nbest.hypotheses]
            assert keys == sorted(keys)

    def test_widening_the_beam_never_hurts_top1(self):
        rng = np.random.default_rng(90210)
        for trial in range(8):
            vocab = make_vocab(int(rng.integers(2, 4)))
            m = random_matrix(rng, int(rng.integers(2, 6)), vocab)
            tops = []
            for width in (1, 2, 4, 8, WIDE):
                nbest = prefix_beam_search(
                    m, BeamConfig(beam_width=width, n_best=1))
                tops.append(nbest.top().scores.e2e)
            for narrow, wide in zip(tops, tops[1:]):
                assert wide >= narrow - 1e-12, "trial=%d tops=%r" % (trial, tops)
            best_exact = max(enumerate_label_probs(m).values())
            np.testing.assert_allclose(tops[-1], math.log(best_exact),
                                       atol=1e-5)

    def test_repeat_frames_collapse_without_lm_charge(self):
        # Same label on consecutive frames stays one token unless a blank
        # intervenes; with 2 frames both mapping strongly to 'a' the top
        # hypothesis is a single 'a'.
        vocab = make_vocab(1)
        m = matrix_from_rows([[0.1, 0.9], [0.1, 0.9]], vocab)
        nbest = prefix_beam_search(m, BeamConfig(beam_width=WIDE, n_best=3))
        assert nbest.top().tokens == (1,)
        # P(a) = aa + a- + -a = .81 + .09 + .09
        np.testing.assert_allclose(nbest.top().scores.e2e, math.log(0.99),
                                   atol=1e-6)

    def test_deterministic_tie_break(self):
        vocab = make_vocab(2)
        m = matrix_from_rows([[0.2, 0.4, 0.4]], vocab)
        nbest = prefix_beam_search(m, BeamConfig(beam_width=8, n_best=3))
        assert [h.tokens for h in nbest.hypotheses] == [(1,), (2,), ()]

    def test_same_input_same_output(self):
        rng = np.random.default_rng(12)
        vocab = make_vocab(3)
        m = random_matrix(rng, 6, vocab)
        config = BeamConfig(beam_width=6, n_best=4)
        a = prefix_beam_search(m, config, utterance_id="x")
        b = prefix_beam_search(m, config, utterance_id="x")
        assert a == b

    def test_n_best_cap(self):
        rng = np.random.default_rng(3)
        vocab = make_vocab(2)
        m = random_matrix(rng, 4, vocab)
        nbest = prefix_beam_search(m, BeamConfig(beam_width=8, n_best=2))
        assert len(nbest) == 2

    def test_blank_must_sit_at_id_zero(self):
        vocab = Vocabulary(("▁a", "▁b"))
        m = matrix_from_rows([[0.5, 0.5]], vocab)
        with pytest.raises(VocabMismatchError):
            prefix_beam_search(m, BeamConfig())


class TestBeamConfig:

    def test_beam_width_positive(self):
        with pytest.raises(ValueError):
            BeamConfig(beam_width=0, n_best=1)

    def test_n_best_within_beam(self):
        with pytest.raises(ValueError):
            BeamConfig(beam_width=2, n_best=3)

    def test_am_weight_is_rejected(self):
        with pytest.raises(ValueError, match="lambda_am"):
            BeamConfig(weights=FusionWeights(0.3, 0.0, 0.0))

    def test_lm_weight_requires_model(self):
        with pytest.raises(ValueError):
            BeamConfig(weights=FusionWeights(0.0, 0.5, 0.0))
        with pytest.raises(ValueError):
            BeamConfig(weights=FusionWeights(0.0, 0.0, 0.5))


def piece_lm(vocab, order=2):
    pieces = [s for s in vocab.symbols if s != BLANK]
    sents = [
        [pieces[0]], [pieces[0], pieces[-1]], [pieces[-1], pieces[0]],
        [pieces[0], pieces[0]]]
    return train_add_one(sents, order=order, vocabulary=pieces)


class TestShallowFusion:

    def test_lm_column_equals_standalone_scoring(self):
        rng = np.random.default_rng(4242)
        vocab = make_vocab(3)
        lm = piece_lm(vocab)
        config = BeamConfig(
            beam_width=WIDE, n_best=16,
            weights=FusionWeights(0.0, 0.7, 0.0), lm=lm)
        for _ in range(4):
            m = random_matrix(rng, 4, vocab)
            nbest = prefix_beam_search(m, config)
            for hyp in nbest.hypotheses:
                pieces = [vocab.symbol(t) for t in hyp.tokens]
                np.testing.assert_allclose(
                    hyp.scores.lm, lm.score_sequence(pieces), atol=1e-12)

    def test_fusion_changes_ranking_toward_lm(self):
        vocab = make_vocab(2)
        # acoustics slightly prefer 'b'; LM heavily prefers 'a'
        m = matrix_from_rows([[0.02, 0.47, 0.51]], vocab)
        lm = train_add_one(
            [["▁a"], ["▁a"], ["▁a"]],
            order=1, vocabulary=["▁a", "▁b"])
        plain = prefix_beam_search(m, BeamConfig(beam_width=8, n_best=1))
        fused = prefix_beam_search(m, BeamConfig(
            beam_width=8, n_best=1,
            weights=FusionWeights(0.0, 1.0, 0.0), lm=lm))
        assert plain.top().tokens == (2,)
        assert fused.top().tokens == (1,)

    def test_equal_lm_and_ilm_cancel(self):
        rng = np.random.default_rng(88)
        vocab = make_vocab(3)
        lm = piece_lm(vocab)
        plain_cfg = BeamConfig(beam_width=4, n_best=4)
        both_cfg = BeamConfig(
            beam_width=4, n_best=4,
            weights=FusionWeights(0.0, 0.9, 0.9), lm=lm, ilm=lm)
        for _ in range(6):
            m = random_matrix(rng, 5, vocab)
            plain = prefix_beam_search(m, plain_cfg)
            both = prefix_beam_search(m, both_cfg)
            assert [h.tokens for h in plain.hypotheses] \
                == [h.tokens for h in both.hypotheses]
            for a, b in zip(plain.hypotheses, both.hypotheses):
                np.testing.assert_allclose(b.scores.e2e, a.scores.e2e,
                                           atol=1e-12)
                np.testing.assert_allclose(b.scores.lm, b.scores.ilm,
                                           atol=1e-12)

    def test_zero_weights_ignore_attached_models(self):
        rng = np.random.default_rng(55)
        vocab = make_vocab(2)
        lm = piece_lm(vocab)
        m = random_matrix(rng, 5, vocab)
        plain = prefix_beam_search(m, BeamConfig(beam_width=4, n_best=4))
        tagged = prefix_beam_search(m, BeamConfig(
            beam_width=4, n_best=4, lm=lm, ilm=lm))
        assert [h.tokens for h in plain.hypotheses] \
            == [h.tokens for h in tagged.hypotheses]
        for a, b in zip(plain.hypotheses, tagged.hypotheses):
            assert repr(b.scores.e2e) == repr(a.scores.e2e)

    def test_lm_must_cover_vocabulary(self):
        vocab = make_vocab(2)
        small = train_add_one([["▁a"]], order=1)
        m = matrix_from_rows([[0.2, 0.4, 0.4]], vocab)
        with pytest.raises(VocabMismatchError):
            prefix_beam_search(m, BeamConfig(lm=small))


def random_lm(rng, vocab, order):
    pieces = [s for s in vocab.symbols if s != BLANK]
    sents = [[pieces[int(i)] for i in rng.integers(0, len(pieces), size)]
             for size in rng.integers(1, 6, 12)]
    return train_add_one(sents, order=order, vocabulary=pieces)


def assert_same_lists(got, want):
    assert [nb.utterance_id for nb in got] == [nb.utterance_id for nb in want]
    for g, w in zip(got, want):
        assert [h.tokens for h in g.hypotheses] == [h.tokens for h in w.hypotheses]
        for a, b in zip(g.hypotheses, w.hypotheses):
            assert repr(a.scores) == repr(b.scores), (g.utterance_id, a, b)


class TestMatchesReferenceLoop:
    """The array step gives the frozen loop's tokens and score bits, one
    utterance at a time and over whole lists."""

    def _check(self, matrix, config):
        got = prefix_beam_search(matrix, config, utterance_id="u")
        want = reference_prefix_beam_search(matrix, config, utterance_id="u")
        assert_same_lists([got], [want])

    def _check_list(self, matrices, config):
        ids = ["u%d" % i for i in range(len(matrices))]
        assert_same_lists(
            decode_batch(matrices, config, ids),
            [reference_prefix_beam_search(m, config, utterance_id=u)
             for m, u in zip(matrices, ids)])

    def _mixed_list(self, rng, vocab, count):
        # 1 to about 30 frames, in no order
        return [random_matrix(rng, int(rng.integers(1, 31)), vocab)
                for _ in range(count)]

    def test_lists_of_mixed_lengths(self):
        rng = np.random.default_rng(2525)
        for _ in range(3):
            vocab = make_vocab(int(rng.integers(3, 7)))
            width = int(rng.integers(2, 6))
            matrices = self._mixed_list(rng, vocab, 12)
            self._check_list(matrices, BeamConfig(beam_width=width, n_best=width))
            for config in self._configs(rng, vocab, width):
                self._check_list(matrices, config)

    def test_list_longer_than_one_batch(self, monkeypatch):
        rng = np.random.default_rng(26)
        vocab = make_vocab(4)
        config = BeamConfig(beam_width=3, n_best=2)
        monkeypatch.setattr(decoder, "BATCH_CELLS", 3 * 3 * len(vocab))
        assert decoder.batch_size(config, len(vocab)) == 3
        matrices = self._mixed_list(rng, vocab, 11)
        self._check_list(matrices, config)
        for config in self._configs(rng, vocab, 3):
            self._check_list(matrices, config)

    def test_lists_with_exact_ties(self):
        # Uniform rows tie every extension of a prefix; duplicated columns
        # tie sibling prefixes.
        rng = np.random.default_rng(27)
        vocab = make_vocab(5)
        matrices = []
        for frames in (1, 2, 5, 9, 17):
            probs = rng.random((frames, len(vocab))) + 1e-3
            probs[:, 2] = probs[:, 1]
            probs[::2] = 1.0
            probs /= probs.sum(axis=1, keepdims=True)
            matrices.append(PosteriorMatrix(np.log(probs).astype(np.float32), vocab))
        for width in (1, 2, 4):
            self._check_list(matrices, BeamConfig(beam_width=width, n_best=width))
            for config in self._configs(rng, vocab, width):
                self._check_list(matrices, config)

    def test_huge_weights_rank_every_candidate_infinite(self):
        # Every conditional is below -1.8, so 1e308 times it overflows:
        # every prefix but the empty one fuses to -inf at lambda_lm 1e308
        # and to +inf at lambda_ilm 1e308, and the cuts are ties over the
        # live candidates. At lambda_ilm 1e308 a candidate that is not live
        # (e2e -inf) would fuse to -inf + inf, a NaN the search never sees.
        rng = np.random.default_rng(28)
        vocab = make_vocab(4)
        pieces = list(vocab.symbols[1:])
        lm = train_add_one([pieces[:2]], order=2,
                           vocabulary=pieces + ["▁z%d" % i for i in range(20)])
        matrices = self._mixed_list(rng, vocab, 8)
        for weights, inf in ((FusionWeights(0.0, 1e308, 0.0), -math.inf),
                             (FusionWeights(0.0, 0.0, 1e308), math.inf)):
            for width in (1, 3):
                config = BeamConfig(beam_width=width, n_best=width,
                                    weights=weights, lm=lm, ilm=lm)
                got = decode_batch(matrices, config, ["u%d" % i for i in range(8)])
                assert all(
                    (fuse_scores(h.scores, weights) == inf) == bool(h.tokens)
                    for nb in got for h in nb.hypotheses)
                self._check_list(matrices, config)

    def test_beam_far_wider_than_live_prefixes(self):
        # Arrays follow the live prefixes, not beam_width.
        rng = np.random.default_rng(29)
        vocab = make_vocab(3)
        matrices = [random_matrix(rng, int(rng.integers(1, 3)), vocab) for _ in range(5)]
        self._check_list(matrices, BeamConfig(beam_width=10 ** 6, n_best=3))

    def _configs(self, rng, vocab, width):
        n_best = int(rng.integers(1, width + 1))
        yield BeamConfig(beam_width=width, n_best=n_best)
        yield BeamConfig(beam_width=1, n_best=1)
        for order in (2, 3):
            lm = random_lm(rng, vocab, order)
            ilm = random_lm(rng, vocab, 5 - order)
            yield BeamConfig(beam_width=width, n_best=n_best,
                             weights=FusionWeights(0.0, 0.6, 0.3), lm=lm, ilm=ilm)
            yield BeamConfig(beam_width=width, n_best=n_best, lm=lm, ilm=ilm)
            yield BeamConfig(beam_width=width, n_best=n_best,
                             weights=FusionWeights(0.0, 0.8, 0.0), lm=lm)
            yield BeamConfig(beam_width=width, n_best=n_best,
                             weights=FusionWeights(0.0, 0.0, 0.3), ilm=ilm)
            yield BeamConfig(beam_width=1, n_best=1,
                             weights=FusionWeights(0.0, 0.6, 0.3), lm=lm, ilm=ilm)
        # train_add_one gives every context a backoff weight and no gaps;
        # an ARPA model can lack both, and has -0.0 log-probs
        pieces = vocab.symbols[1:]
        yield BeamConfig(beam_width=width, n_best=n_best,
                         weights=FusionWeights(0.0, 0.6, 0.3),
                         lm=random_arpa_lm(rng, pieces, 3),
                         ilm=random_arpa_lm(rng, pieces, 2))
        yield BeamConfig(beam_width=width, n_best=n_best,
                         weights=FusionWeights(0.0, 0.6, 0.3),
                         lm=random_arpa_lm(rng, pieces, 4),
                         ilm=random_arpa_lm(rng, pieces, 1))

    def test_pruned_random_inputs(self):
        rng = np.random.default_rng(6150)
        for _ in range(12):
            vocab = make_vocab(int(rng.integers(4, 8)))
            width = int(rng.integers(2, 5))
            m = random_matrix(rng, int(rng.integers(3, 9)), vocab)
            for config in self._configs(rng, vocab, width):
                self._check(m, config)

    def test_unpruned_random_inputs(self):
        # Wider than every candidate set, so unreachable (-inf) extensions
        # would surface as hypotheses if they were not dropped.
        rng = np.random.default_rng(3)
        for _ in range(6):
            vocab = make_vocab(int(rng.integers(1, 4)))
            m = random_matrix(rng, int(rng.integers(2, 5)), vocab)
            for config in self._configs(rng, vocab, 256):
                self._check(m, config)

    def test_exact_fused_ties(self):
        rng = np.random.default_rng(424)
        for _ in range(12):
            vocab = make_vocab(int(rng.integers(4, 8)))
            probs = rng.random((int(rng.integers(3, 9)), len(vocab))) + 1e-3
            # Duplicated label columns give equal scores to sibling prefixes.
            probs[:, 2] = probs[:, 1]
            probs[:, -1] = probs[:, 1]
            probs /= probs.sum(axis=1, keepdims=True)
            m = PosteriorMatrix(np.log(probs).astype(np.float32), vocab)
            width = int(rng.integers(2, 5))
            self._check(m, BeamConfig(beam_width=width, n_best=width))
            for config in self._configs(rng, vocab, width):
                self._check(m, config)

    def test_peaked_rows_with_repeats(self):
        # Near one-hot frames make the repeat column and the parent fold
        # decide the ranking.
        rng = np.random.default_rng(77)
        for _ in range(8):
            vocab = make_vocab(5)
            frames = int(rng.integers(4, 10))
            probs = np.full((frames, len(vocab)), 1e-3)
            probs[np.arange(frames), rng.integers(0, len(vocab), frames)] = 1.0
            probs /= probs.sum(axis=1, keepdims=True)
            m = PosteriorMatrix(np.log(probs).astype(np.float32), vocab)
            for config in self._configs(rng, vocab, int(rng.integers(2, 5))):
                self._check(m, config)
