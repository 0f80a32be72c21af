"""Forced-alignment tests.

viterbi_align is checked against a brute-force search that enumerates every
frame-state path through the pronunciation graph (entry charges, transition
charges and all) and takes the max, and bit for bit against the reference
recursion in oracles.py; AmScorer, which scores a whole N-best list in
one pass, is checked against one reference alignment per hypothesis, on
one list and over many lists, in chunks cut anywhere in the sequence.
Graph construction is checked through
closed-form path counts: a sequence of words with n1, n2, ... pronunciations
and optional silence at the s possible slots admits prod(ni) * 2^s paths.
"""
import collections
import dataclasses
import itertools
import math

import numpy as np
import pytest

from twopass import aligner
from twopass.aligner import (
    AlignOptions,
    AmScorer,
    DEFAULT_FLOOR_LOG_PROB,
    expand_pronunciations,
    viterbi_align,
)
from twopass.core import (
    AlignmentError,
    BLANK,
    Hypothesis,
    MINUS_INF,
    OOVError,
    PosteriorMatrix,
    ScoreBundle,
    Vocabulary,
    parse_lexicon,
)

import oracles

PH = Vocabulary(("p0", "p1", "p2", "sil"))
SIL = PH.id_of("sil")


def score_list(hypotheses, posteriors, lexicon, vocab, options=AlignOptions()):
    """The scores AmScorer gives one list."""
    return next(AmScorer(lexicon, vocab, options).scores([(hypotheses, posteriors)]))


def matrix_from_rows(rows):
    arr = np.asarray(rows, dtype=np.float64)
    return PosteriorMatrix(np.log(arr).astype(np.float32), PH)


def random_matrix(rng, frames):
    probs = rng.random((frames, len(PH))) + 1e-3
    probs /= probs.sum(axis=1, keepdims=True)
    return PosteriorMatrix(np.log(probs).astype(np.float32), PH)


def path_count(graph):
    """Number of distinct source-to-sink state paths of a pronunciation graph."""
    ways = [0] * len(graph.phoneme_ids)
    for s, _ in graph.entries:
        ways[s] += 1
    for s in range(len(graph.phoneme_ids)):
        for p, _ in graph.preds[s]:
            ways[s] += ways[p]
    return sum(ways[s] for s in graph.finals)


def brute_force_best(graph, matrix):
    """Max-scoring frame-state path by exhaustive depth-first search."""
    rows = matrix.values.astype(np.float64)
    succs = {s: [(s, 0.0)] for s in range(len(graph.phoneme_ids))}
    for s, plist in enumerate(graph.preds):
        for p, charge in plist:
            succs[p].append((s, charge))
    best = MINUS_INF
    stack = [
        (s, charge + rows[0][graph.phoneme_ids[s]], 1)
        for s, charge in graph.entries]
    while stack:
        state, score, t = stack.pop()
        if t == matrix.frames:
            if state in graph.finals and score > best:
                best = score
            continue
        for nxt, charge in succs[state]:
            stack.append(
                (nxt, score + charge + rows[t][graph.phoneme_ids[nxt]], t + 1))
    return best


class TestGraphConstruction:

    LEX = parse_lexicon(
        ["one\tp0 p1", "two\t0.5\tp2", "two\t0.5\tp0 p2", "three\tp1"], PH)

    def test_path_count_is_product_of_pronunciations(self):
        g = expand_pronunciations(["one", "two", "three"], self.LEX)
        assert path_count(g) == 1 * 2 * 1
        g2 = expand_pronunciations(["two", "two"], self.LEX)
        assert path_count(g2) == 4

    def test_silence_doubles_every_slot(self):
        g = expand_pronunciations(["one", "two"], self.LEX,
                                  allow_silence=True, silence_phoneme=SIL)
        # 3 optional silence slots: start, between, end
        assert path_count(g) == 1 * 2 * 2 ** 3

    def test_min_path_states_is_sum_of_shortest_prons(self):
        g = expand_pronunciations(["one", "two", "three"], self.LEX)
        assert g.min_path_states() == 2 + 1 + 1
        g_sil = expand_pronunciations(
            ["one", "two", "three"], self.LEX,
            allow_silence=True, silence_phoneme=SIL)
        # silence is optional so the minimum does not grow
        assert g_sil.min_path_states() == 4

    def test_empty_word_sequence_rejected(self):
        with pytest.raises(ValueError):
            expand_pronunciations([], self.LEX)

    def test_oov_word_raises(self):
        with pytest.raises(OOVError):
            expand_pronunciations(["one", "moo"], self.LEX)


class TestViterbi:

    LEX = parse_lexicon(["w\tp0 p1"], PH)

    def test_two_frames_single_path(self):
        g = expand_pronunciations(["w"], self.LEX)
        m = matrix_from_rows([[0.7, 0.1, 0.1, 0.1],
                              [0.2, 0.6, 0.1, 0.1]])
        score, alignment = viterbi_align(m, g)
        np.testing.assert_allclose(score, math.log(0.7) + math.log(0.6),
                                   atol=1e-6)
        assert alignment == (0, 1)

    def test_three_frames_picks_better_split(self):
        g = expand_pronunciations(["w"], self.LEX)
        m = matrix_from_rows([[0.7, 0.1, 0.1, 0.1],
                              [0.1, 0.7, 0.1, 0.1],
                              [0.2, 0.6, 0.1, 0.1]])
        score, alignment = viterbi_align(m, g)
        # p0 p1 p1 beats p0 p0 p1 because frame 1 prefers p1
        assert alignment == (0, 1, 1)
        np.testing.assert_allclose(
            score, math.log(0.7) + math.log(0.7) + math.log(0.6), atol=1e-6)

    def test_too_few_frames(self):
        g = expand_pronunciations(["w"], self.LEX)
        m = matrix_from_rows([[0.7, 0.1, 0.1, 0.1]])
        with pytest.raises(AlignmentError, match="too short"):
            viterbi_align(m, g)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1701)
        lex = parse_lexicon(
            ["a\tp0", "a\tp1 p2", "b\t0.7\tp2", "b\t0.3\tp2 p0", "c\tp1"],
            PH)
        words_pool = [["a"], ["b"], ["a", "b"], ["c", "a"], ["b", "b"]]
        for trial in range(20):
            words = words_pool[int(rng.integers(len(words_pool)))]
            silence = bool(rng.integers(2))
            g = expand_pronunciations(
                words, lex, allow_silence=silence,
                silence_phoneme=SIL if silence else None)
            frames = g.min_path_states() + int(rng.integers(0, 3))
            m = random_matrix(rng, frames)
            score, alignment = viterbi_align(m, g)
            expected = brute_force_best(g, m)
            np.testing.assert_allclose(
                score, expected, atol=1e-9,
                err_msg="trial=%d words=%r silence=%r" % (trial, words, silence))
            assert len(alignment) == frames

    def test_pronunciation_prior_charged_once(self):
        lex = parse_lexicon(["w\t0.75\tp0", "w\t0.25\tp1"], PH)
        g = expand_pronunciations(["w"], lex)
        # both prons fit in 2 frames; matrix is symmetric in p0/p1 so only
        # the priors decide, and staying 2 frames must not double-charge
        m = matrix_from_rows([[0.4, 0.4, 0.1, 0.1],
                              [0.4, 0.4, 0.1, 0.1]])
        score, alignment = viterbi_align(m, g)
        assert alignment == (0, 0)
        np.testing.assert_allclose(
            score, math.log(0.75) + 2 * math.log(0.4), atol=1e-6)

    def test_allowing_silence_never_hurts(self):
        rng = np.random.default_rng(42)
        lex = parse_lexicon(["a\tp0", "b\tp1 p2"], PH)
        for _ in range(10):
            words = [["a"], ["a", "b"], ["b"]][int(rng.integers(3))]
            plain = expand_pronunciations(words, lex)
            with_sil = expand_pronunciations(
                words, lex, allow_silence=True, silence_phoneme=SIL)
            frames = plain.min_path_states() + int(rng.integers(0, 3))
            m = random_matrix(rng, frames)
            s_plain, _ = viterbi_align(m, plain)
            s_sil, _ = viterbi_align(m, with_sil)
            assert s_sil >= s_plain - 1e-12

    def test_silence_absorbs_leading_frames(self):
        lex = parse_lexicon(["w\tp0"], PH)
        g = expand_pronunciations(["w"], lex,
                                  allow_silence=True, silence_phoneme=SIL)
        m = matrix_from_rows([[0.05, 0.05, 0.05, 0.85],
                              [0.85, 0.05, 0.05, 0.05]])
        score, alignment = viterbi_align(m, g)
        assert alignment == (SIL, 0)
        np.testing.assert_allclose(score, 2 * math.log(0.85), atol=1e-6)

    def test_uniform_prior_shift_rescales_score_only(self):
        lex = parse_lexicon(["a\tp0", "b\tp1 p2"], PH)
        g = expand_pronunciations(["a", "b"], lex)
        rng = np.random.default_rng(7)
        m = random_matrix(rng, 5)
        base_score, base_alignment = viterbi_align(m, g)
        c = -0.37
        shifted_score, shifted_alignment = viterbi_align(
            m, g, log_prior_shift=[c] * len(PH))
        assert shifted_alignment == base_alignment
        np.testing.assert_allclose(shifted_score, base_score - 5 * c,
                                   atol=1e-6)

    def test_prior_shift_length_checked(self):
        lex = parse_lexicon(["a\tp0"], PH)
        g = expand_pronunciations(["a"], lex)
        m = matrix_from_rows([[0.7, 0.1, 0.1, 0.1]])
        with pytest.raises(ValueError):
            viterbi_align(m, g, log_prior_shift=[0.0, 0.0])

    def test_phoneme_id_outside_matrix(self):
        lex = parse_lexicon(["a\tp1"], PH)
        g = expand_pronunciations(["a"], lex)
        small = Vocabulary(("q",))
        m = PosteriorMatrix(np.zeros((2, 1), dtype=np.float32), small)
        with pytest.raises(ValueError):
            viterbi_align(m, g)


def random_lexicon(rng):
    """(phoneme vocabulary, lexicon) for 1-3 words w0, w1, ... of 1-3
    pronunciations of 1-3 phonemes over 2-5 phonemes plus "sil"; half the
    words carry explicit priors, and those are 0.5 half the time."""
    def count(low, high):
        return int(rng.integers(low, high))

    symbols = count(3, 7)
    ph = Vocabulary(tuple("p%d" % i for i in range(symbols - 1)) + ("sil",))
    lines = []
    for w in range(count(1, 4)):
        prons = {tuple(rng.integers(0, symbols - 1, size=count(1, 4)).tolist())
                 for _ in range(count(1, 4))}
        explicit = rng.random() < 0.5
        for pron in sorted(prons):
            prior = ""
            if explicit:
                prob = round(float(rng.uniform(0.05, 1.0)), 3)
                prior = "%r\t" % (0.5 if rng.random() < 0.5 else prob)
            lines.append("w%d\t%s%s" % (w, prior, " ".join("p%d" % x for x in pron)))
    return ph, parse_lexicon(lines, ph)


def random_matrix_and_shift(rng, ph, frames):
    """A (frames x len(ph)) matrix, uniform in one case in four and with two
    equal columns in another, so that exact ties occur; and a log-prior
    shift in about two cases in five, else None."""
    symbols = len(ph)
    kind = int(rng.integers(0, 4))
    if kind == 0:
        probs = np.full((frames, symbols), 1.0 / symbols)
    else:
        probs = rng.random((frames, symbols)) + 1e-3
        if kind == 1:
            probs[:, 1] = probs[:, 0]
        probs /= probs.sum(axis=1, keepdims=True)
    matrix = PosteriorMatrix(np.log(probs).astype(np.float32), ph)
    shift = None
    if rng.random() < 0.4:
        shift = np.log(rng.dirichlet(np.ones(symbols))).tolist()
    return matrix, shift


def random_alignment_case(rng):
    """(matrix, graph, log_prior_shift) over a random lexicon and word
    sequence. Silence, explicit priors, a shift and a too-short matrix each
    come up in about half the cases or less; exact ties decide the
    alignment in about half the cases."""
    ph, lex = random_lexicon(rng)
    words = [str(rng.choice(sorted(lex.entries)))
             for _ in range(int(rng.integers(1, 4)))]
    silence = bool(rng.integers(2))
    graph = expand_pronunciations(
        words, lex, allow_silence=silence,
        silence_phoneme=ph.id_of("sil") if silence else None)
    frames = max(1, graph.min_path_states() + int(rng.integers(-2, 5)))
    matrix, shift = random_matrix_and_shift(rng, ph, frames)
    return matrix, graph, shift


def outcome(align, matrix, graph, shift):
    try:
        return align(matrix, graph, log_prior_shift=shift)
    except AlignmentError as exc:
        return type(exc), str(exc)


class TestViterbiMatchesReference:

    def test_bit_identical_to_reference(self):
        rng = np.random.default_rng(2718)
        aligned = 0
        for trial in range(600):
            matrix, graph, shift = random_alignment_case(rng)
            got = outcome(viterbi_align, matrix, graph, shift)
            want = outcome(oracles.reference_viterbi_align,
                           matrix, graph, shift)
            assert got == want, "trial %d" % trial
            aligned += isinstance(got[0], float)
        assert 300 < aligned < 600  # both outcomes are exercised


# "▁w" "1" spells the word of "▁w1"; "▁zz" is never in a lexicon; "x"
# dangles at the start of a hypothesis and spells an OOV word elsewhere.
LIST_PIECES = Vocabulary(
    (BLANK, "▁w", "0", "1", "2", "▁w0", "▁w1", "▁w2", "▁zz", "x"))


def random_nbest_case(rng):
    """(hypotheses, matrix, lexicon, options) for one N-best list of 1-8
    hypotheses over random_lexicon's words.

    Each hypothesis is a prefix of one of 1-3 base word sequences, so
    hypotheses share prefixes and repeat; each word is spelled as one piece
    or as two at random, so distinct token sequences carry the same words.
    One hypothesis in four is empty, dangling or holds an OOV word. The
    frame count is drawn around the first base's shortest path, so some
    hypotheses are too short. Silence is on in half the lists."""
    def count(low, high):
        return int(rng.integers(low, high))

    ph, lexicon = random_lexicon(rng)
    known = sorted(lexicon.entries)
    bases = [[known[count(0, len(known))] for _ in range(count(1, 5))]
             for _ in range(count(1, 4))]
    piece = LIST_PIECES.id_of
    hypotheses = []
    for _ in range(count(1, 9)):
        base = bases[count(0, len(bases))]
        tokens = []
        for word in base[:count(1, len(base) + 1)]:
            if rng.random() < 0.5:
                tokens.append(piece("▁" + word))
            else:
                tokens += [piece("▁w"), piece(word[1:])]
        fault = count(0, 16)
        if fault == 0:
            tokens = []
        elif fault == 1:
            tokens.insert(0, piece("x"))
        elif fault == 2:
            tokens.insert(count(0, len(tokens) + 1), piece("▁zz"))
        elif fault == 3:
            tokens.append(piece("x"))
        hypotheses.append(Hypothesis(tuple(tokens), ScoreBundle(e2e=-1.0)))
    silence = bool(rng.integers(2))
    shortest = expand_pronunciations(bases[0], lexicon).min_path_states()
    matrix, shift = random_matrix_and_shift(
        rng, ph, max(1, shortest + count(-2, 4)))
    options = AlignOptions(
        allow_silence=silence, silence_phoneme=ph.id_of("sil") if silence else None,
        phoneme_log_priors=None if shift is None else tuple(shift))
    return hypotheses, matrix, lexicon, options


def scores_or_error(scores):
    """The repr of every score, or the (type, message) of the exception."""
    try:
        return [repr(score) for score in scores()]
    except (OOVError, AlignmentError) as exc:
        return type(exc), str(exc)


class TestAmScoresMatchReference:

    def test_list_matches_one_reference_alignment_per_hypothesis(self):
        rng = np.random.default_rng(1618)
        outcomes = collections.Counter()
        for trial in range(250):
            hyps, matrix, lexicon, options = random_nbest_case(rng)
            for policy in ("floor", "strict"):
                opts = dataclasses.replace(options, oov_policy=policy)
                got = scores_or_error(
                    lambda: score_list(hyps, matrix, lexicon, LIST_PIECES, opts))
                want = scores_or_error(lambda: [
                    oracles.reference_am_score(h, matrix, lexicon, LIST_PIECES, opts)
                    for h in hyps])
                assert got == want, "trial %d, %s" % (trial, policy)
                outcomes[policy, got[1] if isinstance(got, tuple) else "scored"] += 1
        # every floor reason raises under strict, and most lists align
        assert {message for (policy, message) in outcomes if policy == "strict"} \
            >= {"scored", "empty hypothesis", "dangling continuation token: x",
                "OOV word: zz", "utterance too short to align"}
        assert outcomes["floor", "scored"] == 250
        assert outcomes["strict", "scored"] > 40


def chunk_lexicon(rng):
    """(phoneme vocabulary, lexicon) for 2-3 words w0, w1, ... of 1-3
    pronunciations of 1-4 phonemes over 2-4 phonemes plus "sil", every
    pronunciation with an explicit prior drawn from (0.05, 1)."""
    def count(low, high):
        return int(rng.integers(low, high))

    symbols = count(3, 6)
    ph = Vocabulary(tuple("p%d" % i for i in range(symbols - 1)) + ("sil",))
    lines = []
    for w in range(count(2, 4)):
        prons = {tuple(rng.integers(0, symbols - 1, size=count(1, 5)).tolist())
                 for _ in range(count(1, 4))}
        for pron in sorted(prons):
            lines.append("w%d\t%r\t%s" % (w, round(float(rng.uniform(0.05, 1.0)), 3),
                                          " ".join("p%d" % x for x in pron)))
    return ph, parse_lexicon(lines, ph)


def chunk_case(rng):
    """(lexicon, phoneme vocabulary, lists) for 3-7 N-best lists of (hypotheses,
    matrix). Hypotheses are prefixes of a few base word sequences, with an
    empty, dangling or OOV one now and then; frame counts differ from list
    to list, and some lists are shorter than some of their hypotheses.
    One list in ten holds only hypotheses that floor."""
    def count(low, high):
        return int(rng.integers(low, high))

    ph, lexicon = chunk_lexicon(rng)
    known = sorted(lexicon.entries)
    piece = LIST_PIECES.id_of
    lists = []
    for _ in range(count(3, 8)):
        bases = [[known[count(0, len(known))] for _ in range(count(1, 5))]
                 for _ in range(count(1, 3))]
        hypotheses = []
        for _ in range(count(1, 7)):
            base = bases[count(0, len(bases))]
            tokens = [piece("▁" + w) for w in base[:count(1, len(base) + 1)]]
            fault = count(0, 30)
            if fault == 0:
                tokens = []
            elif fault == 1:
                tokens.insert(0, piece("x"))
            elif fault == 2:
                tokens.append(piece("▁zz"))
            hypotheses.append(hyp(tokens))
        if rng.random() < 0.1:
            hypotheses = [hyp([]), hyp([piece("x"), piece("▁w0")]), hyp([piece("▁zz")])]
        shortest = expand_pronunciations(bases[0], lexicon).min_path_states()
        matrix, _ = random_matrix_and_shift(rng, ph, max(1, shortest + count(-2, 8)))
        lists.append((hypotheses, matrix))
    return lexicon, ph, lists


def outcome_of(score_lists):
    """The float.hex of every score of every list, up to the first list
    that raises, and then the (type, message) of its exception."""
    out = []
    try:
        for scores in score_lists():
            out.append([score.hex() for score in scores])
    except (OOVError, AlignmentError) as exc:
        out.append((type(exc), str(exc)))
    return out


class TestChunkedScorerMatchesReference:
    """AmScorer lays out the tries of a chunk of lists behind one sentinel,
    longest list first, and runs one pass; whatever the chunk size, every
    score has the bits of one reference alignment per hypothesis, and under
    strict the first failing list raises, after the lists before it."""

    @pytest.mark.parametrize("cells", [aligner.CHUNK_CELLS, 300, 60, 1])
    def test_scores_match_reference_bit_for_bit(self, monkeypatch, cells):
        passes = []
        viterbi = aligner._viterbi

        def counted(*args):
            passes.append(1)
            viterbi(*args)

        monkeypatch.setattr(aligner, "CHUNK_CELLS", cells)
        monkeypatch.setattr(aligner, "_viterbi", counted)
        rng = np.random.default_rng(3141)
        seen = collections.Counter()
        for trial in range(60):
            lexicon, ph, lists = chunk_case(rng)
            for silence, policy in itertools.product((False, True), ("floor", "strict")):
                options = AlignOptions(
                    allow_silence=silence, oov_policy=policy,
                    silence_phoneme=ph.id_of("sil") if silence else None)
                scorer = AmScorer(lexicon, LIST_PIECES, options)
                del passes[:]
                got = outcome_of(lambda: scorer.scores(lists))
                want = outcome_of(lambda: ([
                    oracles.reference_am_score(h, m, lexicon, LIST_PIECES, options)
                    for h in hyps] for hyps, m in lists))
                assert got == want, "trial %d, silence %r, %s" % (trial, silence, policy)
                floored = [set(scores) == {(m.frames * options.floor_log_prob).hex()}
                           for scores, (_, m) in zip(got, lists) if isinstance(scores, list)]
                seen["passes > 1"] += len(passes) > 1
                seen["all floored"] += any(floored)
                seen["raised after a list"] += isinstance(got[-1], tuple) and len(got) > 1
        assert seen["all floored"] > 20 and seen["raised after a list"] > 20
        if cells < 100:
            assert seen["passes > 1"] > 100

    def test_chunk_whose_pass_raises_is_scored_again_one_list_at_a_time(
            self, monkeypatch):
        # every pass that holds the third list fails: the lists before it
        # come from passes of their own, then its error is raised
        lexicon = parse_lexicon(["go\tp0 p1", "stop\tp2"], PH)
        pieces = Vocabulary((BLANK, "▁go", "▁stop"))
        rng = np.random.default_rng(17)
        lists = [([hyp([1]), hyp([2, 1])], random_matrix(rng, frames))
                 for frames in (4, 3, 5, 6)]
        want = [score_list(h, m, lexicon, pieces) for h, m in lists[:2]]
        emissions = aligner._emissions

        def failing(matrices, *args):
            if any(m is lists[2][1] for m in matrices):
                raise MemoryError("no room")
            return emissions(matrices, *args)

        monkeypatch.setattr(aligner, "_emissions", failing)
        got = []
        with pytest.raises(MemoryError, match="no room"):
            got.extend(AmScorer(lexicon, pieces).scores(lists))
        assert got == want


WP = Vocabulary((BLANK, "▁go", "▁stop", "p"))


def hyp(tokens):
    return Hypothesis(tuple(tokens), ScoreBundle(e2e=-1.0))


class TestAmScore:

    LEX = parse_lexicon(["go\tp0 p1", "stop\tp2"], PH)

    def test_equals_direct_alignment_score(self):
        rng = np.random.default_rng(11)
        m = random_matrix(rng, 4)
        g = expand_pronunciations(["go"], self.LEX)
        expected, _ = viterbi_align(m, g)
        np.testing.assert_allclose(
            score_list([hyp([1])], m, self.LEX, WP)[0], expected, atol=1e-12)

    def test_oov_word_strict_raises(self):
        rng = np.random.default_rng(12)
        m = random_matrix(rng, 3)
        # "gop" detokenizes fine but is not in the lexicon
        with pytest.raises(OOVError):
            score_list([hyp([1, 3])], m, self.LEX, WP)[0]

    def test_oov_word_floor_scores(self):
        rng = np.random.default_rng(13)
        m = random_matrix(rng, 3)
        opts = AlignOptions(oov_policy="floor")
        np.testing.assert_allclose(
            score_list([hyp([1, 3])], m, self.LEX, WP, opts)[0],
            3 * DEFAULT_FLOOR_LOG_PROB, atol=1e-12)

    def test_dangling_continuation_follows_policy(self):
        rng = np.random.default_rng(14)
        m = random_matrix(rng, 3)
        with pytest.raises(AlignmentError):
            score_list([hyp([3])], m, self.LEX, WP)[0]
        opts = AlignOptions(oov_policy="floor", floor_log_prob=math.log(0.5))
        np.testing.assert_allclose(
            score_list([hyp([3])], m, self.LEX, WP, opts)[0],
            3 * math.log(0.5), atol=1e-12)

    def test_empty_hypothesis_follows_policy(self):
        rng = np.random.default_rng(15)
        m = random_matrix(rng, 2)
        with pytest.raises(AlignmentError):
            score_list([hyp([])], m, self.LEX, WP)[0]
        opts = AlignOptions(oov_policy="floor")
        np.testing.assert_allclose(
            score_list([hyp([])], m, self.LEX, WP, opts)[0],
            2 * DEFAULT_FLOOR_LOG_PROB, atol=1e-12)

    def test_too_short_follows_policy(self):
        rng = np.random.default_rng(16)
        m = random_matrix(rng, 1)
        with pytest.raises(AlignmentError):
            score_list([hyp([1])], m, self.LEX, WP)[0]  # "go" needs 2 frames
        opts = AlignOptions(oov_policy="floor")
        np.testing.assert_allclose(
            score_list([hyp([1])], m, self.LEX, WP, opts)[0],
            DEFAULT_FLOOR_LOG_PROB, atol=1e-12)


class TestAlignOptions:

    def test_policy_validated(self):
        with pytest.raises(ValueError):
            AlignOptions(oov_policy="ignore")

    def test_silence_needs_phoneme(self):
        with pytest.raises(ValueError):
            AlignOptions(allow_silence=True)

    @pytest.mark.parametrize("floor", [5.0, math.inf, math.nan])
    def test_floor_must_not_be_positive_or_nan(self, floor):
        # frames * floor would be a positive, infinite or NaN am score
        with pytest.raises(ValueError, match="floor_log_prob must be <= 0"):
            AlignOptions(floor_log_prob=floor)

    def test_floor_may_be_zero_or_minus_inf(self):
        assert AlignOptions(floor_log_prob=0.0).floor_log_prob == 0.0
        assert AlignOptions(floor_log_prob=-math.inf).floor_log_prob == -math.inf
