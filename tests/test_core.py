"""Core data structures and file formats."""
import math
import struct

import numpy as np
import pytest

from twopass.core import (
    BLANK,
    DanglingTokenError,
    FormatError,
    FusionWeights,
    Hypothesis,
    NBestList,
    OOVError,
    PosteriorMatrix,
    ScoreBundle,
    VocabMismatchError,
    Vocabulary,
    WORD_BOUNDARY,
    detokenize,
    log_add,
    log_add_array,
    load_lexicon,
    load_manifest,
    load_nbest,
    load_posteriors,
    load_transcripts,
    load_vocabulary,
    parse_lexicon,
    read_lines,
    save_vocabulary,
    tokenize,
    with_am,
    write_lines,
    write_manifest,
    write_nbest,
    write_posteriors,
    write_transcripts,
)


def _vocab():
    return Vocabulary((BLANK, "▁ab", "▁a", "b", "c"))


class TestTextLines:

    def test_every_newline_kind_ends_a_line(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_bytes(b"a\nb\r\nc\rd\r\n\n\te \x0b f\n\n")
        assert list(read_lines(path)) == [
            (1, "a"), (2, "b"), (3, "c"), (4, "d"), (5, ""), (6, "\te \x0b f"),
            (7, "")]
        path.write_bytes(b"last line unterminated")
        assert list(read_lines(path)) == [(1, "last line unterminated")]
        path.write_bytes(b"")
        assert list(read_lines(path)) == []

    def test_not_utf8_is_format_error_naming_the_file(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes("u1\tcaf\u00e9\n".encode("latin-1"))
        with pytest.raises(FormatError, match="latin1.txt: not UTF-8 text"):
            list(read_lines(path))

    def test_write_lines_round_trip(self, tmp_path):
        path = tmp_path / "x.txt"
        lines = ["▁a b", "", "\tc"]
        write_lines(path, iter(lines))
        assert path.read_bytes() == "▁a b\n\n\tc\n".encode("utf-8")
        assert [line for _, line in read_lines(path)] == lines


def _uniform_matrix(t, vocab, rng=None):
    v = len(vocab.symbols)
    if rng is None:
        logp = np.full((t, v), -math.log(v), dtype=np.float32)
    else:
        raw = rng.random((t, v))
        raw /= raw.sum(axis=1, keepdims=True)
        logp = np.log(raw).astype(np.float32)
    return PosteriorMatrix(logp, vocab)


class TestVocabulary:

    def test_ids_match_line_order(self):
        v = _vocab()
        assert v.id_of(BLANK) == 0
        assert v.id_of("▁ab") == 1
        assert v.symbols[v.id_of("c")] == "c"

    def test_unknown_symbol_raises(self):
        with pytest.raises(OOVError):
            _vocab().id_of("zzz")

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary((BLANK, "x", "x"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(())

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "vocab.txt")
        save_vocabulary(_vocab(), path)
        clone = load_vocabulary(path)
        assert clone.symbols == _vocab().symbols

    def test_blank_detection(self):
        assert _vocab().has_blank
        v = Vocabulary(("x", "y"))
        assert not v.has_blank
        with pytest.raises(VocabMismatchError):
            v.require_blank()


class TestTokenize:

    def test_round_trip(self):
        v = _vocab()
        words = ["ab", "a", "abc"]
        ids = tokenize(words, v)
        assert detokenize(ids, v) == words

    def test_greedy_longest_match(self):
        v = _vocab()
        # "ab" must come out as the single piece ▁ab, not ▁a + b
        assert tokenize(["ab"], v) == (1,)
        assert tokenize(["abc"], v) == (1, 4)
        assert tokenize(["acb"], v) == (2, 4, 3)

    def test_uncoverable_word(self):
        with pytest.raises(OOVError):
            tokenize(["xyz"], _vocab())

    def test_word_must_start_with_boundary_piece(self):
        # no ▁b piece exists, so a word starting with b is not coverable
        with pytest.raises(OOVError):
            tokenize(["b"], _vocab())

    def test_detokenize_rejects_dangling_continuation(self):
        v = _vocab()
        with pytest.raises(ValueError):
            detokenize((3,), v)  # bare "b" opens no word

    def test_dangling_continuation_is_data_and_value_error(self):
        # a data fault for the CLI; ValueError for callers that catch that
        with pytest.raises(DanglingTokenError, match="dangling continuation token: b") as info:
            detokenize((3, 1), _vocab())
        assert isinstance(info.value, FormatError)
        assert isinstance(info.value, ValueError)

    def test_detokenize_rejects_blank(self):
        with pytest.raises(ValueError):
            detokenize((0,), _vocab())

    def test_empty_sequence(self):
        assert detokenize((), _vocab()) == []
        assert tokenize([], _vocab()) == ()


class TestPosteriorMatrix:

    def test_rejects_unnormalized_rows(self):
        v = _vocab()
        logp = np.full((2, 5), -2.0, dtype=np.float32)
        with pytest.raises(ValueError, match="unnormalized"):
            PosteriorMatrix(logp, v)

    def test_rejects_nan(self):
        v = _vocab()
        logp = np.full((1, 5), -math.log(5), dtype=np.float32)
        logp[0, 0] = np.nan
        with pytest.raises(ValueError):
            PosteriorMatrix(logp, v)

    def test_rejects_wrong_width(self):
        logp = np.full((1, 3), -math.log(3), dtype=np.float32)
        with pytest.raises(ValueError):
            PosteriorMatrix(logp, _vocab())

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PosteriorMatrix(np.zeros((0, 5), dtype=np.float32), _vocab())

    def test_single_cell_matrix_is_valid(self):
        v = Vocabulary((BLANK,))
        m = PosteriorMatrix(np.zeros((1, 1), dtype=np.float32), v)
        assert m.frames == 1

    def test_rows_are_read_only(self):
        m = _uniform_matrix(3, _vocab())
        with pytest.raises(ValueError):
            m.values[0, 0] = 0.0

    def test_random_rows_accepted(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            t = int(rng.integers(1, 12))
            m = _uniform_matrix(t, _vocab(), rng)
            assert m.frames == t


class TestPosteriorFile:

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        v = _vocab()
        m = _uniform_matrix(6, v, rng)
        path = str(tmp_path / "m.fpm")
        write_posteriors(m, path)
        clone = load_posteriors(path, v)
        np.testing.assert_array_equal(clone.values, m.values)

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "bad.fpm")
        with open(path, "wb") as fh:
            fh.write(b"XXXX" + struct.pack("<II", 1, 5) + b"\x00" * 20)
        with pytest.raises(FormatError):
            load_posteriors(path, _vocab())

    def test_truncated_payload(self, tmp_path):
        path = str(tmp_path / "short.fpm")
        with open(path, "wb") as fh:
            fh.write(b"FPM1" + struct.pack("<II", 2, 5) + b"\x00" * 12)
        with pytest.raises(FormatError):
            load_posteriors(path, _vocab())

    def test_trailing_bytes(self, tmp_path):
        v = _vocab()
        m = _uniform_matrix(2, v)
        path = str(tmp_path / "pad.fpm")
        write_posteriors(m, path)
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(FormatError):
            load_posteriors(path, v)

    def test_vocab_size_mismatch(self, tmp_path):
        v = _vocab()
        m = _uniform_matrix(2, v)
        path = str(tmp_path / "m.fpm")
        write_posteriors(m, path)
        small = Vocabulary((BLANK, "x"))
        with pytest.raises(FormatError):
            load_posteriors(path, small)


class TestLogAddArray:
    """log_add_array has the bits of the scalar log_add, element by element."""

    def _check(self, a, b):
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        got = log_add_array(a, b)
        assert got.shape == a.shape
        want = [log_add(x, y).hex() for x, y in zip(a.ravel().tolist(), b.ravel().tolist())]
        assert [x.hex() for x in got.ravel().tolist()] == want

    def test_seeded_pairs(self):
        # NumPy's exp and libm's disagree in the last bit on a few percent of
        # arguments; with the larger argument near 0 and gaps to -40 that
        # bit survives the final add on dozens of these pairs. The wide
        # ranges cover gaps past exp's underflow.
        rng = np.random.default_rng(2501)
        a = rng.uniform(-1.0, 0.0, 20000)
        b = a - rng.uniform(0.0, 40.0, 20000)
        self._check(a, b)
        self._check(b, a)
        self._check(a.reshape(100, 200), b.reshape(100, 200))
        for low in (-60.0, -800.0):
            self._check(rng.uniform(low, 0.0, 20000), rng.uniform(low, 0.0, 20000))

    def test_minus_infinity_on_either_side(self):
        inf = float("-inf")
        a = [inf, -3.5, inf, 0.0, -0.0, inf, inf]
        b = [-3.5, inf, inf, inf, inf, -0.0, 0.0]
        self._check(a, b)
        got = log_add_array(np.array(a), np.array(b)).tolist()
        assert [x.hex() for x in got[4:6]] == ["-0x0.0p+0", "-0x0.0p+0"]

    def test_equal_arguments_and_signed_zeros(self):
        self._check([0.0, -0.0, 0.0, -0.0, -2.25, -1e-300, -700.0],
                    [-0.0, 0.0, 0.0, -0.0, -2.25, -1e-300, -700.0])

    def test_gaps_past_underflow(self):
        # exp of a gap below about -745 is 0.0, so the larger argument wins.
        self._check([0.0, -1.0, -745.0, -746.0, -3.0, -1e3],
                    [-745.2, -747.0, -1490.5, 0.0, -1e4, -3e3])

    def test_magnitudes_near_overflow(self):
        # The gap of the last pair overflows to -inf; exp(-inf) is 0.0.
        self._check([-1e308, -1.7976931348623157e308, 1e308, 1.7e308, -1e308],
                    [-1.5e308, -1.7976931348623157e308, 1e308, 1.7e308, 1.7e308])


class TestScoresAndHypotheses:

    def test_score_bundle_rejects_nan(self):
        with pytest.raises(ValueError):
            ScoreBundle(e2e=float("nan"))

    @pytest.mark.parametrize("field", ["e2e", "lm", "ilm"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_score_bundle_requires_finite_components(self, field, value):
        with pytest.raises(ValueError, match="non-finite %s score" % field):
            ScoreBundle(**{"e2e": -1.0, field: value})

    def test_score_bundle_am_may_be_minus_inf_only(self):
        assert ScoreBundle(e2e=-1.0, am=-math.inf).am == -math.inf
        for am in (math.inf, math.nan):
            with pytest.raises(ValueError, match="am score must be finite or -inf"):
                ScoreBundle(e2e=-1.0, am=am)

    def test_fusion_weights_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            FusionWeights(-0.1, 0.0, 0.0)
        with pytest.raises(ValueError):
            FusionWeights(0.0, float("inf"), 0.0)

    def test_nbest_requires_unique_token_sequences(self):
        h = Hypothesis((1, 2), ScoreBundle(e2e=-1.0))
        with pytest.raises(ValueError):
            NBestList("u", (h, h))

    def test_nbest_must_be_nonempty(self):
        with pytest.raises(ValueError):
            NBestList("u", ())

    def test_with_am_fills_only_am(self):
        h = Hypothesis((1,), ScoreBundle(e2e=-1.0, lm=-2.0, ilm=-0.5))
        h2 = with_am(h, -3.25)
        assert h2.scores.am == -3.25
        assert (h2.scores.e2e, h2.scores.lm, h2.scores.ilm) == (-1.0, -2.0, -0.5)
        assert h.scores.am is None


class TestNBestFile:

    def _nbest(self):
        v = _vocab()
        hyps = (
            Hypothesis((1, 3), ScoreBundle(e2e=-1.5, lm=-2.25, ilm=-0.125,
                                           am=-7.75)),
            Hypothesis((2,), ScoreBundle(e2e=-2.0)),
        )
        return NBestList("utt-1", hyps), v

    def test_round_trip_is_lossless(self, tmp_path):
        nbest, v = self._nbest()
        path = str(tmp_path / "x.nbest")
        write_nbest([nbest], v, path)
        (clone,) = load_nbest(path, v)
        assert clone.utterance_id == "utt-1"
        for a, b in zip(clone.hypotheses, nbest.hypotheses):
            assert a.tokens == b.tokens
            assert a.scores == b.scores

    def test_float_repr_survives_awkward_values(self, tmp_path):
        v = _vocab()
        e2e = -math.pi * 1e3
        nbest = NBestList("u", (Hypothesis((1,), ScoreBundle(e2e=e2e)),))
        path = str(tmp_path / "x.nbest")
        write_nbest([nbest], v, path)
        (clone,) = load_nbest(path, v)
        assert clone.top().scores.e2e == e2e

    def test_missing_am_serializes_as_na(self, tmp_path):
        nbest, v = self._nbest()
        path = str(tmp_path / "x.nbest")
        write_nbest([nbest], v, path)
        lines = open(path).read().splitlines()
        assert lines[1].split("\t")[5] == "NA"

    def test_rank_order_validated(self, tmp_path):
        nbest, v = self._nbest()
        path = str(tmp_path / "x.nbest")
        write_nbest([nbest], v, path)
        lines = open(path).read().splitlines()
        with open(path, "w") as fh:
            fh.write(lines[1] + "\n" + lines[0] + "\n")
        with pytest.raises(FormatError):
            load_nbest(path, v)

    def test_field_count_validated(self, tmp_path):
        path = str(tmp_path / "x.nbest")
        with open(path, "w") as fh:
            fh.write("u\t1\t-1.0\t0.0\n")
        with pytest.raises(FormatError):
            load_nbest(path, _vocab())

    @pytest.mark.parametrize("field", ["e2e", "lm", "ilm"])
    @pytest.mark.parametrize("value", ["inf", "-inf"])
    def test_non_finite_scores_rejected(self, tmp_path, field, value):
        # a zero fusion weight times an infinite lm or ilm would be NaN
        scores = {"e2e": "-1.0", "lm": "-2.0", "ilm": "-0.5"}
        scores[field] = value
        path = str(tmp_path / "x.nbest")
        with open(path, "w") as fh:
            fh.write("u\t1\t%s\t%s\t%s\tNA\t▁a\n" % (
                scores["e2e"], scores["lm"], scores["ilm"]))
        with pytest.raises(FormatError, match="line 1: non-finite %s" % field):
            load_nbest(path, _vocab())

    def test_minus_inf_am_accepted(self, tmp_path):
        # rescore --floor-logp -inf writes -inf am scores
        v = _vocab()
        nbest = NBestList("u", (
            Hypothesis((1,), ScoreBundle(e2e=-1.0, am=-math.inf)),))
        path = str(tmp_path / "x.nbest")
        write_nbest([nbest], v, path)
        (clone,) = load_nbest(path, v)
        assert clone.top().scores.am == -math.inf


class TestLexiconParsing:

    PH = Vocabulary(("p0", "p1", "sil"))

    def test_single_pronunciation_gets_prior_one(self):
        lex = parse_lexicon(["w\tp0 p1"], self.PH)
        ((phones, prior),) = lex.pronunciations("w")
        assert phones == (0, 1)
        np.testing.assert_allclose(prior, 1.0, atol=1e-12)

    def test_explicit_priors_normalized(self):
        lex = parse_lexicon(["w\t0.6\tp0", "w\t0.2\tp1"], self.PH)
        priors = sorted(prior for _, prior in lex.pronunciations("w"))
        np.testing.assert_allclose(priors, [0.25, 0.75], atol=1e-12)

    def test_prior_that_normalizes_to_zero_rejected(self):
        # 5e-324 / 2 underflows; a zero prior has no log
        with pytest.raises(FormatError, match="word 'w': a probability normalizes to 0"):
            parse_lexicon(["w\t1\tp0", "w\t1\tp1", "w\t5e-324\tsil"], self.PH)

    def test_mixed_explicit_and_missing_rejected(self):
        with pytest.raises(FormatError):
            parse_lexicon(["w\t0.6\tp0", "w\tp1"], self.PH)

    def test_duplicate_pronunciation_rejected(self):
        with pytest.raises(FormatError):
            parse_lexicon(["w\tp0", "w\tp0"], self.PH)

    def test_unknown_phoneme_rejected(self):
        with pytest.raises(FormatError):
            parse_lexicon(["w\tp9"], self.PH)

    def test_oov_word(self):
        lex = parse_lexicon(["w\tp0"], self.PH)
        with pytest.raises(OOVError, match="zz"):
            lex.pronunciations("zz")

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "lex.tsv")
        with open(path, "w") as fh:
            fh.write("w\t0.5\tp0 p1\nw\t0.5\tp1\nv\tp0\n")
        lex = load_lexicon(path, self.PH)
        assert len(lex.pronunciations("w")) == 2
        assert len(lex.pronunciations("v")) == 1

    def test_file_errors_name_the_file(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("w\tp0\n\nv\tp9\n", encoding="utf-8")
        with pytest.raises(FormatError, match="lex.tsv: line 3: unknown symbol: p9"):
            load_lexicon(path, self.PH)


class TestTranscriptsAndManifests:

    def test_transcripts_round_trip(self, tmp_path):
        utts = [("u1", ("a", "b")), ("u2", ("c",))]
        path = str(tmp_path / "t.tsv")
        write_transcripts(utts, path)
        assert load_transcripts(path) == utts

    def test_manifest_paths_resolve_relative_to_manifest(self, tmp_path):
        sub = tmp_path / "deep"
        sub.mkdir()
        data = sub / "u1.fpm"
        data.write_bytes(b"")
        manifest = str(tmp_path / "list.tsv")
        write_manifest([("u1", str(data))], manifest)
        entries = load_manifest(manifest)
        assert entries == [("u1", str(data))]
        text = open(manifest).read()
        assert "deep/u1.fpm" in text and str(tmp_path) not in text

    @pytest.mark.parametrize("loader", [load_transcripts, load_manifest])
    def test_blank_lines_skipped_and_missing_tab_rejected(self, tmp_path,
                                                          loader):
        path = str(tmp_path / "x.tsv")
        with open(path, "w") as fh:
            fh.write("u1\tx\n\nu2\ty\n")
        assert [utt for utt, _ in loader(path)] == ["u1", "u2"]
        with open(path, "w") as fh:
            fh.write("u1\tx\n\nu2 y\n")
        with pytest.raises(FormatError, match="line 3: missing tab"):
            loader(path)

    def test_manifest_duplicate_utterance_rejected(self, tmp_path):
        # manifests and transcripts share one line reader, and its check
        path = str(tmp_path / "x.tsv")
        with open(path, "w") as fh:
            fh.write("u1\ta\n\nu2\tb\nu1\tc\n")
        for loader in (load_manifest, load_transcripts):
            with pytest.raises(FormatError,
                               match="line 4: duplicate utterance u1"):
                loader(path)
