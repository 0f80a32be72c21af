"""Tests for the backoff n-gram model: ARPA parsing, scoring, training.

The committed file tests/data/toy_bigram.arpa was written by hand.  Its
backoff weights were worked out manually so the scoring tests have an
oracle that is independent of the training code:

    unigrams  P(a)=0.2  P(b)=0.3  P(c)=0.2  P(</s>)=0.3
    bigrams   P(a|<s>)=0.5  P(b|a)=0.4  P(</s>|a)=0.3  P(b|b)=0.25

    bow(<s>) = (1-0.5)  / (1-0.2)       = 0.625
    bow(a)   = (1-0.7)  / (1-0.6)       = 0.75
    bow(b)   = (1-0.25) / (1-0.3)       = 15/14   (a bow above one is legal)
    bow(c)   : no bigrams seen, omitted = 1

With those weights every conditional distribution sums to exactly one,
which the sum tests below check through the public API.
"""
import math
import os
import warnings

import numpy as np
import pytest

from twopass.core import FormatError, OOVError
from twopass.ngram import (
    LN10,
    NGramModel,
    SENTENCE_END,
    SENTENCE_START,
    load_arpa,
    train_add_one,
    write_arpa,
)

from oracles import random_arpa_lm

TOY_ARPA = os.path.join(os.path.dirname(__file__), "data", "toy_bigram.arpa")

# log10 values exactly as they appear in the committed file
L_A = -0.6989700
L_B = -0.5228787
L_C = -0.6989700
L_EOS = -0.5228787
L_SA = -0.3010300
L_AB = -0.3979400
L_AE = -0.5228787
L_BB = -0.6020600
BOW_S = -0.2041200
BOW_A = -0.1249387
BOW_B = 0.0299632


def nat(log10_value):
    return log10_value * LN10


class TestToyModelScoring:
    """Hand-computed backoff walks against the committed ARPA file."""

    def setup_method(self):
        self.model = load_arpa(TOY_ARPA)

    def test_order_and_vocab(self):
        assert self.model.order == 2
        assert self.model.vocab == {"<s>", "a", "b", "c", "</s>"}

    def test_direct_bigram(self):
        np.testing.assert_allclose(
            self.model.score_sequence(["a"]), nat(L_SA), rtol=0, atol=1e-12)

    def test_two_direct_bigrams(self):
        np.testing.assert_allclose(
            self.model.score_sequence(["a", "b"]),
            nat(L_SA) + nat(L_AB), atol=1e-12)

    def test_backoff_through_seen_context(self):
        # (a, c) unseen: P(c|a) = bow(a) * P(c)
        np.testing.assert_allclose(
            self.model.score_sequence(["a", "c"]),
            nat(L_SA) + nat(BOW_A) + nat(L_C), atol=1e-12)

    def test_backoff_at_sentence_start(self):
        # (<s>, b) unseen: P(b|<s>) = bow(<s>) * P(b)
        np.testing.assert_allclose(
            self.model.score_sequence(["b"]),
            nat(BOW_S) + nat(L_B), atol=1e-12)

    def test_eos_direct(self):
        np.testing.assert_allclose(
            self.model.score_sequence(["a"], include_eos=True),
            nat(L_SA) + nat(L_AE), atol=1e-12)

    def test_eos_with_absent_bow_and_positive_bow(self):
        # P(c|<s>) backs off through <s>; P(b|c) uses the *absent* bow(c)=1;
        # P(</s>|b) goes through bow(b) which is greater than one.
        expected = (nat(BOW_S) + nat(L_C)) + nat(L_B) \
            + (nat(BOW_B) + nat(L_EOS))
        np.testing.assert_allclose(
            self.model.score_sequence(["c", "b"], include_eos=True),
            expected, atol=1e-12)

    def test_conditional_distributions_sum_to_one(self):
        predicted = ["a", "b", "c", SENTENCE_END]
        for context in ([SENTENCE_START], ["a"], ["b"], ["c"]):
            total = sum(
                math.exp(self.model.conditional(context, tok))
                for tok in predicted)
            np.testing.assert_allclose(total, 1.0, atol=1e-6)

    def test_start_symbol_never_predicted(self):
        # <s> carries log10 prob -99 so predicting it is effectively impossible
        assert self.model.conditional(["a"], SENTENCE_START) < -200.0

    def test_perplexity(self):
        # ppl(["a"]) = P(a|<s>) P(</s>|a) over 2 events
        expected = math.exp(-(nat(L_SA) + nat(L_AE)) / 2.0)
        np.testing.assert_allclose(self.model.perplexity(["a"]), expected,
                                   atol=1e-9)

    def test_perplexity_of_an_iterator(self):
        # the tokens are read once: 3 events, not the 1 an emptied iterator
        # would leave
        score = self.model.score_sequence(["a", "b"], include_eos=True)
        assert self.model.perplexity(iter(["a", "b"])) == math.exp(-score / 3)
        assert self.model.perplexity(iter(["a", "b"])) \
            == self.model.perplexity(["a", "b"])

    @pytest.mark.parametrize("log10", ["-400", "-5e307"])
    def test_perplexity_that_overflows_raises(self, tmp_path, log10):
        # -400 per term gives exp(921) (math.exp raises); -5e307 per term is
        # finite, but the two terms sum to -inf (the perplexity would be inf)
        path = tmp_path / "tiny.arpa"
        path.write_text("\n".join([
            "\\data\\", "ngram 1=3", "", "\\1-grams:", log10 + "\t<s>",
            log10 + "\tx", log10 + "\t</s>", "", "\\end\\", ""]),
            encoding="utf-8")
        with pytest.raises(OverflowError, match="perplexity of 1 tokens"):
            load_arpa(path).perplexity(["x"])

    def test_oov_strict(self):
        with pytest.raises(OOVError):
            self.model.score_sequence(["z"])

    def test_oov_unk_fallback_requires_unk_in_model(self):
        with pytest.raises(OOVError):
            self.model.score_sequence(["z"], use_unk=True)


class TestArpaRoundTrip:

    def test_write_then_load_matches(self, tmp_path):
        model = load_arpa(TOY_ARPA)
        out = str(tmp_path / "copy.arpa")
        write_arpa(model, out)
        clone = load_arpa(out)
        assert clone.order == model.order
        for k in range(1, model.order + 1):
            assert set(clone.ngrams(k)) == set(model.ngrams(k))
            for gram, (logp, bow) in model.ngrams(k).items():
                np.testing.assert_allclose(clone.ngrams(k)[gram][0], logp,
                                           atol=1e-7 * LN10)
                np.testing.assert_allclose(clone.ngrams(k)[gram][1], bow,
                                           atol=1e-7 * LN10)

    def test_write_is_deterministic(self, tmp_path):
        model = load_arpa(TOY_ARPA)
        a, b = str(tmp_path / "a.arpa"), str(tmp_path / "b.arpa")
        write_arpa(model, a)
        write_arpa(model, b)
        assert open(a, "rb").read() == open(b, "rb").read()


class TestArpaErrors:

    def _load(self, tmp_path, text):
        path = str(tmp_path / "bad.arpa")
        with open(path, "w") as fh:
            fh.write(text)
        return load_arpa(path)

    def test_missing_data_header(self, tmp_path):
        with pytest.raises(FormatError):
            self._load(tmp_path, "\\1-grams:\n-1 a\n\\end\\\n")

    def test_count_mismatch(self, tmp_path):
        with pytest.raises(FormatError):
            self._load(tmp_path,
                       "\\data\\\nngram 1=2\n\n\\1-grams:\n-1\ta\n\\end\\\n")

    def test_positive_log_prob(self, tmp_path):
        with pytest.raises(FormatError):
            self._load(tmp_path,
                       "\\data\\\nngram 1=1\n\n\\1-grams:\n0.5\ta\n\\end\\\n")

    @pytest.mark.parametrize("line", [
        "nan\ta", "-inf\ta", "inf\ta", "-1\ta\tnan", "-1\ta\t-inf",
        "-1\ta\tinf"])
    def test_non_finite_value(self, tmp_path, line):
        with pytest.raises(FormatError, match="non-finite"):
            self._load(tmp_path,
                       "\\data\\\nngram 1=1\n\n\\1-grams:\n%s\n\\end\\\n" % line)

    def test_duplicate_gram(self, tmp_path):
        with pytest.raises(FormatError):
            self._load(
                tmp_path,
                "\\data\\\nngram 1=2\n\n\\1-grams:\n-1\ta\n-2\ta\n\\end\\\n")

    def test_bigram_with_unseen_context(self, tmp_path):
        with pytest.raises(FormatError):
            self._load(
                tmp_path,
                "\\data\\\nngram 1=1\nngram 2=1\n\n\\1-grams:\n-1\ta\n"
                "\n\\2-grams:\n-1\tq a\n\\end\\\n")

    def test_missing_end_marker(self, tmp_path):
        with pytest.raises(FormatError):
            self._load(tmp_path, "\\data\\\nngram 1=1\n\n\\1-grams:\n-1\ta\n")

    @pytest.mark.parametrize("text,message", [
        ("x\n\\data\\\n", "expected \\data\\ header"),
        ("\n \n", "missing \\data\\ header"),
        ("\\data\\\nngram 2=1\n", "non-consecutive ngram counts"),
        ("\\data\\\n\\1-grams:\n", "no ngram counts declared"),
        ("\\data\\\nngram 1=1\n\n x \n", "line 4: unexpected line 'x'"),
        ("\\data\\\nngram 1=1\n\\2-grams:\n", "sections out of order"),
        ("\\data\\\nngram 1=1\n\\1-grams:\n-1\n", "line 4: malformed line"),
        ("\\data\\\nngram 1=1\n\\1-grams:\n-1 a 0 0\n", "line 4: malformed line"),
        ("\\data\\\nngram 1=1\n\\1-grams:\n-1 a x\n", "line 4: malformed line"),
        ("\\data\\\nngram 1=1\n\\1-grams:\ninf a\n", "line 4: non-finite value"),
        ("\\data\\\nngram 1=1\n\\1-grams:\n1 a\n", "line 4: positive log-probability"),
        ("\\data\\\nngram 1=1\n\\1-grams:\n-1 a\n-2 a\n", "line 5: duplicate n-gram"),
        ("\\data\\\nngram 1=1\nngram 2=1\n\\1-grams:\n-1 a\n\\2-grams:\n-1 b a\n",
         "line 7: n-gram referencing unseen context"),
        ("\\data\\\nngram 1=1\n\\1-grams:\n-1 a\n", "missing \\end\\ marker"),
        ("\\data\\\nngram 1=1\nngram 2=0\n\\1-grams:\n-1 a\n\\end\\\n",
         "missing n-gram sections"),
        ("\\data\\\nngram 1=2\n\\1-grams:\n-1 a\n\\end\\\n",
         "1-gram count mismatch (declared 2, found 1)"),
    ])
    def test_message_names_file_and_fault(self, tmp_path, text, message):
        with pytest.raises(FormatError) as info:
            self._load(tmp_path, text)
        assert str(info.value) == "%s: %s" % (tmp_path / "bad.arpa", message)

    @pytest.mark.parametrize("text", [
        "\\data\\\nngram 1=%s\n" % ("9" * 5000),
        "\\data\\\nngram 1=1\n\\%s-grams:\n" % ("1" * 5000),
    ])
    def test_overlong_number_is_format_error(self, tmp_path, text):
        # int() raises ValueError beyond 4300 digits
        with pytest.raises(FormatError):
            self._load(tmp_path, text)

    def test_nan_in_toy_file(self, tmp_path):
        with open(TOY_ARPA) as fh:
            text = fh.read()
        assert "-0.6989700\ta\t" in text
        with pytest.raises(FormatError, match="non-finite"):
            self._load(tmp_path, text.replace("-0.6989700\ta\t", "nan\ta\t"))


class TestTrainAddOne:
    """Training oracle: recompute add-one estimates with plain counting."""

    SENTS = [["x", "y"], ["x", "x"], ["y"]]

    def test_unigram_probabilities_match_counts(self):
        model = train_add_one(self.SENTS, order=1)
        # events: x,y,</s> / x,x,</s> / y,</s>  -> c(x)=3 c(y)=2 c(</s>)=3, N=8
        # predicted vocab = {x, y, </s>}, V=3
        np.testing.assert_allclose(
            model.conditional([], "x"), math.log((3 + 1) / (8 + 3)), atol=1e-12)
        np.testing.assert_allclose(
            model.conditional([], "y"), math.log((2 + 1) / (8 + 3)), atol=1e-12)
        np.testing.assert_allclose(
            model.conditional([], SENTENCE_END),
            math.log((3 + 1) / (8 + 3)), atol=1e-12)

    def test_bigram_probability_matches_counts(self):
        model = train_add_one(self.SENTS, order=2)
        # c(x, y)=1 among c(x, .)=3 continuations; V=3
        np.testing.assert_allclose(
            model.conditional(["x"], "y"), math.log((1 + 1) / (3 + 3)),
            atol=1e-12)

    def test_unseen_continuation_goes_through_backoff(self):
        # Only seen grams are stored; (y, y) resolves as bow(y) * P1(y).
        # Seen from y: only </s>, P(</s>|y) = (2+1)/(2+3) = 3/5, so
        # bow(y) = (1 - 3/5) / (1 - P1(</s>)) = (2/5) / (1 - 4/11) = 22/35
        # and P(y|y) = (22/35) * (3/11) = 6/35.
        model = train_add_one(self.SENTS, order=2)
        np.testing.assert_allclose(
            model.conditional(["y"], "y"), math.log(6 / 35), atol=1e-12)

    def test_conditionals_sum_to_one(self):
        rng = np.random.default_rng(1234)
        vocab = ["t%d" % i for i in range(6)]
        for trial in range(10):
            n_sents = int(rng.integers(1, 8))
            sents = [
                [vocab[int(rng.integers(len(vocab)))]
                 for _ in range(int(rng.integers(1, 6)))]
                for _ in range(n_sents)]
            for order in (1, 2, 3):
                model = train_add_one(sents, order=order)
                predicted = sorted(model.vocab - {SENTENCE_START})
                contexts = [[], [SENTENCE_START], [vocab[0]],
                            [vocab[0], vocab[1]], ["t5", "t5"]]
                for context in contexts:
                    ctx = [w for w in context if w in model.vocab]
                    total = sum(
                        math.exp(model.conditional(ctx, tok))
                        for tok in predicted)
                    np.testing.assert_allclose(
                        total, 1.0, atol=1e-4,
                        err_msg="order=%d ctx=%r" % (order, ctx))

    def test_explicit_vocabulary_adds_unseen_words(self):
        model = train_add_one([["x"]], order=1, vocabulary=["x", "y", "z"])
        assert {"x", "y", "z", SENTENCE_END, SENTENCE_START} == model.vocab
        # y never observed: c=0 out of N=2 events (x, </s>), V=4 predicted
        np.testing.assert_allclose(
            model.conditional([], "y"), math.log(1 / (2 + 4)), atol=1e-12)

    def test_trained_model_round_trips_through_arpa(self, tmp_path):
        model = train_add_one(self.SENTS, order=2)
        path = str(tmp_path / "trained.arpa")
        write_arpa(model, path)
        clone = load_arpa(path)
        for seq in (["x"], ["x", "y"], ["y", "x", "x"]):
            np.testing.assert_allclose(
                clone.score_sequence(seq, include_eos=True),
                model.score_sequence(seq, include_eos=True), atol=1e-5)

    def test_empty_training_data_rejected(self):
        with pytest.raises(ValueError):
            train_add_one([], order=2)

    def test_start_token_not_predicted(self):
        model = train_add_one(self.SENTS, order=2)
        assert model.conditional(["x"], SENTENCE_START) < -200.0


class TestConditionalRow:
    """Rows of conditionals cached per LM state."""

    SENTS = [["x", "y"], ["y", "x", "x"], ["x"], ["z", "y", "x"]]
    TOKENS = ("x", "y", "z", SENTENCE_END)

    @staticmethod
    def _hex(values):
        return [float.hex(v) for v in values]

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_entries_equal_conditional(self, order):
        model = train_add_one(self.SENTS, order=order)
        for ctx in [(), (SENTENCE_START,), ("x",), (SENTENCE_START, "y"),
                    ("z", "y"), ("y", "x", "x"), ("x", "z", "z", "y")]:
            row = model.conditional_row(ctx, self.TOKENS)
            assert row.dtype == np.float64 and row.shape == (len(self.TOKENS),)
            assert self._hex(row.tolist()) == self._hex(
                model.conditional(ctx, tok) for tok in self.TOKENS), ctx

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_sparse_arpa_rows_have_conditional_bits(self, order):
        # Most contexts have no children or no backoff weight of their own,
        # and the states below add contexts the model never saw.
        rng = np.random.default_rng(8100 + order)
        for _ in range(4):
            pieces = ["p%d" % i for i in range(int(rng.integers(3, 9)))]
            model = random_arpa_lm(rng, pieces, order)
            vocab = sorted(model.vocab)
            states = {()} | {gram for k in range(1, order + 1)
                             for gram in model.ngrams(k)}
            states |= {tuple(map(str, rng.choice(vocab + ["unseen"], size)))
                       for size in rng.integers(1, order + 2, 40)}
            tokens = tuple(vocab) + tuple(map(str, rng.choice(vocab, len(vocab))))
            zero_seen = False
            for ctx in sorted(states):
                row = model.conditional_row(ctx, tokens).tolist()
                want = [model.conditional(ctx, tok) for tok in tokens]
                assert self._hex(row) == self._hex(want), ctx
                zero_seen |= float.hex(0.0) in self._hex(want)
            assert zero_seen  # a -0.0 log-prob reads 0.0, as conditional says

    def test_overflowing_backoff_total_is_minus_inf_silently(self, tmp_path):
        # -5e307 is -1.15e308 in natural log: each value is finite, and a
        # backoff weight plus a log-prob overflows to -inf.
        path = tmp_path / "big.arpa"
        path.write_text("\n".join([
            "\\data\\", "ngram 1=4", "ngram 2=1", "", "\\1-grams:",
            "-5e307\t<s>\t-5e307", "-5e307\tx\t-5e307", "-5e307\ty\t-5e307",
            "-5e307\t</s>", "", "\\2-grams:", "-5e307\tx y", "", "\\end\\", ""]),
            encoding="utf-8")
        model = load_arpa(path)
        tokens = ("x", "y", SENTENCE_END)
        for ctx in [(), (SENTENCE_START,), ("x",), ("y",), (SENTENCE_END,)]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                row = model.conditional_row(ctx, tokens).tolist()
            assert self._hex(row) == self._hex(
                model.conditional(ctx, tok) for tok in tokens), ctx
        assert model.conditional_row(("x",), tokens).tolist() == [
            -math.inf, -5e307 * LN10, -math.inf]

    def test_memoised_per_state_and_read_only(self):
        model = train_add_one(self.SENTS, order=2)
        row = model.conditional_row((SENTENCE_START, "x"), self.TOKENS)
        assert model.conditional_row(("y", "x"), self.TOKENS) is row
        assert model.conditional_row(("y",), self.TOKENS) is not row
        with pytest.raises(ValueError):
            row[0] = 0.0

    def test_subclass_overriding_conditional_gets_the_same_row_bits(self):
        calls = []

        class Recording(NGramModel):
            def conditional(self, context, token, use_unk=False):
                calls.append((tuple(context), token))
                return super().conditional(context, token, use_unk)

        base = train_add_one(self.SENTS, order=3)
        model = Recording(3, [base.ngrams(k) for k in (1, 2, 3)])
        for ctx in [(), ("z", SENTENCE_START, "x"), ("y", "x"), ("q", "z")]:
            assert self._hex(model.conditional_row(ctx, self.TOKENS).tolist()) \
                == self._hex(base.conditional_row(ctx, self.TOKENS).tolist())
        assert calls == []  # a row fill reads the tables, not conditional

    def test_oov_token_raises(self):
        model = train_add_one(self.SENTS, order=2)
        with pytest.raises(OOVError):
            model.conditional_row(("x",), ("x", "q"))
