"""Acceptance suite for the two-pass decoding toolkit.

Eleven checks, each printing one [PASS]/[FAIL] verdict line (echoed in the
terminal summary, see conftest.py):

  01  relative-WER-reduction arithmetic on five hand-computed pairs
  02  CTC probabilities over all label sequences sum to one
  03  wide-beam prefix search equals exhaustive fused-score argmax
  04  Viterbi forced alignment equals exhaustive segmentation search
  05  acoustic fusion ranks exactly like the equivalent LM/ILM weighting
  06  the committed toy bigram model scores five hand-derived sequences
  07  the demo experiment: tuned second-pass rescoring cuts corpus WER
  08  errors recovered by rescoring concentrate in high-perplexity buckets
  09  WER equals an independent edit-distance DP; oracle never worse
  10  the full pipeline is byte-identical across reruns with one seed
  11  the demo experiment's files match the sha256 digests that the
      benchmark records in perfbench/expected.json (read, never written)

Checks 07/08 drive the committed configs/demo.cfg end to end through the
command line: synthesize, first-pass decode, forced-alignment rescoring,
weight tuning on dev, final scoring on test.
"""
import hashlib
import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from twopass import aligner, cli, core, decoder, fusion, metrics, ngram
from twopass.core import (AlignmentError, FusionWeights, Hypothesis,
                          PosteriorMatrix, ScoreBundle, Vocabulary)

import oracles

HERE = Path(__file__).resolve().parent
DEMO_CFG = HERE.parent / "configs" / "demo.cfg"
TOY_ARPA = HERE / "data" / "toy_bigram.arpa"
BENCH_EXPECTED = HERE.parent / "perfbench" / "expected.json"

RESULTS: list[str] = []


def _check(num: int, description: str, ok: bool) -> None:
    line = "[%s] check %02d: %s" % ("PASS" if ok else "FAIL", num, description)
    RESULTS.append(line)
    print(line)
    assert ok, line


def _run(argv) -> None:
    code = cli.main(argv)
    assert code == 0, "command failed (%d): %s" % (code, " ".join(argv))


def _corpus_wer(nbest_lists, refs, vocab) -> float:
    pairs = [(refs[nb.utterance_id], core.detokenize(nb.top().tokens, vocab))
             for nb in nbest_lists]
    return metrics.corpus_counts(pairs).wer


def _corpus_oracle(nbest_lists, refs, vocab) -> float:
    counts = metrics.ErrorCounts()
    for nb in nbest_lists:
        counts = counts + metrics.oracle_wer(nb, refs[nb.utterance_id], vocab)
    return counts.wer


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    """Run the committed demo experiment once; share its artifacts."""
    root = tmp_path_factory.mktemp("demo")
    data = root / "data"
    started = time.monotonic()
    _run(["synth", "--config", str(DEMO_CFG), "--out-dir", str(data)])
    vocab_path = str(data / "wordpieces.txt")
    _run(["decode", "--list", str(data / "dev_e2e.list"),
          "--vocab", vocab_path, "--beam", "8", "--out", str(root / "dev.nbest")])
    _run(["decode", "--list", str(data / "test_e2e.list"),
          "--vocab", vocab_path, "--beam", "8", "--out", str(root / "test.nbest")])

    align_args = ["--phoneme-vocab", str(data / "phonemes.txt"),
                  "--lexicon", str(data / "lexicon.tsv"),
                  "--allow-silence", "--oov", "floor"]
    _run(["rescore", "--nbest", str(root / "dev.nbest"), "--vocab", vocab_path,
          "--list", str(data / "dev_phoneme.list"),
          "--out", str(root / "dev_resc.nbest")] + align_args)

    vocab = core.load_vocabulary(vocab_path)
    dev_refs = dict(core.load_transcripts(str(data / "dev.tsv")))
    dev_lists = core.load_nbest(str(root / "dev_resc.nbest"), vocab)
    grid = [FusionWeights(lambda_am=step / 10) for step in range(11)]
    tuned, dev_wer = oracles.tune_weights(
        [(nb, dev_refs[nb.utterance_id]) for nb in dev_lists], grid, vocab)

    _run(["rescore", "--nbest", str(root / "test.nbest"), "--vocab", vocab_path,
          "--list", str(data / "test_phoneme.list"),
          "--lambda-am", repr(tuned.lambda_am),
          "--out", str(root / "test_fused.nbest")] + align_args)

    test_refs = dict(core.load_transcripts(str(data / "test.tsv")))
    base_lists = core.load_nbest(str(root / "test.nbest"), vocab)
    fused_lists = core.load_nbest(str(root / "test_fused.nbest"), vocab)
    baseline = _corpus_wer(base_lists, test_refs, vocab)
    fused = _corpus_wer(fused_lists, test_refs, vocab)
    oracle = _corpus_oracle(base_lists, test_refs, vocab)
    elapsed = time.monotonic() - started

    return {
        "data": data, "vocab": vocab, "tuned": tuned, "dev_wer": dev_wer,
        "dev_refs": dev_refs, "dev_lists": core.load_nbest(str(root / "dev.nbest"), vocab),
        "test_refs": test_refs, "base_lists": base_lists,
        "fused_lists": fused_lists, "baseline": baseline, "fused": fused,
        "oracle": oracle, "elapsed": elapsed,
    }


class TestAcceptance:

    def test_01_werr_arithmetic(self):
        cases = [(3.63, 3.11, 14.33), (3.30, 2.85, 13.64),
                 (4.82, 4.70, 2.49), (11.75, 11.26, 4.17),
                 (3.95, 3.63, 8.10)]
        worst = max(abs(100.0 * metrics.werr(b, n) - expect)
                    for b, n, expect in cases)
        _check(1, "relative WER reduction matches five hand-computed pairs "
                  "within 0.01 points (worst %.4f)" % worst, worst <= 0.01)

    def test_02_ctc_mass_conservation(self):
        rng = np.random.default_rng(20260823)
        worst = 0.0
        for _ in range(60):
            frames = int(rng.integers(1, 6))
            symbols = int(rng.integers(2, 4))
            vocab = Vocabulary(("<blank>", "a", "b")[:symbols])
            probs = rng.dirichlet(np.ones(symbols), size=frames)
            probs = np.clip(probs, 1e-12, None)
            probs /= probs.sum(axis=1, keepdims=True)
            matrix = PosteriorMatrix(np.log(probs), vocab)
            total = 0.0
            for length in range(frames + 1):
                for labels in itertools.product(range(1, symbols), repeat=length):
                    try:
                        total += math.exp(oracles.ctc_label_prob(matrix, labels))
                    except AlignmentError:
                        continue
            worst = max(worst, abs(total - 1.0))
        _check(2, "CTC label probabilities sum to one over all sequences "
                  "(60 matrices, worst |sum-1| %.2e)" % worst, worst <= 1e-6)

    def test_03_beam_matches_exhaustive_argmax(self):
        rng = np.random.default_rng(31337)
        agree = 0
        trials = 100
        for trial in range(trials):
            frames = int(rng.integers(2, 6))
            symbols = int(rng.integers(2, 4))
            vocab = Vocabulary(("<blank>", "a", "b")[:symbols])
            probs = rng.dirichlet(np.ones(symbols), size=frames)
            probs = np.clip(probs, 1e-12, None)
            probs /= probs.sum(axis=1, keepdims=True)
            matrix = PosteriorMatrix(np.log(probs), vocab)

            lm = ilm = None
            lam_lm = lam_ilm = 0.0
            if trial % 2 == 1:
                tokens = list(vocab.symbols[1:])
                def sample_corpus():
                    count = int(rng.integers(2, 6))
                    return [[tokens[int(rng.integers(0, len(tokens)))]
                             for _ in range(int(rng.integers(1, 4)))]
                            for _ in range(count)]
                lm = ngram.train_add_one(sample_corpus(), 2, vocabulary=tokens)
                ilm = ngram.train_add_one(sample_corpus(), 2, vocabulary=tokens)
                lam_lm = round(float(rng.uniform(0.1, 0.8)), 2)
                lam_ilm = round(float(rng.uniform(0.0, 0.4)), 2)

            best = None
            for length in range(frames + 1):
                for labels in itertools.product(range(1, symbols), repeat=length):
                    try:
                        score = oracles.ctc_label_prob(matrix, labels)
                    except AlignmentError:
                        continue
                    pieces = [vocab.symbol(i) for i in labels]
                    if lm is not None:
                        score += lam_lm * lm.score_sequence(pieces)
                        score -= lam_ilm * ilm.score_sequence(pieces)
                    key = (-score, labels)
                    if best is None or key < best:
                        best = key
            config = decoder.BeamConfig(
                beam_width=4096, n_best=1,
                weights=FusionWeights(lambda_lm=lam_lm, lambda_ilm=lam_ilm),
                lm=lm, ilm=ilm)
            decoded = decoder.prefix_beam_search(matrix, config).top().tokens
            agree += decoded == best[1]
        _check(3, "wide-beam prefix search equals exhaustive fused argmax "
                  "(%d/%d with and without LM/ILM)" % (agree, trials),
               agree == trials)

    def test_04_alignment_matches_exhaustive_search(self):
        rng = np.random.default_rng(4242)
        phones = Vocabulary(("sil", "p1", "p2", "p3"))
        agree = 0
        trials = 0
        worst = 0.0
        while trials < 100:
            lines = []
            for word in ("wa", "wb"):
                if rng.uniform() < 0.5:
                    lines.append("%s\t%s" % (word, self._pron(rng)))
                else:
                    first = round(float(rng.uniform(0.2, 0.8)), 2)
                    one = self._pron(rng)
                    two = self._pron(rng)
                    while two == one:
                        two = self._pron(rng)
                    lines.append("%s\t%.2f\t%s" % (word, first, one))
                    lines.append("%s\t%.2f\t%s" % (word, 1 - first, two))
            lexicon = core.parse_lexicon(lines, phones)
            words = ["wa", "wb"][:int(rng.integers(1, 3))]
            allow_silence = bool(rng.uniform() < 0.5)

            variants = self._variants(words, lexicon, allow_silence)
            shortest = min(len(seq) for seq, _ in variants)
            frames = shortest + int(rng.integers(0, 3))
            combos = sum(math.comb(frames - 1, len(seq) - 1)
                         for seq, _ in variants if len(seq) <= frames)
            if combos == 0 or combos > 200:
                continue
            trials += 1

            probs = rng.dirichlet(np.ones(len(phones)), size=frames)
            probs = np.clip(probs, 1e-12, None)
            probs /= probs.sum(axis=1, keepdims=True)
            matrix = PosteriorMatrix(np.log(probs), phones)

            expected = self._best_segmentation(matrix, variants)
            graph = aligner.expand_pronunciations(
                words, lexicon, allow_silence=allow_silence,
                silence_phoneme=0 if allow_silence else None)
            got, _ = aligner.viterbi_align(matrix, graph)
            diff = abs(got - expected)
            worst = max(worst, diff)
            agree += diff <= 1e-9
        _check(4, "Viterbi alignment equals exhaustive segmentation search "
                  "(%d/100, worst gap %.2e)" % (agree, worst), agree == 100)

    @staticmethod
    def _pron(rng) -> str:
        length = int(rng.integers(1, 4))
        return " ".join("p%d" % int(rng.integers(1, 4)) for _ in range(length))

    @staticmethod
    def _variants(words, lexicon, allow_silence):
        """All (phoneme sequence, log prior) paths through the word sequence."""
        options = [lexicon.pronunciations(w) for w in words]
        variants = []
        for choice in itertools.product(*options):
            base = []
            prior = 0.0
            for phones, weight in choice:
                base.append(tuple(phones))
                prior += math.log(weight)
            if not allow_silence:
                variants.append((sum(base, ()), prior))
                continue
            slots = len(base) + 1
            for mask in itertools.product((False, True), repeat=slots):
                seq: tuple[int, ...] = ()
                for i, part in enumerate(base):
                    if mask[i]:
                        seq += (0,)
                    seq += part
                if mask[-1]:
                    seq += (0,)
                variants.append((seq, prior))
        return variants

    @staticmethod
    def _best_segmentation(matrix, variants) -> float:
        values = matrix.values.astype(float)
        frames = matrix.frames
        best = -math.inf
        for seq, prior in variants:
            if len(seq) > frames:
                continue
            for cuts in itertools.combinations(range(1, frames), len(seq) - 1):
                bounds = (0,) + cuts + (frames,)
                score = prior
                for i, phone in enumerate(seq):
                    score += values[bounds[i]:bounds[i + 1], phone].sum()
                best = max(best, score)
        return best

    def test_05_fusion_equivalence_permutation(self):
        rng = np.random.default_rng(1111)
        lists = 200
        size = 5
        matched = 0
        for _ in range(lists):
            hyps = []
            for i in range(size):
                e2e = -float(rng.uniform(0.0, 10.0))
                ilm = -float(rng.uniform(0.0, 5.0))
                bundle = ScoreBundle(e2e=e2e, lm=-float(rng.uniform(0.0, 5.0)),
                                     ilm=ilm, am=e2e - ilm)
                hyps.append(Hypothesis(tokens=(i + 1,), scores=bundle))
            with_am = FusionWeights(lambda_am=float(rng.uniform(0.1, 2.0)),
                                    lambda_lm=float(rng.uniform(0.0, 1.0)))
            as_lm = fusion.equivalent_lm_weights(with_am)
            order_a = [h.tokens for h in fusion.rank_hypotheses(hyps, with_am)]
            order_b = [h.tokens for h in fusion.rank_hypotheses(hyps, as_lm)]
            matched += order_a == order_b
        _check(5, "acoustic fusion ranks exactly like the equivalent LM/ILM "
                  "weighting (%d/%d lists, %d score bundles)"
               % (matched, lists, lists * size), matched == lists)

    def test_06_toy_bigram_hand_scores(self):
        model = ngram.load_arpa(str(TOY_ARPA))
        ln10 = math.log(10.0)
        # Unigram log10/backoff entries of the committed file.
        p1_a, bow_a = -0.6989700, -0.1249387
        p1_b, bow_b = -0.5228787, 0.0299632
        p1_c = -0.6989700
        p1_eos = -0.5228787
        bow_start = -0.2041200
        cases = [
            # direct bigrams throughout
            (["a"], True, (-0.3010300) + (-0.5228787)),
            # "b </s>" is unseen: backoff through bow(b)
            (["a", "b"], True, (-0.3010300) + (-0.3979400) + (bow_b + p1_eos)),
            # "<s> b" is unseen: backoff through bow(<s>)
            (["b"], False, (bow_start + p1_b)),
            # c has no backoff weight entry, so the penalty is zero
            (["c", "b"], False, (bow_start + p1_c) + p1_b),
            # seen, unseen-with-backoff, seen
            (["a", "a"], True, (-0.3010300) + (bow_a + p1_a) + (-0.5228787)),
        ]
        worst = max(abs(model.score_sequence(toks, include_eos=eos) - ln10 * want)
                    for toks, eos, want in cases)
        _check(6, "toy bigram scores five hand-derived sequences "
                  "(worst gap %.2e)" % worst, worst <= 1e-6)

    def test_07_demo_experiment_werr(self, demo):
        reduction = metrics.werr(demo["baseline"], demo["fused"])
        ordered = demo["oracle"] <= demo["fused"] + 1e-12 \
            and demo["fused"] <= demo["baseline"] + 1e-12
        ok = reduction >= 0.05 and ordered and demo["elapsed"] <= 60.0
        _check(7, "demo rescoring cuts test WER %.4f -> %.4f "
                  "(oracle %.4f, werr %.1f%%, lambda_am %.1f, %.1fs)"
               % (demo["baseline"], demo["fused"], demo["oracle"],
                  100.0 * reduction, demo["tuned"].lambda_am,
                  demo["elapsed"]), ok)

    def test_08_high_ppl_bucket_improves_most(self, demo):
        vocab = demo["vocab"]
        piece_lm = ngram.load_arpa(str(demo["data"] / "wordpiece_lm.arpa"))
        refs = demo["test_refs"]
        fused_top = {nb.utterance_id: core.detokenize(nb.top().tokens, vocab)
                     for nb in demo["fused_lists"]}
        triples = [(refs[nb.utterance_id],
                    core.detokenize(nb.top().tokens, vocab),
                    fused_top[nb.utterance_id])
                   for nb in demo["base_lists"]]
        buckets = metrics.ppl_buckets(triples, piece_lm, 5, vocab)
        low, high = buckets[0], buckets[-1]
        _check(8, "highest-perplexity bucket improves most "
                  "(werr %.3f at mean ppl %.1f vs %.3f at %.1f)"
               % (high.werr, high.mean_ppl, low.werr, low.mean_ppl),
               high.werr > low.werr)

    def test_09_wer_oracle_and_independent_dp(self, demo):
        rng = np.random.default_rng(999)
        alphabet = ("a", "b", "c")
        exact = 0
        for _ in range(500):
            ref = [alphabet[int(rng.integers(0, 3))]
                   for _ in range(int(rng.integers(1, 9)))]
            hyp = [alphabet[int(rng.integers(0, 3))]
                   for _ in range(int(rng.integers(0, 9)))]
            counts = metrics.wer(ref, hyp)
            distance = self._edit_distance(ref, hyp)
            exact += counts.errors == distance \
                and counts.wer == distance / len(ref)
        vocab = demo["vocab"]
        oracle_ok = True
        for lists, refs in ((demo["dev_lists"], demo["dev_refs"]),
                            (demo["base_lists"], demo["test_refs"])):
            oracle_ok &= _corpus_oracle(lists, refs, vocab) \
                <= _corpus_wer(lists, refs, vocab)
        _check(9, "WER matches an independent edit-distance DP (%d/500) and "
                  "oracle WER never exceeds top-1 WER" % exact,
               exact == 500 and oracle_ok)

    @staticmethod
    def _edit_distance(ref, hyp) -> int:
        previous = list(range(len(hyp) + 1))
        for i, r in enumerate(ref, start=1):
            current = [i]
            for j, h in enumerate(hyp, start=1):
                current.append(min(previous[j - 1] + (r != h),
                                   previous[j] + 1,
                                   current[j - 1] + 1))
            previous = current
        return previous[-1]

    def test_10_pipeline_determinism(self, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        for root in (first, second):
            self._mini_pipeline(root)
        left = self._tree_hash(first)
        right = self._tree_hash(second)
        _check(10, "synth/decode/rescore/score rerun is byte-identical "
                   "(%d artifacts)" % len(left),
               left == right and len(left) > 0)

    def test_11_demo_artifacts_match_benchmark_digests(self, demo):
        expected = json.loads(BENCH_EXPECTED.read_text(encoding="utf-8"))
        expected = expected["demo"]["artifacts"]
        # The benchmark folds a posteriors/ directory into one digest of its
        # sorted "name TAB sha256" lines.
        got, folded = {}, []
        for name, digest in self._tree_hash(demo["data"].parent).items():
            if name.startswith("data/posteriors/"):
                folded.append("%s\t%s\n" % (name.rsplit("/", 1)[1], digest))
            else:
                got[name] = digest
        got["data/posteriors/"] = hashlib.sha256(
            "".join(folded).encode("utf-8")).hexdigest()
        want = {name: digest for name, digest in expected.items()
                if name.startswith("data/") or name.endswith(".nbest")}
        same = sum(got.get(name) == digest for name, digest in want.items())
        _check(11, "demo files match the benchmark's recorded digests "
                   "(%d/%d, %d posterior files folded)"
               % (same, len(want), len(folded)), got == want)

    @staticmethod
    def _mini_pipeline(root: Path) -> None:
        data = root / "data"
        _run(["synth", "--out-dir", str(data), "--seed", "11",
              "--vocab-size", "8", "--phonemes", "5", "--train-utts", "40",
              "--dev-utts", "6", "--test-utts", "6", "--min-len", "2",
              "--max-len", "4", "--delta", "0.5"])
        vocab = str(data / "wordpieces.txt")
        _run(["decode", "--list", str(data / "dev_e2e.list"), "--vocab", vocab,
              "--beam", "8", "--out", str(root / "dev.nbest")])
        _run(["rescore", "--nbest", str(root / "dev.nbest"), "--vocab", vocab,
              "--list", str(data / "dev_phoneme.list"),
              "--phoneme-vocab", str(data / "phonemes.txt"),
              "--lexicon", str(data / "lexicon.tsv"),
              "--allow-silence", "--oov", "floor", "--lambda-am", "0.3",
              "--out", str(root / "dev_resc.nbest")])
        _run(["score", "--ref", str(data / "dev.tsv"),
              "--nbest", str(root / "dev_resc.nbest"), "--vocab", vocab,
              "--report", str(root / "score.tsv")])

    @staticmethod
    def _tree_hash(root: Path) -> dict:
        out = {}
        for path in sorted(root.rglob("*")):
            if path.is_file():
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                out[str(path.relative_to(root))] = digest
        return out
