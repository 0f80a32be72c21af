"""The traced run: the pipeline again, through each module's public functions.

After one untraced CLI pass (the reference outputs and the untraced
pipeline time), every stage is repeated by calling synth, core, ngram,
decoder, aligner, fusion and metrics directly, with a span around each
call. Each traced stage must write the same bytes as its CLI stage. Three
layers are opened up from outside:

- n-gram queries go through CountingLM, which counts and times
  conditional and score_sequence per calling stage;
- am_score is rebuilt from detokenize, expand_pronunciations and
  viterbi_align, so floors are counted by reason and Viterbi cells are
  computed from the PronGraph; every rebuilt score must equal the am column
  the CLI wrote;
- grid_search is timed whole, then replayed outside the pipeline:
  rank_hypotheses and wer on the same (grid point, utterance) pairs, whose
  WER must match grid_search. fusion.rank_s, fusion.grid_top_distinct_share
  and the replayed part of metrics.wer_* come from this replay.
"""
from __future__ import annotations

import math
import os
import time
from collections import Counter

from twopass import aligner, core, decoder, fusion, metrics, ngram, synth
from twopass.core import AlignmentError, FusionWeights, NBestList, OOVError

from clipass import Invocation, pipeline_pass, sha256_file, synthesize
from tracing import BUSY, CALLS, NAME, CountingLM, Tracer
from workloads import BUCKETS_K, EXT_SEED_OFFSET, PIPELINE_STAGES

LAYERS = ("decoder", "ngram", "aligner", "fusion", "metrics", "core")
_STAGE_SPANS = frozenset("stage." + s for s in PIPELINE_STAGES)
# Percentiles tried for a tail, highest last; the tail is the highest one
# with at least _TAIL_BEYOND samples beyond it.
_TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
_TAIL_BEYOND = 10

# synth config key -> SynthConfig field and type; pairs fill tuple fields.
_SCALARS = {
    "seed": ("seed", int), "vocab_size": ("vocab_size", int),
    "phonemes": ("phoneme_count", int), "zipf": ("zipf_exponent", float),
    "train_utts": ("train_utts", int), "dev_utts": ("dev_utts", int),
    "test_utts": ("test_utts", int), "blank_prob": ("blank_prob", float),
    "silence_prob": ("silence_prob", float), "alpha": ("alpha", float),
    "delta": ("delta", float), "rare_quantile": ("rare_quantile", float),
    "second_pron_prob": ("second_pron_prob", float),
    "ngram_order": ("ngram_order", int),
}
_PAIRS = {
    "len_range": ("min_len", "max_len", int),
    "frames_per_symbol": ("frames_min", "frames_max", int),
    "pron_len_range": ("pron_min", "pron_max", int),
    "confusion_share": ("confusion_lo", "confusion_hi", float),
}


def synth_config(path: str, overrides: dict[str, str]) -> synth.SynthConfig:
    """The SynthConfig the CLI builds from a config file plus flags."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                key, value = line.split("=", 1)
                values[key.strip().replace("-", "_")] = value.strip()
    values.update({k.lstrip("-").replace("-", "_"): v for k, v in overrides.items()})
    defaults = synth.SynthConfig(seed=0)
    kwargs = {}
    for key, (name, kind) in _SCALARS.items():
        if key in values:
            kwargs[name] = kind(values[key])
    for name, (lo, hi, kind) in _PAIRS.items():
        low, high = getattr(defaults, name)
        kwargs[name] = (kind(values.get(lo, low)), kind(values.get(hi, high)))
    return synth.SynthConfig(**kwargs)


def flag_values(flags) -> dict[str, str]:
    """--flag value pairs as a dict."""
    return dict(zip(flags[::2], flags[1::2]))


def percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(values) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least
    _TAIL_BEYOND samples beyond it; the median when none has."""
    ordered = sorted(values)
    pct = _TAIL_LADDER[0]
    for p in _TAIL_LADDER:
        if len(ordered) * (1.0 - p / 100.0) >= _TAIL_BEYOND:
            pct = p
    return pct, percentile(ordered, pct) if ordered else 0.0


class TracedPass:
    """Runs every stage through direct calls and keeps the counts."""

    def __init__(self, wl, seed: int, work: str, out: str) -> None:
        self.wl = wl
        self.seed = seed
        self.work = work
        self.out = out
        self.data = os.path.join(work, "data")
        self.tr = Tracer()
        self.problems: dict[str, list[str]] = {}
        self.walls: dict[str, float] = {}
        self.lms: list[CountingLM] = []
        self.counts: Counter = Counter()
        self.floored: Counter = Counter()
        self.wers: dict[str, float] = {}

    # helpers

    def _path(self, name: str) -> str:
        return os.path.join(self.data, name)

    def _fill(self, flags) -> dict[str, str]:
        return flag_values([f.format(data=self.data, ext=os.path.join(
            self.work, "ext")) for f in flags])

    def _problem(self, stage: str, text: str) -> None:
        self.problems.setdefault(stage, []).append(text)

    def _same_bytes(self, stage: str, name: str) -> None:
        if sha256_file(os.path.join(self.out, name)) != sha256_file(
                os.path.join(self.work, name)):
            self._problem(stage, "traced %s differs from the CLI's" % name)

    def _stage(self, name: str):
        return self.tr.span("stage." + name)

    def _span(self, name: str, utt: str = ""):
        return self.tr.span(name, utt)

    def _vocab(self, name: str = "wordpieces.txt"):
        with self._span("core.load_vocabulary"):
            return core.load_vocabulary(self._path(name))

    def _counting_lm(self, path: str) -> CountingLM:
        with self._span("ngram.load_arpa"):
            model = ngram.load_arpa(path)
        lm = CountingLM(model, self.tr)
        self.lms.append(lm)
        return lm

    def _nbest(self, name: str, vocab):
        with self._span("core.load_nbest"):
            return core.load_nbest(os.path.join(self.out, name), vocab)

    def _transcripts(self, name: str):
        with self._span("core.load_transcripts"):
            return core.load_transcripts(self._path(name))

    def _write_nbest(self, lists, vocab, name: str) -> None:
        with self._span("core.write_nbest"):
            core.write_nbest(lists, vocab, os.path.join(self.out, name))

    # stages

    def synth(self) -> None:
        wl = self.wl
        config = synth_config(wl.config, {"seed": str(self.seed)})
        made = []
        with self._stage("synth"):
            with self._span("synth.gen_corpus"):
                corpus = synth.gen_corpus(config)
            for split in ("dev", "test"):
                for index, (utt, words) in enumerate(corpus.split(split)):
                    for mode in ("e2e", "phoneme"):
                        with self._span("synth.gen_posteriors", utt):
                            matrix = synth.gen_posteriors(
                                words, config, corpus, mode, split, index)
                        made.append(("%s.%s.fpm" % (utt, mode), matrix))
            if wl.ext_synth:
                ext = dict(flag_values(wl.ext_synth),
                           seed=str(self.seed + EXT_SEED_OFFSET))
                with self._span("synth.gen_corpus"):
                    synth.gen_corpus(synth_config(wl.config, ext))
        for name, matrix in made:
            with open(self._path(os.path.join("posteriors", name)), "rb") as fh:
                payload = fh.read()[12:]
            if payload != matrix.values.astype("<f4").tobytes():
                self._problem("synth", "generated %s differs from the CLI's" % name)

    def decode(self, split: str) -> None:
        stage = "decode_" + split
        flags = self._fill(self.wl.decode_flags)
        with self._stage(stage):
            vocab = self._vocab()
            beam = int(flags["--beam"])
            lm = self._counting_lm(flags["--lm"]) if "--lm" in flags else None
            ilm = self._counting_lm(flags["--ilm"]) if "--ilm" in flags else None
            config = decoder.BeamConfig(
                beam_width=beam, n_best=int(flags.get("--nbest", min(10, beam))),
                weights=FusionWeights(0.0, float(flags.get("--lambda-lm", 0.0)),
                                      float(flags.get("--lambda-ilm", 0.0))),
                lm=lm, ilm=ilm)
            with self._span("core.load_manifest"):
                tasks = core.load_manifest(self._path("%s_e2e.list" % split))
            results = []
            for utt, path in tasks:
                with self._span("core.load_posteriors", utt):
                    matrix = core.load_posteriors(path, vocab)
                with self._span("decoder.prefix_beam_search", utt):
                    nbest = decoder.prefix_beam_search(matrix, config, utterance_id=utt)
                results.append(nbest)
                self.counts["frames"] += matrix.frames
                self.counts["full_nbest"] += len(nbest) == config.n_best
                self.counts["decoded"] += 1
                self.counts["posterior_bytes"] += os.path.getsize(path)
            self._write_nbest(results, vocab, split + ".nbest")
        self._same_bytes(stage, split + ".nbest")

    def _am_score(self, hyp, matrix, lexicon, vocab, options, words_out) -> float:
        """aligner.am_score, rebuilt from its parts with floors counted."""
        floor = matrix.frames * options.floor_log_prob
        self.counts["hyps"] += 1
        try:
            words = core.detokenize(hyp.tokens, vocab)
        except ValueError:
            self.floored["dangling"] += 1
            return floor
        if not words:
            self.floored["empty"] += 1
            return floor
        words_out.append(tuple(words))
        try:
            with self._span("aligner.expand_pronunciations"):
                graph = aligner.expand_pronunciations(
                    words, lexicon, allow_silence=options.allow_silence,
                    silence_phoneme=options.silence_phoneme)
        except OOVError:
            self.floored["oov"] += 1
            return floor
        try:
            with self._span("aligner.viterbi_align"):
                score, _ = aligner.viterbi_align(
                    matrix, graph, log_prior_shift=options.phoneme_log_priors)
        except AlignmentError:
            self.floored["short"] += 1
            return floor
        self.counts["viterbi_cells"] += matrix.frames * len(graph.phoneme_ids)
        return score

    def rescore(self, split: str, weights: FusionWeights) -> None:
        stage = "rescore_" + split
        name = "dev_resc.nbest" if split == "dev" else "test_fused.nbest"
        flags = self._fill(self.wl.rescore_flags)
        derived = {}
        with self._stage(stage):
            vocab = self._vocab()
            ph_vocab = self._vocab("phonemes.txt")
            with self._span("core.load_lexicon"):
                lexicon = core.load_lexicon(self._path("lexicon.tsv"), ph_vocab)
            lists = self._nbest(split + ".nbest", vocab)
            with self._span("core.load_manifest"):
                paths = dict(core.load_manifest(self._path("%s_phoneme.list" % split)))
            options = aligner.AlignOptions(
                allow_silence=True, silence_phoneme=ph_vocab.id_of(synth.SILENCE),
                oov_policy="floor")
            if "--word-lm" in flags:
                word_lm = self._counting_lm(flags["--word-lm"])
                scored_lists = []
                for nb in lists:
                    with self._span("fusion.score_with_word_lm", nb.utterance_id):
                        scored_lists.append(fusion.score_with_word_lm(nb, word_lm, vocab))
                lists = scored_lists
            results = []
            for nb in lists:
                utt = nb.utterance_id
                with self._span("core.load_posteriors", utt):
                    matrix = core.load_posteriors(paths[utt], ph_vocab)
                self.counts["posterior_bytes"] += os.path.getsize(paths[utt])
                words = []
                with self._span("aligner.nbest", utt):
                    scored = [core.with_am(h, self._am_score(
                        h, matrix, lexicon, vocab, options, words))
                        for h in nb.hypotheses]
                with self._span("fusion.rank_hypotheses", utt):
                    ranked = fusion.rank_hypotheses(scored, weights)
                results.append(NBestList(utt, tuple(ranked)))
                derived.update(((utt, h.tokens), h.scores.am) for h in scored)
                self.counts["trie_nodes"] += len(
                    {w[:k] for w in words for k in range(1, len(w) + 1)})
                self.counts["word_positions"] += sum(len(w) for w in words)
            self._write_nbest(results, vocab, name)
        self._same_bytes(stage, name)
        cli_vocab = core.load_vocabulary(self._path("wordpieces.txt"))
        for nb in core.load_nbest(os.path.join(self.work, name), cli_vocab):
            for h in nb.hypotheses:
                if derived.get((nb.utterance_id, h.tokens)) != h.scores.am:
                    self._problem(stage, "rebuilt am differs for %s" % nb.utterance_id)

    def tune(self) -> None:
        with self._stage("tune"):
            vocab = self._vocab()
            lists = self._nbest("dev_resc.nbest", vocab)
            refs = dict(self._transcripts("dev.tsv"))
            dev = [(nb, refs[nb.utterance_id]) for nb in lists]
            grid = fusion.default_weight_grid()
            with self._span("fusion.grid_search"):
                results = fusion.grid_search(dev, grid, vocab)
            with open(os.path.join(self.out, "tune.tsv"), "w", encoding="utf-8") as fh:
                for weights, dev_wer in results:
                    fh.write("%s\t%s\t%s\t%.6f\n" % (
                        weights.lambda_am, weights.lambda_lm,
                        weights.lambda_ilm, dev_wer))
        self._same_bytes("tune", "tune.tsv")
        self._replay_grid(dev, results, vocab)

    def _replay_grid(self, dev, results, vocab) -> None:
        """rank_hypotheses and wer on every pair grid_search visits."""
        clock = time.perf_counter_ns
        tops = set()
        with self.tr.span("replay.grid_search"):
            for weights, dev_wer in results:
                counts = metrics.ErrorCounts()
                for nb, ref in dev:
                    t0 = clock()
                    top = fusion.rank_hypotheses(nb.hypotheses, weights)[0]
                    t1 = clock()
                    words = core.detokenize(top.tokens, vocab)
                    t2 = clock()
                    counts = counts + metrics.wer(ref, words)
                    t3 = clock()
                    self.tr.add("fusion.rank_hypotheses", t0, t1)
                    self.tr.add("metrics.wer", t2, t3)
                    tops.add((nb.utterance_id, top.tokens))
                if counts.wer != dev_wer:
                    self._problem("tune", "replayed WER differs at %s" % (weights,))
        self.counts["replayed_pairs"] = len(results) * len(dev)
        self.counts["distinct_tops"] = len(tops)

    def score(self, stage: str, nbest_name: str) -> None:
        clock = time.perf_counter_ns
        with self._stage(stage):
            refs = self._transcripts("test.tsv")
            vocab = self._vocab()
            lists = {nb.utterance_id: nb for nb in self._nbest(nbest_name, vocab)}
            rows = []
            total = oracle = metrics.ErrorCounts()
            for utt, ref in refs:
                nb = lists[utt]
                ref_norm = metrics.normalize(" ".join(ref))
                top_words = core.detokenize(nb.top().tokens, vocab)
                t0 = clock()
                counts = metrics.wer(ref_norm, top_words)
                t1 = clock()
                oracle = oracle + metrics.oracle_wer(nb, ref_norm, vocab)
                t2 = clock()
                self.tr.add("metrics.wer", t0, t1)
                self.tr.add("metrics.oracle_wer", t1, t2)
                rows.append((utt, counts))
                total = total + counts
            with open(os.path.join(self.out, "%s.tsv" % stage), "w", encoding="utf-8") as fh:
                for utt, c in rows:
                    fh.write("%s\t%d\t%d\t%d\t%d\t%.4f\n" % (
                        utt, c.substitutions, c.deletions, c.insertions,
                        c.ref_length, c.wer))
        self._same_bytes(stage, "%s.tsv" % stage)
        self.wers[stage] = total.wer

    def buckets(self) -> None:
        with self._stage("buckets"):
            vocab = self._vocab()
            refs = self._transcripts("test.tsv")
            base = {nb.utterance_id: nb for nb in self._nbest("test.nbest", vocab)}
            fused = {nb.utterance_id: nb for nb in self._nbest("test_fused.nbest", vocab)}
            bucket_lm = self._counting_lm(self._path("wordpiece_lm.arpa"))
            corpus = [(metrics.normalize(" ".join(ref)),
                       core.detokenize(base[utt].top().tokens, vocab),
                       core.detokenize(fused[utt].top().tokens, vocab))
                      for utt, ref in refs]
            with self._span("metrics.ppl_buckets"):
                stats = metrics.ppl_buckets(corpus, bucket_lm, BUCKETS_K, vocab)
            with open(os.path.join(self.out, "buckets.tsv"), "w", encoding="utf-8") as fh:
                for s in stats:
                    fh.write("%d\t%.4f\t%.4f\t%.4f\t%.4f\n" % (
                        s.bucket, s.mean_ppl, s.baseline_wer, s.fused_wer, s.werr))
        self._same_bytes("buckets", "buckets.tsv")

    def run(self) -> None:
        steps = [
            ("synth", self.synth),
            ("decode_dev", lambda: self.decode("dev")),
            ("decode_test", lambda: self.decode("test")),
            ("rescore_dev", lambda: self.rescore("dev", FusionWeights())),
            ("tune", self.tune),
            ("rescore_test", lambda: self.rescore(
                "test", FusionWeights(*self.wl.test_weights))),
            ("score_first", lambda: self.score("score_first", "test.nbest")),
            ("score_rescored", lambda: self.score(
                "score_rescored", "test_fused.nbest")),
            ("buckets", self.buckets),
        ]
        for stage, step in steps:
            t0 = time.perf_counter()
            step()
            self.walls[stage] = time.perf_counter() - t0


def layer_metrics(tp: TracedPass, cli_times: dict[str, float]) -> dict:
    """Per-layer metrics from the traced pass's records and counts."""
    tr = tp.tr
    records = tr.records
    selfs = tr.self_ns()
    roots = tr.stage_of()
    counts = tp.counts

    def where(name, root_prefix=""):
        return [i for i, r in enumerate(records)
                if r[NAME] == name and roots[i].startswith(root_prefix)]

    def busy_s(name, root_prefix=""):
        return sum(records[i][BUSY] for i in where(name, root_prefix)) / 1e9

    def calls(name, root_prefix=""):
        return sum(records[i][CALLS] for i in where(name, root_prefix))

    def share(num, den):
        return num / den if den else 0.0

    pipeline_s = sum(r[BUSY] for r in records if r[NAME] in _STAGE_SPANS) / 1e9
    untraced_s = sum(cli_times[s] for s in PIPELINE_STAGES)
    layer_self = {layer: 0 for layer in LAYERS}
    for i, r in enumerate(records):
        layer = r[NAME].split(".", 1)[0]
        if layer in layer_self and roots[i] in _STAGE_SPANS:
            layer_self[layer] += selfs[i]

    utt_ms = [records[i][BUSY] / 1e6 for i in where("decoder.prefix_beam_search")]
    nbest_ms = [records[i][BUSY] / 1e6 for i in where("aligner.nbest")]
    utt_pct, utt_tail = tail(utt_ms)
    nb_pct, nb_tail = tail(nbest_ms)
    decoder_self = sum(selfs[i] for i in where("decoder.prefix_beam_search")) / 1e9
    cond_calls = calls("ngram.conditional")
    distinct = sum(len(keys) for lm in tp.lms for keys in lm.keys.values())
    viterbi_s = busy_s("aligner.viterbi_align")
    score_s = busy_s("ngram.score_sequence")
    decode_s = sum(r[BUSY] for r in records
                   if r[NAME] in ("stage.decode_dev", "stage.decode_test")) / 1e9

    values = {
        "decoder.self_s": (decoder_self, "s"),
        "decoder.frames": (counts["frames"], "count"),
        "decoder.self_us_per_frame": (share(decoder_self * 1e6, counts["frames"]), "us/frame"),
        "decoder.utts": (len(utt_ms), "count"),
        "decoder.utt_ms_p50": (percentile(sorted(utt_ms), 50.0) if utt_ms else 0.0, "ms"),
        "decoder.utt_ms_tail": (utt_tail, "ms"),
        "decoder.utt_tail_pct": (utt_pct, "%"),
        "decoder.full_nbest_share": (share(counts["full_nbest"], counts["decoded"]), "ratio"),
        "ngram.conditional_calls": (cond_calls, "count"),
        "ngram.conditional_decode_share": (
            share(busy_s("ngram.conditional"), decode_s), "ratio"),
        "ngram.conditional_distinct_share": (share(distinct, cond_calls), "ratio"),
        "ngram.score_sequence_calls": (calls("ngram.score_sequence"), "count"),
        "ngram.score_sequence_s": (score_s, "s"),
        "ngram.score_sequence_rescore_share": (
            share(busy_s("ngram.score_sequence", "stage.rescore_"), score_s), "ratio"),
        "ngram.load_arpa_s": (busy_s("ngram.load_arpa"), "s"),
        "aligner.hyps": (counts["hyps"], "count"),
        "aligner.expand_s": (busy_s("aligner.expand_pronunciations"), "s"),
        "aligner.viterbi_s": (viterbi_s, "s"),
        "aligner.viterbi_cells": (counts["viterbi_cells"], "count"),
        "aligner.viterbi_ns_per_cell": (
            share(viterbi_s * 1e9, counts["viterbi_cells"]), "ns/cell"),
        "aligner.word_prefix_distinct_share": (
            share(counts["trie_nodes"], counts["word_positions"]), "ratio"),
        "aligner.nbest_lists": (len(nbest_ms), "count"),
        "aligner.nbest_ms_p50": (percentile(sorted(nbest_ms), 50.0) if nbest_ms else 0.0, "ms"),
        "aligner.nbest_ms_tail": (nb_tail, "ms"),
        "aligner.nbest_tail_pct": (nb_pct, "%"),
        "aligner.floored_oov": (tp.floored["oov"], "count"),
        "aligner.floored_dangling": (tp.floored["dangling"], "count"),
        "aligner.floored_empty": (tp.floored["empty"], "count"),
        "aligner.floored_short": (tp.floored["short"], "count"),
        "fusion.grid_search_s": (busy_s("fusion.grid_search"), "s"),
        "fusion.rank_s": (busy_s("fusion.rank_hypotheses", "replay."), "s"),
        "fusion.replayed_pairs": (counts["replayed_pairs"], "count"),
        "fusion.grid_top_distinct_share": (
            share(counts["distinct_tops"], counts["replayed_pairs"]), "ratio"),
        "metrics.wer_calls": (calls("metrics.wer"), "count"),
        "metrics.wer_s": (busy_s("metrics.wer"), "s"),
        "metrics.ppl_buckets_s": (busy_s("metrics.ppl_buckets"), "s"),
        "core.load_posteriors_calls": (calls("core.load_posteriors"), "count"),
        "core.load_posteriors_s": (busy_s("core.load_posteriors"), "s"),
        "core.posterior_bytes_read": (counts["posterior_bytes"], "bytes"),
        "core.load_nbest_s": (busy_s("core.load_nbest"), "s"),
        "core.write_nbest_s": (busy_s("core.write_nbest"), "s"),
        "synth.gen_corpus_s": (busy_s("synth.gen_corpus"), "s"),
        "synth.gen_posteriors_s": (busy_s("synth.gen_posteriors"), "s"),
        "cli.stage_overhead_s": (cli_times["front"], "s"),
        "trace.pipeline_s": (pipeline_s, "s"),
        "trace.overhead_share": (share(pipeline_s, untraced_s) - 1.0, "ratio"),
        "trace.records": (len(records), "count"),
        "test_wer_first_pass": (tp.wers.get("score_first", 0.0), "ratio"),
        "test_wer_rescored": (tp.wers.get("score_rescored", 0.0), "ratio"),
    }
    for layer in LAYERS:
        values["%s.self_s" % layer] = (layer_self[layer] / 1e9, "s")
        values["%s.pipeline_share" % layer] = (
            share(layer_self[layer] / 1e9, pipeline_s), "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def predictions(metrics_out: dict) -> list[str]:
    """The dominance each workload was chosen for, checked on this run."""
    shares = {layer: metrics_out["%s.pipeline_share" % layer]["value"]
              for layer in LAYERS}
    shares["decoder+ngram"] = shares.pop("decoder") + shares.pop("ngram")
    top = max(shares, key=shares.get)
    return [
        "largest self-time share of pipeline_s: %s (%.3f); %s" % (
            top, shares[top], " ".join(
                "%s=%.3f" % kv for kv in sorted(shares.items()))),
        "ngram.conditional_calls %d" % metrics_out["ngram.conditional_calls"]["value"],
    ]


def run_traced(runner, checker, wl, seed: int, work: str, trace_root: str):
    """Set up once, run one untraced CLI pass, then the traced pass."""
    kept = os.path.join(work, "corpus")
    synthesize(runner, wl, seed, kept)
    runs = pipeline_pass(runner, checker, wl, kept, repeat_cheap=False)
    checker.against_expected(kept, runner)
    cli_times = {stage: invs[0].wall_s for stage, invs in runs.items()}
    cli_times["front"] = sum(invs[0].front_s for invs in runs.values())
    notes = ["untraced pipeline pass: %.4f s" % sum(
        cli_times[s] for s in PIPELINE_STAGES)]
    if runner.any_failed:
        return kept, None, notes
    out = os.path.join(work, "traced")
    os.makedirs(out)
    tp = TracedPass(wl, seed, kept, out)
    tp.run()
    for stage, wall in tp.walls.items():
        runner.record(Invocation("traced_" + stage, 0, wall, 0.0,
                                 problems=tp.problems.get(stage, [])))
    trace_path = os.path.join(trace_root, "trace-%s-seed%d.tsv" % (wl.name, seed))
    tp.tr.write(trace_path)
    result = layer_metrics(tp, cli_times)
    notes += predictions(result)
    notes.append("fusion.rank_s, fusion.grid_top_distinct_share and the grid "
                 "share of metrics.wer_* are replayed numbers")
    notes.append("spans written to %s" % os.path.relpath(trace_path))
    return kept, result, notes
