"""Workload definitions and the CLI stage sequence every workload runs.

Each workload is a synth config plus the flags its decode and rescore
stages take. The stage sequence is the README walkthrough: synth, decode
dev and test, rescore dev, tune on dev, rescore test, score both test
systems, buckets. Paths are relative to the checkout root.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

# Stages after synth, in pipeline order.
PIPELINE_STAGES = (
    "decode_dev", "decode_test", "rescore_dev", "tune", "rescore_test",
    "score_first", "score_rescored", "buckets")

# The second synth that builds wide_beam_lm's external LM uses the workload
# seed plus this offset, so the external text differs from the training text.
EXT_SEED_OFFSET = 1000


# Flags every rescore stage shares (the README walkthrough's policy).
ALIGN_FLAGS = ("--allow-silence", "--oov", "floor")

# Ten buckets would leave 1-2 utterances per bucket on wide_beam_lm.
BUCKETS_K = 5


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    config: synth config file; default_seed: the seed its expected digests
    were recorded at; decode_flags: search and first-pass fusion flags;
    rescore_flags: flags both rescore stages add; test_weights: the
    (lambda_am, lambda_lm, lambda_ilm) test is rescored at; ext_synth:
    extra synth flags for an external-LM corpus (empty for none).
    """

    name: str
    why: str
    config: str
    default_seed: int
    decode_flags: tuple[str, ...]
    rescore_flags: tuple[str, ...]
    test_weights: tuple[float, float, float]
    ext_synth: tuple[str, ...] = ()


WORKLOADS = {
    "demo": Workload(
        name="demo",
        why="the paper's demo.cfg experiment: tiny matrices and no first-pass "
            "LM, so per-call overhead dominates and any LM cache is bypassed",
        config="configs/demo.cfg",
        default_seed=17,
        decode_flags=("--beam", "8"),
        rescore_flags=(),
        test_weights=(0.3, 0.0, 0.0)),
    "wide_beam_lm": Workload(
        name="wide_beam_lm",
        why="vocab 200, beam 32, external LM and ILM fused in the first pass: "
            "decoder and n-gram queries dominate, the LM-state cache case",
        config="perfbench/workloads/wide_beam_lm.cfg",
        default_seed=23,
        decode_flags=("--beam", "32", "--nbest", "32",
                      "--lm", "{ext}/wordpiece_lm.arpa",
                      "--ilm", "{data}/wordpiece_lm.arpa",
                      "--lambda-lm", "0.5", "--lambda-ilm", "0.2"),
        rescore_flags=(),
        test_weights=(0.3, 0.5, 0.2),
        ext_synth=("--zipf", "1.0", "--train-utts", "4000",
                   "--dev-utts", "0", "--test-utts", "0")),
    "long_rescore": Workload(
        name="long_rescore",
        why="6-12 words with dense 3-6 phoneme pronunciations and word-LM "
            "rescoring: forced alignment dominates, the shared-prefix case",
        config="perfbench/workloads/long_rescore.cfg",
        default_seed=29,
        decode_flags=("--beam", "10"),
        rescore_flags=("--word-lm", "{data}/word_lm.arpa"),
        test_weights=(0.3, 0.1, 0.0)),
}


def synth_argvs(wl: Workload, seed: int, out: str) -> list[list[str]]:
    """The synth invocations that set up one copy of the workload's data."""
    argvs = [["synth", "--config", wl.config, "--seed", str(seed),
              "--out-dir", os.path.join(out, "data")]]
    if wl.ext_synth:
        argvs.append(["synth", "--config", wl.config,
                      "--seed", str(seed + EXT_SEED_OFFSET), *wl.ext_synth,
                      "--out-dir", os.path.join(out, "ext")])
    return argvs


def stage_argvs(wl: Workload, work: str) -> dict[str, list[str]]:
    """CLI argv of every pipeline stage; data lives under work/data."""
    data = os.path.join(work, "data")
    ext = os.path.join(work, "ext")

    def fill(flags):
        return [f.format(data=data, ext=ext) for f in flags]

    def path(name):
        return os.path.join(work, name)

    vocab = ("--vocab", os.path.join(data, "wordpieces.txt"))
    rescore = ("rescore", *vocab,
               "--phoneme-vocab", os.path.join(data, "phonemes.txt"),
               "--lexicon", os.path.join(data, "lexicon.tsv"),
               *ALIGN_FLAGS, *fill(wl.rescore_flags), "--jobs", "1")
    am, lm, ilm = wl.test_weights
    test_ref = ("--ref", os.path.join(data, "test.tsv"))
    return {
        "decode_dev": [
            "decode", "--list", os.path.join(data, "dev_e2e.list"), *vocab,
            *fill(wl.decode_flags), "--jobs", "1", "--out", path("dev.nbest")],
        "decode_test": [
            "decode", "--list", os.path.join(data, "test_e2e.list"), *vocab,
            *fill(wl.decode_flags), "--jobs", "1", "--out", path("test.nbest")],
        "rescore_dev": [
            *rescore, "--nbest", path("dev.nbest"),
            "--list", os.path.join(data, "dev_phoneme.list"),
            "--out", path("dev_resc.nbest")],
        "tune": [
            "tune", "--nbest", path("dev_resc.nbest"),
            "--ref", os.path.join(data, "dev.tsv"), *vocab,
            "--report", path("tune.tsv")],
        "rescore_test": [
            *rescore, "--nbest", path("test.nbest"),
            "--list", os.path.join(data, "test_phoneme.list"),
            "--lambda-am", repr(am), "--lambda-lm", repr(lm),
            "--lambda-ilm", repr(ilm), "--out", path("test_fused.nbest")],
        "score_first": [
            "score", *test_ref, "--nbest", path("test.nbest"), *vocab,
            "--report", path("score_first.tsv")],
        "score_rescored": [
            "score", *test_ref, "--nbest", path("test_fused.nbest"), *vocab,
            "--report", path("score_rescored.tsv")],
        "buckets": [
            "buckets", *test_ref, "--baseline-nbest", path("test.nbest"),
            "--fused-nbest", path("test_fused.nbest"), *vocab,
            "--lm", os.path.join(data, "wordpiece_lm.arpa"),
            "--k", str(BUCKETS_K), "--report", path("buckets.tsv")],
    }


# The work unit each stage's time is scaled by (see clipass.count_work).
# Score and buckets are not scaled: loading files and the bucketing LM, a
# fixed cost, is most of their time on small test sets.
STAGE_WORK = {
    "decode_dev": "dev_e2e_frames",
    "decode_test": "test_e2e_frames",
    "rescore_dev": "dev_viterbi_cells",
    "rescore_test": "test_viterbi_cells",
    "tune": "tune_point_hyps",
}

# Output files each stage writes (relative to the work dir).
STAGE_OUTPUTS = {
    "decode_dev": ("dev.nbest",),
    "decode_test": ("test.nbest",),
    "rescore_dev": ("dev_resc.nbest",),
    "tune": ("tune.tsv",),
    "rescore_test": ("test_fused.nbest",),
    "score_first": ("score_first.tsv",),
    "score_rescored": ("score_rescored.tsv",),
    "buckets": ("buckets.tsv",),
}
