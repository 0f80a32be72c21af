"""twopass benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload demo --seed 17 --seconds 40 --trace 0

Run it from the root of a source checkout; the toolkit is imported from
that checkout's src/ directory. With --trace 0 the README pipeline is
driven in-process through twopass.cli.main (--jobs 1) and every stage is
timed: rounds of (synth again, one pipeline pass) run until --seconds is
used up, and each stage keeps its fastest run, scaled to the workload's
nominal input size (see run_untraced). The last stdout line carries the
end-to-end metrics. With --trace 1 one untraced CLI pass is followed by a
traced pass that calls each module's public functions directly
(layers.py); the last line carries the per-layer metrics.

Every run checks its outputs: stage exit codes, byte-identical reruns,
lossless N-best reloads, the tune selection against its own report and, at
a workload's default seed, the sha256 of every artifact, both test WERs and
the tune selection recorded in expected.json (rewrite that entry with
--record-expected). attempted counts stage invocations; failed counts those
that exited non-zero or failed a check, so failed / attempted is the
failed_share metric. Scratch files live under .perfbench_work/ and are
removed; traced runs leave their span file under .perfbench_out/.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
TRACE_ROOT = os.path.join(ROOT, ".perfbench_out")

# Rounds that first repeat synth, for setup_s (the median of the samples).
SETUP_SAMPLES = 3

END_TO_END_UNITS = {
    "setup_s": "s", "pipeline_s": "s", "decode_utt_per_s": "utt/s",
    "rescore_hyp_per_s": "hyp/s", "peak_rss_mb": "MiB",
}
# Printed, but not in the result line: on wide_beam_lm their stages take
# 15-50 ms and their run-to-run spread is above 0.1 (see README.md).
PRINTED_UNITS = {"tune_points_per_s": "points/s", "report_s": "s"}


def _import_toolkit() -> None:
    """Import twopass from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import twopass
    except ImportError as exc:
        raise SystemExit("perfbench: cannot import twopass from %s: %s" % (SRC, exc))
    if os.path.dirname(os.path.dirname(os.path.abspath(twopass.__file__))) != SRC:
        raise SystemExit("perfbench: twopass resolved outside %s" % SRC)


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def run_untraced(runner, checker, wl, seed: int, seconds: float, work: str):
    """Synthesize the corpus, then run pipeline rounds for about `seconds`.

    The first SETUP_SAMPLES rounds repeat synth into a scratch directory
    (a set-up sample, whose bytes must match); every round runs one
    pipeline pass on the corpus. Every run is timed in reference seconds
    (clipass.SpeedProbe): its wall time at a fixed CPU speed, because the
    shared machines this was built on change speed by up to 1.7x for tens
    of seconds at a time. A stage's time is its fastest run: what scaling
    leaves of a slow phase only ever adds time. That time is then scaled to
    the input size recorded at the workload's default seed (expected.json
    "work"), so that seeds whose corpora differ in size compare.
    """
    from clipass import PIPELINE_STAGES, count_work, pipeline_pass, synthesize
    from workloads import STAGE_WORK
    kept = os.path.join(work, "corpus")
    invs, corpus_digests = synthesize(runner, wl, seed, kept)
    setups = [invs]
    runs = {stage: [] for stage in PIPELINE_STAGES}
    rounds = 0
    t_start = time.perf_counter()
    while not runner.any_failed:
        t_round = time.perf_counter()
        if 0 < rounds < SETUP_SAMPLES:
            again = os.path.join(work, "again")
            invs, _ = synthesize(runner, wl, seed, again, corpus_digests)
            setups.append(invs)
            shutil.rmtree(again)
        for stage, invs in pipeline_pass(
                runner, checker, wl, kept, repeat_cheap=True).items():
            runs[stage] += invs
        if rounds == 0:
            checker.against_expected(kept, runner)
        rounds += 1
        now = time.perf_counter()
        if (now - t_start) + (now - t_round) > seconds:
            break
    setup_times = [sum(runner.reference_s(inv) for inv in invs) for invs in setups]
    wers = checker.wers.get(kept, {})
    notes = [
        "setup runs: %s s" % " ".join("%.3f" % t for t in setup_times),
        "pipeline rounds: %d" % rounds,
        "test_wer_first_pass %s ratio" % wers.get("score_first"),
        "test_wer_rescored %s ratio" % wers.get("score_rescored"),
    ]
    if runner.any_failed:
        return kept, None, notes
    counts = count_work(kept)
    nominal = counts if checker.record or checker.expected is None \
        else checker.expected["work"]
    stage_s = {}
    for stage in PIPELINE_STAGES:
        unit = STAGE_WORK.get(stage)
        ref_s = min(runner.reference_s(inv) for inv in runs[stage])
        stage_s[stage] = ref_s * nominal[unit] / counts[unit] if unit else ref_s
        notes.append("stage %-15s wall %.4f s, reference %.4f s, nominal size %.4f s"
                     " (fastest of %d runs)" % (
                         stage, min(inv.wall_s for inv in runs[stage]),
                         ref_s, stage_s[stage], len(runs[stage])))

    def total(*stages):
        return sum(stage_s[s] for s in stages)

    values = {
        "setup_s": statistics.median(setup_times),
        "pipeline_s": total(*PIPELINE_STAGES),
        "decode_utt_per_s": _rate(nominal["utts"], total("decode_dev", "decode_test")),
        "rescore_hyp_per_s": _rate(nominal["hyps"], total("rescore_dev", "rescore_test")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    printed = {
        "tune_points_per_s": _rate(nominal["points"], total("tune")),
        "report_s": total("score_first", "score_rescored", "buckets"),
    }
    notes += ["%s %.6g %s" % (k, v, PRINTED_UNITS[k]) for k, v in printed.items()]
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return kept, metrics, notes


def emit(invocations, metrics: dict | None, notes: list[str]) -> None:
    """Print the human-readable lines, then the JSON result line."""
    attempted = len(invocations)
    failed = sum(1 for inv in invocations if inv.failed)
    for inv in invocations:
        if inv.failed:
            print("FAILED %s: %s" % (inv.stage, "; ".join(inv.problems)))
    for line in notes:
        print(line)
    print("failed_share %.4f ratio (%d of %d stage invocations)"
          % (failed / attempted, failed, attempted))
    for name, m in (metrics or {}).items():
        print("%-36s %16.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({
        "correct": metrics is not None and failed == 0,
        "attempted": attempted, "failed": failed, "metrics": metrics or {}}))


def record_expected(checker, work: str) -> None:
    from clipass import EXPECTED
    data = {}
    if os.path.exists(EXPECTED):
        with open(EXPECTED, encoding="utf-8") as fh:
            data = json.load(fh)
    data[checker.workload.name] = checker.expected_entry(work)
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true",
                        help="store this run's outputs in expected.json "
                             "(default seed only) instead of checking them")
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    if args.record_expected and args.seed != wl.default_seed:
        parser.error("--record-expected needs the default seed %d" % wl.default_seed)

    _import_toolkit()
    os.chdir(ROOT)
    if not os.path.exists(wl.config):
        raise SystemExit("perfbench: missing %s" % wl.config)
    from clipass import Checker, Runner
    runner = Runner()
    checker = Checker(wl, args.seed, args.record_expected)
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="%s-%d-" % (wl.name, args.seed), dir=WORK_ROOT)
    try:
        if args.trace:
            import layers
            kept, metrics, notes = layers.run_traced(
                runner, checker, wl, args.seed, work, TRACE_ROOT)
        else:
            with runner:  # the speed probe runs for untraced runs only
                kept, metrics, notes = run_untraced(
                    runner, checker, wl, args.seed, args.seconds, work)
        if args.record_expected and metrics is not None:
            record_expected(checker, kept)
            notes.append("recorded expected outputs for %s" % wl.name)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)
    emit(runner.invocations, metrics, notes)
    return 0 if metrics is not None and not runner.any_failed else 1


if __name__ == "__main__":
    sys.exit(main())
