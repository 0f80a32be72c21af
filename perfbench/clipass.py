"""Driving twopass.cli.main in-process: stage timing and output checks."""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import logging
import os
import re
import signal
import statistics
import struct
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

from twopass import aligner, core, synth

from workloads import PIPELINE_STAGES, STAGE_OUTPUTS, stage_argvs, synth_argvs

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

# A stage is rerun inside a pass until its samples add up to this much time
# (or STAGE_MAX_REPS runs), so millisecond stages get a median, not one read.
STAGE_MIN_S = 0.3
STAGE_MAX_REPS = 15

# Speed probe: a fixed pure-Python loop, timed from a timer signal every
# PROBE_INTERVAL_S for as long as the runner is open. A stage run's time is
# scaled by the mean probe time within PROBE_PAD_S of the run to the speed
# at which the loop takes REF_PROBE_S, its time in the fast phase of the
# 2-vCPU machines this was built on.
PROBE_LOOPS = 10000
PROBE_INTERVAL_S = 0.05
PROBE_PAD_S = 0.25
REF_PROBE_S = 0.0008

_WER_RE = re.compile(r"^corpus WER (\S+)$", re.M)
_SELECTED_RE = re.compile(
    r"^selected lambda_am=(\S+) lambda_lm=(\S+) lambda_ilm=(\S+) dev_wer=(\S+)$",
    re.M)


class _Marks(logging.Handler):
    """Timestamps of the CLI's log records and stdout writes.

    The first record is the effective-config line logged right after
    argument parsing; the last output closes the command's work. Wall time
    outside that window is the CLI front end (cli.stage_overhead_s).
    """

    def __init__(self) -> None:
        super().__init__(logging.INFO)
        self.marks: list[float] = []

    def emit(self, record) -> None:
        self.marks.append(time.perf_counter())


class _MarkedStdout(io.StringIO):
    def __init__(self, marks: _Marks) -> None:
        super().__init__()
        self._marks = marks

    def write(self, text):
        self._marks.marks.append(time.perf_counter())
        return super().write(text)


def _probe_loop() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples CPU speed with _probe_loop from SIGALRM while open.

    Shared machines alternate between speed phases about 1.7x apart that
    last from seconds to tens of seconds. The probe runs in the thread the
    stages run in, so it sees the phase they see.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (end time, seconds)
        self._previous = None

    def _tick(self, signum, frame) -> None:
        seconds = _probe_loop()
        self.samples.append((time.perf_counter(), seconds))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def busy_s(self, t0: float, t1: float) -> float:
        """Probe time spent between t0 and t1."""
        return sum(d for end, d in self.samples if t0 < end <= t1)

    def scale(self, t0: float, t1: float) -> float:
        """Factor from wall seconds between t0 and t1 to reference seconds."""
        near = [d for end, d in self.samples
                if t0 - PROBE_PAD_S <= end <= t1 + PROBE_PAD_S]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - t1))[1]]
        return REF_PROBE_S / statistics.mean(near)


@dataclass
class Invocation:
    """One stage run: CLI exit code, wall time, front-end time, stdout.

    wall_s excludes the speed probe's own time; t0 and t1 bound the run.
    """

    stage: str
    rc: int
    wall_s: float
    front_s: float
    stdout: str = ""
    problems: list[str] = field(default_factory=list)
    t0: float = 0.0
    t1: float = 0.0

    @property
    def failed(self) -> bool:
        return self.rc != 0 or bool(self.problems)


class Runner:
    """Runs CLI stages in this process and keeps every invocation.

    Use it as a context manager: the speed probe samples while it is open.
    """

    def __init__(self) -> None:
        self.probe = SpeedProbe()
        from twopass import cli
        self._main = cli.main
        self._marks = _Marks()
        log = logging.getLogger("twopass")
        # With a handler present, cli.main installs no stderr handler.
        log.addHandler(self._marks)
        log.setLevel(logging.INFO)
        log.propagate = False
        self.invocations: list[Invocation] = []

    def __enter__(self) -> "Runner":
        self.probe.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        self.probe.__exit__(*exc)

    def run(self, stage: str, argv: list[str]) -> Invocation:
        self._marks.marks = []
        out = _MarkedStdout(self._marks)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = self._main(list(argv))
        except Exception:  # a crash is a failed invocation, not a lost run
            traceback.print_exc()
            rc = -1
        t1 = time.perf_counter()
        marks = self._marks.marks
        front = (marks[0] - t0) + (t1 - marks[-1]) if marks else t1 - t0
        inv = Invocation(stage, rc, t1 - t0 - self.probe.busy_s(t0, t1), front,
                         out.getvalue(), t0=t0, t1=t1)
        if rc != 0:
            inv.problems.append("exit code %d" % rc)
        self.invocations.append(inv)
        return inv

    def reference_s(self, inv: Invocation) -> float:
        """inv's wall time at the reference CPU speed."""
        return inv.wall_s * self.probe.scale(inv.t0, inv.t1)

    def record(self, inv: Invocation) -> Invocation:
        """Count a unit of work that did not go through the CLI."""
        self.invocations.append(inv)
        return inv

    @property
    def any_failed(self) -> bool:
        return any(inv.failed for inv in self.invocations)

    def first_by_stage(self) -> dict[str, Invocation]:
        out: dict[str, Invocation] = {}
        for inv in self.invocations:
            out.setdefault(inv.stage, inv)
        return out


# --- artifacts ------------------------------------------------------------

def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def artifact_digests(root: str) -> dict[str, str]:
    """sha256 of every file under root, keyed by relative path.

    The per-utterance files of a posteriors/ directory fold into one digest
    of their sorted "name TAB sha256" lines, keyed by the directory.
    """
    out: dict[str, str] = {}
    for dirpath, _, files in os.walk(root):
        rel_dir = os.path.relpath(dirpath, root)
        folded = os.path.basename(dirpath) == "posteriors"
        lines = []
        for name in sorted(files):
            digest = sha256_file(os.path.join(dirpath, name))
            if folded:
                lines.append("%s\t%s\n" % (name, digest))
            else:
                out[os.path.normpath(os.path.join(rel_dir, name))] = digest
        if folded:
            out[rel_dir + "/"] = hashlib.sha256(
                "".join(lines).encode("utf-8")).hexdigest()
    return out


def nbest_reloads(nbest_path: str, vocab_path: str) -> bool:
    """True when load_nbest then write_nbest reproduces the file's bytes."""
    vocab = core.load_vocabulary(vocab_path)
    lists = core.load_nbest(nbest_path, vocab)
    fd, tmp = tempfile.mkstemp(suffix=".nbest", dir=os.path.dirname(nbest_path))
    os.close(fd)
    try:
        core.write_nbest(lists, vocab, tmp)
        return sha256_file(tmp) == sha256_file(nbest_path)
    finally:
        os.remove(tmp)


def tune_selection(stdout: str, report_path: str) -> tuple[str | None, str | None]:
    """(printed selection, problem): the selection must be the report's
    minimum-WER point, ties to the smaller weight triple."""
    m = _SELECTED_RE.search(stdout)
    if m is None:
        return None, "tune printed no selection"
    best = None
    with open(report_path, encoding="utf-8") as fh:
        for line in fh:
            am, lm, ilm, wer = line.rstrip("\n").split("\t")
            key = (float(wer), (float(am), float(lm), float(ilm)))
            if best is None or key < best:
                best = key
    selected = " ".join(m.groups())
    want = "%.3f %.3f %.3f %.6f" % (best[1] + (best[0],))
    if selected != want:
        return selected, "tune selected %s, report minimum is %s" % (selected, want)
    return selected, None


def corpus_wer(stdout: str) -> str | None:
    m = _WER_RE.search(stdout)
    return m.group(1) if m else None


# --- checks ---------------------------------------------------------------

class Checker:
    """Output checks on CLI stages; problems are attached to invocations."""

    def __init__(self, workload, seed: int, record: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.record = record
        self.at_default = seed == workload.default_seed and not record
        self.expected = None
        if os.path.exists(EXPECTED):
            with open(EXPECTED, encoding="utf-8") as fh:
                self.expected = json.load(fh).get(workload.name)
        # Keyed by (work dir, stage): reruns must repeat the first run.
        self.first_digests: dict[tuple[str, str], dict[str, str]] = {}
        # Keyed by work dir: corpus WER per score stage, tune selection.
        self.wers: dict[str, dict[str, str]] = {}
        self.selected: dict[str, str | None] = {}

    def after_stage(self, inv: Invocation, work: str) -> None:
        """Check a pipeline stage's outputs; reruns must repeat the first."""
        outputs = STAGE_OUTPUTS[inv.stage]
        paths = [os.path.join(work, name) for name in outputs]
        if inv.rc != 0 or not all(os.path.exists(p) for p in paths):
            inv.problems.append("missing output")
            return
        digests = {name: sha256_file(p) for name, p in zip(outputs, paths)}
        first = self.first_digests.setdefault((work, inv.stage), digests)
        if first is not digests:
            if digests != first:
                inv.problems.append("rerun output differs")
            return
        vocab = os.path.join(work, "data", "wordpieces.txt")
        for name, path in zip(outputs, paths):
            if name.endswith(".nbest") and not nbest_reloads(path, vocab):
                inv.problems.append("%s does not reload losslessly" % name)
        if inv.stage == "tune":
            self.selected[work], problem = tune_selection(
                inv.stdout, os.path.join(work, "tune.tsv"))
            if problem:
                inv.problems.append(problem)
        elif inv.stage.startswith("score_"):
            wer = corpus_wer(inv.stdout)
            if wer is None:
                inv.problems.append("score printed no corpus WER")
            else:
                self.wers.setdefault(work, {})[inv.stage] = wer

    def against_expected(self, work: str, runner: Runner) -> None:
        """At the default seed compare every artifact, both test WERs and
        the tune selection with expected.json."""
        if not self.at_default:
            return
        first = runner.first_by_stage()
        exp = self.expected
        if exp is None:
            first["synth"].problems.append(
                "no expected outputs recorded for %s" % self.workload.name)
            return
        owner = {name: stage for stage, names in STAGE_OUTPUTS.items()
                 for name in names}
        actual = artifact_digests(work)
        for name in sorted(set(exp["artifacts"]) | set(actual)):
            if exp["artifacts"].get(name) != actual.get(name):
                first[owner.get(name, "synth")].problems.append(
                    "digest mismatch: " + name)
        wers = self.wers.get(work, {})
        for stage, key in (("score_first", "test_wer_first_pass"),
                           ("score_rescored", "test_wer_rescored")):
            if wers.get(stage) != exp[key]:
                first[stage].problems.append("%s %s, expected %s" % (
                    key, wers.get(stage), exp[key]))
        if self.selected.get(work) != exp["tune_selected"]:
            first["tune"].problems.append("tune selected %s, expected %s" % (
                self.selected.get(work), exp["tune_selected"]))

    def expected_entry(self, work: str) -> dict:
        wers = self.wers.get(work, {})
        return {
            "seed": self.seed,
            "work": dict(sorted(count_work(work).items())),
            "artifacts": artifact_digests(work),
            "test_wer_first_pass": wers.get("score_first"),
            "test_wer_rescored": wers.get("score_rescored"),
            "tune_selected": self.selected.get(work),
        }


# --- set-up and passes ----------------------------------------------------

def synthesize(runner: Runner, wl, seed: int, out: str,
               reference: dict[str, str] | None = None) -> tuple[list, dict]:
    """Run the workload's synth into out; return its invocations and the
    digests of what it wrote.

    With a reference, the digests must equal it (reruns are byte-identical).
    """
    invs = [runner.run("synth", argv) for argv in synth_argvs(wl, seed, out)]
    digests = artifact_digests(out)
    if reference is not None and digests != reference:
        invs[0].problems.append("synth rerun output differs")
    return invs, digests


def pipeline_pass(runner: Runner, checker: Checker, wl, work: str,
                  repeat_cheap: bool) -> dict[str, list[Invocation]]:
    """One pass over the stages after synth; returns each stage's runs.

    With repeat_cheap a stage is rerun until its runs add up to STAGE_MIN_S
    (at most STAGE_MAX_REPS runs), so millisecond stages get more samples.
    """
    argvs = stage_argvs(wl, work)
    runs: dict[str, list[Invocation]] = {}
    for stage in PIPELINE_STAGES:
        samples = runs[stage] = []
        while True:
            inv = runner.run(stage, argvs[stage])
            checker.after_stage(inv, work)
            samples.append(inv)
            if inv.failed or not repeat_cheap \
                    or sum(s.wall_s for s in samples) >= STAGE_MIN_S \
                    or len(samples) >= STAGE_MAX_REPS:
                break
    return runs


def _frames(path: str) -> int:
    """Frame count from an FPM1 header."""
    with open(path, "rb") as fh:
        return struct.unpack("<I", fh.read(8)[4:])[0]


def count_work(work: str) -> Counter:
    """The work units a pipeline pass does on this corpus.

    <split>_e2e_frames: frames decoded; <split>_viterbi_cells: frames x
    pronunciation-graph states of every hypothesis that aligns (graphs built
    with expand_pronunciations, as the rescore stages build them);
    tune_point_hyps: grid points x dev N-best entries (each point ranks
    every entry); utts, hyps and points as counted.
    """
    data = os.path.join(work, "data")
    vocab = core.load_vocabulary(os.path.join(data, "wordpieces.txt"))
    ph_vocab = core.load_vocabulary(os.path.join(data, "phonemes.txt"))
    lexicon = core.load_lexicon(os.path.join(data, "lexicon.tsv"), ph_vocab)
    silence = ph_vocab.id_of(synth.SILENCE)
    counts: Counter = Counter()
    for split in ("dev", "test"):
        for _, path in core.load_manifest(os.path.join(data, "%s_e2e.list" % split)):
            counts[split + "_e2e_frames"] += _frames(path)
        ph_frames = {utt: _frames(path) for utt, path in core.load_manifest(
            os.path.join(data, "%s_phoneme.list" % split))}
        lists = core.load_nbest(os.path.join(work, "%s.nbest" % split), vocab)
        counts["utts"] += len(lists)
        for nb in lists:
            frames = ph_frames[nb.utterance_id]
            for hyp in nb.hypotheses:
                try:
                    graph = aligner.expand_pronunciations(
                        core.detokenize(hyp.tokens, vocab), lexicon,
                        allow_silence=True, silence_phoneme=silence)
                except (ValueError, core.OOVError):
                    continue
                if frames >= graph.min_path_states():
                    counts[split + "_viterbi_cells"] += frames * len(graph.phoneme_ids)
        counts[split + "_hyps"] = sum(len(nb) for nb in lists)
    with open(os.path.join(work, "tune.tsv"), encoding="utf-8") as fh:
        counts["points"] = sum(1 for line in fh if line.strip())
    counts["hyps"] = counts["dev_hyps"] + counts["test_hyps"]
    counts["tune_point_hyps"] = counts["points"] * counts["dev_hyps"]
    return counts
