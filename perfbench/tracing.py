"""In-memory spans for the traced run, and a counting n-gram model.

A span record is [name, start_ns, end_ns, parent, utt, calls, busy_ns].
An ordinary span covers one call (calls 1, busy = end - start). Hot calls,
such as n-gram queries (hundreds of thousands per utterance), are kept as
one aggregate record per (open span, name): calls counts them, busy_ns sums
their durations, start/end bound the first and last. A record's self time
is its busy time minus the busy time of its children.
"""
from __future__ import annotations

import os
import time
from contextlib import contextmanager

from twopass.ngram import NGramModel

NAME, START, END, PARENT, UTT, CALLS, BUSY = range(7)


class Tracer:
    """Span and aggregate records, kept in memory until write()."""

    def __init__(self) -> None:
        self.records: list[list] = []
        self._stack: list[int] = []
        self._aggregates: dict[tuple[int, str], list] = {}

    @property
    def current(self) -> int:
        return self._stack[-1] if self._stack else -1

    @contextmanager
    def span(self, name: str, utt: str = ""):
        rec = [name, time.perf_counter_ns(), 0, self.current, utt, 1, 0]
        self._stack.append(len(self.records))
        self.records.append(rec)
        try:
            yield rec
        finally:
            rec[END] = time.perf_counter_ns()
            rec[BUSY] = rec[END] - rec[START]
            self._stack.pop()

    def aggregate(self, name: str) -> list:
        """The aggregate record for `name` under the open span."""
        key = (self.current, name)
        rec = self._aggregates.get(key)
        if rec is None:
            parent = self.current
            utt = self.records[parent][UTT] if parent >= 0 else ""
            rec = [name, 0, 0, parent, utt, 0, 0]
            self._aggregates[key] = rec
            self.records.append(rec)
        return rec

    def add(self, name: str, start_ns: int, end_ns: int) -> None:
        """Fold one timed call into its aggregate record."""
        rec = self.aggregate(name)
        if not rec[CALLS]:
            rec[START] = start_ns
        rec[END] = end_ns
        rec[CALLS] += 1
        rec[BUSY] += end_ns - start_ns

    def self_ns(self) -> list[int]:
        """Busy time of each record minus the busy time of its children."""
        out = [rec[BUSY] for rec in self.records]
        for rec in self.records:
            if rec[PARENT] >= 0:
                out[rec[PARENT]] -= rec[BUSY]
        return out

    def stage_of(self) -> list[str]:
        """Name of the root span each record sits under."""
        roots = []
        for rec in self.records:
            parent = rec[PARENT]
            roots.append(roots[parent] if parent >= 0 else rec[NAME])
        return roots

    def write(self, path: str) -> None:
        """Write every record as TSV, times relative to the first span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = min((r[START] for r in self.records if r[CALLS]), default=0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\tutt\tcalls\tbusy_ns\n")
            for i, r in enumerate(self.records):
                fh.write("%d\t%s\t%d\t%d\t%d\t%s\t%d\t%d\n" % (
                    i, r[NAME], r[START] - t0, r[END] - t0, r[PARENT], r[UTT],
                    r[CALLS], r[BUSY]))


class CountingLM(NGramModel):
    """An NGramModel over another model's tables that times its queries.

    Direct conditional calls fold into "ngram.conditional" and whole
    score_sequence calls into "ngram.score_sequence" under the tracer's open
    span; the conditional calls score_sequence makes itself count only as
    part of it. Distinct (last order-1 context, token) keys of direct
    conditional calls are kept per tracer root span (calling stage).
    """

    def __init__(self, model: NGramModel, tracer: Tracer) -> None:
        super().__init__(
            model.order, [model.ngrams(k) for k in range(1, model.order + 1)])
        self._tracer = tracer
        self._inside = 0
        self._ctx_len = model.order - 1
        self.keys: dict[int, set] = {}
        self._span = None
        self._agg: list = []
        self._keyset: set = set()

    def _follow_span(self) -> None:
        tracer = self._tracer
        self._span = tracer.current
        self._agg = tracer.aggregate("ngram.conditional")
        root = self._span
        while root >= 0 and tracer.records[root][PARENT] >= 0:
            root = tracer.records[root][PARENT]
        self._keyset = self.keys.setdefault(root, set())

    def conditional(self, context, token, use_unk=False):
        if self._inside:
            return super().conditional(context, token, use_unk)
        t0 = time.perf_counter_ns()
        value = super().conditional(context, token, use_unk)
        t1 = time.perf_counter_ns()
        if self._tracer.current != self._span:
            self._follow_span()
        rec = self._agg
        if not rec[CALLS]:
            rec[START] = t0
        rec[END] = t1
        rec[CALLS] += 1
        rec[BUSY] += t1 - t0
        self._keyset.add(
            (tuple(context[-self._ctx_len:]) if self._ctx_len else (), token))
        return value

    def score_sequence(self, tokens, include_eos=False, use_unk=False):
        t0 = time.perf_counter_ns()
        self._inside += 1
        try:
            value = super().score_sequence(tokens, include_eos, use_unk)
        finally:
            self._inside -= 1
        self._tracer.add("ngram.score_sequence", t0, time.perf_counter_ns())
        return value
