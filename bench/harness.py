"""Closed-loop runner: rounds of operations, per-call timing and spans.

A workload is a list of ``Op``s.  One round runs every op once, in order,
from one caller.  Each op runs inside its own guard, so an exception or a
failed check counts against that op's kind and the round goes on.  Every
call into the library goes through ``Recorder.call``, which times it and,
in a traced round, also keeps a span.  The reference computations (see
reference.py) run between the ops, spread evenly over the round, and are
timed apart from them.
"""

import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

SPAN_CAP = 500_000  # spans kept in memory per run; later ones are only counted


@dataclass
class Op:
    """One operation: ``run(rec)`` makes the library calls and returns what
    ``check(result)`` needs; ``check`` returns a list of problems."""

    kind: str
    run: Callable
    check: Callable


@dataclass
class Round:
    traced: bool
    op_seconds: list  # time of each op, in op order, checks excluded
    ref_seconds: list  # time of each reference computation, in order
    busy: dict  # (op kind, span name) -> seconds
    calls: dict  # (op kind, span name) -> calls
    counts: dict  # work counts read off returned objects


class Recorder:
    """Accumulators for the current round, and the spans of traced rounds.

    A span is ``[name, start, end, parent span index, op id]``; op spans
    have no parent, library-call spans have their op's span as parent.
    """

    def __init__(self):
        self.spans = []
        self.spans_dropped = 0
        self.is_basis_seconds = []  # every untraced is_basis call, for its p50
        self.op_id = 0
        self._begin(False)

    def _begin(self, traced):
        self.traced = traced
        self.kind = None
        self.op_span = None
        self.busy = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)

    def _span(self, name, t0, t1, parent):
        if len(self.spans) >= SPAN_CAP:
            self.spans_dropped += 1
            return None
        self.spans.append([name, t0, t1, parent, self.op_id])
        return len(self.spans) - 1

    def call(self, name, fn, *args):
        """Call ``fn(*args)`` under the span name ``<layer>.<function>``."""
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter()
            self.busy[self.kind, name] += t1 - t0
            self.calls[self.kind, name] += 1
            if self.traced:
                self._span(name, t0, t1, self.op_span)
            elif name == "folding.is_basis":
                self.is_basis_seconds.append(t1 - t0)

    def count(self, name, value=1):
        self.counts[name] += value

    def high(self, name, value):
        """Keep the round's largest value under ``name``."""
        self.counts[name] = max(self.counts[name], value)


class OpStats:
    """Attempted and failed ops per kind, with the first error of each."""

    def __init__(self):
        self.attempted = defaultdict(int)
        self.failed = defaultdict(int)
        self.bad_checks = 0
        self.first_error = {}

    def fail(self, kind, message):
        self.failed[kind] += 1
        self.first_error.setdefault(kind, message)


def _time(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def run_round(ops, refs, rec, stats, traced):
    rec._begin(traced)
    op_seconds = []
    ref_seconds = []
    for i, op in enumerate(ops):
        # reference j runs just before op len(ops) * j / len(refs)
        while len(ref_seconds) < len(refs) and len(ref_seconds) * len(ops) <= i * len(refs):
            ref_seconds.append(_time(refs[len(ref_seconds)]))
        rec.kind = op.kind
        rec.op_id += 1
        stats.attempted[op.kind] += 1
        t0 = time.perf_counter()
        rec.op_span = rec._span("op." + op.kind, t0, None, None) if traced else None
        error = None
        try:
            result = op.run(rec)
        except Exception as exc:  # one op's failure must not stop the round
            error = "%s: %s" % (type(exc).__name__, str(exc)[:200])
        t1 = time.perf_counter()
        op_seconds.append(t1 - t0)
        if rec.op_span is not None:
            rec.spans[rec.op_span][2] = t1
        if error is not None:
            stats.fail(op.kind, error)
            continue
        try:
            problems = op.check(result)
        except Exception:  # a check that crashes is a failed check
            problems = ["check raised: " + traceback.format_exc(limit=3)]
        if problems:
            stats.bad_checks += 1
            stats.fail(op.kind, "check: " + "; ".join(problems)[:300])
    return Round(traced, op_seconds, ref_seconds, dict(rec.busy),
                 dict(rec.calls), dict(rec.counts))


def run_rounds(ops, refs, seconds, trace):
    """Whole rounds until ``seconds`` have passed.  With ``trace`` the rounds
    alternate untraced and traced, starting untraced, and at least one of
    each runs."""
    rec = Recorder()
    stats = OpStats()
    rounds = []
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        rounds.append(run_round(ops, refs, rec, stats, traced))
        if time.perf_counter() - start >= seconds and len(rounds) >= (2 if trace else 1):
            return rounds, rec, stats
