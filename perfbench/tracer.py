"""Span tracing from outside the package.

`Tracer.wrap` replaces a function at the attribute where its caller looks
it up (``berncert.binom.binom_cdf`` for the calls `binom_tail_invert`
makes, ``berncert.intervals.binom_tail_invert`` for the calls
`clopper_pearson` makes, and so on), so no line of the package changes.
Each call becomes a span with name, start, end, parent and thread.  Spans
are kept in memory up to a cap and written out when the run ends; per-name
call counts, total time and self time, and parent->child call counts, are
aggregated for every span, including those past the cap.

Self time is a span's duration minus the time its child spans cover.  A
child in another thread (the sweep's worker pool) is attributed to the span
open on the main thread when it starts, and the union of such children's
intervals is subtracted, since they may overlap.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time

SPAN_CAP = 100_000


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


class _Frame:
    __slots__ = ("id", "name", "start", "child_s", "cross")

    def __init__(self, span_id: int, name: str, start: float):
        self.id = span_id
        self.name = name
        self.start = start
        self.child_s = 0.0  # same-thread children run one after another
        self.cross: list[tuple[float, float]] = []  # other-thread children may overlap


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, thread id)
        self.dropped = 0
        self.stats: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.edges: dict[tuple[str, str], int] = {}  # (parent name, name) -> calls
        self.counters: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._main_stack = self._stack()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, sites: list[tuple[object, str]], measure=None) -> None:
        """Trace calls to the function bound at every ``(owner, attribute)``
        site; all sites must hold the same function.  ``measure(result)``
        returns ``(counter, amount)`` to add after each call."""
        original = getattr(*sites[0])
        for owner, attr in sites:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner!r}.{attr} is not the function bound at {sites[0]}")
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent, cross = (stack[-1] if stack else None), False
            if parent is None and threading.get_ident() != tracer._main_thread:
                main = tracer._main_stack
                parent, cross = (main[-1] if main else None), True
            frame = _Frame(next(tracer._ids), name, time.perf_counter())
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._close(frame, end, parent, cross)
            if measure is not None:
                tracer.count(*measure(result))
            return result

        for owner, attr in sites:
            setattr(owner, attr, traced)
            self._patched.append((owner, attr, original))

    def _close(self, frame: _Frame, end: float, parent: _Frame | None, cross: bool) -> None:
        duration = end - frame.start
        self_s = duration - frame.child_s - _union_length(frame.cross)
        with self._lock:
            entry = self.stats.setdefault(frame.name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += self_s
            if parent is not None:
                key = (parent.name, frame.name)
                self.edges[key] = self.edges.get(key, 0) + 1
                if cross:
                    parent.cross.append((frame.start, end))
                else:
                    parent.child_s += duration
            if len(self.spans) < SPAN_CAP:
                self.spans.append(
                    (frame.id, frame.name, frame.start, end,
                     parent.id if parent is not None else None, threading.get_ident())
                )
            else:
                self.dropped += 1

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def calls(self, name: str) -> int:
        return int(self.stats.get(name, (0,))[0])

    def total_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def write(self, path: str) -> None:
        """Spans as JSON lines, then one summary line with the aggregates."""
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, thread in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "thread": thread}) + "\n")
            fh.write(json.dumps({
                "summary": {name: {"calls": c, "total_s": t, "self_s": s}
                            for name, (c, t, s) in sorted(self.stats.items())},
                "edges": {f"{p} -> {c}": n for (p, c), n in sorted(self.edges.items())},
                "counters": self.counters,
                "spans_kept": len(self.spans),
                "spans_dropped": self.dropped,
            }) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the public functions of the five in-process modules at their
    lookup sites.  The sixth, `cli`, runs in subprocesses and is timed from
    outside by the workload."""
    from berncert import binom, conformal, experiments, indicator, intervals

    tracer.wrap("binom.cdf", [(binom, "binom_cdf"), (conformal, "binom_cdf"), (indicator, "binom_cdf")])
    tracer.wrap("binom.pmf", [(binom, "binom_pmf")])
    tracer.wrap("binom.pmf_vector", [(binom, "binom_pmf_vector"), (intervals, "binom_pmf_vector")],
                measure=lambda r: ("binom.pmf_vector.elements", len(r)))
    tracer.wrap("binom.tail_invert", [(intervals, "binom_tail_invert")])
    tracer.wrap("intervals.clopper_pearson", [(intervals, "clopper_pearson"), (experiments, "clopper_pearson")])
    # every call of the cached estimator; a miss is one that calls clopper_pearson
    tracer.wrap("intervals.cp_cache", [(intervals.ClopperPearson, "interval")])
    tracer.wrap("intervals.coverage", [(intervals, "coverage_probability")])
    tracer.wrap("intervals.grid", [(intervals, "endpoint_augmented_grid")],
                measure=lambda r: ("intervals.validity.b_points", len(r)))
    tracer.wrap("intervals.validity", [(intervals, "verify_conservative_validity")])
    tracer.wrap("intervals.pac_form_check", [(intervals, "pac_form_check")])
    tracer.wrap("conformal.estimate_SE", [(conformal, "estimate_SE_probability")],
                measure=lambda r: ("conformal.estimate_SE.replicates", r.n_cal))
    tracer.wrap("conformal.inp_contains", [(conformal, "inp_contains")])
    tracer.wrap("conformal.theorem1_bound",
                [(conformal, "theorem1_bound"), (indicator, "theorem1_bound"), (experiments, "theorem1_bound")])
    tracer.wrap("indicator.exact_SE",
                [(indicator, "exact_SE_probability"), (experiments, "exact_SE_probability")])
    tracer.wrap("experiments.run_appendix", [(experiments, "run_appendix")],
                measure=lambda r: ("experiments.rows", len(r)))
    tracer.wrap("experiments.emit_csv", [(experiments, "emit_csv")])
