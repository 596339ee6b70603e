"""Span recording around the package's public functions, from outside it.

A traced run replaces each function below under the name its caller looks
it up by (a class attribute for methods, the caller's module attribute for
functions bound by ``from ... import``), records one span per call, and
puts the originals back afterwards. Nothing in the package changes.

A span is ``(span_id, parent_id, name, start_ns, end_ns, tag)``. The parent
is the innermost open span on the same thread. ``tag`` carries a count or
a label measured at the boundary (records returned, samples scanned, the
reject reason). Spans opened on a server thread have no parent on that
thread; ``analyse`` assigns them to the client operation whose interval
contains them, which is exact while one request is in flight at a time.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from iccamon import icca, rules, service, sim, store

OP_FRAME = "op.frame"
OP_READ = "op.read"


def _len_first_arg(args, kwargs, result):
    return len(args[0]) if args else 0


def _len_result(args, kwargs, result):
    return len(result)


def _reject_reason(args, kwargs, result):
    return result.reason.value if result.reason is not None else None


# (owner, attribute, span name, tag function). Methods are patched on the
# class; plain functions on the module their caller reads them from.
TARGETS = (
    (store.TimeSeriesStore, "__init__", "store.recover", None),
    (service.MonitorService, "ingest", "service.ingest", None),
    (service.MonitorService, "rolling_icca", "service.rolling_icca", None),
    (service.MonitorService, "icca_payload", "service.read_icca", None),
    (service.MonitorService, "overview_payload", "service.read_overview", None),
    (service.MonitorService, "history_payload", "service.read_history", None),
    (service, "parse_and_validate", "telemetry.validate", _reject_reason),
    (store.TimeSeriesStore, "token_registry", "store.token_registry", None),
    (store.TimeSeriesStore, "append", "store.append", None),
    (store.TimeSeriesStore, "query_range", "store.query_range", _len_result),
    (os, "fsync", "store.fsync", None),
    (icca, "rolling_average", "icca.rolling_average", _len_first_arg),
    (icca, "overall_icca", "icca.overall_icca", None),
    (rules.RuleEngine, "observe", "rules.observe", _len_result),
    (sim.Node, "run_cycle", "sim.cycle", None),
    (sim.CallableTransport, "send", "sim.send", None),
    (sim, "encode_pm_frame", "sensor.codec", None),
    (sim, "decode_pm_frame", "sensor.codec", None),
    (sim, "encode_temp", "sensor.codec", None),
    (sim, "decode_temp", "sensor.codec", None),
)


class Recorder:
    """Collects spans in memory; thread-safe for appends from server threads."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, parent, name, t0, t1, None))

    def _wrap(self, fn, name, tag_fn):
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            tag = None
            try:
                result = fn(*args, **kwargs)
                if tag_fn is not None:
                    tag = tag_fn(args, kwargs, result)
                return result
            finally:
                # raised calls (overall_icca on a thin window) are spans too
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, tag))

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("recorder already installed")
        for owner, attr, name, tag_fn in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, tag_fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self) -> list[tuple]:
        """The spans recorded so far; the wrappers keep appending to a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time_ns(start: int, end: int, children) -> int:
    """A span's duration minus the part of it that child spans cover."""
    return (end - start) - covered_ns(children, start, end)


@dataclass
class LayerTotals:
    """Per span name and context ('frame' or 'read'): calls, time, tags."""

    calls: dict = field(default_factory=lambda: defaultdict(int))
    dur_ns: dict = field(default_factory=lambda: defaultdict(int))
    self_ns: dict = field(default_factory=lambda: defaultdict(int))
    tag_sum: dict = field(default_factory=lambda: defaultdict(int))
    tag_counts: dict = field(default_factory=lambda: defaultdict(int))

    def add(self, other: "LayerTotals") -> None:
        for mine, theirs in (
            (self.calls, other.calls), (self.dur_ns, other.dur_ns),
            (self.self_ns, other.self_ns), (self.tag_sum, other.tag_sum),
            (self.tag_counts, other.tag_counts),
        ):
            for key, value in theirs.items():
                mine[key] += value


def analyse(spans) -> tuple[LayerTotals, list[tuple]]:
    """Self time and context of every span, summed per (name, context).

    Also returns each span as ``(id, parent, request, name, start, end, tag)``,
    where the request is the id of the operation span it belongs to.

    Thread-root spans that are not operations are given the enclosing
    operation span as parent. The context of a span is the kind of its
    nearest ``op.*`` ancestor (or itself); spans outside any operation,
    such as the simulator's own cycle, count as frame work.
    """
    by_id = {s[0]: s for s in spans}
    parent = {s[0]: s[1] for s in spans}
    ops = sorted((s[3], s[4], s[0]) for s in spans if s[2].startswith("op."))
    op_starts = [o[0] for o in ops]
    for s in spans:
        if s[1] is None and not s[2].startswith(("op.", "sim.cycle")):
            i = bisect.bisect_right(op_starts, s[3]) - 1
            if i >= 0 and ops[i][1] >= s[4]:
                parent[s[0]] = ops[i][2]

    children = defaultdict(list)
    for sid, pid in parent.items():
        if pid is not None and pid in by_id:
            children[pid].append((by_id[sid][3], by_id[sid][4]))

    owner: dict[int, tuple[str, int | None]] = {}

    def context(sid: int) -> tuple[str, int | None]:
        """('frame' or 'read', id of the operation span) for a span."""
        chain = []
        found = ("frame", None)
        while sid is not None:
            if sid in owner:
                found = owner[sid]
                break
            chain.append(sid)
            name = by_id[sid][2]
            if name.startswith(OP_READ):
                found = ("read", sid)
                break
            if name == OP_FRAME:
                found = ("frame", sid)
                break
            sid = parent.get(sid)
            if sid not in by_id:
                sid = None
        for c in chain:
            owner[c] = found
        return found

    totals = LayerTotals()
    rows = []
    for sid, _, name, t0, t1, tag in spans:
        ctx, req = context(sid)
        rows.append((sid, parent[sid], req, name, t0, t1, tag))
        key = (name, ctx)
        totals.calls[key] += 1
        totals.dur_ns[key] += t1 - t0
        totals.self_ns[key] += self_time_ns(t0, t1, children.get(sid, ()))
        if isinstance(tag, int):
            totals.tag_sum[key] += tag
        elif tag is not None:
            totals.tag_counts[(name, tag)] += 1
    return totals, rows


# Per-layer metrics of the traced run, with units. Times and counts are per
# frame operation unless the name says read, or the metric is per call.
PER_LAYER = {
    "service.http_overhead_us": "us",
    "service.http_overhead_read_us": "us",
    "service.ingest_self_us": "us",
    "service.rolling_icca_self_us": "us",
    "service.rolling_icca_calls": "count",
    "service.rolling_icca_read_self_us": "us",
    "service.rolling_icca_read_calls": "count",
    "service.read_icca_us": "us",
    "service.read_overview_us": "us",
    "service.read_history_us": "us",
    "telemetry.validate_us": "us",
    "store.token_registry_us": "us",
    "store.append_self_us": "us",
    "store.fsync_us": "us",
    "store.fsyncs": "count",
    "store.query_range_us": "us",
    "store.records_returned": "count",
    "store.recover_s": "s",
    "icca.rolling_average_us": "us",
    "icca.samples_scanned": "count",
    "icca.overall_icca_us": "us",
    "rules.observe_us": "us",
    "sim.cycle_self_us": "us",
    "sensor.codec_us": "us",
    "host.ref_slice_us": "us",
    "trace.overhead_pct": "%",
}


def layer_metrics(t: LayerTotals, *, frames: int, reads: int, accepted: int, http: bool) -> dict:
    """PER_LAYER values (except recover and overhead) from summed spans.

    ``frames`` and ``reads`` count operations, ``accepted`` the frames stored.
    A layer that did not run reads 0.
    """
    def per(n, x):
        return x / n if n else 0.0

    def both(table, name):
        return table[(name, "frame")] + table[(name, "read")]

    us = 1e-3
    read_calls = sum(c for (name, _), c in t.calls.items() if name.startswith(OP_READ))
    read_self = sum(v for (name, _), v in t.self_ns.items() if name.startswith(OP_READ))
    return {
        # client latency minus the server-side service span it contains
        "service.http_overhead_us": per(frames, t.self_ns[(OP_FRAME, "frame")]) * us if http else 0.0,
        "service.http_overhead_read_us": per(read_calls, read_self) * us if http else 0.0,
        "service.ingest_self_us": per(frames, t.self_ns[("service.ingest", "frame")]) * us,
        "service.rolling_icca_self_us": per(frames, t.self_ns[("service.rolling_icca", "frame")]) * us,
        "service.rolling_icca_calls": per(frames, t.calls[("service.rolling_icca", "frame")]),
        "service.rolling_icca_read_self_us": per(reads, t.self_ns[("service.rolling_icca", "read")]) * us,
        "service.rolling_icca_read_calls": per(reads, t.calls[("service.rolling_icca", "read")]),
        "service.read_icca_us": per(t.calls[("service.read_icca", "read")],
                                    t.dur_ns[("service.read_icca", "read")]) * us,
        "service.read_overview_us": per(t.calls[("service.read_overview", "read")],
                                        t.dur_ns[("service.read_overview", "read")]) * us,
        "service.read_history_us": per(t.calls[("service.read_history", "read")],
                                       t.dur_ns[("service.read_history", "read")]) * us,
        "telemetry.validate_us": per(frames, t.dur_ns[("telemetry.validate", "frame")]) * us,
        "store.token_registry_us": per(frames, t.dur_ns[("store.token_registry", "frame")]) * us,
        "store.append_self_us": per(frames, t.self_ns[("store.append", "frame")]) * us,
        "store.fsync_us": per(frames, t.dur_ns[("store.fsync", "frame")]) * us,
        "store.fsyncs": per(accepted, t.calls[("store.fsync", "frame")]),
        "store.query_range_us": per(both(t.calls, "store.query_range"),
                                    both(t.dur_ns, "store.query_range")) * us,
        "store.records_returned": per(both(t.calls, "store.query_range"),
                                      both(t.tag_sum, "store.query_range")),
        "icca.rolling_average_us": per(frames, t.dur_ns[("icca.rolling_average", "frame")]) * us,
        "icca.samples_scanned": per(frames, t.tag_sum[("icca.rolling_average", "frame")]),
        "icca.overall_icca_us": per(frames, t.dur_ns[("icca.overall_icca", "frame")]) * us,
        "rules.observe_us": per(frames, t.dur_ns[("rules.observe", "frame")]) * us,
        "sim.cycle_self_us": per(frames, t.self_ns[("sim.cycle", "frame")]) * us,
        "sensor.codec_us": per(frames, t.dur_ns[("sensor.codec", "frame")]) * us,
    }
