"""Timing loop, metrics and span tracing shared by the benchmark workloads.

A workload is one fixed list of :class:`Op` (a *job*).  A run repeats the
job in whole rounds until its time is up, times every operation on its own,
and checks every output against an independent computation after the clock
has stopped.  Tracing is a separate mode: it wraps the library's public
callables at run time (no file of the library changes) so that every call
into a layer opens a span.

The host's speed drifts by 10-30% over minutes, so every reported time is
scaled by a *host factor*: a fixed calibration kernel that calls nothing in
the library is timed after every operation, and a run's times are
multiplied by ``CALIBRATION_REF_S`` over the kernel's median time in that
run.  Reported times are thus seconds at the speed at which the kernel
takes ``CALIBRATION_REF_S``.
"""

from __future__ import annotations

import functools
import gc
import inspect
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

#: The library's layers, in the order reports list them.
LAYERS = ("cli", "order", "spaces", "modules", "constructions", "homdual", "hilbert")

#: The percentile ``op_tail_ms`` reports, on every workload.
TAIL_PCT = 98.0

#: The calibration kernel's median time, in seconds, on the reference host
#: (a shared 2-CPU virtual machine, Python 3.11, numpy 2.4).
CALIBRATION_REF_S = 5.0e-4

_CAL_ARRAY = np.arange(50.0)

#: Element carriers are built once per value, millions of times in a law
#: suite; their cost stays with the layer that builds them.
_UNTRACED_CLASSES = {"Fn", "ModuleElement", "HomElement", "Idempotent"}

#: Class-level constructors that read or build whole objects.
_TRACED_CLASS_METHODS = ("from_json", "make", "default", "identity")


class CheckFailed(Exception):
    """An output disagreed with the benchmark's own computation."""


@dataclass
class Op:
    """One timed call into the library.

    ``metric`` names the per-layer metric the call feeds, for example
    ``order.law_suite_n2_us``; its suffix is the unit and its first dotted
    part the layer.  ``units`` is the amount of work the metric is per
    (triples, atoms, vertices; 1 for per-call metrics).  ``fault`` names a
    known program fault that makes this call fail every time; such a call
    counts as failed without making the run incorrect.
    """

    metric: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    units: float = 1.0
    fault: str | None = None

    @property
    def layer(self) -> str:
        return self.metric.split(".", 1)[0]

    @property
    def scale(self) -> float:
        return {"us": 1e6, "ms": 1e3, "s": 1.0}[self.metric.rsplit("_", 1)[1]]


def min_rounds(n_ops: int) -> int:
    """Rounds needed so that at least ten samples lie beyond the tail."""
    need = math.ceil(10.0 / (1.0 - TAIL_PCT / 100.0)) + 1
    return max(2, math.ceil(need / n_ops))


def calibrate() -> float:
    """Time one run of the calibration kernel, in seconds.

    The kernel mixes what the operations spend their time on: Python
    bytecode with dict work, and small numpy calls.  The collector is off
    while it runs, so its time does not depend on the library's heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(2000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    a = _CAL_ARRAY
    for _ in range(40):
        a = np.maximum(a * 0.5, a - 1.0) + np.minimum(a, 3.0)
    dt = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return dt


def host_factor(calibrations: list[float]) -> float:
    """The factor that scales times measured alongside ``calibrations``."""
    return CALIBRATION_REF_S / statistics.median(calibrations)


def raised(exc_type: type[BaseException], fn: Callable[[], Any]) -> Any:
    """Call fn and return the exception of the expected type it raised.

    Returns fn's result unchanged when it does not raise, so the check can
    report that the call accepted an input it had to refuse.
    """
    try:
        return fn()
    except exc_type as exc:
        return exc


def nearest_rank(values: list[float], pct: float) -> float:
    """The nearest-rank percentile: the ceil(pct/100 * n)-th smallest value."""
    ordered = sorted(values)
    k = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[k - 1]


# --------------------------------------------------------------------------
# Tracing
# --------------------------------------------------------------------------

class Tracer:
    """Records one span per call into a layer, in memory.

    A span is ``[name, layer, start, end, parent, op]``: ``parent`` is the
    index of the enclosing span (-1 at top level) and ``op`` the id of the
    operation it belongs to (``"setup"`` before the first round).  A call
    from a layer into itself opens no span, so each span marks a crossing.
    """

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.stack: list[int] = []
        self.op = "setup"
        self._patches: list[tuple[Any, str, Any]] = []

    def begin(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent, self.op])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn: Callable[..., Any], name: str, layer: str) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer.stack
            if stack and tracer.spans[stack[-1]][1] == layer:
                return fn(*args, **kwargs)
            idx = tracer.begin(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(idx)

        return traced

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the public functions, the constructors of the public classes
        and their from_json/make/default/identity class methods.

        Every module namespace that imported a wrapped function gets the
        wrapper too, so calls between layers are seen.
        """
        import rieszmod

        modules = {layer: sys.modules[f"rieszmod.{layer}"] for layer in LAYERS}
        namespaces = [rieszmod, *modules.values()]
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(obj, f"{layer}.{name}", layer)
                    for ns in namespaces:
                        if ns.__dict__.get(name) is obj:
                            self._patch(ns, name, wrapped)
                elif inspect.isclass(obj) and name not in _UNTRACED_CLASSES:
                    self._install_class(obj, f"{layer}.{name}", layer)

    def _install_class(self, cls: type, qual: str, layer: str) -> None:
        if "__init__" in cls.__dict__:
            self._patch(cls, "__init__", self._wrap(cls.__init__, qual, layer))
        for attr in _TRACED_CLASS_METHODS:
            raw = cls.__dict__.get(attr)
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(raw.__func__, f"{qual}.{attr}", layer)))
            elif isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(raw.__func__, f"{qual}.{attr}", layer)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def layer_totals(self, ops: set[str]) -> dict[str, tuple[float, int]]:
        """Per layer, (self seconds, span count) over the spans of ``ops``.

        Self time is a span's duration minus the durations of its direct
        children; children nest strictly, so they never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {layer: [0.0, 0] for layer in LAYERS}
        for i, (name, layer, start, end, parent, op) in enumerate(self.spans):
            if op in ops:
                totals[layer][0] += (end - start) - child[i]
                totals[layer][1] += 1
        return {layer: (t[0], t[1]) for layer, t in totals.items()}


# --------------------------------------------------------------------------
# The run
# --------------------------------------------------------------------------

@dataclass
class RunResult:
    correct: bool = True
    attempted: int = 0
    failed: int = 0
    job_times: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    calibrations: list[float] = field(default_factory=list)
    fault_counts: dict[str, int] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


def _outcome(op: Op, out: Any, exc: BaseException | None, result: RunResult) -> None:
    """Check one output and book it as passed or failed."""
    if exc is None:
        try:
            op.check(out)
            return
        except CheckFailed as fail:
            why = f"{op.metric}: {fail}"
        except Exception:  # a checker that crashes on an output rejects it
            why = f"{op.metric}: check raised\n{traceback.format_exc()}"
    else:
        why = f"{op.metric}: {type(exc).__name__}: {exc}"
    result.failed += 1
    result.fault_counts[op.metric] = result.fault_counts.get(op.metric, 0) + 1
    if op.fault is None:
        result.correct = False
        if len(result.errors) < 20:
            result.errors.append(why)


def warm_up(job: list[Op]) -> RunResult:
    """Run the first operation of every kind once, untimed, and check it."""
    result = RunResult()
    seen: set[str] = set()
    for op in job:
        if op.metric in seen:
            continue
        seen.add(op.metric)
        out, exc = _call(op)
        _outcome(op, out, exc, result)
    return result


def _call(op: Op) -> tuple[Any, BaseException | None]:
    try:
        return op.call(), None
    except Exception as exc:  # booked as a failed operation by _outcome
        return None, exc


def run_rounds(job: list[Op], seconds: float, tracer: Tracer | None = None
               ) -> tuple[RunResult, dict[str, Any]]:
    """Repeat the job in whole rounds for ``seconds`` (and at least the
    rounds the tail percentile needs).

    Untraced runs time every round.  Traced runs alternate untraced and
    traced rounds, so the same run measures the tracing overhead; only the
    traced rounds feed the per-layer numbers.
    """
    result = RunResult()
    traced_rounds: list[int] = []
    untraced_jobs: list[float] = []
    traced_jobs: list[float] = []
    op_spans: dict[str, list[float]] = {}
    rounds_needed = min_rounds(len(job)) * (2 if tracer else 1)
    start = time.perf_counter()
    rnd = 0
    while rnd < rounds_needed or time.perf_counter() - start < seconds:
        trace_this = tracer is not None and rnd % 2 == 1
        if trace_this:
            tracer.install()
            traced_rounds.append(rnd)
        gc.collect()
        job_s = 0.0
        for i, op in enumerate(job):
            if trace_this:
                tracer.op = f"r{rnd}.{i}"
                idx = tracer.begin(op.metric, op.layer)
            t0 = time.perf_counter()
            out, exc = _call(op)
            dt = time.perf_counter() - t0
            if trace_this:
                tracer.end(idx)
                op_spans.setdefault(op.metric, []).append(
                    (tracer.spans[idx][3] - tracer.spans[idx][2]) / op.units * op.scale)
            job_s += dt
            result.latencies.append(dt)
            result.calibrations.append(calibrate())
            result.attempted += 1
            _outcome(op, out, exc, result)
        if trace_this:
            tracer.uninstall()
            traced_jobs.append(job_s)
        elif tracer is not None:
            untraced_jobs.append(job_s)
        result.job_times.append(job_s)
        rnd += 1
    extra: dict[str, Any] = {"rounds": rnd}
    if tracer is not None:
        extra.update(traced_rounds=traced_rounds, op_spans=op_spans,
                     traced_job=statistics.median(traced_jobs),
                     untraced_job=statistics.median(untraced_jobs))
    return result, extra


def end_to_end(result: RunResult) -> dict[str, dict]:
    """The end-to-end metrics of an untraced run, except set-up time.

    Times are scaled by the run's host factor.
    """
    factor = host_factor(result.calibrations)
    lat_ms = [x * 1e3 * factor for x in result.latencies]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "job_s": {"value": statistics.median(result.job_times) * factor, "unit": "s"},
        "op_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
        "op_tail_ms": {"value": nearest_rank(lat_ms, TAIL_PCT), "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
