"""Shared machinery: statistics, spans, probes and closed loops.

Nothing here imports the program under test; workloads pass in the
callables they measure.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import os
import resource
import statistics
import threading
import time
import tracemalloc

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
#: Scratch output of a run (saved artifacts, traces); git-ignored.
OUT_DIR = os.path.join(HERE, "out")


# -- statistics -------------------------------------------------------------


def percentile(values, q):
    """The ``q``-th percentile (0-100) by linear interpolation."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


median = statistics.median


# -- process facts ------------------------------------------------------------


def peak_rss_mb(pid=None):
    """Peak resident set of ``pid`` (default: this process), in MB."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


# -- machine speed ------------------------------------------------------------

#: Memory the calibration streams through, allocated (and faulted in)
#: once per process so that the allocator plays no part in it.
_CALIBRATION_BUFFER = []


def calibrate(repeats=5):
    """Seconds of a fixed interpreter-and-memory workload that uses
    nothing of the program: the median of ``repeats`` repeats.

    A run divides its timings by this, measured in the same process
    next to them, to take out the machine's speed drift.
    """
    if not _CALIBRATION_BUFFER:
        _CALIBRATION_BUFFER.append(np.ones(1 << 18))  # 2 MB
    buf = _CALIBRATION_BUFFER[0]
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(40000):
            total += i * i % 7
        for _ in range(32):
            np.multiply(buf, 1.0, out=buf)
        samples.append(time.perf_counter() - start)
    return median(samples)


# -- fresh copies of the user program -----------------------------------------

_fresh_names = itertools.count(1)


def fresh_programs():
    """A new module object for ``programs.py``: new code objects, so no
    conversion, trace or plan cache of an earlier copy applies."""
    name = f"perfbench_programs_{next(_fresh_names)}"
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(HERE, "programs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- tracing --------------------------------------------------------------------


class Tracer:
    """Benchmark-owned spans, kept in memory and written out once.

    A span records name, layer, start, end, its parent span and the id
    of the operation (one call, tree or request) it belongs to.
    """

    def __init__(self, pid=0):
        self.spans = []  # [name, layer, op, parent, t0, t1, tid]
        self.pid = pid
        self._local = threading.local()
        # Sender threads open spans concurrently; a span's index is
        # taken and its slot appended under one lock.
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, layer, op=None):
        return _Span(self, name, layer, op)

    def wrap(self, owner, attr, layer):
        """Replace ``owner.attr`` with a wrapper that records a span when
        called inside an open span of the same thread (and is a plain
        call otherwise); returns an undo callable."""
        original = getattr(owner, attr)
        tracer = self
        label = f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}"

        def wrapped(*args, **kwargs):
            if not tracer._stack():
                return original(*args, **kwargs)
            with tracer.span(label, layer):
                return original(*args, **kwargs)

        setattr(owner, attr, wrapped)
        return lambda: setattr(owner, attr, original)

    def chrome_events(self):
        events = []
        for i, (name, layer, op, parent, t0, t1, tid) in enumerate(self.spans):
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": self.pid,
                "tid": tid, "ts": t0 * 1e6, "dur": (t1 - t0) * 1e6,
                "args": {"op": op, "span": i, "parent": parent},
            })
        return events

    def _self_seconds(self):
        """Each span's duration minus the part its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, _, _, parent, t0, t1, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        return [max(0.0, t1 - t0 - child[i])
                for i, (_, _, _, _, t0, t1, _) in enumerate(self.spans)]

    def self_times(self, name):
        """Self seconds of every span called ``name``."""
        own = self._self_seconds()
        return [own[i] for i, span in enumerate(self.spans)
                if span[0] == name]

    def layer_table(self):
        """``{layer: {"spans", "total_ms", "self_ms"}}``."""
        own = self._self_seconds()
        table = {}
        for i, (_, layer, _, _, t0, t1, _) in enumerate(self.spans):
            row = table.setdefault(layer, {"spans": 0, "total_ms": 0.0,
                                           "self_ms": 0.0})
            row["spans"] += 1
            row["total_ms"] += (t1 - t0) * 1e3
            row["self_ms"] += own[i] * 1e3
        return table


class _Span:
    __slots__ = ("tracer", "name", "layer", "op", "index", "t0")

    def __init__(self, tracer, name, layer, op):
        self.tracer = tracer
        self.name = name
        self.layer = layer
        self.op = op

    def __enter__(self):
        stack = self.tracer._stack()
        parent = stack[-1] if stack else None
        if self.op is None and parent is not None:
            self.op = self.tracer.spans[parent][2]
        with self.tracer._lock:
            self.index = len(self.tracer.spans)
            self.tracer.spans.append(
                [self.name, self.layer, self.op, parent, 0.0, 0.0,
                 threading.get_ident() % 100000])
        stack.append(self.index)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        record = self.tracer.spans[self.index]
        record[4] = self.t0
        record[5] = t1
        self.tracer._stack().pop()
        return False


def write_trace(workload, events, table, extra_rows=()):
    """Write ``<workload>.trace.json`` (Chrome trace) and
    ``<workload>.layers.txt`` (per-layer self time) under ``OUT_DIR``."""
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"{workload}.trace.json")
    with open(trace_path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
    total_self = sum(r["self_ms"] for r in table.values()) or 1.0
    lines = [f"{'layer':<20}{'spans':>8}{'total_ms':>12}{'self_ms':>12}"
             f"{'self_%':>8}"]
    for layer, row in sorted(table.items(), key=lambda kv: -kv[1]["self_ms"]):
        lines.append(
            f"{layer:<20}{row['spans']:>8}{row['total_ms']:>12.2f}"
            f"{row['self_ms']:>12.2f}"
            f"{100 * row['self_ms'] / total_self:>8.1f}")
    lines.extend(extra_rows)
    table_path = os.path.join(OUT_DIR, f"{workload}.layers.txt")
    with open(table_path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return trace_path, table_path


# -- closed-loop driving --------------------------------------------------------


class Tally:
    """Operations attempted and failed, and whether every check passed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1

    @property
    def correct(self):
        return self.attempted > 0 and self.failed == 0


#: Seconds between the calibration samples a closed loop takes.  The
#: machine's speed can change by 1.4x within seconds, in one process.
CALIBRATE_EVERY_S = 0.25


def closed_loop(call, check, n_inputs, seconds, tally, prepare=None):
    """One caller: call, wait, check, repeat over the input pool until
    ``seconds`` of wall time pass.  Only ``call(k)`` is timed;
    ``prepare(k)`` (untimed) runs before it.

    Every ``CALIBRATE_EVERY_S`` the loop times one calibration repeat
    between two calls.  Each call is paired with the mean of the
    calibrations before and after its stretch: the machine's speed
    while it ran.

    Returns ``(latencies_s, input_indices, calibration_s)``, one entry
    per call in each.
    """
    latencies = []
    ks = []
    stretch = []
    calibrations = [calibrate(repeats=1)]
    i = 0
    now = time.perf_counter()
    deadline = now + seconds
    next_calibration = now + CALIBRATE_EVERY_S
    while True:
        k = i % n_inputs
        if prepare is not None:
            prepare(k)
        start = time.perf_counter()
        out = call(k)
        done = time.perf_counter()
        latencies.append(done - start)
        ks.append(k)
        stretch.append(len(calibrations) - 1)
        tally.record(check(k, out))
        i += 1
        if done >= deadline:
            break
        if done >= next_calibration:
            calibrations.append(calibrate(repeats=1))
            next_calibration = time.perf_counter() + CALIBRATE_EVERY_S
    calibrations.append(calibrate(repeats=1))
    per_call = [(calibrations[j] + calibrations[j + 1]) / 2
                for j in stretch]
    return latencies, ks, per_call


def loop_samples(latencies, work_done, calibration):
    """A closed loop's share of the end-to-end metrics: per-call
    latencies with their calibrations, the work done and the busy time
    it took (the sum of the latencies)."""
    return {"latency_ms": [v * 1e3 for v in latencies],
            "call_calibration_s": calibration,
            "work": work_done, "work_seconds": sum(latencies)}


#: Rounds in which ``rotate_blocks`` visits every variant once.
ROUNDS = 4


def rotate_blocks(variants, seconds, check, tally):
    """Time several variants of one operation in the same run.

    Each variant runs in blocks of back-to-back calls, so it meets the
    allocator and caches in the state its own loop leaves them (calls
    interleaved one by one would share one state); ``ROUNDS`` rounds
    visit every variant in turn.  ``variants`` maps a name to
    ``op(i)``; an op that returns ``(k, out)`` has ``out`` checked.
    Returns ``({name: [seconds per call]}, {name: [op index per call]})``.
    """
    samples = {name: [] for name in variants}
    indices = {name: [] for name in variants}
    block = seconds / (ROUNDS * len(variants))
    i = 0
    for _ in range(ROUNDS):
        for name, op in variants.items():
            deadline = time.perf_counter() + block
            while True:
                start = time.perf_counter()
                result = op(i)
                elapsed = time.perf_counter() - start
                samples[name].append(elapsed)
                indices[name].append(i)
                if result is not None:
                    tally.record(check(*result))
                i += 1
                if start + elapsed >= deadline:
                    break
    return samples, indices


#: Repeats of a one-off per-layer probe (a compile step); median kept.
PROBE_REPEATS = 3


def probe_ms(tracer, name, layer, body):
    """Median milliseconds of ``body()`` over ``PROBE_REPEATS`` spanned
    runs."""
    samples = []
    for r in range(PROBE_REPEATS):
        with tracer.span(name, layer, op=f"probe:{name}:{r}"):
            _, seconds = timed(body)
        samples.append(seconds)
    return median(samples) * 1e3


def peak_alloc_bytes(calls):
    """Median over ``calls`` of the bytes tracemalloc saw allocated at
    the peak of one call above its start."""
    tracemalloc.start()
    try:
        peaks = []
        for call in calls:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            call()
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return median(peaks)


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start
