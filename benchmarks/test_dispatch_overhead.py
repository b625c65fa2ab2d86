"""Per-call dispatch overhead: positional fast path vs legacy feed dict.

The paper's Table 2 isolates *per-call dispatch overhead* as the cost
in-graph execution amortizes.  This benchmark measures that overhead
directly on a deliberately tiny model (a 1x1 "scalar" matmul — the math
is nanoseconds, so the measurement is nearly pure dispatch):

- **legacy feed-dict path**: ``Session.run`` per call — fetch
  ``nest.flatten``, cache-key build, dict binding, per-feed
  ``np.array(..., copy=True)`` validation;
- **slot-addressed fast path**: what ``ConcreteFunction.call_flat`` now
  does — a ``BoundPlan`` bound once at construction, ``execute_flat``
  per call.

The acceptance bar for the runtime refactor: the fast path cuts
per-call latency by >= 1.5x.  Rows land in ``BENCH_ci.json`` via the CI
smoke job so regressions in either path show up per commit.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro
from repro import framework as fw
from repro.benchmarks_util import scaled

TABLE = "Dispatch overhead (tiny matmul, per-call)"
CALLS = scaled(4000, 400)
REPEATS = scaled(5, 2)

MIN_SPEEDUP = 1.5


def _concrete_function():
    @repro.function(name="dispatch_overhead_matmul")
    def f(x, w):
        from repro.framework import ops

        return ops.matmul(x, w)

    x = np.ones((1, 1), np.float32)
    w = np.full((1, 1), 2.0, np.float32)
    cf = f.get_concrete_function(x, w)
    return cf, x, w


def _best_per_call(run_once, calls, repeats):
    """Best-of-N mean per-call latency (seconds) for a call loop."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run_once(calls)
        best = min(best, (time.perf_counter() - start) / calls)
    return best


def test_fast_path_beats_legacy_feed_dict(results):
    cf, x, w = _concrete_function()

    # -- legacy: one Session.run with a feed dict per call ---------------
    legacy_sess = fw.Session(cf.optimized_graph)
    feeds, fetches = cf._feeds, cf._output_fetches

    def run_legacy(n):
        for _ in range(n):
            legacy_sess.run(fetches, {feeds[0]: x, feeds[1]: w})

    # -- fast path: the bound plan ConcreteFunction dispatches through --
    args = [x, w]

    def run_fast(n):
        call = cf.call_flat
        for _ in range(n):
            call(args)

    # Warm both paths (plan compile, cache insertion) before timing.
    run_legacy(10)
    run_fast(10)

    legacy = _best_per_call(run_legacy, CALLS, REPEATS)
    fast = _best_per_call(run_fast, CALLS, REPEATS)
    speedup = legacy / fast

    results.record(TABLE, "legacy Session.run feed dict", "per-call us",
                   legacy * 1e6, unit="us")
    results.record(TABLE, "slot-addressed fast path", "per-call us",
                   fast * 1e6, unit="us")
    results.record(TABLE, "slot-addressed fast path", "speedup vs legacy",
                   speedup, unit="x")

    out = cf.call_flat(args)
    np.testing.assert_allclose(out.numpy(), [[2.0]])

    assert speedup >= MIN_SPEEDUP, (
        f"fast path {fast * 1e6:.2f}us/call vs legacy "
        f"{legacy * 1e6:.2f}us/call = {speedup:.2f}x (< {MIN_SPEEDUP}x)"
    )


def test_recorder_overhead_on_fast_path(results):
    """The observe instrumentation's bargain: the *disabled* recorder
    costs the fast path one dormant branch.

    Three rows land in ``BENCH_ci.json`` so a regression in either mode
    shows up per commit (the disabled row is directly comparable to the
    "slot-addressed fast path" row across commits — it *is* that path):

    - recorder disabled, pristine (the default everyone pays);
    - recorder enabled (per-step/level/plan spans recording);
    - recorder disabled again *after* a heavy tracing session.

    The hard gate: after profiling, the disabled path must return to
    within 3% of the pristine baseline (plus a sub-microsecond noise
    epsilon) — tracing must leave zero residue on the default path.
    """
    from repro.observe.events import RECORDER

    OVERHEAD_CAP = 1.03
    EPSILON_S = 0.5e-6

    cf, x, w = _concrete_function()
    args = [x, w]

    def run(n):
        call = cf.call_flat
        for _ in range(n):
            call(args)

    assert not RECORDER.enabled
    run(10)
    baseline = _best_per_call(run, CALLS, REPEATS)

    RECORDER.enable()
    try:
        run(10)
        enabled = _best_per_call(run, CALLS, REPEATS)
    finally:
        RECORDER.disable()
        RECORDER.clear()
        RECORDER.clear_counters()

    disabled_after = _best_per_call(run, CALLS, REPEATS)

    results.record(TABLE, "fast path, recorder disabled", "per-call us",
                   baseline * 1e6, unit="us")
    results.record(TABLE, "fast path, recorder enabled (tracing)",
                   "per-call us", enabled * 1e6, unit="us")
    results.record(TABLE, "fast path, recorder enabled (tracing)",
                   "overhead vs disabled", enabled / baseline, unit="x")
    results.record(TABLE, "fast path, disabled after tracing session",
                   "per-call us", disabled_after * 1e6, unit="us")

    assert disabled_after <= baseline * OVERHEAD_CAP + EPSILON_S, (
        f"disabled path after tracing: {disabled_after * 1e6:.2f}us/call "
        f"vs pristine {baseline * 1e6:.2f}us/call — more than "
        f"{(OVERHEAD_CAP - 1) * 100:.0f}% residue"
    )


def test_fused_chain_beats_unfused_chain(results):
    """The fusion story on Table 2's turf: a 10-op elementwise chain on
    a tiny tensor is pure per-step dispatch overhead, and the fuser
    collapses it into ONE generated composite kernel.

    Two traces of the same function — ``fuse=True`` (default) and
    ``fuse=False`` (the A/B knob) — run through the same bound-plan
    fast path; the only difference is 1 step vs 10.  The gate: fusion
    buys >= 1.3x on this chain.  Rows land in ``BENCH_ci.json``.
    """
    MIN_FUSION_SPEEDUP = 1.3

    def chain(x):
        from repro.framework import ops

        h = ops.square(x)              # 1
        h = ops.add(h, 1.0)            # 2
        h = ops.sqrt(h)                # 3
        h = ops.multiply(h, 0.5)       # 4
        h = ops.tanh(h)                # 5
        h = ops.add(h, 0.25)           # 6
        h = ops.multiply(h, 1.5)       # 7
        h = ops.negative(h)            # 8
        h = ops.exp(h)                 # 9
        return ops.multiply(h, 0.1)    # 10

    fused = repro.function(chain, name="dispatch_chain_fused")
    unfused = repro.function(chain, name="dispatch_chain_unfused",
                             fuse=False)

    x = np.linspace(-1.0, 1.0, 16, dtype=np.float32)
    cf_fused = fused.get_concrete_function(x)
    cf_unfused = unfused.get_concrete_function(x)

    # The fused trace really is one composite step; the unfused, ten.
    stats = cf_fused.engine_stats()["bound_plan"]
    assert stats["steps"] == 1 and stats["fused_steps"] == 1
    assert cf_unfused.engine_stats()["bound_plan"]["steps"] == 10

    args = [x]
    out_fused = cf_fused.call_flat(args)
    out_unfused = cf_unfused.call_flat(args)
    np.testing.assert_array_equal(out_fused.numpy(), out_unfused.numpy())

    def run_fused(n):
        call = cf_fused.call_flat
        for _ in range(n):
            call(args)

    def run_unfused(n):
        call = cf_unfused.call_flat
        for _ in range(n):
            call(args)

    run_fused(10)
    run_unfused(10)
    t_unfused = _best_per_call(run_unfused, CALLS, REPEATS)
    t_fused = _best_per_call(run_fused, CALLS, REPEATS)
    speedup = t_unfused / t_fused

    results.record(TABLE, "10-op elementwise chain, unfused",
                   "per-call us", t_unfused * 1e6, unit="us")
    results.record(TABLE, "10-op elementwise chain, fused",
                   "per-call us", t_fused * 1e6, unit="us")
    results.record(TABLE, "10-op elementwise chain, fused",
                   "speedup vs unfused", speedup, unit="x")

    assert speedup >= MIN_FUSION_SPEEDUP, (
        f"fused chain {t_fused * 1e6:.2f}us/call vs unfused "
        f"{t_unfused * 1e6:.2f}us/call = {speedup:.2f}x "
        f"(< {MIN_FUSION_SPEEDUP}x)"
    )


def test_microbatcher_dispatch_has_no_per_call_feed_dicts(results):
    """The batcher's worker path rides the same bound plan: one stacked
    execute per batch.  Per-call time here is dominated by queue
    hand-off (condition-variable wakeups), so the gate is a coarse
    ceiling that catches catastrophic dispatch regressions without
    being timing-flaky."""
    from repro.serving import MicroBatcher

    CEILING_SECONDS = 2e-3  # ~30-40x the typical ~60us observed

    @repro.function(name="dispatch_overhead_batched")
    def f(x):
        from repro.framework import ops

        return ops.matmul(x, np.full((1, 1), 2.0, np.float32))

    cf = f.get_concrete_function(repro.TensorSpec([None, 1], "float32"))
    calls = scaled(2000, 200)
    example = np.ones((1,), np.float32)
    with MicroBatcher(cf, max_batch_size=1, batch_timeout=0.0) as batcher:
        start = time.perf_counter()
        for _ in range(calls):
            batcher.submit([example])
        per_call = (time.perf_counter() - start) / calls
    results.record(TABLE, "micro-batched (batch=1, incl. queueing)",
                   "per-call us", per_call * 1e6, unit="us")
    assert per_call < CEILING_SECONDS, (
        f"micro-batched dispatch took {per_call * 1e6:.0f}us/call "
        f"(ceiling {CEILING_SECONDS * 1e6:.0f}us) — the worker path has "
        "regressed far beyond queue-hand-off cost"
    )


CHAIN_TABLE = "Engine at size (six-stage elementwise chain, per-call)"
CHAIN_STAGES = 6


@pytest.mark.parametrize("n", [384, 1536])
def test_engine_chain_at_size_tracks_numpy(results, n):
    """The engine against raw NumPy on the same arrays, at sizes where
    kernels and the allocator do the work: six stages of
    ``tanh(x*x + exp(-x))`` on an ``n x n`` float32 array, compiled
    fused and unfused through ``compile_plan`` → ``BoundPlan``, beside
    the same math written as plain NumPy expressions.

    Gates are same-run ratios, so they hold on any runner: fused within
    1.3x of raw NumPy, and fused within 1.1x of unfused.  The arena is
    what makes the first one hold — without it every intermediate is a
    fresh multi-page allocation.
    """
    from repro.framework import ops
    from repro.runtime import BoundPlan, compile_plan

    MAX_VS_NUMPY = 1.3
    MAX_VS_UNFUSED = 1.1

    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [n, n])
        h = x
        for _ in range(CHAIN_STAGES):
            h = ops.tanh(ops.add(ops.multiply(h, h),
                                 ops.exp(ops.negative(h))))
    fused = BoundPlan(compile_plan(g, [h], [x]), [x])
    unfused = BoundPlan(compile_plan(g, [h], [x], fuse=False), [x])

    def numpy_chain(v):
        for _ in range(CHAIN_STAGES):
            v = np.tanh(v * v + np.exp(-v))
        return v

    arg = np.random.default_rng(n).standard_normal((n, n)).astype(np.float32)
    want = numpy_chain(arg)
    assert fused.execute_flat([arg])[0].tobytes() == want.tobytes()
    assert unfused.execute_flat([arg])[0].tobytes() == want.tobytes()

    variants = {
        "fused": lambda: fused.execute_flat([arg]),
        "unfused": lambda: unfused.execute_flat([arg]),
        "raw NumPy": lambda: numpy_chain(arg),
    }
    calls = scaled(20, 5) if n <= 384 else scaled(4, 2)
    best = dict.fromkeys(variants, float("inf"))
    # Interleaved rounds: a slow stretch of the machine hits every
    # variant alike instead of deciding one of them.
    for _ in range(scaled(7, 5)):
        for name, run in variants.items():
            start = time.perf_counter()
            for _ in range(calls):
                run()
            best[name] = min(best[name],
                             (time.perf_counter() - start) / calls)

    row = f"{n}x{n}"
    for name, t in best.items():
        results.record(CHAIN_TABLE, f"{row}, {name}", "per-call ms",
                       t * 1e3, unit="ms")
    vs_numpy = best["fused"] / best["raw NumPy"]
    vs_unfused = best["fused"] / best["unfused"]
    results.record(CHAIN_TABLE, f"{row}, fused", "vs raw NumPy", vs_numpy,
                   unit="x")
    results.record(CHAIN_TABLE, f"{row}, fused", "vs unfused", vs_unfused,
                   unit="x")
    assert vs_numpy <= MAX_VS_NUMPY, (
        f"{row}: fused {best['fused'] * 1e3:.2f}ms vs raw NumPy "
        f"{best['raw NumPy'] * 1e3:.2f}ms = {vs_numpy:.2f}x "
        f"(> {MAX_VS_NUMPY}x)")
    assert vs_unfused <= MAX_VS_UNFUSED, (
        f"{row}: fused {best['fused'] * 1e3:.2f}ms vs unfused "
        f"{best['unfused'] * 1e3:.2f}ms = {vs_unfused:.2f}x "
        f"(> {MAX_VS_UNFUSED}x)")
