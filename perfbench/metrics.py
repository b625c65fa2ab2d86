"""The benchmark's metric catalogue: names, units and direction.

``BENCHMARK.json`` at the repository root lists the same names; the
benchmark's tests keep the two in step.  The end-to-end names apply to
every workload (see ``README.md`` for what a "call" and a unit of
"work" are on each); a per-layer metric whose layer a workload does
not exercise reads 0 there.
"""

from statistics import median

from common import percentile

END_TO_END = (
    # name, unit, better, bound (share of the parent's median).  On a
    # shared 2-vCPU virtual machine raw timings drift by 10-30%
    # between runs minutes apart, so timings get the widest bound.  The
    # gated tail is p90: on serve_mlp p99 sits where the 1-2% of
    # requests that meet a stall begin, and it spread 0.27 between runs
    # (it is printed, not gated).
    ("setup_s", "s", "lower", 0.25),
    ("compile_s", "s", "lower", 0.25),
    ("call_ms_p50", "ms", "lower", 0.25),
    ("call_ms_p90", "ms", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

WORKLOADS = (
    ("chain_384",
     "six fused elementwise stages on 384x384 float32: runtime, kernels "
     "and the allocator do the work, dispatch almost none; defined with "
     "seeds 1-35"),
    ("train_loop",
     "Table 2 imperative SGD while loop, 50 in-graph steps per call on "
     "200x784: per-step plan dispatch dominates, heaviest compile; "
     "defined with seeds 1-35"),
    ("tree_lantern",
     "Table 3 recursive TreeLSTM staged to Lantern, one tree (2-48 "
     "leaves) per call with gradient and SGD update; defined with seeds "
     "1-35"),
    ("serve_mlp",
     "16-layer MLP behind FleetServer, open-loop Poisson requests over "
     "HTTP: client, wire and batcher wait dominate the engine; defined "
     "with seeds 1-35"),
)

#: Seconds ``common.calibrate()`` takes on the machine the benchmark
#: was tuned on (2-vCPU shared virtual machine, quiet period).
#: End-to-end timings of work done in the measuring process are
#: reported at this reference speed: each sample is multiplied by
#: ``CALIBRATION_REF_S`` over the calibration timed next to it in the
#: same process (rates are divided by it).  That machine's speed
#: drifted by up to 1.9x between runs and switched by 1.4x within
#: seconds; the scaling takes that out, and a program change still
#: moves its metric.
CALIBRATION_REF_S = 0.007

#: Workloads whose call latencies and work rate are reported as
#: measured.  The serving latencies and capacity are timed by the
#: generator process across three processes (generator, fleet front,
#: fleet worker) and are mostly waiting on one another; they did not
#: follow the calibration, and scaling them made them spread more
#: between runs.  Memory (``peak_rss_mb``) is never scaled.
CALLS_UNSCALED = ("serve_mlp",)


def end_to_end(workload, parts, scaled=True):
    """``workload``'s end-to-end metrics pooled from the samples of its
    segment processes (``run.py``), at the reference speed when
    ``scaled``.  Returns ``(metrics, call latencies in ms)``.

    A closed loop's busy time is the sum of its call latencies, so its
    work rate is scaled with them.
    """
    scale_calls = scaled and workload not in CALLS_UNSCALED

    def at_reference(pairs, scale):
        return [v * CALIBRATION_REF_S / c if scale else v for v, c in pairs]

    setup = at_reference([(p["setup_s"], p["setup_calibration_s"])
                          for p in parts], scaled)
    compiles = at_reference([(c, p["compile_calibration_s"])
                             for p in parts for c in p["compiles"]], scaled)
    calls = at_reference(
        [pair for p in parts for pair in zip(
            p["latency_ms"],
            p.get("call_calibration_s") or [None] * len(p["latency_ms"]))],
        scale_calls)
    busy_s = (sum(calls) / 1e3 if scale_calls
              else sum(p["work_seconds"] for p in parts))
    metrics = {
        "setup_s": median(setup),
        "compile_s": median(compiles),
        "call_ms_p50": percentile(calls, 50),
        "call_ms_p90": percentile(calls, 90),
        "work_per_s": sum(p["work"] for p in parts) / busy_s,
        "peak_rss_mb": median(p["peak_rss_mb"] for p in parts),
    }
    return metrics, calls


PER_LAYER = (
    ("autograph.convert_ms", "ms", "lower"),
    ("function.trace_ms", "ms", "lower"),
    ("function.dispatch_us", "us", "lower"),
    ("function.traces", "count", "lower"),
    ("graph.optimize_ms", "ms", "lower"),
    ("graph.ops_traced", "count", "lower"),
    ("graph.ops_optimized", "count", "lower"),
    ("runtime.compile_plan_ms", "ms", "lower"),
    ("runtime.plan_steps", "count", "lower"),
    ("runtime.fused_steps", "count", "higher"),
    ("runtime.call_flat_ms_p50", "ms", "lower"),
    ("runtime.overhead_vs_numpy", "x", "lower"),
    ("kernels.numpy_ref_ms_p50", "ms", "lower"),
    ("alloc.minor_faults_per_call", "count", "lower"),
    ("alloc.bytes_per_call", "bytes", "lower"),
    ("lantern.stage_ms", "ms", "lower"),
    ("lantern.call_with_grad_ms_p50", "ms", "lower"),
    ("lantern.forward_ms_p50", "ms", "lower"),
    ("lantern.handstaged_ms_p50", "ms", "lower"),
    ("lantern.jit_vs_handstaged", "x", "lower"),
    ("lantern.ir_instructions", "count", "lower"),
    ("serving.call_flat_us_p50", "us", "lower"),
    ("serving.batcher_submit_us_p50", "us", "lower"),
    ("serving.roundtrip_vs_call_flat", "x", "lower"),
    ("wire.encode_us", "us", "lower"),
    ("wire.decode_us", "us", "lower"),
    ("server.latency_ms_p50", "ms", "lower"),
    ("server.batch_size_mean", "count", "higher"),
    ("server.shed", "count", "lower"),
    ("http.unaccounted_ms_p50", "ms", "lower"),
    ("loadgen.lat_ms_p50.high", "ms", "lower"),
    ("loadgen.lat_ms_p99.high", "ms", "lower"),
    ("loadgen.max_rps_slo", "1/s", "higher"),
    ("loadgen.lag_ms_p99", "ms", "lower"),
    ("loadgen.sent", "count", "higher"),
    ("loadgen.failed", "count", "lower"),
    ("trace.overhead_ratio", "x", "lower"),
    ("trace.calls", "count", "higher"),
)

#: The base of every ratio among the per-layer metrics: each is a row
#: measured alongside it in the same traced run.
RATIO_BASES = {
    "runtime.overhead_vs_numpy":
        "kernels.numpy_ref_ms_p50 (runtime.call_flat_ms_p50 over it)",
    "lantern.jit_vs_handstaged":
        "the compiled LanternTreeLSTM train step, seconds per tree node",
    "serving.roundtrip_vs_call_flat":
        "serving.call_flat_us_p50 (client p50 at the low rate over it)",
    "trace.overhead_ratio": "the untraced end-to-end call p50 of the run",
}
