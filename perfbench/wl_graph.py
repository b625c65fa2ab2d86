"""``chain_384`` and ``train_loop``: graph-backend ``@repro.function``
programs driven in process by one closed-loop caller.

Both run the same runtime differently.  ``chain_384`` is six fused
elementwise stages on 576 KB arrays, so kernels and the allocator do
the work; ``train_loop`` re-executes a small while-body plan 50 times
per call, so per-step dispatch does.
"""

from __future__ import annotations

import time

import numpy as np

import common
import inputs

import repro
import repro.autograph as ag
from repro.framework.graph.optimize import count_ops, optimize_graph
from repro.runtime import BoundPlan, compile_plan


class _Chain:
    name = "chain_384"
    program = "chain"

    def __init__(self, seed):
        self.pool = inputs.chain_inputs(seed)
        self.refs = [inputs.chain_ref(x) for x in self.pool]

    def args(self, k):
        return (self.pool[k],)

    def unpack(self, out):
        return out.numpy()

    def check(self, k, out):
        return inputs.chain_check(out, self.refs[k])

    def work(self, k):
        return 1

    def numpy_ref(self, k):
        return inputs.chain_ref(self.pool[k])


class _Train:
    name = "train_loop"
    program = "train"

    def __init__(self, seed):
        self.pool = inputs.train_inputs(seed)
        self.refs = [inputs.sgd_ref(x, y) for x, y in self.pool]
        self.w0 = np.zeros((inputs.TRAIN_DIM, inputs.TRAIN_CLASSES),
                           np.float32)
        self.b0 = np.zeros((inputs.TRAIN_CLASSES,), np.float32)
        self.steps = np.int32(inputs.TRAIN_STEPS)

    def args(self, k):
        x, y = self.pool[k]
        return (x, y, self.w0, self.b0, self.steps, inputs.TRAIN_LR)

    def unpack(self, out):
        w, b = out
        return w.numpy(), b.numpy()

    def check(self, k, out):
        return inputs.train_check(out, self.refs[k])

    def work(self, k):
        return inputs.TRAIN_STEPS

    def numpy_ref(self, k):
        return inputs.sgd_ref(*self.pool[k])


def _flat(args):
    """The tensor leaves of a call (Python floats specialise the trace)."""
    return [a for a in args if isinstance(a, (np.ndarray, np.generic))]


def _first_call(spec):
    """A fresh program copy through its first, checked result: the cold
    compile.  Returns ``(fn, seconds)``."""
    fn = repro.function(getattr(common.fresh_programs(), spec.program))
    start = time.perf_counter()
    out = spec.unpack(fn(*spec.args(0)))
    elapsed = time.perf_counter() - start
    if not spec.check(0, out):
        raise AssertionError(f"{spec.name}: first result is wrong")
    return fn, elapsed


def build(spec):
    fn, _ = _first_call(spec)
    spec.unpack(fn(*spec.args(0)))  # one warm call
    return fn, fn.get_concrete_function(*spec.args(0))


def cold_compile(spec, ready):
    return _first_call(spec)[1]


def measure(spec, ready, tally, seconds):
    fn, _ = ready
    lat, ks, cal = common.closed_loop(
        lambda k: spec.unpack(fn(*spec.args(k))), spec.check,
        len(spec.pool), seconds, tally)
    return common.loop_samples(lat, sum(spec.work(k) for k in ks), cal)


def peak_rss_mb(ready):
    return common.peak_rss_mb()


def close(ready):
    pass


def traced(tr, seconds, spec, ready, tally):
    """Per-layer probes, then rotating blocks of the end-to-end call
    (untraced and traced), bare ``call_flat`` and the NumPy reference."""
    fn, cf = ready
    m = {}
    args0 = spec.args(0)

    m["autograph.convert_ms"] = common.probe_ms(
        tr, "to_graph", "autograph",
        lambda: ag.to_graph(getattr(common.fresh_programs(), spec.program)))

    samples = []
    for r in range(common.PROBE_REPEATS):
        py_fn = getattr(common.fresh_programs(), spec.program)
        ag.to_graph(py_fn)  # warm the conversion cache, untimed
        f = repro.function(py_fn)
        with tr.span("get_concrete_function", "function",
                     op=f"probe:trace:{r}"):
            _, took = common.timed(lambda: f.get_concrete_function(*args0))
        samples.append(took)
    m["function.trace_ms"] = common.median(samples) * 1e3

    anchors = cf.outputs + cf.inputs
    m["graph.optimize_ms"] = common.probe_ms(
        tr, "optimize_graph", "framework.graph",
        lambda: optimize_graph(cf.graph, anchors))
    m["graph.ops_traced"] = count_ops(cf.graph)
    m["graph.ops_optimized"] = count_ops(cf.optimized_graph)
    run_fetches = getattr(cf, "_run_fetches", None)
    runtime_feeds = getattr(cf, "_runtime_feeds", None)
    m["runtime.compile_plan_ms"] = common.probe_ms(
        tr, "compile_plan", "runtime",
        lambda: compile_plan(cf.optimized_graph, run_fetches, runtime_feeds))
    plan_info = cf.engine_stats()["bound_plan"]
    m["runtime.plan_steps"] = plan_info["steps"]
    m["runtime.fused_steps"] = plan_info.get("fused_steps", 0)

    n = len(spec.pool)

    def untraced(i):
        k = i % n
        f0 = common.minor_faults()
        out = spec.unpack(fn(*spec.args(k)))
        faults.append(common.minor_faults() - f0)
        return k, out

    def traced_call(i):
        k = i % n
        undo = tr.wrap(BoundPlan, "execute_flat", "runtime")
        try:
            with tr.span("call", "function", op=f"call:{i}"):
                out = spec.unpack(fn(*spec.args(k)))
        finally:
            undo()
        return k, out

    def bare(i):
        cf.call_flat(_flat(spec.args(i % n)))

    def reference(i):
        with tr.span("numpy_reference", "kernels.reference", op=f"ref:{i}"):
            spec.numpy_ref(i % n)

    faults = []
    samples, _ = common.rotate_blocks(
        {"e2e": untraced, "traced": traced_call, "call_flat": bare,
         "numpy": reference},
        seconds, spec.check, tally)
    e2e = samples["e2e"]

    call_p50 = common.median(e2e)
    flat_p50 = common.median(samples["call_flat"])
    ref_p50 = common.median(samples["numpy"])
    # The function layer's own time: a traced call's span minus the
    # BoundPlan.execute_flat span inside it.
    m["function.dispatch_us"] = common.median(tr.self_times("call")) * 1e6
    m["function.traces"] = fn.trace_count
    m["runtime.call_flat_ms_p50"] = flat_p50 * 1e3
    m["kernels.numpy_ref_ms_p50"] = ref_p50 * 1e3
    m["runtime.overhead_vs_numpy"] = flat_p50 / ref_p50
    m["alloc.minor_faults_per_call"] = sum(faults) / len(faults)
    m["alloc.bytes_per_call"] = common.peak_alloc_bytes(
        [lambda k=k: fn(*spec.args(k)) for k in range(min(n, 4))])
    m["trace.overhead_ratio"] = common.median(samples["traced"]) / call_p50
    m["trace.calls"] = len(e2e)
    return m, {}


def make_chain(seed):
    return _Chain(seed)


def make_train(seed):
    return _Train(seed)
