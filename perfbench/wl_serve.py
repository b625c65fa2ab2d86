"""``serve_mlp``: a 16-layer 128->256 tanh MLP saved as an artifact and
served by ``FleetServer(n_workers=1)``, driven by the open-loop
generator process ``loadgen.py``.

Requests carry one example each over the binary wire.  The client,
HTTP and batcher wait dominate the round trip; the engine call is a
small share of it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np

import common
import inputs

import repro
from repro.serving import FleetServer, MicroBatcher, ServingClient, wire
from repro.serving.saved_function import load, save

#: Requests per second where arrivals rarely overlap.
LOW_RATE = 40.0
#: About two thirds of the fleet's capacity (``work_per_s``, about
#: 275 req/s) on a 2-CPU machine.
HIGH_RATE = 180.0
#: Fixed rungs for ``loadgen.max_rps_slo`` in the traced run.
LADDER = (100.0, 140.0, 180.0, 220.0, 260.0, 300.0, 350.0, 400.0, 500.0,
          650.0, 800.0)
#: Shares of the run: the low-rate phase, then back-to-back requests.
LOW_SHARE = 0.6
SATURATE_SHARE = 0.4
#: Requests timed for the in-process reference rows of the traced run.
REFERENCE_CALLS = 400
BATCHER_CALLS = 150


class _Served:
    """One saved artifact behind a running one-worker fleet."""

    def __init__(self, seed, workdir, xs, refs):
        weights, w_out = inputs.mlp_params(seed)
        module = common.fresh_programs()
        fn = repro.function(module.make_mlp(weights, w_out))
        self.path = tempfile.mkdtemp(prefix="artifact-", dir=workdir)
        save(fn, self.path,
             repro.TensorSpec([None, inputs.MLP_FEATURES], "float32"))
        self.loaded = load(self.path)
        out = self.loaded.call_flat([xs[0][None, :]])
        if not inputs.mlp_check(_first(out), refs[0]):
            raise AssertionError("serve_mlp: loaded artifact is wrong")
        self.fleet = FleetServer(n_workers=1)
        self.fleet.register("score", self.path)
        self.fleet.start()
        self.client = ServingClient(self.fleet.url, retries=0)
        reply = self._first_reply(xs[0])
        if not inputs.mlp_check(reply["outputs"][0], refs[0]):
            self.stop()
            raise AssertionError("serve_mlp: served reply is wrong")

    def _first_reply(self, x):
        deadline = time.perf_counter() + 30.0
        while True:
            try:
                return self.client.predict("score", [x])
            except OSError:
                if time.perf_counter() > deadline:
                    self.stop()
                    raise
                time.sleep(0.01)

    def worker_pid(self):
        return self.client.metrics()["fleet"]["workers"][0]["pid"]

    def model_stats(self):
        return self.client.list_models()["models"]["score"]

    def stop(self):
        self.fleet.stop()


def _first(out):
    leaf = out[0] if isinstance(out, (list, tuple)) else out
    return leaf.numpy() if hasattr(leaf, "numpy") else np.asarray(leaf)


def _loadgen(url, seed, phases, trace):
    """Run one generator process over ``phases``; returns its result."""
    cmd = [sys.executable, os.path.join(common.HERE, "loadgen.py"),
           "--url", url, "--seed", str(seed), "--trace", str(int(trace)),
           "--plan", json.dumps({"phases": phases})]
    budget = sum(p["seconds"] * len(p.get("rates", [0])) for p in phases) + 60.0
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=budget, check=False)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"loadgen exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _count(tally, result):
    """Record the generator's requests; returns ``(sent, failed)``."""
    phases = result["rungs"] + [v for v in result.values()
                                if isinstance(v, dict) and "rps" in v]
    sent = sum(p["sent"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    tally.attempted += sent
    tally.failed += failed
    return sent, failed


class _Data:
    def __init__(self, seed):
        self.seed = seed
        self.xs = inputs.mlp_inputs(seed)
        weights, w_out = inputs.mlp_params(seed)
        self.refs = [inputs.mlp_ref(weights, w_out, x[None, :])
                     for x in self.xs]
        self.workdir = tempfile.gettempdir()


def make(seed):
    return _Data(seed)


def build(data):
    return _Served(data.seed, data.workdir, data.xs, data.refs)


def cold_compile(data, served):
    """Load the saved artifact afresh through its first, checked call."""
    start = time.perf_counter()
    loaded = load(served.path)
    out = loaded.call_flat([data.xs[0][None, :]])
    elapsed = time.perf_counter() - start
    if not inputs.mlp_check(_first(out), data.refs[0]):
        raise AssertionError("serve_mlp: loaded artifact is wrong")
    return elapsed


def close(served):
    served.stop()
    # The fleet's shared memory started multiprocessing's resource
    # tracker in this process: stop it and wait for it to end, so that
    # the run leaves no process behind.
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def measure(data, served, tally, seconds):
    result = _loadgen(served.fleet.url, data.seed, [
        {"name": "low", "rates": [LOW_RATE], "seconds": seconds * LOW_SHARE},
        {"name": "saturate", "saturate": True,
         "seconds": seconds * SATURATE_SHARE},
    ], trace=False)
    _count(tally, result)
    capacity = result["saturate"]
    return {"latency_ms": result["rungs"][0]["lat_ms"],
            "work": capacity["sent"] - capacity["failed"],
            "work_seconds": capacity["elapsed"]}


def peak_rss_mb(served):
    return common.peak_rss_mb(served.worker_pid())


def traced(tr, seconds, data, served, tally):
    m = {}
    loaded = served.loaded
    xs, refs = data.xs, data.refs
    n = len(xs)

    def timed_loop(name, layer, body, count):
        samples = []
        for i in range(count):
            with tr.span(name, layer, op=f"{name}:{i}"):
                _, s = common.timed(lambda: body(i))
            samples.append(s)
        return samples

    faults = []

    def bare(i):
        f0 = common.minor_faults()
        out = loaded.call_flat([xs[i % n][None, :]])
        faults.append(common.minor_faults() - f0)
        tally.record(inputs.mlp_check(_first(out), refs[i % n]))

    flat = timed_loop("call_flat", "runtime", bare, REFERENCE_CALLS)
    with MicroBatcher(loaded) as batcher:
        submit = timed_loop(
            "MicroBatcher.submit", "serving.batcher",
            lambda i: batcher.submit([xs[i % n]]), BATCHER_CALLS)
    request = {"inputs": [xs[0]]}
    reply = {"outputs": [refs[0].astype(np.float32).reshape(-1)],
             "backend": "graph", "version": "1"}
    encoded = wire.encode(reply)
    enc = timed_loop("wire.encode", "serving.wire",
                     lambda i: wire.encode(request), REFERENCE_CALLS)
    dec = timed_loop("wire.decode", "serving.wire",
                     lambda i: wire.decode(encoded), REFERENCE_CALLS)

    url = served.fleet.url
    low_run = _loadgen(url, data.seed, [
        {"name": "low", "rates": [LOW_RATE], "seconds": seconds * 0.3},
    ], trace=True)
    after_low = served.model_stats()
    high_run = _loadgen(url, data.seed, [
        {"name": "high", "rates": [HIGH_RATE], "seconds": seconds * 0.3},
        {"name": "ladder", "rates": list(LADDER),
         "seconds": seconds * 0.04, "ladder": True},
    ], trace=False)
    after_high = served.model_stats()
    sent, failed = (a + b for a, b in zip(_count(tally, low_run),
                                          _count(tally, high_run)))

    low = low_run["rungs"][0]
    high = high_run["rungs"][0]
    untraced_ms = [v for v, t in zip(low["lat_ms"], low["traced"]) if not t]
    traced_ms = [v for v, t in zip(low["lat_ms"], low["traced"]) if t]
    client_p50 = common.percentile(untraced_ms, 50)
    batch = after_low["batch_stats"]
    plan = loaded.engine_stats()["bound_plan"]
    flat_p50 = common.median(flat)

    m["runtime.plan_steps"] = plan["steps"]
    m["runtime.fused_steps"] = plan.get("fused_steps", 0)
    m["runtime.call_flat_ms_p50"] = flat_p50 * 1e3
    m["alloc.minor_faults_per_call"] = sum(faults) / len(faults)
    m["alloc.bytes_per_call"] = common.peak_alloc_bytes(
        [lambda i=i: loaded.call_flat([xs[i][None, :]]) for i in range(8)])
    m["serving.call_flat_us_p50"] = flat_p50 * 1e6
    m["serving.batcher_submit_us_p50"] = common.median(submit) * 1e6
    m["serving.roundtrip_vs_call_flat"] = client_p50 / (flat_p50 * 1e3)
    m["wire.encode_us"] = common.median(enc) * 1e6
    m["wire.decode_us"] = common.median(dec) * 1e6
    m["server.latency_ms_p50"] = after_low["latency"]["p50_ms"]
    m["server.batch_size_mean"] = batch["requests"] / batch["batches"]
    m["server.shed"] = after_high["batch_stats"]["rejected"]
    m["http.unaccounted_ms_p50"] = (client_p50
                                    - after_low["latency"]["p50_ms"])
    m["loadgen.lat_ms_p50.high"] = common.percentile(high["lat_ms"], 50)
    m["loadgen.lat_ms_p99.high"] = common.percentile(high["lat_ms"], 99)
    m["loadgen.max_rps_slo"] = high_run["max_rps_slo"]
    m["loadgen.lag_ms_p99"] = common.percentile(
        low["lag_ms"] + high["lag_ms"], 99)
    m["loadgen.sent"] = sent
    m["loadgen.failed"] = failed
    m["trace.overhead_ratio"] = common.percentile(traced_ms, 50) / client_p50
    m["trace.calls"] = len(traced_ms)
    info = {"events": low_run.get("events", []),
            "layers": low_run.get("layers", {})}
    return m, info
