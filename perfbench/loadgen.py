#!/usr/bin/env python3
"""Open-loop load generator for ``serve_mlp``: one process, seeded
Poisson arrivals, at most ``nproc`` sender threads (one connection
each), every request through ``repro.serving.ServingClient``.

Each request is timed from the moment it was due, so a stall counts
against every request that waited behind it; ``lag`` is how late the
generator itself sent a request once a sender was free.  Every reply
is checked against the NumPy MLP forward.

Run by ``wl_serve``::

    python3 perfbench/loadgen.py --url URL --seed N --plan JSON [--trace 1]

``--plan`` is ``{"phases": [{"name", "rates", "seconds", "ladder"}]}``:
each rate of a phase is one rung of ``seconds``; a ladder phase stops
after two rungs in a row miss ``LIMIT_MS`` at p99 or leave a backlog.
The last stdout line is one JSON object with per-rung samples.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import threading
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import common  # noqa: E402
import inputs  # noqa: E402

#: The p99 latency limit (from due time) a ladder rung must meet.  It
#: sits above the tens-of-ms stalls an idle virtual machine shows now
#: and then, so a rung misses because of queueing, not one stall.
LIMIT_MS = 100.0
#: A rung whose generator falls this far behind is abandoned.
ABANDON_S = 1.0
#: The last stretch before a due time is waited out without sleeping.
SPIN_S = 0.001


def arrivals(seed, phase, rung, rate, seconds):
    """Seeded Poisson due offsets (s) and input indices for one rung."""
    rng = np.random.default_rng([int(seed), 7, phase, rung])
    n_max = int(rate * seconds * 2 + 20)
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=n_max))
    offsets = offsets[offsets < seconds]
    picks = rng.integers(0, inputs.MLP_POOL, size=len(offsets))
    return offsets.tolist(), picks.tolist()


def n_senders():
    return max(1, min(2, os.cpu_count() or 1))


class Rung:
    def __init__(self, phase, rate, offsets, picks):
        self.phase = phase
        self.rate = rate
        self.offsets = offsets
        self.picks = picks
        self.latency = [None] * len(offsets)
        self.lag = [None] * len(offsets)
        self.ok = [None] * len(offsets)
        self.traced = [False] * len(offsets)
        self.abandoned = False


def wait_until(due):
    """Sleep until just before ``due``, then yield until it passes: a
    plain sleep can wake milliseconds late on an idle virtual CPU, and
    that lateness would count against the server."""
    while True:
        left = due - time.perf_counter()
        if left <= 0:
            return
        time.sleep(left - SPIN_S if left > SPIN_S else 0)


def saturate(client_factory, seconds, xs, refs, seed):
    """Back-to-back requests on every sender for ``seconds``: the
    fleet's capacity.  Returns completed requests per second, plus the
    sent and failed counts."""
    rng = np.random.default_rng([int(seed), 8])
    picks = rng.integers(0, inputs.MLP_POOL, size=100000).tolist()
    lock = threading.Lock()
    counts = {"sent": 0, "failed": 0}
    start = time.perf_counter()
    deadline = start + seconds
    finished = []

    def sender():
        client = client_factory()
        while time.perf_counter() < deadline:
            with lock:
                k = picks[counts["sent"] % len(picks)]
                counts["sent"] += 1
            ok = _predict_checked(client, xs[k], refs[k])
            with lock:
                counts["failed"] += not ok
        finished.append(time.perf_counter())

    threads = [threading.Thread(target=sender) for _ in range(n_senders())]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = max(finished) - start
    return {"rps": (counts["sent"] - counts["failed"]) / elapsed,
            "elapsed": elapsed, **counts}


def _predict_checked(client, x, ref):
    try:
        reply = client.predict("score", [x])
        return inputs.mlp_check(reply["outputs"][0], ref)
    except Exception as e:  # noqa: BLE001 - counted as a failure
        print(f"loadgen: request failed: {e!r}", file=sys.stderr)
        return False


def drive(client_factory, rung, xs, refs, tracer, trace_every):
    """Send one rung's requests open-loop; fills the rung's samples."""
    lock = threading.Lock()
    cursor = [0]
    base = time.perf_counter() + 0.02
    total = len(rung.offsets)

    def sender():
        client = client_factory()
        free_at = time.perf_counter()
        while True:
            with lock:
                j = cursor[0]
                if j >= total or rung.abandoned:
                    return
                cursor[0] += 1
            due = base + rung.offsets[j]
            wait_until(due)
            sent = time.perf_counter()
            if sent - due > ABANDON_S:
                rung.abandoned = True
                return
            rung.lag[j] = sent - max(due, free_at)
            k = rung.picks[j]
            traced = tracer is not None and j % trace_every == 0
            if traced:
                with tracer.span("request", "loadgen",
                                 op=f"{rung.phase}:{rung.rate}:{j}"):
                    ok = _predict_checked(client, xs[k], refs[k])
            else:
                ok = _predict_checked(client, xs[k], refs[k])
            done = time.perf_counter()
            free_at = done
            rung.latency[j] = done - due
            rung.ok[j] = ok
            rung.traced[j] = traced

    threads = [threading.Thread(target=sender) for _ in range(n_senders())]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def rung_summary(rung):
    sent = [j for j, v in enumerate(rung.latency) if v is not None]
    lat = [rung.latency[j] * 1e3 for j in sent]
    p99 = common.percentile(lat, 99) if lat else float("inf")
    passed = (not rung.abandoned and len(sent) == len(rung.offsets)
              and p99 <= LIMIT_MS)
    return {
        "phase": rung.phase, "rate": rung.rate, "due": len(rung.offsets),
        "sent": len(sent), "failed": sum(1 for j in sent if not rung.ok[j]),
        "abandoned": rung.abandoned, "passed": passed, "p99_ms": p99,
        "lat_ms": lat,
        "lag_ms": [rung.lag[j] * 1e3 for j in sent],
        "traced": [rung.traced[j] for j in sent],
    }


def max_rate_within_limit(rungs):
    """Highest ladder rate whose p99 meets ``LIMIT_MS`` with no backlog.

    The estimate sits between the highest rung that met the limit and
    the rung after it, interpolated on log p99, so it moves
    continuously with latency instead of jumping a whole rung.  Below
    the first rung it scales the first rate by the limit's share of
    its p99.
    """
    best = None
    for prev, nxt in zip(rungs, rungs[1:] + [None]):
        if not prev["passed"]:
            continue
        if nxt is None or nxt["passed"]:
            best = prev["rate"]
            continue
        lo, hi = math.log(prev["p99_ms"]), math.log(nxt["p99_ms"])
        frac = 0.0 if hi <= lo else (math.log(LIMIT_MS) - lo) / (hi - lo)
        best = prev["rate"] + min(1.0, max(0.0, frac)) * (
            nxt["rate"] - prev["rate"])
    if best is None:
        first = rungs[0]
        return first["rate"] * min(1.0, LIMIT_MS / first["p99_ms"])
    return best


def main(argv=None):
    parser = argparse.ArgumentParser(description="open-loop load generator")
    parser.add_argument("--url", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--plan", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    plan = json.loads(args.plan)

    from repro.serving import ServingClient, wire

    weights, w_out = inputs.mlp_params(args.seed)
    xs = inputs.mlp_inputs(args.seed)
    refs = [inputs.mlp_ref(weights, w_out, x[None, :]) for x in xs]
    tracer = common.Tracer(pid=os.getpid()) if args.trace else None
    undo = []
    if tracer is not None:
        undo.append(tracer.wrap(ServingClient, "predict", "serving.client"))
        undo.append(tracer.wrap(wire, "encode", "serving.wire"))
        undo.append(tracer.wrap(wire, "decode", "serving.wire"))

    def client_factory():
        return ServingClient(args.url, retries=0)

    rungs = []
    result = {"senders": n_senders()}
    try:
        for p, phase in enumerate(plan["phases"]):
            if phase.get("saturate"):
                result[phase["name"]] = saturate(
                    client_factory, phase["seconds"], xs, refs, args.seed)
                continue
            passed = []
            for r, rate in enumerate(phase["rates"]):
                offsets, picks = arrivals(args.seed, p, r, rate,
                                          phase["seconds"])
                rung = Rung(phase["name"], rate, offsets, picks)
                drive(client_factory, rung, xs, refs, tracer,
                      trace_every=2)
                summary = rung_summary(rung)
                rungs.append(summary)
                passed.append(summary["passed"])
                if phase.get("ladder") and (summary["abandoned"]
                                            or passed[-2:] == [False, False]):
                    break
    finally:
        for u in undo:
            u()
    ladder = [r for r in rungs if r["phase"] == "ladder"]
    result["rungs"] = rungs
    if ladder:
        result["max_rps_slo"] = max_rate_within_limit(ladder)
    if tracer is not None:
        result["events"] = tracer.chrome_events()
        result["layers"] = tracer.layer_table()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
