#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload chain_384 --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that measures the per-layer metrics and writes
``perfbench/out/<workload>.trace.json`` (Chrome trace) and
``perfbench/out/<workload>.layers.txt`` (per-layer self time).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only
when every output check passed.
"""

import time

_PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import common  # noqa: E402
import metrics as catalogue  # noqa: E402

WORKLOAD_NAMES = [name for name, _ in catalogue.WORKLOADS]
#: The untraced run is cut into segments, each a fresh process that
#: sets up, compiles cold and runs a slice of the timed loop.  The
#: machine's speed drifts over seconds and differs between processes
#: (which virtual CPU, what else shares its core), so pooling several
#: processes spread over the run keeps one slow stretch or one slow
#: process from deciding a metric.
SEGMENTS = 5
COMPILES_PER_SEGMENT = 6


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--segment", action="store_true",
                        help="run one segment of an untraced run and "
                             "print its raw samples (used by the run)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _workload(name):
    """``(module, make)``: the workload's module and its data factory."""
    if name in ("chain_384", "train_loop"):
        import wl_graph

        make = wl_graph.make_chain if name == "chain_384" else \
            wl_graph.make_train
        return wl_graph, make
    if name == "tree_lantern":
        import wl_tree

        return wl_tree, wl_tree.make
    import wl_serve

    return wl_serve, wl_serve.make


def main(argv=None):
    args = _parse(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: the program's sources are missing ({src})",
              file=sys.stderr)
        return 2
    # The program writes generated AutoGraph modules through tempfile;
    # keep them inside the checkout and remove them afterwards.
    scratch = os.path.join(HERE, "out", f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    os.environ["TMPDIR"] = scratch
    tempfile.tempdir = scratch
    try:
        return _run(args, src)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _segment(args, module, data, import_s, tally):
    """One segment, in this fresh process: set up, compile cold a few
    times and run a slice of the timed loop.  The calibration workload
    is timed before and after set-up and after the compiles.  Returns
    the raw samples."""
    calibration = [common.calibrate()]
    ready, build_s = common.timed(lambda: module.build(data))
    tally.record(True)  # build checked the first result
    try:
        calibration.append(common.calibrate())
        compiles = []
        for _ in range(COMPILES_PER_SEGMENT):
            gc.collect()  # no collection of earlier copies mid-compile
            compiles.append(module.cold_compile(data, ready))
            tally.record(True)  # cold_compile checked its result
        calibration.append(common.calibrate())
        part = module.measure(data, ready, tally, args.seconds / SEGMENTS)
        part.update(setup_s=import_s + build_s,
                    setup_calibration_s=(calibration[0] + calibration[1]) / 2,
                    compiles=compiles,
                    compile_calibration_s=(calibration[1]
                                           + calibration[2]) / 2,
                    calibration=calibration,
                    peak_rss_mb=module.peak_rss_mb(ready),
                    attempted=tally.attempted, failed=tally.failed)
        return part
    finally:
        module.close(ready)


def _measure(args, tally):
    """The end-to-end metrics, pooled from ``SEGMENTS`` segment
    processes run one after another, at the reference machine speed."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--segment"]
    parts = []
    for _ in range(SEGMENTS):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=150, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"segment process exited {proc.returncode}")
        parts.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    tally.attempted = sum(p["attempted"] for p in parts)
    tally.failed = sum(p["failed"] for p in parts)
    metrics, calls = catalogue.end_to_end(args.workload, parts)
    measured, _ = catalogue.end_to_end(args.workload, parts, scaled=False)
    calibration_s = statistics.median(c for p in parts
                                      for c in p["calibration"])
    info = {"calls": len(calls),
            "call_ms_p99": common.percentile(calls, 99),
            "calibration_s": calibration_s,
            "machine_speed_vs_reference":
                catalogue.CALIBRATION_REF_S / calibration_s}
    info.update({f"measured.{k}": v for k, v in measured.items()})
    return metrics, info


def _run(args, src):
    sys.path.insert(0, src)
    tally = common.Tally()
    if not (args.trace or args.segment):
        raw, info = _measure(args, tally)
        return _report(args, tally, raw, info)

    import numpy  # noqa: F401
    import repro  # noqa: F401
    import repro.autograph  # noqa: F401

    import_s = time.perf_counter() - _PROCESS_T0
    module, make = _workload(args.workload)
    data = make(args.seed)
    if args.segment:
        print(json.dumps(_segment(args, module, data, import_s, tally)))
        return 0

    tracer = common.Tracer(pid=os.getpid())
    ready = module.build(data)
    tally.record(True)  # build checked the first result
    try:
        raw, info = module.traced(tracer, args.seconds, data, ready, tally)
    finally:
        module.close(ready)
    events = tracer.chrome_events() + info.pop("events", [])
    table = tracer.layer_table()
    for layer, row in info.pop("layers", {}).items():
        mine = table.setdefault(layer, dict.fromkeys(row, 0))
        for key, value in row.items():
            mine[key] += value
    return _report(args, tally, raw, info, events, table)


def _report(args, tally, raw, info, events=None, table=None):
    """Print every metric with its unit, then the JSON result line."""
    if args.trace:
        units = {name: unit for name, unit, _ in catalogue.PER_LAYER}
    else:
        units = {name: unit for name, unit, _, _ in catalogue.END_TO_END}
    unknown = set(raw) - set(units)
    if unknown:
        raise KeyError(f"metrics missing from the catalogue: {sorted(unknown)}")
    values = {name: float(raw.get(name, 0.0)) for name in units}

    if args.trace:
        trace_path, table_path = common.write_trace(
            args.workload, events, table,
            [f"tracing overhead: traced/untraced call p50 = "
             f"{values['trace.overhead_ratio']:.3f}x over "
             f"{int(values['trace.calls'])} calls"])
        print(f"trace: {os.path.relpath(trace_path, ROOT)}")
        print(f"layers: {os.path.relpath(table_path, ROOT)}")
    for name, value in values.items():
        print(f"{name:<34}{value:>16.6g} {units[name]}")
    for key, value in sorted(info.items()):
        print(f"# {key}: {value}")
    if args.trace:
        for name, base in catalogue.RATIO_BASES.items():
            print(f"# base of {name}: {base}")

    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
