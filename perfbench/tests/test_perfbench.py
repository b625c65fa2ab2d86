"""The benchmark's own tests: seeded inputs, output checkers, the
``BENCHMARK.json`` format, the compare verdicts, the speed scaling and
the span table.
"""

import json
import os
import re
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import common  # noqa: E402
import compare  # noqa: E402
import inputs  # noqa: E402
import loadgen  # noqa: E402
import metrics  # noqa: E402
from repro.datasets.treebank import Tree  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _trees(seed):
    return [(t.num_leaves(), t.depth(), t.label)
            for t in inputs.tree_inputs(seed, Tree)]


GENERATORS = {
    "chain": lambda seed: inputs.chain_inputs(seed),
    "train": lambda seed: [a for pair in inputs.train_inputs(seed)
                           for a in pair],
    "tree_params": lambda seed: list(inputs.tree_params(seed).values()),
    "mlp": lambda seed: list(inputs.mlp_params(seed)[0])
    + [inputs.mlp_inputs(seed)],
    "arrivals": lambda seed: [np.asarray(v) for v in
                              loadgen.arrivals(seed, 0, 0, 100.0, 2.0)],
}


def _same(a, b):
    return len(a) == len(b) and all(
        x.shape == y.shape and np.array_equal(x, y) for x, y in zip(a, b))


@pytest.mark.parametrize("what", sorted(GENERATORS))
def test_same_seed_same_inputs_other_seed_other_inputs(what):
    gen = GENERATORS[what]
    assert _same(gen(3), gen(3))
    assert not _same(gen(3), gen(4))


def test_tree_inputs_seeded_with_seed_independent_work():
    assert _trees(5) == _trees(5)
    assert _trees(5) != _trees(6)
    leaves = sorted(n for n, _, _ in _trees(5))
    assert leaves == sorted(n for n, _, _ in _trees(6))
    assert leaves[0] == inputs.TREE_MIN_LEAVES
    assert leaves[-1] == inputs.TREE_MAX_LEAVES


def test_checkers_accept_reference_and_flag_corruption():
    x = inputs.chain_inputs(1)[0]
    expected = inputs.chain_ref(x)
    assert inputs.chain_check(expected.copy(), expected)
    bad = expected.copy()
    bad[7, 11] += 0.01
    assert not inputs.chain_check(bad, expected)
    nan = expected.copy()
    nan[0, 0] = np.nan
    assert not inputs.chain_check(nan, expected)
    assert not inputs.chain_check(expected[:-1], expected)

    bx, by = inputs.train_inputs(1)[0]
    w, b = inputs.sgd_ref(bx, by, steps=3)
    assert inputs.train_check((w, b), (w, b))
    assert not inputs.train_check((w, b + 0.01), (w, b))
    assert not inputs.train_check((w * 1.01, b), (w, b))

    tree = inputs.tree_inputs(1, Tree)[0]
    loss = inputs.treelstm_loss_ref(inputs.tree_params(1), tree, tree.label)
    assert loss > 0
    assert inputs.tree_check(loss, loss)
    assert not inputs.tree_check(loss * 1.01, loss)

    weights, w_out = inputs.mlp_params(1)
    xs = inputs.mlp_inputs(1)
    ref = inputs.mlp_ref(weights, w_out, xs[:1])
    assert inputs.mlp_check(ref.astype(np.float32), ref)
    assert not inputs.mlp_check(ref + 0.01, ref)


def test_benchmark_json_is_well_formed():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["paths"] == ["perfbench"]
    assert 1 <= bench["run_seconds"] <= 60
    assert isinstance(bench["run_seconds"], int)
    assert all(isinstance(a, str) and len(a) <= 200
               for a in bench["command"])
    workloads = bench["workloads"]
    e2e = bench["end_to_end"]
    layers = bench["per_layer"]
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(e2e) <= 16
    assert 1 <= len(layers) <= 128
    names = [w["name"] for w in workloads] + [m["name"] for m in e2e] \
        + [m["name"] for m in layers]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), names
    for w in workloads:
        assert set(w) == {"name", "why"}
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in e2e:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in layers:
        assert set(m) == {"name", "unit", "better"}
    for m in e2e + layers:
        assert re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", m["unit"])
        assert m["better"] in ("higher", "lower")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in e2e)}]
    # The catalogue the runner prints from is the same list.
    assert [(w["name"], w["why"]) for w in workloads] == \
        [tuple(w) for w in metrics.WORKLOADS]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in e2e] \
        == [tuple(m) for m in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in layers] == \
        [tuple(m) for m in metrics.PER_LAYER]
    # Every ratio states its base.
    assert set(metrics.RATIO_BASES) == {m["name"] for m in layers
                                        if m["unit"] == "x"}


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0]
    assert compare.verdict(parent, faster, "lower", 0.1) == "improved"
    assert compare.verdict(parent, slower, "lower", 0.1) == "worse"
    assert compare.verdict(parent, parent[::-1], "lower", 0.1) == "unchanged"
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.1) == "unresolved"
    assert compare.verdict(parent, slower, "higher", 0.1) == "improved"
    assert compare.verdict(parent, slower, "lower", None) == "worse"


def test_compare_reads_only_run_files(tmp_path):
    result = {"correct": True, "attempted": 1, "failed": 0,
              "metrics": {"setup_s": {"value": 1.0, "unit": "s"}}}
    (tmp_path / "chain_384.1.txt").write_text(
        "setup_s 1.0 s\n" + json.dumps(result) + "\n")
    (tmp_path / "chain_384.1.err").write_text("warning\n")
    (tmp_path / "log.txt").write_text("chain_384 1 exit=0\n")
    assert compare.load_runs(str(tmp_path)) == {"chain_384": [result]}
    (tmp_path / "chain_384.2.txt").write_text("Traceback ...\n")
    with pytest.raises(ValueError, match="no result line"):
        compare.load_runs(str(tmp_path))


def test_max_rate_within_limit_interpolates_on_log_p99():
    limit = loadgen.LIMIT_MS

    def rung(rate, p99):
        return {"rate": rate, "p99_ms": p99, "passed": p99 <= limit,
                "abandoned": False}

    ladder = [rung(100, 10), rung(200, limit / 2), rung(300, limit * 2)]
    assert loadgen.max_rate_within_limit(ladder) == pytest.approx(250.0)
    # One spurious miss below the knee does not end the ladder early.
    ladder = [rung(100, limit * 2), rung(200, 10), rung(300, limit * 4)]
    assert 200 < loadgen.max_rate_within_limit(ladder) < 300
    assert loadgen.max_rate_within_limit([rung(100, 10)]) == 100
    assert loadgen.max_rate_within_limit([rung(100, limit * 4)]) == 25


def _part(latency_ms, call_calibration_s=None):
    part = {"setup_s": 2.0, "setup_calibration_s": 0.0,
            "compiles": [0.5, 0.5], "compile_calibration_s": 0.0,
            "latency_ms": latency_ms, "work": 10 * len(latency_ms),
            "work_seconds": sum(latency_ms) / 1e3, "peak_rss_mb": 50.0}
    if call_calibration_s is not None:
        part["call_calibration_s"] = call_calibration_s
    return part


def test_end_to_end_scales_each_sample_by_its_own_calibration():
    ref = metrics.CALIBRATION_REF_S
    # One segment ran at half the reference speed, one at the
    # reference speed: at the reference speed both read the same.
    slow = _part([20.0, 20.0], [2 * ref, 2 * ref])
    slow.update(setup_s=4.0, setup_calibration_s=2 * ref,
                compiles=[1.0, 1.0], compile_calibration_s=2 * ref)
    quick = _part([10.0, 10.0], [ref, ref])
    quick.update(setup_calibration_s=ref, compile_calibration_s=ref)
    scaled, calls = metrics.end_to_end("chain_384", [slow, quick])
    assert calls == [10.0] * 4
    assert scaled == {"setup_s": 2.0, "compile_s": 0.5, "call_ms_p50": 10.0,
                      "call_ms_p90": 10.0, "work_per_s": 1000.0,
                      "peak_rss_mb": 50.0}
    measured, _ = metrics.end_to_end("chain_384", [slow, quick],
                                     scaled=False)
    assert measured["call_ms_p50"] == 15.0
    assert measured["work_per_s"] == pytest.approx(40 / 0.06)
    # Serving latencies and capacity are timed across processes and
    # are reported as measured; set-up and compiles are still scaled.
    served = [_part([20.0, 20.0]), _part([10.0, 10.0])]
    for part in served:
        part.update(setup_calibration_s=2 * ref,
                    compile_calibration_s=2 * ref)
    result, _ = metrics.end_to_end("serve_mlp", served)
    assert result["setup_s"] == 1.0 and result["compile_s"] == 0.25
    assert result["call_ms_p50"] == 15.0
    assert result["work_per_s"] == pytest.approx(40 / 0.06)
    assert common.calibrate(repeats=1) > 0


def test_tracer_self_time_and_chrome_events():
    tracer = common.Tracer()
    with tracer.span("outer", "a", op="op1"):
        with tracer.span("inner", "b"):
            pass
    table = tracer.layer_table()
    assert table["a"]["spans"] == table["b"]["spans"] == 1
    assert table["a"]["self_ms"] <= table["a"]["total_ms"]
    events = tracer.chrome_events()
    assert [e["args"]["op"] for e in events] == ["op1", "op1"]
    assert events[1]["args"]["parent"] == 0


def test_closed_loop_pairs_every_call_with_a_calibration():
    tally = common.Tally()
    lat, ks, cal = common.closed_loop(
        lambda k: k, lambda k, out: out == k, 3,
        2.5 * common.CALIBRATE_EVERY_S, tally)
    assert len(lat) == len(ks) == len(cal) == tally.attempted
    assert tally.correct and ks[:4] == [0, 1, 2, 0]
    assert all(c > 0 for c in cal)
    assert len(set(cal)) > 1  # calibrated again within the loop
