"""Feed buffers belong to the caller: a plan never writes into them.

Plans place intermediates in their own static arena
(``tests/runtime/test_arena.py``); there is no path that hands a
caller's input array to a kernel as ``out=``.  These tests pin that
contract where it is most tempting to break: a feed that is dead before
a ``MatMul`` runs, a fetched feed, read-only and aliased arguments,
repeated and traced calls.  They also pin the two arena rules a
``MatMul`` relies on: its output never shares a buffer with a value its
own step reads, nor with a value of another shape.
"""

import numpy as np

from repro import framework as fw
from repro.framework import ops
from repro.runtime import BoundPlan, compile_plan


def _tanh_matmul():
    """Feed x is dead after Tanh (level 0), before MatMul (level 1)."""
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float64, [8, 8], name="x")
        w = ops.placeholder(fw.float64, [8, 8], name="w")
        h = ops.matmul(ops.tanh(x), w)
    return g, x, w, h


def _args(seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(8, 8)), rng.normal(size=(8, 8))


def _buffer_of(plan, op_name):
    """The arena buffer index of the step named ``op_name`` (or None)."""
    for (_slot, _k, _locs, _single, name), (out, _temps) in zip(
            plan.steps, plan.step_buffers):
        if name == op_name:
            return out
    raise AssertionError(f"no step {op_name!r}")


class TestCompileTimeArming:
    def test_feed_consumed_by_the_step_itself_never_arms(self):
        # MatMul's BLAS out= must not alias an operand: the value its
        # own step reads is alive, so its buffer is never the output's,
        # even though it dies right there.
        g = fw.Graph()
        with g.as_default():
            a = ops.placeholder(fw.float64, [8, 8], name="a")
            b = ops.placeholder(fw.float64, [8, 8], name="b")
            y = ops.tanh(ops.matmul(ops.tanh(a), b))
        plan = compile_plan(g, [y], [a, b], fuse=False)
        t, mm = _buffer_of(plan, "Tanh"), _buffer_of(plan, "MatMul")
        assert t is not None and mm is not None and t != mm
        aa, ba = _args(5)
        out = BoundPlan(plan, [a, b]).execute_flat([aa, ba])[0]
        np.testing.assert_allclose(out, np.tanh(np.tanh(aa) @ ba))

    def test_fetched_feed_is_never_donated(self):
        # The caller gets the feed back as an output; clobbering it
        # would corrupt the fetch.
        g, x, w, h = _tanh_matmul()
        plan = compile_plan(g, [h, x], [x, w])
        xa, wa = _args(7)
        keep = xa.copy()
        out, x_back = BoundPlan(plan, [x, w]).execute_flat([xa, wa])
        np.testing.assert_array_equal(x_back, keep)
        np.testing.assert_array_equal(xa, keep)
        np.testing.assert_allclose(out, np.tanh(keep) @ wa)

    def test_shape_mismatch_disqualifies(self):
        g = fw.Graph()
        with g.as_default():
            x = ops.placeholder(fw.float64, [8, 4], name="x")
            w = ops.placeholder(fw.float64, [4, 8], name="w")
            h = ops.tanh(ops.matmul(ops.tanh(x), w))  # (8, 4) -> (8, 8)
        plan = compile_plan(g, [h], [x, w], fuse=False)
        t, mm = _buffer_of(plan, "Tanh"), _buffer_of(plan, "MatMul")
        assert t is not None and mm is not None and t != mm
        assert plan.arena[t][0] == (8, 4) and plan.arena[mm][0] == (8, 8)


class TestCallTimeDonation:
    def test_default_call_never_donates(self):
        g, x, w, h = _tanh_matmul()
        bp = BoundPlan(compile_plan(g, [h], [x, w]), [x, w])
        xa, wa = _args(1)
        out = bp.execute_flat([xa, wa])
        assert out[0] is not xa
        np.testing.assert_allclose(out[0], np.tanh(xa) @ wa)
        # The input survives untouched.
        np.testing.assert_array_equal(xa, _args(1)[0])

    def test_readonly_buffer_falls_back(self):
        # A read-only input is fine: the plan only ever reads feeds.
        g, x, w, h = _tanh_matmul()
        bp = BoundPlan(compile_plan(g, [h], [x, w]), [x, w])
        xa, wa = _args(2)
        xa.flags.writeable = False
        out = bp.execute_flat([xa, wa])
        assert out[0] is not xa
        np.testing.assert_allclose(out[0], np.tanh(xa) @ wa)

    def test_aliased_args_fall_back(self):
        # The same buffer fed twice: writing into either would corrupt
        # the other argument mid-plan.
        g = fw.Graph()
        with g.as_default():
            x = ops.placeholder(fw.float64, [8, 8], name="x")
            w = ops.placeholder(fw.float64, [8, 8], name="w")
            h = ops.matmul(ops.tanh(x), w)
        bp = BoundPlan(compile_plan(g, [h], [x, w]), [x, w])
        same = _args(3)[0]
        keep = same.copy()
        out = bp.execute_flat([same, same])
        assert out[0] is not same
        np.testing.assert_array_equal(same, keep)
        np.testing.assert_allclose(out[0], np.tanh(keep) @ keep)

    def test_repeated_donated_calls_stay_correct(self):
        # The arena is reused across calls; no call's inputs or results
        # leak into the next.
        g, x, w, h = _tanh_matmul()
        bp = BoundPlan(compile_plan(g, [h], [x, w]), [x, w])
        results = []
        for seed in range(5):
            xa, wa = _args(seed)
            out = bp.execute_flat([xa, wa])
            assert out[0] is not xa
            results.append((out[0], np.tanh(xa) @ wa))
        for got, expected in results:
            np.testing.assert_allclose(got, expected)

    def test_traced_execution_reports_donated_steps(self):
        # Per-step spans cover every step of the traced call.
        import repro.observe as observe

        g, x, w, h = _tanh_matmul()
        bp = BoundPlan(compile_plan(g, [h], [x, w]), [x, w])
        xa, wa = _args(6)
        with observe.profile() as timeline:
            out = bp.execute_flat([xa, wa])
        assert out[0] is not xa
        np.testing.assert_allclose(out[0], np.tanh(xa) @ wa)
        names = [s.name for s in timeline.query(cat="step")]
        assert "Tanh" in names and "MatMul" in names
