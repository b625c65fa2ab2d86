"""Level-parallel plan execution and the arena's level rule.

``compile_plan`` now buckets steps into wavefront levels (every step's
data, control and stateful-order dependencies live in strictly earlier
levels), and ``ExecutionPlan.execute`` fans a level's steps out on a
scheduler.  These tests pin the two properties that make that safe:

- scheduling never changes results (levels respect all three dependency
  kinds, and the fixed combination trees make the math order-free);
- an arena buffer only passes to a new value (here: MatMul's BLAS
  ``out=``) once its previous occupant's last use is in a strictly
  earlier *level*, so a concurrently-running sibling step can never
  observe the overwrite.
"""

import numpy as np

from repro import framework as fw
from repro.blocks import BlockScheduler
from repro.framework import ops
from repro.runtime import BoundPlan, compile_plan


def _plan_for(fetches, feeds=()):
    # These tests pin the *per-step* level machinery, so they compile
    # unfused — elementwise fusion would (correctly) collapse the wide
    # diamond into one composite step.  Fusion×levels interaction is
    # covered in test_fusion.py.
    graph = (fetches[0] if isinstance(fetches, (list, tuple)) else fetches).graph
    flat = list(fetches) if isinstance(fetches, (list, tuple)) else [fetches]
    return compile_plan(graph, flat, list(feeds), fuse=False)


def _wide_graph():
    """A fan-out/fan-in diamond: 4 independent branches, then a merge."""
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [16, 16])
        branches = [ops.tanh(ops.multiply(x, float(i + 1))) for i in range(4)]
        merged = branches[0]
        for b in branches[1:]:
            merged = ops.add(merged, b)
        y = ops.matmul(merged, x)
    return x, y


class TestLevels:
    def test_levels_partition_all_steps(self):
        x, y = _wide_graph()
        plan = _plan_for(y, [x])
        indices = sorted(i for level in plan.levels for i in level)
        assert indices == list(range(len(plan.steps)))

    def test_levels_respect_data_dependencies(self):
        x, y = _wide_graph()
        plan = _plan_for(y, [x])
        level_of = {}
        for lv, level in enumerate(plan.levels):
            for i in level:
                level_of[i] = lv
        producer = {step[0]: i for i, step in enumerate(plan.steps)}
        for i, step in enumerate(plan.steps):
            for loc in step[2]:
                slot = loc if isinstance(loc, int) else loc[0]
                if slot in producer and producer[slot] != i:
                    assert level_of[producer[slot]] < level_of[i]

    def test_independent_branches_share_a_level(self):
        x, y = _wide_graph()
        plan = _plan_for(y, [x])
        widths = [len(level) for level in plan.levels]
        # The 4 multiply steps (then the 4 tanh steps) are independent.
        assert max(widths) >= 4

    def test_stateful_steps_never_share_a_level(self):
        g = fw.Graph()
        with g.as_default():
            a = ops.random_normal([4])
            b = ops.random_normal([4])
            y = ops.add(a, b)
        plan = _plan_for(y)
        level_of = {}
        for lv, level in enumerate(plan.levels):
            for i in level:
                level_of[i] = lv
        stateful = [i for i, op in enumerate(["rand", "rand", "add"])
                    if op == "rand"]
        assert level_of[stateful[0]] != level_of[stateful[1]]


class TestParallelExecution:
    def test_scheduler_matches_serial_bitwise(self):
        x, y = _wide_graph()
        plan = _plan_for(y, [x])
        rng = np.random.default_rng(0)
        feed = rng.standard_normal((16, 16)).astype(np.float32)
        serial = BoundPlan(plan, [x]).execute_flat([feed])[0]
        with BlockScheduler(num_workers=4) as sched:
            bound = BoundPlan(plan, [x], sched)
            for _ in range(3):
                np.testing.assert_array_equal(
                    bound.execute_flat([feed])[0], serial)

    def test_parallel_plan_with_control_deps(self):
        g = fw.Graph()
        with g.as_default():
            x = ops.placeholder(fw.float32, [8])
            a = ops.tanh(x)
            b = ops.exp(x)
            b.op.add_control_input(a.op)
            y = ops.add(a, b)
        plan = _plan_for(y, [x])
        feed = np.linspace(-1, 1, 8, dtype=np.float32)
        with BlockScheduler(num_workers=2) as sched:
            out = BoundPlan(plan, [x], sched).execute_flat([feed])[0]
        np.testing.assert_allclose(out, np.tanh(feed) + np.exp(feed),
                                   rtol=1e-6)


def _buffers(plan):
    """``{step name: arena buffer of its output}``."""
    return {s[4]: out for s, (out, _t) in zip(plan.steps, plan.step_buffers)}


class TestNoAliasDonation:
    def test_matmul_reuses_a_dead_buffer(self):
        g = fw.Graph()
        with g.as_default():
            x = ops.placeholder(fw.float32, [8, 8])
            # `m1` is read only by `m2`: its buffer dies a level before
            # `m3` runs and has `m3`'s shape/dtype.  `m2` cannot take a
            # buffer its own step reads (BLAS out= must not alias).
            m1 = ops.matmul(x, x)
            m2 = ops.matmul(m1, m1)
            m3 = ops.matmul(m2, m2)
            y = ops.exp(m3)
        plan = _plan_for(y, [x])
        bufs = _buffers(plan)
        assert None not in (bufs["MatMul"], bufs["MatMul_1"])
        assert bufs["MatMul"] == bufs["MatMul_2"] != bufs["MatMul_1"]
        rng = np.random.default_rng(1)
        feed = rng.standard_normal((8, 8)).astype(np.float32)
        out = BoundPlan(plan, [x]).execute_flat([feed])[0]
        m = feed @ feed
        m = m @ m
        np.testing.assert_allclose(out, np.exp(m @ m), rtol=1e-5)

    def test_same_level_buffer_is_not_taken(self):
        g = fw.Graph()
        with g.as_default():
            x = ops.placeholder(fw.float32, [8, 8])
            h = ops.tanh(x)
            # Both consume only `h`: they land in the same level, so
            # neither may take `h`'s buffer (nor each other's).
            left = ops.matmul(h, h)
            right = ops.multiply(h, 3.0)
            y = ops.add(left, right)
        plan = _plan_for(y, [x])
        bufs = _buffers(plan)
        assert None not in (bufs["Tanh"], bufs["MatMul"], bufs["Mul"])
        assert len({bufs["Tanh"], bufs["MatMul"], bufs["Mul"]}) == 3
        rng = np.random.default_rng(2)
        feed = rng.standard_normal((8, 8)).astype(np.float32)
        with BlockScheduler(num_workers=4) as sched:
            out = BoundPlan(plan, [x], sched).execute_flat([feed])[0]
        h = np.tanh(feed)
        np.testing.assert_allclose(out, h @ h + h * 3.0, rtol=1e-5)

    def test_fetched_buffer_is_never_taken_for_matmul(self):
        g = fw.Graph()
        with g.as_default():
            x = ops.placeholder(fw.float32, [8, 8])
            inter = ops.multiply(x, 2.0)
            h = ops.tanh(inter)
            y = ops.matmul(h, h)
        plan = _plan_for([y, inter], [x])
        rng = np.random.default_rng(3)
        feed = rng.standard_normal((8, 8)).astype(np.float32)
        out, kept = BoundPlan(plan, [x]).execute_flat([feed])
        np.testing.assert_array_equal(kept, feed * 2.0)
