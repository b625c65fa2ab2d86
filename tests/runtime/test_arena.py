"""The static per-plan memory arena.

``compile_plan`` colours every intermediate whose dtype and shape it can
prove into a buffer of a per-plan arena, and the producing step writes
it with ``out=`` (see ``repro/runtime/plan.py:_plan_arena``).  The
contract under test:

- results are bit-identical (dtype, shape, bytes) to a per-op eager
  NumPy reference on random DAGs, whatever is fetched, with ``fuse=``
  on or off, serially or level-parallel on ``BlockScheduler`` workers;
- results are caller-owned fresh arrays: call N's results survive call
  N+1, and no result shares memory with an arena buffer;
- concurrent callers of one ``BoundPlan`` each borrow their own arena;
- a value that could escape its planned lifetime — into an ``Assign``,
  a fetched ``Identity``/``Reshape``/``Transpose``, a ``While``/``Cond``
  input — is never arena-backed, and dynamic shapes allocate plainly;
- ``describe()`` and the ``runtime.arenas_created`` counter show where
  every buffer comes from.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import framework as fw
from repro.blocks import BlockScheduler
from repro.framework import ops
from repro.observe.events import RECORDER
from repro.runtime import BoundPlan, compile_plan


def _assert_bitwise_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def _arena_buffers(plan):
    return [buf for arena in plan._idle_arenas for buf in arena]


def _assert_caller_owned(plan, results):
    """No result aliases any arena buffer of ``plan``."""
    for r in results:
        if isinstance(r, np.ndarray):
            for buf in _arena_buffers(plan):
                assert not np.shares_memory(r, buf)


def _assert_buffers_change_hands_safely(plan):
    """Re-derive the arena's level rule from an unfused plan: when a
    buffer passes from value A (step ``a``) to value B (step ``b``),
    every reader of A runs strictly before ``b`` in both step order and
    level — or is ``b`` itself, an elementwise ufunc reading A while it
    writes B (never a ``MatMul``)."""
    level = {i: lv for lv, idxs in enumerate(plan.levels) for i in idxs}
    readers = {}
    for i, s in enumerate(plan.steps):
        for j, _k in s[2]:
            readers.setdefault(j, set()).add(i)
    occupants = {}
    for i, (out, temps) in enumerate(plan.step_buffers):
        assert temps == ()
        if out is not None:
            occupants.setdefault(out, []).append(i)
    for steps in occupants.values():
        for a, b in zip(steps, steps[1:]):
            assert a < b and level[a] < level[b]
            for r in readers.get(plan.steps[a][0], ()):
                if r == b:
                    assert plan.steps[b][4] != "MatMul"
                else:
                    assert r < b and level[r] < level[b]


def _producer_buffer(plan, tensor):
    """The arena buffer holding ``tensor``'s value, or ``None``."""
    for (slot, _k, _locs, _single, name), (out, _temps) in zip(
            plan.steps, plan.step_buffers):
        if name == tensor.op.name:
            return out
    raise AssertionError(f"{tensor.op.name!r} has no step of its own")


@pytest.fixture(scope="module")
def scheduler():
    with BlockScheduler(num_workers=4) as sched:
        yield sched


# ---------------------------------------------------------------------------
# Property suite: arena plans == per-op eager reference, bitwise
# ---------------------------------------------------------------------------

_UNARY = [
    (ops.negative, np.negative),
    (ops.abs, np.absolute),
    (ops.exp, np.exp),
    (ops.tanh, np.tanh),
    (ops.sqrt, np.sqrt),
    (ops.square, np.square),
    (ops.identity, lambda a: a),
    (ops.transpose, np.transpose),
]
_BINARY = [
    (ops.add, np.add),
    (ops.subtract, np.subtract),
    (ops.multiply, np.multiply),
    (ops.maximum, np.maximum),
    (ops.minimum, np.minimum),
    (ops.greater, np.greater),
    (ops.matmul, np.matmul),
]
_SHAPES = [(4, 4), (4,), (4, 1), ()]
_DTYPES = [np.float32, np.float64, np.int32]


def _feed_value(rng, shape, dtype):
    if np.issubdtype(dtype, np.integer):
        return rng.integers(-3, 4, size=shape).astype(dtype)
    return rng.standard_normal(shape).astype(dtype)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_arena_plans_match_eager_reference(scheduler, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    g = fw.Graph()
    feeds, feed_vals = [], []
    with g.as_default():
        nodes, values = [], []
        for _ in range(data.draw(st.integers(1, 3))):
            shape = data.draw(st.sampled_from(_SHAPES))
            dtype = data.draw(st.sampled_from(_DTYPES))
            ph = ops.placeholder(fw.as_dtype(dtype), list(shape))
            v = _feed_value(rng, shape, dtype)
            feeds.append(ph)
            feed_vals.append(v)
            nodes.append(ph)
            values.append(v)
        for _ in range(data.draw(st.integers(0, 1))):
            c = np.float32(data.draw(st.sampled_from([0.5, 2.0, -1.5])))
            nodes.append(ops.constant(c))
            values.append(c)
        for _ in range(data.draw(st.integers(2, 14))):
            if data.draw(st.booleans()):
                op, npf = data.draw(st.sampled_from(_UNARY))
                picks = [data.draw(st.integers(0, len(nodes) - 1))]
            else:
                op, npf = data.draw(st.sampled_from(_BINARY))
                picks = [data.draw(st.integers(0, len(nodes) - 1)),
                         data.draw(st.integers(0, len(nodes) - 1))]
            vals = [values[i] for i in picks]
            if op is ops.matmul and any(np.ndim(v) != 2 for v in vals):
                continue
            try:
                with np.errstate(all="ignore"):
                    expect = npf(*vals)
            except Exception:
                continue  # e.g. boolean subtract, mismatched matmul
            nodes.append(op(*[nodes[i] for i in picks]))
            values.append(expect)
        fetch_idx = data.draw(st.lists(
            st.integers(0, len(nodes) - 1), min_size=1, max_size=3))

    fetches = [nodes[i] for i in fetch_idx]
    want = [values[i] for i in fetch_idx]
    other = [_feed_value(rng, np.shape(v), v.dtype) for v in feed_vals]
    for fuse in (True, False):
        plan = compile_plan(g, fetches, feeds, fuse=fuse)
        if not fuse:
            _assert_buffers_change_hands_safely(plan)
        for sched in (None, scheduler):
            bound = BoundPlan(plan, feeds, sched)
            with np.errstate(all="ignore"):
                got = bound.execute_flat([np.copy(v) for v in feed_vals])
                kept = [np.copy(r) for r in got]
                bound.execute_flat(other)  # call N+1 reuses the arena
            _assert_bitwise_equal(got, want)
            _assert_bitwise_equal(got, kept)
            _assert_caller_owned(plan, got)


def test_results_survive_the_next_call():
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [32, 32])
        h = x
        for _ in range(3):
            h = ops.tanh(ops.add(ops.multiply(h, h), ops.exp(ops.negative(h))))
    bound = BoundPlan(compile_plan(g, [h], [x]), [x])
    assert bound.plan.arena  # the stage outputs and temporaries
    first_in = np.full((32, 32), 0.5, np.float32)
    first = bound.execute_flat([first_in])[0]
    snapshot = first.copy()
    second = bound.execute_flat([np.full((32, 32), -2.0, np.float32)])[0]
    np.testing.assert_array_equal(first, snapshot)
    assert not np.array_equal(first, second)
    _assert_caller_owned(bound.plan, [first, second])


def test_eight_threads_share_one_bound_plan():
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float64, [64, 64])
        w = ops.placeholder(fw.float64, [64, 64])
        h = ops.tanh(ops.matmul(ops.exp(ops.negative(x)), w))
        y = ops.add(ops.multiply(h, h), x)
    bound = BoundPlan(compile_plan(g, [y], [x, w]), [x, w])
    assert bound.plan.arena

    def ref(xv, wv):
        h = np.tanh(np.exp(-xv) @ wv)
        return h * h + xv

    errors = []
    barrier = threading.Barrier(8)

    def worker(seed):
        rng = np.random.default_rng(seed)
        barrier.wait()
        for _ in range(40):
            xv = rng.standard_normal((64, 64))
            wv = rng.standard_normal((64, 64))
            got = bound.execute_flat([xv, wv])[0]
            if got.tobytes() != ref(xv, wv).tobytes():
                errors.append(seed)
                return

    threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # force interleaving inside the step loop
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert 1 <= bound.plan.arenas_held <= 8
    assert len(bound.plan._idle_arenas) == bound.plan.arenas_held


# ---------------------------------------------------------------------------
# Values that could outlive their planned lifetime never get a buffer
# ---------------------------------------------------------------------------


def test_value_reaching_an_assign_is_never_arena_backed():
    v = fw.Variable(np.zeros((4, 4), np.float32), name="arena_assign_v")
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [4, 4])
        t = ops.tanh(ops.exp(x))
        assigned = v.assign(t)
        y = ops.multiply(t, 2.0)
    sess = fw.Session(g, fuse=False)
    sess.run(v.initializer(g))
    first = np.full((4, 4), 0.25, np.float32)
    sess.run([y, assigned], {x: first})
    plan = next(p for p in sess._plan_cache.values() if len(p.steps) > 2)
    assert _producer_buffer(plan, t) is None
    stored = v.numpy().copy()
    np.testing.assert_array_equal(stored, np.tanh(np.exp(first)))
    # Another call must not rewrite the stored value through a buffer.
    sess.run(y, {x: np.full((4, 4), -3.0, np.float32)})
    np.testing.assert_array_equal(v.numpy(), stored)


@pytest.mark.parametrize("alias_op", [
    ops.identity,
    lambda t: ops.reshape(t, [16]),
    ops.transpose,
])
def test_fetched_alias_of_an_intermediate_is_never_arena_backed(alias_op):
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [4, 4])
        t = ops.exp(ops.tanh(x))
        y = alias_op(t)
    plan = compile_plan(g, [y], [x], fuse=False)
    assert _producer_buffer(plan, t) is None
    bound = BoundPlan(plan, [x])
    a = bound.execute_flat([np.full((4, 4), 0.5, np.float32)])[0]
    keep = a.copy()
    bound.execute_flat([np.full((4, 4), -1.0, np.float32)])
    np.testing.assert_array_equal(a, keep)
    _assert_caller_owned(plan, [a])


def test_while_and_cond_inputs_are_never_arena_backed():
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [4])
        start = ops.tanh(ops.exp(x))
        looped = ops.while_loop(
            lambda v: ops.reduce_sum(v) < 100.0,
            lambda v: ops.multiply(v, 2.0), [start])
        looped = looped[0] if isinstance(looped, (list, tuple)) else looped
        branch_in = ops.exp(ops.negative(x))
        picked = ops.cond(ops.reduce_sum(x) > 0.0,
                          lambda: ops.add(branch_in, 1.0),
                          lambda: ops.subtract(branch_in, 1.0))
        y = ops.add(looped, picked)
    plan = compile_plan(g, [y], [x], fuse=False)
    assert _producer_buffer(plan, start) is None
    assert _producer_buffer(plan, branch_in) is None
    xv = np.linspace(-1, 1, 4, dtype=np.float32)
    got = BoundPlan(plan, [x]).execute_flat([xv])[0]
    v = np.tanh(np.exp(xv))
    while v.sum() < 100.0:
        v = v * np.float32(2.0)
    b = np.exp(-xv)
    want = v + (b + np.float32(1.0) if xv.sum() > 0 else b - np.float32(1.0))
    np.testing.assert_allclose(got, want, rtol=1e-6)


def test_dynamic_shape_plan_allocates_plainly():
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [None, 8])
        y = ops.tanh(ops.add(ops.multiply(x, x), ops.exp(ops.negative(x))))
        z = ops.multiply(y, y)
    for fuse in (True, False):
        plan = compile_plan(g, [z], [x], fuse=fuse)
        assert plan.arena == ()
        assert all(b == (None, ()) for b in plan.step_buffers)
        bound = BoundPlan(plan, [x])
        for rows in (1, 5):
            xv = np.ones((rows, 8), np.float32)
            t = np.tanh(xv * xv + np.exp(-xv))
            np.testing.assert_array_equal(
                bound.execute_flat([xv])[0], t * t)
        assert bound.describe()["arena_bytes"] == 0
        assert bound.describe()["arena_pool"] == 0


def test_untrusted_producer_output_allocates_plainly():
    """A kernel without a dtype/shape proof (``Sigmoid``) breaks the
    trust chain: its consumers allocate."""
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [8])
        s = ops.sigmoid(x)
        y = ops.exp(ops.tanh(s))
    plan = compile_plan(g, [y], [x], fuse=False)
    assert _producer_buffer(plan, s) is None
    assert all(b == (None, ()) for b in plan.step_buffers)


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------


def _chain_graph(n=16):
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [n, n])
        mid = ops.tanh(ops.add(ops.multiply(x, x), ops.exp(ops.negative(x))))
        y = ops.exp(ops.matmul(mid, mid))
    return g, x, y


def test_describe_names_every_buffer():
    g, x, y = _chain_graph()
    plan = compile_plan(g, [y], [x])
    dump = plan.describe()
    assert f"arena {len(plan.arena)} buffers / {plan.arena_bytes} B" in dump
    lines = dump.splitlines()[1:]
    fused = next(ln for ln in lines if "fused[" in ln)
    assert "-> arena#" in fused and "(1024 B)" in fused
    assert "temps=[arena#" in fused
    assert "MatMul" in lines[1] and "-> arena#" in lines[1]
    assert lines[2].endswith("-> fetched")
    unplanned = compile_plan(g, [y, x], [x], fuse=False)
    assert "-> fetched" in unplanned.describe()


def test_bound_describe_reports_arena_bytes_and_pool():
    g, x, y = _chain_graph()
    bound = BoundPlan(compile_plan(g, [y], [x]), [x])
    info = bound.describe()
    assert info["arena_bytes"] == bound.plan.arena_bytes > 0
    assert info["arena_pool"] == 0  # created lazily, on first execute
    bound.execute_flat([np.ones((16, 16), np.float32)])
    bound.execute_flat([np.ones((16, 16), np.float32)])
    assert bound.describe()["arena_pool"] == 1


def test_arenas_created_counter_counts_new_arenas():
    g, x, y = _chain_graph()
    plan = compile_plan(g, [y], [x])
    before = RECORDER.counters().get("runtime.arenas_created", 0)
    bound = BoundPlan(plan, [x])
    for _ in range(3):
        bound.execute_flat([np.ones((16, 16), np.float32)])
    assert RECORDER.counters()["runtime.arenas_created"] == before + 1
