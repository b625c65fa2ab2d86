"""``ExecutionPlan``: the compiled form of one ``(graph, fetches, feeds)``.

This is the execution engine's IR — lifted out of ``Session`` so that the
session, traced ``ConcreteFunction``s, loaded serving artifacts and the
micro-batcher all compile against one planner instead of re-deriving
fetch/feed plumbing per layer.

A plan is a pruned, topologically-ordered list of *steps* (kernel +
pre-resolved value-slot locators), a slot table for feeds, and locators
for the fetches.  Compilation also performs the plan-level optimizations
that make the per-call path as close to "a loop over kernels" as Python
allows (the Table-2 dispatch-overhead story):

- **constant pre-evaluation** — stateless ops whose inputs are all
  compile-time constants execute *once* at compile time; their values are
  baked into the plan's base slot values and their steps disappear;
- **dead-step elision** — only ops the fetches (or their control deps)
  reach are compiled at all;
- **a static memory arena** — one liveness pass over the steps (and
  over the members of fused groups) colours every intermediate whose
  dtype and shape are *proven* at compile time into a per-plan arena
  buffer, and the step writes it with ``out=``; see
  :func:`_plan_arena` for which values qualify.  Fetched results,
  dynamic shapes and unproven values keep plain allocation, so a fetch
  is always a fresh array the caller owns;
- **elementwise fusion** (``fuse=True``) — maximal chains/trees of
  fusable ufunc steps whose intermediates are single-consumer and not
  fetched collapse into one ``exec``-compiled composite kernel
  (:mod:`repro.runtime.fusion`), so a k-op chain costs one step
  dispatch instead of k.  Constant pre-evaluation runs *first*, so a
  chain split by a foldable ``Const`` subtree still fuses end to end.

Compilation also derives the plan's **levels**: a wavefront partition of
the steps by data/control dependency depth (stateful steps additionally
chained in program order).  Steps within one level are mutually
independent, which is what lets :meth:`ExecutionPlan.execute` fan a
level out on a :class:`repro.blocks.scheduler.BlockScheduler` — the
per-block steps of a blocked plan all land in wide levels.

Plans are executed either through :meth:`ExecutionPlan.execute` on a
bound values list (the ``Session.run`` compatibility path) or through
:class:`repro.runtime.engine.BoundPlan`'s positional fast path.
"""

from __future__ import annotations

import functools

import numpy as np

from ..framework.dtypes import numpy_result_dtype
from ..framework.errors import ExecutionError, FetchError
from ..framework.graph.graph import Operation, Tensor
from ..framework.graph.optimize import has_opaque_attrs
from ..observe.events import RECORDER as _REC
from .fusion import _FusedOp, fuse_elementwise_steps, program_kernel, step_program

__all__ = ["ExecutionPlan", "compile_plan"]


class ExecutionPlan:
    """A pruned, topologically-ordered, slot-resolved execution plan.

    Attributes:
      steps: ``(slot, kernel, locators, single, op_name)`` tuples.  A
        step writing into the arena reads its buffers through locators
        ``(arena_slot, buffer_index)`` after its inputs.
      fetch_locators: ``(slot, output_index)`` per flat fetch (``(-1, 0)``
        for ``None`` fetches).
      feed_slots: ``(tensor, slot)`` per feed tensor, in feed order.
      n_slots: total number of value slots (op slots + feed slots, plus
        the arena slot when the plan has an arena).
      base_values: length-``n_slots`` template with pre-evaluated constant
        slots filled; every execution starts from a shallow copy.
      levels: wavefront partition of step indices — steps in one level
        are mutually independent (data, control and stateful-order
        dependencies all land in earlier levels).
      arena: ``(shape, dtype)`` per arena buffer (empty: no arena).
      arena_slot: the value slot an execution binds its arena tuple to.
      step_buffers: per step, ``(output buffer index or None, temporary
        buffer indices)`` — where :meth:`describe` says each step's
        memory comes from.
      fused_groups: ``(span_name, member_op_names, member_op_types,
        slot)`` per fused composite step (empty when compiled with
        ``fuse=False`` or nothing fused).
      refs: strong references to the fetch/feed objects this plan was
        compiled for.  Cache keys contain ``id()``s; holding the objects
        guarantees CPython cannot recycle those ids into *different*
        tensors while a cache entry is alive.
    """

    __slots__ = ("steps", "fetch_locators", "feed_slots", "n_slots",
                 "base_values", "graph", "graph_version", "levels",
                 "arena", "arena_slot", "step_buffers", "fused_groups",
                 "refs", "_arenas", "_idle_arenas")

    def __init__(self, steps, fetch_locators, feed_slots, n_slots,
                 base_values, graph, graph_version, levels=(), arena=(),
                 arena_slot=-1, step_buffers=(), fused_groups=(), refs=()):
        self.steps = steps
        self.fetch_locators = fetch_locators
        self.feed_slots = feed_slots
        self.n_slots = n_slots
        self.base_values = base_values
        self.graph = graph
        self.graph_version = graph_version
        self.levels = levels
        self.arena = arena
        self.arena_slot = arena_slot
        self.step_buffers = step_buffers
        self.fused_groups = fused_groups
        self.refs = refs
        # The arena pool: one arena per concurrent caller, created on
        # demand and kept (list pop/append are atomic under the GIL).
        self._arenas = []
        self._idle_arenas = []

    @property
    def arenas_held(self):
        """Arenas created so far: the most callers ever run at once."""
        return len(self._arenas)

    @property
    def arena_bytes(self):
        """Bytes of one arena; the plan holds one per concurrent caller."""
        return sum(int(np.prod(shape)) * dtype.itemsize
                   for shape, dtype in self.arena)

    # -- execution ---------------------------------------------------------

    def new_values(self):
        """A fresh per-call slot array (constants already in place)."""
        return list(self.base_values)

    def execute(self, values, scheduler=None):
        """Run every step against ``values`` (feeds already bound).

        With a parallel ``scheduler`` the steps run level by level,
        each level's independent steps fanned out on the scheduler's
        worker pool (slot stores into distinct indices of ``values``
        are safe under the GIL; the kernels release it).  The call
        borrows one arena from the plan's pool for its duration.
        """
        if not self.arena:
            return self._execute(values, scheduler)
        idle = self._idle_arenas
        try:
            arena = idle.pop()
        except IndexError:
            arena = self._new_arena()
        values[self.arena_slot] = arena
        try:
            return self._execute(values, scheduler)
        finally:
            values[self.arena_slot] = None
            idle.append(arena)

    def _new_arena(self):
        arena = tuple(np.empty(shape, dtype) for shape, dtype in self.arena)
        self._arenas.append(arena)
        _REC.counter("runtime.arenas_created")
        return arena

    def _execute(self, values, scheduler):
        steps = self.steps
        if _REC.enabled:
            return self._execute_traced(values, scheduler)
        if scheduler is not None and scheduler.parallel and len(steps) > 1:
            run = self._run_step
            for level in self.levels:
                if len(level) == 1:
                    run(steps[level[0]], values)
                else:
                    scheduler.map(
                        lambda i, _s=steps, _v=values: run(_s[i], _v),
                        level)
            return values
        for slot, kernel, locators, single, op_name in steps:
            try:
                out = kernel(*[values[j][k] for j, k in locators])
            except ExecutionError:
                raise
            except Exception as e:
                raise ExecutionError(
                    f"Error executing op {op_name!r}: {e}", op_name=op_name
                ) from e
            values[slot] = (out,) if single else tuple(out)
        return values

    def _run_step(self, step, values):
        """One step of the level-parallel path (same semantics as the
        inlined serial loop body, which stays unrolled for call speed)."""
        slot, kernel, locators, single, op_name = step
        try:
            out = kernel(*[values[j][k] for j, k in locators])
        except ExecutionError:
            raise
        except Exception as e:
            raise ExecutionError(
                f"Error executing op {op_name!r}: {e}", op_name=op_name
            ) from e
        values[slot] = (out,) if single else tuple(out)

    def _execute_traced(self, values, scheduler):
        """The recording twin of :meth:`execute`: one ``"step"`` span
        per executed step (named after the op, so the profiler's
        top-kernels view aggregates directly) and — on the parallel
        path — one ``"level"`` span per wavefront.  Lives off to the
        side so the untraced loops stay branch-free inside."""
        rec = _REC
        steps = self.steps
        run = self._run_step_traced
        t_plan = rec.begin()
        try:
            if (scheduler is not None and scheduler.parallel
                    and len(steps) > 1):
                for ln, level in enumerate(self.levels):
                    t0 = rec.begin()
                    if len(level) == 1:
                        run(steps[level[0]], values)
                    else:
                        scheduler.map(
                            lambda i, _s=steps, _v=values: run(_s[i], _v),
                            level)
                    rec.end(f"level[{ln}]", "level", t0,
                            {"steps": len(level)})
            else:
                for step in steps:
                    run(step, values)
        finally:
            rec.end("plan.execute", "plan", t_plan,
                    {"steps": len(steps)})
        return values

    def _run_step_traced(self, step, values):
        rec = _REC
        t0 = rec.begin()
        try:
            self._run_step(step, values)
        finally:
            rec.end(step[4], "step", t0, {"slot": step[0]})

    def fetch(self, values):
        """The flat fetch results out of an executed ``values`` array."""
        return [
            values[j][k] if j >= 0 else None for j, k in self.fetch_locators
        ]

    def run_flat(self, values):
        """Execute and fetch in one call."""
        self.execute(values)
        return self.fetch(values)

    def describe(self):
        """A human-readable plan dump: steps, levels, fused groups and
        where each step's output buffer comes from (``arena#k (bytes)``,
        ``fresh`` or ``fetched``) — the debugging aid for "what did the
        planner actually compile?".  Stable enough to grep in tests,
        cheap enough to print from a REPL."""
        fused_by_slot = {g[3]: g for g in self.fused_groups}
        fetched = {j for j, _k in self.fetch_locators}
        lines = [
            f"ExecutionPlan: {len(self.steps)} steps in "
            f"{len(self.levels)} levels, {self.n_slots} slots, "
            f"{len(self.feed_slots)} feeds, "
            f"{len(self.fetch_locators)} fetches, "
            f"{len(self.fused_groups)} fused, "
            f"arena {len(self.arena)} buffers / {self.arena_bytes} B"
        ]
        level_of = {}
        for ln, level in enumerate(self.levels):
            for i in level:
                level_of[i] = ln

        def buf(b):
            shape, dtype = self.arena[b]
            return f"arena#{b} ({int(np.prod(shape)) * dtype.itemsize} B)"

        for i, (slot, _kernel, locators, _single, name) in (
                enumerate(self.steps)):
            ins = ", ".join(f"{j}:{k}" for j, k in locators
                            if j != self.arena_slot)
            out, temps = self.step_buffers[i]
            where = (buf(out) if out is not None
                     else "fetched" if slot in fetched else "fresh")
            line = (f"  [{i}] L{level_of.get(i, 0)} slot={slot} "
                    f"{name}({ins}) -> {where}")
            if temps:
                line += f" temps=[{', '.join(buf(b) for b in temps)}]"
            g = fused_by_slot.get(slot)
            if g is not None and name == g[0]:
                line += f" members=[{', '.join(g[1])}]"
            lines.append(line)
        return "\n".join(lines)

    def __repr__(self):
        return (f"<ExecutionPlan steps={len(self.steps)} "
                f"feeds={len(self.feed_slots)} "
                f"fetches={len(self.fetch_locators)} slots={self.n_slots}>")


def _resolve_fetch_tensors(graph, flat_fetches):
    """Map user-level fetches (tensors/ops/Variables/None) to tensors."""
    fetch_tensors = []
    for f in flat_fetches:
        if isinstance(f, Tensor):
            if f.graph is not graph:
                raise FetchError(f"Fetch {f.name!r} is not in this session's graph")
            fetch_tensors.append(f)
        elif isinstance(f, Operation):
            if f.graph is not graph:
                raise FetchError(f"Fetch {f.name!r} is not in this session's graph")
            fetch_tensors.append(f.outputs[0] if f.outputs else None)
        elif f is None:
            fetch_tensors.append(None)
        else:
            # Variables fetch their read value.
            from ..framework.graph.variables import Variable

            if isinstance(f, Variable):
                fetch_tensors.append(f.value())
            else:
                raise FetchError(
                    f"Cannot fetch object of type {type(f).__name__}: {f!r}"
                )
    return fetch_tensors


def compile_plan(graph, flat_fetches, feed_tensors, *, fuse=True):
    """Compile an :class:`ExecutionPlan` for ``graph``.

    Args:
      graph: the graph to execute.
      flat_fetches: flat list of fetches — ``Tensor``/``Operation``/
        ``Variable``/``None``.
      feed_tensors: the placeholder (or intermediate) tensors whose
        values the caller will supply per call, in slot-binding order.
      fuse: collapse chains/trees of fusable elementwise steps into
        ``exec``-compiled composite kernels (:mod:`repro.runtime.fusion`).
        ``False`` compiles the plain one-step-per-op plan — the A/B
        lever for measuring what fusion buys.

    Raises:
      FetchError: on foreign-graph fetches/feeds, unfetchable objects, or
        a required placeholder missing from ``feed_tensors``.
    """
    feed_tensors = list(feed_tensors)
    fed_ids = {id(t) for t in feed_tensors}
    for t in feed_tensors:
        if not isinstance(t, Tensor) or t.graph is not graph:
            raise FetchError(f"Feed key {t!r} is not a tensor of this graph")

    fetch_tensors = _resolve_fetch_tensors(graph, flat_fetches)

    # Reverse reachability from fetches, stopping at fed tensors.
    needed = []
    seen = set()
    stack = [t.op for t in fetch_tensors if t is not None and id(t) not in fed_ids]
    while stack:
        op = stack.pop()
        if id(op) in seen:
            continue
        seen.add(id(op))
        needed.append(op)
        for t in op.inputs:
            if id(t) in fed_ids:
                continue
            if id(t.op) not in seen:
                stack.append(t.op)
        for c in op.control_inputs:
            if id(c) not in seen:
                stack.append(c)

    # Topological order by creation index (graphs append in topo order;
    # control inputs always reference earlier ops).
    order = {id(op): i for i, op in enumerate(graph.ops)}
    needed.sort(key=lambda op: order[id(op)])

    slot_of = {id(op): i for i, op in enumerate(needed)}
    n_slots = len(needed)
    feed_slots = []
    feed_slot_of = {}
    for t in feed_tensors:
        feed_slot_of[id(t)] = n_slots
        feed_slots.append((t, n_slots))
        n_slots += 1

    def locator(tensor):
        if id(tensor) in feed_slot_of:
            return (feed_slot_of[id(tensor)], 0)
        return (slot_of[id(tensor.op)], tensor.value_index)

    # -- step emission with constant pre-evaluation ------------------------
    base_values = [None] * n_slots
    # Slots whose base value is baked (shared across calls).
    const_slots = set()
    steps = []
    step_ops = []  # parallel to steps, for fusion and the arena pass

    for op in needed:
        if op.type == "Placeholder":
            if id(op.outputs[0]) not in feed_slot_of:
                raise FetchError(
                    f"Placeholder {op.name!r} is required by the fetches but "
                    "was not fed"
                )
            continue
        slot = slot_of[id(op)]
        locators = tuple(locator(t) for t in op.inputs)
        kernel = _bind_attrs(op.op_def.kernel, op)

        # Constant pre-evaluation: a stateless op whose inputs are all
        # already-baked constants runs once, now, and sheds its step.
        # Ops carrying subgraph attrs (Cond/While) or control inputs are
        # conservatively left live.
        if (not op.op_def.stateful
                and not op.control_inputs
                and not has_opaque_attrs(op)
                and all(j < len(needed) and j in const_slots
                        for j, _ in locators)):
            if op.type == "Const":
                base_values[slot] = (_bake(op.attrs["value"]),)
                const_slots.add(slot)
                continue
            if op.op_def.num_outputs == 1:
                try:
                    out = kernel(*[base_values[j][k] for j, k in locators])
                except Exception:
                    out = _DEFER  # kernel failed: surface the error at run time
                if out is not _DEFER and isinstance(
                        out, (np.ndarray, np.generic, int, float, bool)):
                    base_values[slot] = (_bake(out),)
                    const_slots.add(slot)
                    continue

        steps.append((slot, kernel, locators, op.op_def.num_outputs == 1,
                      op.name))
        step_ops.append(op)

    fetch_locators = []
    for t in fetch_tensors:
        if t is None:
            fetch_locators.append((-1, 0))
        else:
            fetch_locators.append(locator(t))

    # Elementwise fusion runs after constant pre-evaluation (so folded
    # Const subtrees never split a fusable chain) and needs the fetch
    # locators (fetched intermediates block fusion edges), but before
    # levels and the arena, which must see the *fused* steps.
    fused_groups = ()
    if fuse:
        steps, step_ops, fused_groups = fuse_elementwise_steps(
            steps, step_ops, fetch_locators, const_slots, base_values)

    step_levels, levels = _compute_levels(steps, step_ops)
    steps, arena, step_buffers = _plan_arena(
        steps, step_ops, fetch_locators, feed_slots, const_slots,
        base_values, step_levels, n_slots)
    if arena:
        base_values.append(None)  # the arena slot, bound per call

    return ExecutionPlan(
        tuple(steps),
        tuple(fetch_locators),
        tuple(feed_slots),
        len(base_values),
        base_values,
        graph,
        graph.version,
        levels=levels,
        arena=arena,
        arena_slot=n_slots if arena else -1,
        step_buffers=step_buffers,
        fused_groups=fused_groups,
    )


def _compute_levels(steps, step_ops):
    """Dependency-depth wavefronts over the emitted steps.

    A step's level is one past the deepest level among (a) the steps
    producing its input slots, (b) the steps its op holds control
    dependencies on, and (c) — for stateful ops — the previous stateful
    step, so side effects keep their program order even when levels run
    in parallel.  Returns ``(per-step levels, tuple of index tuples)``.
    """
    producer = {s[0]: i for i, s in enumerate(steps)}
    # Fused composite steps answer for every member op they absorbed,
    # so control dependencies held on a fused-away op still resolve.
    index_of_op = {}
    for i, op in enumerate(step_ops):
        for mid in getattr(op, "member_ids", None) or (id(op),):
            index_of_op[mid] = i
    level = [0] * len(steps)
    last_stateful = None
    for i, (s, op) in enumerate(zip(steps, step_ops)):
        lv = 0
        for j, _k in s[2]:
            p = producer.get(j)
            if p is not None and level[p] >= lv:
                lv = level[p] + 1
        for c in op.control_inputs:
            p = index_of_op.get(id(c))
            if p is not None and level[p] >= lv:
                lv = level[p] + 1
        if op.op_def.stateful:
            if last_stateful is not None and level[last_stateful] >= lv:
                lv = level[last_stateful] + 1
            last_stateful = i
        level[i] = lv
    buckets = [[] for _ in range((max(level) + 1) if level else 0)]
    for i, lv in enumerate(level):
        buckets[lv].append(i)
    return level, tuple(tuple(b) for b in buckets)


_DEFER = object()


def _bake(value):
    """A private, read-only copy of a pre-evaluated constant.

    Baked values are *shared by every execution* of the plan (and handed
    to callers when fetched), so they must be immune to in-place
    mutation: a caller doing ``out += 1`` on a fetched result must get a
    loud ``read-only`` error, never silently corrupt later calls.  The
    copy also decouples the plan from the graph's own ``Const`` attr
    arrays.
    """
    arr = np.asarray(value).copy()
    arr.setflags(write=False)
    return arr


def _bind_attrs(kernel, op):
    """``kernel`` with ``op``'s runtime (non-``_``) attrs pre-bound."""
    attrs = {k: v for k, v in op.attrs.items() if not k.startswith("_")}
    return functools.partial(kernel, **attrs) if attrs else kernel


def _ufunc_spec(ufunc, ins):
    """The proven ``(dtype, shape)`` of ``ufunc`` over operands with
    proven specs ``ins`` — ``None`` if any operand is unproven."""
    if any(s is None for s in ins):
        return None
    dtype = numpy_result_dtype([d for d, _ in ins], ufunc)
    try:
        shape = np.broadcast_shapes(*(sh for _, sh in ins))
    except ValueError:
        return None
    return None if dtype is None else (dtype, shape)


def _spec_of(tensor):
    """A tensor's static ``(dtype, shape)``, or ``None`` if partial."""
    if tensor.dtype.np_dtype is None or not tensor.shape.is_fully_defined:
        return None
    return tensor.dtype.np_dtype, tensor.shape.as_tuple()


def _inplace_spec(op, ins):
    """The proven ``(dtype, shape)`` of a non-ufunc ``out=`` kernel
    (``MatMul``): its static output spec, when every operand's proven
    spec is exactly its static one — static inference is then evaluated
    on proven inputs, and follows NumPy's promotion exactly
    (:func:`repro.framework.dtypes.result_dtype`)."""
    if any(s is None or s != _spec_of(t) for s, t in zip(ins, op.inputs)):
        return None
    return _spec_of(op.outputs[0])


def _buffer_free(touches, i, m, level, alias_ok, step_levels):
    """Whether a buffer whose occupant was touched at ``touches``
    (``{step: last member position}``) may take a value defined by
    member ``m`` of step ``i``: every touch lies strictly earlier in both
    step order and level — so serial and level-parallel execution alike
    are done with it — or earlier inside step ``i`` itself, or at ``m``
    when that member is an alias-tolerant ufunc reading it."""
    for j, sub in touches.items():
        if j == i:
            if sub > m or (sub == m and not alias_ok):
                return False
        elif j > i or step_levels[j] >= level:
            return False
    return True


def _plan_arena(steps, step_ops, fetch_locators, feed_slots, const_slots,
                base_values, step_levels, arena_slot):
    """Give eligible intermediates a static arena buffer.

    **Proof.**  A value's dtype and shape are *proven* when it is a
    feed with a declared dtype and fully-defined shape (every execution
    front coerces and checks those), a baked constant, or the result of
    a ufunc member or ``out=`` kernel over proven operands.  Nothing
    else is trusted: static inference of other kernels may diverge from
    what they return.

    **Eligibility.**  A step output gets a buffer when its kernel has an
    ``out=`` variant (a ufunc program — fused or single — or
    ``OpDef.inplace_kernel``), its spec is proven, numeric and not 0-d,
    it is not fetched, and every consumer is stateless and
    ``fresh_output`` — so no alias of the buffer can outlive its
    planned lifetime.  A fused kernel's internal temporaries need only
    a proven, non-0-d spec.

    **Colouring.**  One pass in definition order (step, then member
    position) assigns each eligible value the first same-dtype/shape
    buffer whose last occupant :func:`_buffer_free` releases, else a
    new buffer.

    Returns ``(steps, arena layout, step_buffers)`` with every kernel
    final: arena writers read their buffers through ``(arena_slot, k)``
    locators, and fused kernels are generated here.
    """
    spec = {(slot, 0): _spec_of(t) for t, slot in feed_slots}
    for j in const_slots:
        c = base_values[j][0]
        spec[(j, 0)] = (c.dtype, c.shape)

    programs, member_specs = [], []
    touches = {}  # value key -> {step: last member position}
    for i, (s, op) in enumerate(zip(steps, step_ops)):
        locs = s[2]
        prog = step_program(op, len(locs))
        if prog is None:
            for loc in locs:
                touches.setdefault(loc, {})[i] = 0
            ms = None
            if op.op_def.inplace_kernel is not None and s[3]:
                ms = [_inplace_spec(op, [spec.get(loc) for loc in locs])]
        else:
            consts = getattr(op, "consts", ())
            ms = []
            for m, (ufunc, args) in enumerate(prog):
                ins = []
                for kind, j in args:
                    if kind == "c":
                        ins.append((consts[j].dtype, consts[j].shape))
                        continue
                    key = locs[j] if kind == "p" else ("t", i, j)
                    touches.setdefault(key, {})[i] = m
                    ins.append(spec.get(key) if kind == "p" else ms[j])
                ms.append(_ufunc_spec(ufunc, ins))
        programs.append(prog)
        member_specs.append(ms)
        if ms and ms[-1] is not None:
            spec[(s[0], 0)] = ms[-1]

    fetched = set(fetch_locators)
    blocked = set()
    for s, op in zip(steps, step_ops):
        if op.op_def.stateful or not op.op_def.fresh_output:
            blocked.update(s[2])

    layout, occupant, classes, buf_of = [], [], {}, {}
    for i, s in enumerate(steps):
        for m, sp in enumerate(member_specs[i] or ()):
            root = m == len(member_specs[i]) - 1
            key = (s[0], 0) if root else ("t", i, m)
            if (sp is None or sp[1] == () or sp[0].kind not in "biufc"
                    or (root and (key in fetched or key in blocked))):
                continue
            used = dict(touches.get(key, {}))
            used.setdefault(i, m)
            alias_ok = programs[i] is not None
            level = step_levels[i]
            cls = classes.setdefault(sp, [])
            for b in cls:
                if _buffer_free(occupant[b], i, m, level, alias_ok,
                                step_levels):
                    break
            else:
                b = len(layout)
                layout.append((sp[1], sp[0]))
                occupant.append(None)
                cls.append(b)
            occupant[b] = used
            buf_of[key] = b

    out_steps, step_buffers = [], []
    for i, (s, op) in enumerate(zip(steps, step_ops)):
        slot, kernel, locs, single, name = s
        out = buf_of.get((slot, 0))
        temps = ()
        prog = programs[i]
        if isinstance(op, _FusedOp) or (prog is not None and out is not None):
            bufs = [buf_of.get(("t", i, m)) for m in range(len(prog) - 1)]
            temps = tuple(sorted({b for b in bufs if b is not None}))
            kernel, order = program_kernel(
                prog, getattr(op, "consts", ()), len(locs), bufs + [out])
            locs = locs + tuple((arena_slot, b) for b in order)
        elif out is not None:
            kernel = _bind_attrs(op.op_def.inplace_kernel, op)
            locs = locs + ((arena_slot, out),)
        out_steps.append((slot, kernel, locs, single, name))
        step_buffers.append((out, temps))
    return out_steps, tuple(layout), tuple(step_buffers)
