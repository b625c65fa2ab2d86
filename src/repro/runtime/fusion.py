"""Elementwise fusion: collapse chains/trees of ufunc steps into one
``exec``-compiled composite kernel.

The planner's wavefront levels fan *independent* chains across workers,
but every step inside a chain is still one Python dispatch.  This pass
deletes that per-step overhead: maximal groups of fusable steps —
elementwise ufunc kernels flagged via :attr:`OpDef.fusable
<repro.framework.registry.OpDef>` whose intermediates are
single-consumer and not fetched — become ONE step whose kernel is a
generated Python closure chaining the raw NumPy ufuncs (the
mapping-table idiom: op type → compiled primitive), so a k-op chain
costs one dispatch instead of k.

**Group discovery.**  An edge producer→consumer fuses when both steps
are candidates (fusable, single-output, attr- and control-free) and the
producer's output has exactly one consumer occurrence and is not
fetched.  Every member's out-degree inside the group is therefore ≤ 1,
so each connected component is a tree converging on exactly one root;
no member except the root is visible outside the group, and the fused
step simply takes the root's place in topological order (the root is
the group's last step, so every external input is already produced and
every external consumer still follows).  Level assignment then derives
the fused step's wavefront from its external inputs exactly as it
would have for the root.

**Programs, then kernels.**  Fusion itself only records each group's
*program*: its members in order, each a ufunc over external params,
inlined constants and earlier members' results.  The planner's memory
arena (:mod:`repro.runtime.plan`) then proves the members' dtypes and
shapes, colours the members' results into arena buffers alongside every
other planned value, and only then generates the kernel
(:func:`program_kernel`): a member whose result has a buffer calls its
ufunc with that buffer as ``out``; any other member allocates.  Scalar
and baked constants become closure defaults (zero per-call locator
reads).  Fused and unfused plans are bit-identical by construction:
same ufuncs, same operands, same evaluation order, and a buffer is only
ever handed to a ufunc whose result has exactly its dtype and shape.
"""

from __future__ import annotations

import functools

from ..framework.registry import OpDef
from ..observe.events import RECORDER as _REC

__all__ = ["fuse_elementwise_steps", "program_kernel", "step_program"]

#: Cap on op names spelled out in a fused step's span name; longer
#: groups truncate (``fused[add+mul+tanh+exp+neg+7more]``) so profiler
#: kernel names stay readable and stable.
_NAME_CAP = 6

#: Generated-code variable prefix per program operand kind: external
#: param, inlined constant, earlier member's result.
_VAR = {"p": "p", "c": "_c", "m": "t"}


class _FusedOp:
    """An op-shaped record for a fused composite step.

    Quacks like :class:`~repro.framework.graph.graph.Operation` exactly
    as far as the planner's later passes read one: ``op_def`` (stateless,
    ``fresh_output``), ``control_inputs``, and ``member_ids`` so level
    computation resolves control dependencies other ops may hold on any
    fused-away member.  ``program`` and ``consts`` are the group's
    members for the arena pass and :func:`program_kernel`.
    """

    __slots__ = ("op_def", "control_inputs", "name", "member_ids",
                 "program", "consts")

    def __init__(self, name, member_ids, program, consts):
        self.op_def = OpDef(name, None, fresh_output=True)
        self.control_inputs = ()
        self.name = name
        self.member_ids = member_ids
        self.program = program
        self.consts = consts


def _span_name(types):
    """The stable ``fused[add+mul+tanh]``-style step/span name."""
    parts = [t.lower() for t in types]
    if len(parts) > _NAME_CAP:
        parts = parts[:_NAME_CAP - 1] + [f"{len(parts) - _NAME_CAP + 1}more"]
    return f"fused[{'+'.join(parts)}]"


def _has_runtime_attrs(op):
    return any(not k.startswith("_") for k in op.attrs)


def step_program(op, n_inputs):
    """The ufunc program a step runs: a fused step's members, or — for a
    plain fusable step — one member over its inputs.  ``None`` for any
    other kernel."""
    if isinstance(op, _FusedOp):
        return op.program
    od = op.op_def
    if od.fusable is None or od.num_outputs != 1 or _has_runtime_attrs(op):
        return None
    return ((od.fusable, tuple(("p", k) for k in range(n_inputs))),)


def program_kernel(program, consts, n_params, bufs):
    """Generate the composite kernel for a fused ``program``.

    ``bufs`` gives, per member, the index of the arena buffer its result
    is written into, or ``None`` to allocate.  The kernel takes the
    external params, then the distinct buffers in ascending index order,
    positionally; returns ``(kernel, buffer_indices)``.
    """
    namespace = {"__builtins__": {}}
    kw_names = []
    for k, c in enumerate(consts):
        namespace[f"_c{k}"] = c
        kw_names.append(f"_c{k}")
    buf_order = sorted({b for b in bufs if b is not None})
    lines = []
    last = len(program) - 1
    for m, (ufunc, args) in enumerate(program):
        fname = f"_f{m}"
        namespace[fname] = ufunc
        kw_names.append(fname)
        names = [f"{_VAR[kind]}{j}" for kind, j in args]
        if bufs[m] is not None:
            names.append(f"out=a{bufs[m]}")
        call = f"{fname}({', '.join(names)})"
        lines.append(f"return {call}" if m == last else f"t{m} = {call}")
    params = [f"p{k}" for k in range(n_params)] + [f"a{b}" for b in buf_order]
    defaults = ", ".join(f"{n}={n}" for n in kw_names)
    src = (f"def _fused({', '.join(params + ['*', defaults])}):\n    "
           + "\n    ".join(lines) + "\n")
    exec(_compile(src), namespace)
    return namespace["_fused"], tuple(buf_order)


@functools.lru_cache(maxsize=256)
def _compile(src):
    # Sources name their ufuncs and constants only through closure
    # defaults, so equally-shaped programs (every stage of a chain,
    # every layer of an MLP) share one compiled code object.
    return compile(src, "<repro.fuse>", "exec")


def _candidates(steps, step_ops):
    """Indices of steps eligible to join a fused group.

    Steps that hold control dependencies — or are *targets* of another
    step's control dependency — stay standalone: fusing would move a
    member's execution to the group root's position, and the level
    pass assumes control edges always point backwards in step order.
    """
    control_targets = {
        id(c) for op in step_ops for c in op.control_inputs
    }
    out = set()
    for i, op in enumerate(step_ops):
        od = op.op_def
        if od.fusable is None or od.num_outputs != 1 or od.stateful:
            continue
        if op.control_inputs or id(op) in control_targets:
            continue
        if _has_runtime_attrs(op):
            continue
        out.add(i)
    return out


class _Union:
    __slots__ = ("parent",)

    def __init__(self):
        self.parent = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        while p != self.parent[p]:
            self.parent[p] = self.parent[self.parent[p]]
            p = self.parent[p]
        self.parent[x] = p
        return p

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _group_program(group, steps, step_ops, const_slots, base_values):
    """One group's ``(program, consts, external locators)``."""
    member_of = {steps[m][0]: n for n, m in enumerate(group)}
    params = []           # external locators, first-use order
    ref_of = {}           # locator -> ("p", k) | ("c", k)
    consts = []
    program = []
    for m in group:
        args = []
        for loc in steps[m][2]:
            if loc[1] == 0 and loc[0] in member_of:
                args.append(("m", member_of[loc[0]]))
                continue
            ref = ref_of.get(loc)
            if ref is None:
                if loc[1] == 0 and loc[0] in const_slots:
                    ref = ("c", len(consts))
                    consts.append(base_values[loc[0]][0])
                else:
                    ref = ("p", len(params))
                    params.append(loc)
                ref_of[loc] = ref
            args.append(ref)
        program.append((step_ops[m].op_def.fusable, tuple(args)))
    return tuple(program), tuple(consts), tuple(params)


def fuse_elementwise_steps(steps, step_ops, fetch_locators, const_slots,
                           base_values):
    """Rewrite fused groups of ``steps``; returns ``(steps, step_ops,
    fused_groups)``.

    A fused step's kernel is left ``None`` for the planner to generate
    once its arena buffers are known.  ``fused_groups`` is a tuple of
    ``(span_name, member_op_names, member_op_types, slot)`` records kept
    on the plan for observability (:meth:`ExecutionPlan.describe`).
    Emits ``runtime.fused_steps`` (composite steps created) and
    ``runtime.fusion_fallbacks`` (fusable steps left standalone)
    counters — both accumulate whether or not event recording is
    enabled, feeding ``/v1/metrics``.
    """
    cand = _candidates(steps, step_ops)
    if not cand:
        return steps, step_ops, ()

    consumers = {}
    for s in steps:
        for loc in s[2]:
            consumers[loc] = consumers.get(loc, 0) + 1
    fetched = set(fetch_locators)
    producer = {s[0]: i for i, s in enumerate(steps)}

    uf = _Union()
    for i in cand:
        for loc in steps[i][2]:
            if loc[1] != 0:
                continue
            p = producer.get(loc[0])
            if (p is None or p not in cand
                    or consumers.get(loc, 0) != 1 or loc in fetched):
                continue
            uf.union(p, i)

    groups = {}
    for i in cand:
        groups.setdefault(uf.find(i), []).append(i)
    fused = sorted(sorted(g) for g in groups.values() if len(g) >= 2)
    n_standalone = len(cand) - sum(len(g) for g in fused)
    if n_standalone:
        _REC.counter("runtime.fusion_fallbacks", n_standalone)
    if not fused:
        return steps, step_ops, ()
    _REC.counter("runtime.fused_steps", len(fused))

    replaced = {}   # root (= last member) index -> (fused step, shim)
    absorbed = set()
    fused_groups = []
    for group in fused:
        program, consts, ext_locs = _group_program(
            group, steps, step_ops, const_slots, base_values)
        types = tuple(step_ops[m].type for m in group)
        names = tuple(step_ops[m].name for m in group)
        span = _span_name(types)
        root_slot = steps[group[-1]][0]
        shim = _FusedOp(span, tuple(id(step_ops[m]) for m in group),
                        program, consts)
        # The fused step takes the ROOT's position: the root is the
        # group's topologically last member, so every external input is
        # produced earlier and every external consumer follows.
        replaced[group[-1]] = ((root_slot, None, ext_locs, True, span), shim)
        absorbed.update(group)
        fused_groups.append((span, names, types, root_slot))

    new_steps, new_ops = [], []
    for i, (s, op) in enumerate(zip(steps, step_ops)):
        if i in replaced:
            fs, shim = replaced[i]
            new_steps.append(fs)
            new_ops.append(shim)
        elif i not in absorbed:
            new_steps.append(s)
            new_ops.append(op)
    return new_steps, new_ops, tuple(fused_groups)
