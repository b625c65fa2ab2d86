"""The eager block-op layer: per-block dispatch through the kernel registry.

Every function here decomposes one logical op on :class:`BlockArray`
inputs into independent per-block calls of the *registered* kernels
(:func:`repro.framework.registry.get_op_def`), optionally fanned out on a
:class:`~repro.blocks.scheduler.BlockScheduler`:

- elementwise ops map block-wise (dense operands are sliced per block,
  scalars broadcast whole);
- ``matmul`` runs the blocked inner product — one ``MatMul`` per
  ``(i, k) x (k, j)`` pair accumulated through the registry's in-place
  kernel into a fixed pairwise tree, so results do not depend on
  scheduling;
- reductions reduce per block, then tree-combine across the grid;
- ``concat`` / slicing / ``transpose`` re-grid metadata (no bulk copies).

The graph lowering (:mod:`repro.blocks.lowering`) mirrors these exact
decompositions symbolically, so a traced blocked function computes
bit-identical results to the eager path.
"""

from __future__ import annotations

import numpy as np

from ..framework import registry
from .array import BlockArray
from .grid import BlockGrid
from .scheduler import BlockScheduler

__all__ = [
    "map_unary", "map_binary", "matmul", "reduce_sum", "reduce_mean",
    "reduce_max", "reduce_min", "concat", "transpose",
    "exp", "log", "tanh", "sigmoid", "relu", "sqrt", "square", "sign",
    "floor", "negative", "abs",  # noqa: A001 - mirrors the op registry
    "add", "subtract", "multiply", "divide", "power", "maximum", "minimum",
    "mod", "floor_divide",
    "greater", "greater_equal", "less", "less_equal", "equal", "not_equal",
    "where",
]

#: Elementwise op names safe for block-wise mapping (shape-preserving,
#: value-local).  Shared with the graph lowering.
UNARY_ELEMENTWISE = frozenset({
    "Neg", "Abs", "Exp", "Log", "Tanh", "Sigmoid", "Relu", "Sqrt",
    "Square", "Sign", "Floor", "LogicalNot",
})
BINARY_ELEMENTWISE = frozenset({
    "Add", "Sub", "Mul", "Div", "Pow", "Maximum", "Minimum", "Mod",
    "FloorDiv", "Greater", "GreaterEqual", "Less", "LessEqual", "Equal",
    "NotEqual", "LogicalAnd", "LogicalOr",
})

_SERIAL = BlockScheduler(num_workers=1)


def _sched(scheduler):
    return scheduler if scheduler is not None else _SERIAL


def pair_tree(items, combine):
    """Fixed pairwise combine: ((a+b), (c+d)) + ... — the one tree shape
    every accumulation in the blocks subsystem uses, eager or lowered."""
    items = list(items)
    if not items:
        raise ValueError("cannot combine an empty sequence")
    while len(items) > 1:
        merged = []
        for i in range(0, len(items) - 1, 2):
            merged.append(combine(items[i], items[i + 1]))
        if len(items) % 2:
            merged.append(items[-1])
        items = merged
    return items[0]


# ---------------------------------------------------------------------------
# Elementwise
# ---------------------------------------------------------------------------


def map_unary(op_name, a, scheduler=None):
    """Apply a registered unary elementwise kernel block-wise."""
    if op_name not in UNARY_ELEMENTWISE:
        raise ValueError(f"{op_name!r} is not a blocked unary elementwise op")
    if not isinstance(a, BlockArray):
        raise TypeError(f"expected a BlockArray, got {type(a).__name__}")
    kernel = registry.get_op_def(op_name).kernel
    blocks = _sched(scheduler).map(kernel, a.block_list())
    return BlockArray.from_blocks(a.grid, blocks)


def _operand_views(grid, operand):
    """Per-entry views of a dense operand, aligned to a grid's blocks."""
    operand = np.asarray(operand)
    if operand.ndim == 0:
        return [operand] * grid.num_blocks
    views = []
    for entry in grid.entries():
        bounds = grid.operand_block_bounds(entry, operand.shape)
        views.append(operand[tuple(
            slice(None) if b is None else slice(b[0], b[1]) for b in bounds
        )])
    return views


def map_binary(op_name, x, y, scheduler=None):
    """Apply a registered binary elementwise kernel block-wise.

    At least one operand must be a :class:`BlockArray`; the other may be
    a same-grid ``BlockArray``, a scalar, or a dense array whose shape
    broadcasts against the blocked operand (it is sliced per block).
    """
    if op_name not in BINARY_ELEMENTWISE:
        raise ValueError(f"{op_name!r} is not a blocked binary elementwise op")
    kernel = registry.get_op_def(op_name).kernel
    sched = _sched(scheduler)
    if isinstance(x, BlockArray) and isinstance(y, BlockArray):
        if y.grid != x.grid:
            if y.shape != x.shape:
                raise ValueError(
                    f"blocked operands have different shapes {x.shape} "
                    f"and {y.shape}"
                )
            y = y.regrid(grid=x.grid)
        pairs = list(zip(x.block_list(), y.block_list()))
        blocks = sched.map(lambda p: kernel(p[0], p[1]), pairs)
        return BlockArray.from_blocks(x.grid, blocks)
    if isinstance(x, BlockArray):
        pairs = list(zip(x.block_list(), _operand_views(x.grid, y)))
        grid = x.grid
    else:
        pairs = list(zip(_operand_views(y.grid, x), y.block_list()))
        grid = y.grid
    blocks = sched.map(lambda p: kernel(p[0], p[1]), pairs)
    return BlockArray.from_blocks(grid, blocks)


def _unary_fn(op_name):
    def fn(a, scheduler=None):
        return map_unary(op_name, a, scheduler=scheduler)

    fn.__name__ = op_name.lower()
    fn.__doc__ = f"Blocked elementwise {op_name!r} (registry kernel per block)."
    return fn


def _binary_fn(op_name):
    def fn(x, y, scheduler=None):
        return map_binary(op_name, x, y, scheduler=scheduler)

    fn.__name__ = op_name.lower()
    fn.__doc__ = f"Blocked elementwise {op_name!r} (registry kernel per block)."
    return fn


exp = _unary_fn("Exp")
log = _unary_fn("Log")
tanh = _unary_fn("Tanh")
sigmoid = _unary_fn("Sigmoid")
relu = _unary_fn("Relu")
sqrt = _unary_fn("Sqrt")
square = _unary_fn("Square")
sign = _unary_fn("Sign")
floor = _unary_fn("Floor")
negative = _unary_fn("Neg")
abs = _unary_fn("Abs")  # noqa: A001 - mirrors the op registry name

add = _binary_fn("Add")
subtract = _binary_fn("Sub")
multiply = _binary_fn("Mul")
divide = _binary_fn("Div")
power = _binary_fn("Pow")
maximum = _binary_fn("Maximum")
minimum = _binary_fn("Minimum")
mod = _binary_fn("Mod")
floor_divide = _binary_fn("FloorDiv")

greater = _binary_fn("Greater")
greater_equal = _binary_fn("GreaterEqual")
less = _binary_fn("Less")
less_equal = _binary_fn("LessEqual")
equal = _binary_fn("Equal")
not_equal = _binary_fn("NotEqual")


def where(cond, x, y, scheduler=None):
    """Blocked ``Select``: ``where(cond, x, y)`` block-wise.

    At least one of the three operands must be a :class:`BlockArray`;
    its grid becomes the result grid (same-shape blocked operands are
    re-gridded to it, dense operands are sliced per block, scalars
    broadcast).  The registry's ``Select`` kernel keeps the legacy
    rank-1-condition semantics — a rank-1 ``cond`` over rank-2 operands
    selects whole *rows* — so a rank-1 condition is sliced along the
    grid's leading axis, not broadcast numpy-style against the trailing
    one.
    """
    ref = next((v for v in (x, y, cond) if isinstance(v, BlockArray)), None)
    if ref is None:
        raise TypeError("blocked where needs at least one BlockArray")
    grid = ref.grid

    def lift(v, label):
        if not isinstance(v, BlockArray):
            return _operand_views(grid, v)
        if v.grid == grid:
            return v.block_list()
        if v.shape != grid.shape:
            raise ValueError(
                f"blocked where operand {label} has shape {v.shape}, "
                f"expected {grid.shape}"
            )
        return v.regrid(grid=grid).block_list()

    def leading(c, rank):
        # Lower-rank condition over a higher-rank grid: slice its axes
        # against the grid's *leading* axes, one view per block (shared
        # across the trailing block dimensions).
        if isinstance(c, BlockArray):
            c = c.to_dense()
        c = np.asarray(c)
        return [
            c[tuple(slice(*grid.block_bounds(entry)[d])
                    for d in range(rank))]
            for entry in grid.entries()
        ]

    cond_rank = cond.ndim if isinstance(cond, BlockArray) else np.ndim(cond)
    if 0 < cond_rank < len(grid.shape):
        cond_shape = tuple(cond.shape if isinstance(cond, BlockArray)
                           else np.shape(cond))
        if cond_shape != grid.shape[:cond_rank]:
            raise ValueError(
                f"low-rank where condition has shape {cond_shape}, "
                f"expected leading dimensions "
                f"{grid.shape[:cond_rank]}"
            )
        conds = leading(cond, cond_rank)
    else:
        conds = lift(cond, "cond")

    kernel = registry.get_op_def("Select").kernel
    triples = list(zip(conds, lift(x, "x"), lift(y, "y")))
    blocks = _sched(scheduler).map(
        lambda t: kernel(t[0], t[1], t[2]), triples)
    return BlockArray.from_blocks(grid, blocks)


# ---------------------------------------------------------------------------
# Matmul: blocked inner product with tree-combined partial sums
# ---------------------------------------------------------------------------


def _as_matmul_operand(value, other, side):
    """Lift a dense matmul operand to a BlockArray compatible with the
    blocked side: k-splits shared, the free dimension unsplit."""
    arr = np.asarray(value)
    if arr.ndim != 2:
        raise ValueError(f"blocked matmul needs rank-2 operands, got {arr.ndim}")
    if side == "left":
        grid = BlockGrid(arr.shape, ((arr.shape[0],), other.grid.splits[0]))
    else:
        grid = BlockGrid(arr.shape, (other.grid.splits[1], (arr.shape[1],)))
    return BlockArray.from_dense(arr, grid=grid)


def matmul(a, b, scheduler=None):
    """Blocked matrix product.

    ``C[i, j] = sum_k A[i, k] @ B[k, j]`` — every per-block ``MatMul``
    goes through the registry kernel's in-place variant, accumulating
    into buffers this function owns, and the ``k`` partial sums combine
    in a fixed pairwise tree (deterministic under any scheduler).
    """
    if not isinstance(a, BlockArray) and not isinstance(b, BlockArray):
        raise TypeError("blocked matmul needs at least one BlockArray")
    if not isinstance(a, BlockArray):
        a = _as_matmul_operand(a, b, "left")
    if not isinstance(b, BlockArray):
        b = _as_matmul_operand(b, a, "right")
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(
            f"blocked matmul needs rank-2 operands, got {a.ndim} and {b.ndim}"
        )
    if a.shape[1] != b.shape[0]:
        raise ValueError(
            f"matmul shape mismatch: {a.shape} @ {b.shape}"
        )
    if a.grid.splits[1] != b.grid.splits[0]:
        # Align the contraction splits to the left operand's.
        b = b.regrid(grid=BlockGrid(
            b.shape, (a.grid.splits[1], b.grid.splits[1])))

    mm = registry.get_op_def("MatMul")
    rows = a.grid.splits[0]
    cols = b.grid.splits[1]
    gk = len(a.grid.splits[1])
    out_dtype = np.result_type(a.dtype, b.dtype)

    def one_tile(task):
        i, j = task
        parts = []
        for q in range(gk):
            buf = np.empty((rows[i], cols[j]), dtype=out_dtype)
            parts.append(mm.inplace_kernel(
                a.block((i, q)), b.block((q, j)), out=buf))
        # Buffers are owned by this call, so the tree accumulates into
        # its left operand in place.
        return pair_tree(parts, lambda x, y: np.add(x, y, out=x))

    tasks = [(i, j) for i in range(len(rows)) for j in range(len(cols))]
    blocks = _sched(scheduler).map(one_tile, tasks)
    grid = BlockGrid((a.shape[0], b.shape[1]), (rows, cols))
    return BlockArray.from_blocks(grid, blocks)


# ---------------------------------------------------------------------------
# Reductions: per-block reduce + tree-combine across the grid
# ---------------------------------------------------------------------------

_REDUCE_COMBINE = {
    "Sum": np.add,
    "Max": np.maximum,
    "Min": np.minimum,
}


def _reduce(op_name, a, axis, keepdims, scheduler):
    if not isinstance(a, BlockArray):
        raise TypeError(f"expected a BlockArray, got {type(a).__name__}")
    kernel = registry.get_op_def(op_name).kernel
    combine = _REDUCE_COMBINE[op_name]
    sched = _sched(scheduler)
    if axis is None:
        reduced = sched.map(
            lambda b: kernel(b, axis=None, keepdims=keepdims), a.block_list())
        return pair_tree(reduced, combine)
    axis = int(axis) % a.ndim
    reduced = sched.map(
        lambda b: kernel(b, axis=axis, keepdims=keepdims), a.block_list())
    grid = a.grid
    out_grid = grid.reduced(axis, keepdims=keepdims)
    gd = grid.grid_shape[axis]
    if gd == 1:
        return BlockArray.from_blocks(out_grid, reduced)

    def one_entry(out_entry):
        out_entry = list(out_entry)
        if keepdims:
            template = out_entry
        else:
            template = out_entry[:axis] + [0] + out_entry[axis:]
        parts = []
        for q in range(gd):
            src = list(template)
            src[axis] = q
            parts.append(reduced[grid.entry_index(tuple(src))])
        return pair_tree(parts, combine)

    blocks = sched.map(one_entry, list(out_grid.entries()))
    return BlockArray.from_blocks(out_grid, blocks)


def reduce_sum(a, axis=None, keepdims=False, scheduler=None):
    """Blocked ``Sum``: dense result for ``axis=None``, re-gridded
    :class:`BlockArray` for an integer axis."""
    return _reduce("Sum", a, axis, keepdims, scheduler)


def reduce_max(a, axis=None, keepdims=False, scheduler=None):
    return _reduce("Max", a, axis, keepdims, scheduler)


def reduce_min(a, axis=None, keepdims=False, scheduler=None):
    return _reduce("Min", a, axis, keepdims, scheduler)


def _mean_divide(total, count, in_dtype):
    # Match the dense Mean kernel's dtype rule: floats stay put,
    # integers go through true division (float64).
    if np.dtype(in_dtype).kind == "f":
        return np.true_divide(total, np.asarray(count, dtype=in_dtype))
    return np.true_divide(total, float(count))


def reduce_mean(a, axis=None, keepdims=False, scheduler=None):
    """Blocked ``Mean``: summed via the grid tree, divided once."""
    in_dtype = a.dtype
    total = reduce_sum(a, axis=axis, keepdims=keepdims, scheduler=scheduler)
    if axis is None:
        return _mean_divide(total, np.prod(a.shape, dtype=np.int64), in_dtype)
    count = a.shape[int(axis) % a.ndim]
    blocks = [
        _mean_divide(b, count, in_dtype) for b in total.block_list()
    ]
    return BlockArray.from_blocks(total.grid, blocks)


# ---------------------------------------------------------------------------
# Layout ops: metadata re-gridding
# ---------------------------------------------------------------------------


def concat(arrays, axis=0, scheduler=None):
    """Concatenate blocked arrays along ``axis`` — pure re-gridding: the
    result shares the input blocks, no bulk copies."""
    arrays = list(arrays)
    if not arrays or not all(isinstance(a, BlockArray) for a in arrays):
        raise TypeError("concat expects a non-empty list of BlockArrays")
    first = arrays[0]
    axis = int(axis) % first.ndim
    aligned = [first]
    for a in arrays[1:]:
        want = tuple(
            a.grid.splits[d] if d == axis else first.grid.splits[d]
            for d in range(first.ndim)
        )
        if a.grid.splits != want:
            a = a.regrid(grid=BlockGrid(a.shape, want))
        aligned.append(a)
    splits = list(first.grid.splits)
    splits[axis] = tuple(
        b for a in aligned for b in a.grid.splits[axis]
    )
    shape = list(first.shape)
    shape[axis] = sum(splits[axis])
    out_grid = BlockGrid(tuple(shape), tuple(splits))
    # Map each output entry back to (source array, source entry).
    starts = []
    acc = 0
    for a in aligned:
        starts.append(acc)
        acc += a.grid.grid_shape[axis]
    blocks = []
    for entry in out_grid.entries():
        g = entry[axis]
        src = 0
        while src + 1 < len(aligned) and starts[src + 1] <= g:
            src += 1
        src_entry = list(entry)
        src_entry[axis] = g - starts[src]
        blocks.append(aligned[src].block(tuple(src_entry)))
    return BlockArray.from_blocks(out_grid, blocks)


def transpose(a, perm=None, scheduler=None):
    """Blocked transpose: per-block ``Transpose`` kernel + permuted grid."""
    if not isinstance(a, BlockArray):
        raise TypeError(f"expected a BlockArray, got {type(a).__name__}")
    if perm is None:
        perm = tuple(range(a.ndim - 1, -1, -1))
    perm = tuple(int(p) % a.ndim for p in perm)
    kernel = registry.get_op_def("Transpose").kernel
    out_grid = a.grid.transposed(perm)
    entries = list(out_grid.entries())

    def one(entry):
        src = [0] * a.ndim
        for j, p in enumerate(perm):
            src[p] = entry[j]
        return kernel(a.block(tuple(src)), perm=perm)

    blocks = _sched(scheduler).map(one, entries)
    return BlockArray.from_blocks(out_grid, blocks)
