"""Operation registry.

Every primitive operation is described once by an :class:`OpDef` and is
shared by the two execution modes:

- the **eager** executor calls ``kernel`` immediately on NumPy values;
- the **graph** builder records an ``Operation`` node whose kernel is
  bound into the session's compiled execution plan.

Gradient functions are expressed in terms of the *public dispatching ops*
(``repro.framework.ops``), which makes the same gradient definitions
usable both for graph-mode ``gradients()`` and for the eager
``GradientTape`` (which replays them eagerly).
"""

from __future__ import annotations

__all__ = ["OpDef", "register_op", "register_gradient", "get_op_def", "list_ops"]

_REGISTRY = {}


class OpDef:
    """Static description of a primitive operation.

    Attributes:
      name: unique op type name, e.g. ``"MatMul"``.
      kernel: ``fn(*input_values, **attrs)`` returning a value (or a tuple
        when ``num_outputs > 1``).  Input values are NumPy arrays or opaque
        runtime objects (TensorArray state, etc.).
      num_outputs: number of output tensors.
      grad_fn: ``fn(op, *output_grads) -> [input_grads]`` written against
        the public ops API; None when not differentiable.
      shape_fn: optional ``fn(input_shapes, attrs) -> [TensorShape]``.
      dtype_fn: optional ``fn(input_dtypes, attrs) -> [DType]``.
      stateful: True for ops with side effects (variables, random, print);
        stateful ops are never deduplicated or constant-folded.
      inplace_kernel: optional ``fn(*input_values, out)`` variant writing
        the result into the caller's buffer ``out`` (passed positionally
        after the inputs, or as ``out=``) for a kernel that is not
        ``fusable`` (``MatMul``).  Such kernels need not tolerate ``out``
        aliasing an input, so the runtime arena only hands them buffers
        that are dead before the step runs.
      fresh_output: True when the kernel always *allocates* its result —
        the returned array never aliases an input, a variable's storage,
        or any other external buffer.  The runtime arena only places a
        value in a reused buffer when every consumer is stateless and
        ``fresh_output``: an alias-returning consumer (``Identity``,
        ``Reshape``, a ``While`` input) could carry the buffer past its
        planned lifetime, into a fetch or into live state.
      fusable: ``None``, or the plain elementwise NumPy ufunc this
        kernel wraps (``np.add``, ``np.tanh``, ...).  The fusion pass
        (:mod:`repro.runtime.fusion`) collapses chains/trees of fusable
        steps into one ``exec``-compiled composite kernel that calls
        these ufuncs directly — the mapping-table idiom: op type →
        compiled primitive — and the runtime arena uses
        ``ufunc(*inputs, out)`` as the step's ``out=`` variant.  Only set
        it for stateless, single-output, attr-free kernels whose
        behavior is *exactly* ``ufunc(*inputs)`` (including dtype
        promotion); ufuncs accept ``out`` aliasing an equal-shaped
        input, so alias tolerance follows from ``fusable``.
    """

    __slots__ = (
        "name",
        "kernel",
        "num_outputs",
        "grad_fn",
        "shape_fn",
        "dtype_fn",
        "stateful",
        "inplace_kernel",
        "fresh_output",
        "fusable",
    )

    def __init__(self, name, kernel, *, num_outputs=1, grad_fn=None, shape_fn=None,
                 dtype_fn=None, stateful=False, inplace_kernel=None,
                 fresh_output=False, fusable=None):
        self.name = name
        self.kernel = kernel
        self.num_outputs = num_outputs
        self.grad_fn = grad_fn
        self.shape_fn = shape_fn
        self.dtype_fn = dtype_fn
        self.stateful = stateful
        self.inplace_kernel = inplace_kernel
        self.fresh_output = fresh_output
        self.fusable = fusable

    def __repr__(self):
        return f"OpDef({self.name!r}, outputs={self.num_outputs}, stateful={self.stateful})"


def register_op(name, kernel, **kwargs):
    """Register an op; returns the created :class:`OpDef`.

    Raises:
      ValueError: if ``name`` is already registered.
    """
    if name in _REGISTRY:
        raise ValueError(f"Op {name!r} is already registered")
    op_def = OpDef(name, kernel, **kwargs)
    _REGISTRY[name] = op_def
    return op_def


def register_gradient(name):
    """Decorator attaching a gradient function to a registered op."""

    def decorator(fn):
        op_def = get_op_def(name)
        if op_def.grad_fn is not None:
            raise ValueError(f"Op {name!r} already has a gradient")
        op_def.grad_fn = fn
        return fn

    return decorator


def get_op_def(name):
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"Unknown op type: {name!r}") from None


def list_ops():
    """All registered op names, sorted."""
    return sorted(_REGISTRY)
