"""Data types for the framework.

Mirrors the role of ``tf.DType``: a small registry of element types with
NumPy interop, promotion rules and classification predicates.  Both the
eager and the graph execution modes share these objects, so tensors carry
identical type metadata regardless of how they are executed.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "DType",
    "float32",
    "float64",
    "int32",
    "int64",
    "bool_",
    "string",
    "variant",
    "as_dtype",
    "from_numpy",
    "numpy_result_dtype",
    "result_dtype",
]


class DType:
    """An element type.

    Attributes:
      name: canonical string name, e.g. ``"float32"``.
      np_dtype: the corresponding NumPy dtype, or None for ``variant``.
      is_floating / is_integer / is_bool / is_string: classification flags.
    """

    __slots__ = ("name", "np_dtype", "is_floating", "is_integer", "is_bool", "is_string")

    def __init__(self, name, np_dtype, *, floating=False, integer=False, boolean=False, string=False):
        self.name = name
        self.np_dtype = np.dtype(np_dtype) if np_dtype is not None else None
        self.is_floating = floating
        self.is_integer = integer
        self.is_bool = boolean
        self.is_string = string

    @property
    def is_numeric(self):
        return self.is_floating or self.is_integer

    def __repr__(self):
        return f"<dtype: {self.name!r}>"

    def __str__(self):
        return self.name

    def __eq__(self, other):
        if isinstance(other, DType):
            return self.name == other.name
        if isinstance(other, str):
            return self.name == other
        return NotImplemented

    def __hash__(self):
        return hash(self.name)


float32 = DType("float32", np.float32, floating=True)
float64 = DType("float64", np.float64, floating=True)
int32 = DType("int32", np.int32, integer=True)
int64 = DType("int64", np.int64, integer=True)
bool_ = DType("bool", np.bool_, boolean=True)
string = DType("string", None, string=True)
# `variant` carries opaque runtime values (TensorArray state, staged lists).
variant = DType("variant", None)

_BY_NAME = {
    d.name: d for d in (float32, float64, int32, int64, bool_, string, variant)
}
_BY_NP = {
    np.dtype(np.float32): float32,
    np.dtype(np.float64): float64,
    np.dtype(np.int32): int32,
    np.dtype(np.int64): int64,
    np.dtype(np.bool_): bool_,
    # Common widths normalized onto the supported set.
    np.dtype(np.int16): int32,
    np.dtype(np.int8): int32,
    np.dtype(np.uint8): int32,
    np.dtype(np.float16): float32,
}


def as_dtype(value):
    """Coerce ``value`` (DType, str, np.dtype, python type) to a DType."""
    if isinstance(value, DType):
        return value
    if isinstance(value, str):
        try:
            return _BY_NAME[value]
        except KeyError:
            raise TypeError(f"Unknown dtype name: {value!r}") from None
    if value is float:
        return float32
    if value is int:
        return int32
    if value is bool:
        return bool_
    if value is str:
        return string
    try:
        np_dt = np.dtype(value)
    except TypeError:
        raise TypeError(f"Cannot convert {value!r} to a DType") from None
    return from_numpy(np_dt)


def from_numpy(np_dtype):
    """Map a NumPy dtype onto a framework DType."""
    np_dtype = np.dtype(np_dtype)
    try:
        return _BY_NP[np_dtype]
    except KeyError:
        if np_dtype.kind in ("U", "S", "O"):
            return string
        raise TypeError(f"Unsupported NumPy dtype: {np_dtype}") from None


@functools.lru_cache(maxsize=1024)
def _ufunc_result(ufunc, np_dtypes):
    with np.errstate(all="ignore"):
        # (1, 1) operands suit elementwise ufuncs and ``matmul`` alike;
        # 0-d operands would return NumPy scalars of the same dtype.
        out = ufunc(*(np.ones((1, 1), dt) for dt in np_dtypes))
    return out.dtype


def numpy_result_dtype(np_dtypes, ufunc=None):
    """The NumPy dtype an operation on arrays of ``np_dtypes`` returns.

    With ``ufunc`` this is the dtype that ufunc really produces (its own
    loop resolution, so ``exp(int32)`` is float64 and ``sqrt(bool)`` is
    float16); without, plain NumPy promotion (``np.result_type``, NEP 50
    semantics under NumPy 2).  ``None`` when any dtype is unknown or the
    ufunc has no loop for these inputs.  This is the one promotion rule
    of the framework: static ``dtype_fn`` inference, the fusion pass and
    the runtime arena's dtype proofs all go through it.
    """
    if any(dt is None for dt in np_dtypes):
        return None
    np_dtypes = tuple(np.dtype(dt) for dt in np_dtypes)
    try:
        if ufunc is None:
            return np.result_type(*np_dtypes)
        return _ufunc_result(ufunc, np_dtypes)
    except (TypeError, ValueError):
        return None


def result_dtype(*dts, ufunc=None):
    """The framework dtype an op over operands of ``dts`` produces,
    following :func:`numpy_result_dtype` (so int32 + float32 is float64,
    exactly what the NumPy kernels return).

    Raises:
      TypeError: when the operands have no NumPy dtype or no promotion.
    """
    np_dts = [as_dtype(d).np_dtype for d in dts]
    out = numpy_result_dtype(np_dts, ufunc)
    if out is None:
        raise TypeError(
            f"No promotion rule for {', '.join(str(as_dtype(d)) for d in dts)}")
    return from_numpy(out)
