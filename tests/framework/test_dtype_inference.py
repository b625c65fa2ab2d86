"""Static dtype inference is a contract: a graph tensor's ``dtype`` is
the dtype its kernel really returns.

Every ufunc-backed op is checked over every pair (binary) or every
single (unary) of the framework's numeric dtypes.  The runtime arena
and fusion rely on this: they size and type buffers from proven
dtypes, and ``ufunc(..., out=)`` casts silently when told a wrong one.
"""

import itertools

import numpy as np
import pytest

from repro import framework as fw
from repro.framework import dtypes, ops

_DTYPES = [fw.bool_, fw.int32, fw.int64, fw.float32, fw.float64]
_FRAMEWORK_NP = {dt.np_dtype for dt in _DTYPES}

_UNARY = ["negative", "abs", "exp", "log", "tanh", "sigmoid", "relu",
          "sqrt", "square", "sign", "floor", "logical_not"]
_BINARY = ["add", "subtract", "multiply", "divide", "floordiv", "mod",
           "pow", "maximum", "minimum", "greater", "greater_equal", "less",
           "less_equal", "equal", "not_equal", "logical_and", "logical_or",
           "matmul"]


def _value(dt, shape):
    return (np.arange(1, 1 + int(np.prod(shape))) % 3).reshape(shape).astype(
        dt.np_dtype)


def _check(op_name, in_dtypes):
    shape = (2, 2)
    g = fw.Graph()
    with g.as_default():
        phs = [ops.placeholder(dt, list(shape)) for dt in in_dtypes]
        out = getattr(ops, op_name)(*phs)
    feed = {ph: _value(dt, shape) for ph, dt in zip(phs, in_dtypes)}
    try:
        with np.errstate(all="ignore"):
            got = np.asarray(fw.Session(g).run(out, feed))
    except fw.ExecutionError:
        return None  # no NumPy loop for these dtypes (e.g. bool negative)
    if got.dtype not in _FRAMEWORK_NP:
        # float16 (e.g. sqrt(bool)) has no framework dtype to infer.
        return None
    assert out.dtype.np_dtype == got.dtype, (
        f"{op_name}{tuple(str(d) for d in in_dtypes)}: static "
        f"{out.dtype}, executed {got.dtype}")
    return got.dtype


@pytest.mark.parametrize("op_name", _UNARY)
def test_unary_static_dtype_is_the_executed_dtype(op_name):
    checked = [_check(op_name, [dt]) for dt in _DTYPES]
    assert any(c is not None for c in checked)


@pytest.mark.parametrize("op_name", _BINARY)
def test_binary_static_dtype_is_the_executed_dtype(op_name):
    checked = [_check(op_name, list(pair))
               for pair in itertools.product(_DTYPES, repeat=2)]
    assert any(c is not None for c in checked)


def test_float_valued_unary_of_int_is_float():
    # The ROADMAP's example: exp(int32) runs as float64.
    assert _check("exp", [fw.int32]) == np.float64
    assert _check("add", [fw.int32, fw.float32]) == np.float64


def test_result_dtype_follows_numpy():
    for a, b in itertools.product(_DTYPES, repeat=2):
        want = np.result_type(a.np_dtype, b.np_dtype)
        assert dtypes.result_dtype(a, b).np_dtype == want
    assert dtypes.numpy_result_dtype([np.int32], np.exp) == np.float64
    assert dtypes.numpy_result_dtype([np.bool_], np.negative) is None
    assert dtypes.numpy_result_dtype([None, np.int32]) is None
