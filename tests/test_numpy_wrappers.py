"""No public kernel enters one of numpy's Python wrapper modules per call.

A wrapper such as ``np.swapaxes`` or ``np.stack`` costs a few tenths of a
µs of Python before it reaches the ``ndarray`` method or C function it
ends in, and at dims 2-6 that is a large share of a kernel call.  Each
kernel below is run once to warm its caches, then again under
``sys.setprofile``; the test fails if a Python frame from one of numpy's
wrapper modules is entered.  Modules are matched by file basename, so
both ``numpy/_core/...`` (numpy 2) and ``numpy/core/...`` (numpy 1.24)
are covered.  ``np.errstate`` (``_ufunc_config.py``) and the dispatcher
stubs of C functions such as ``np.where`` (``multiarray.py``) stay
allowed: neither is a wrapper around a method the kernel could call.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

from indicial.determinants import determinant, inverse
from indicial.einsum import execute, parse, validate
from indicial.frames import (
    compose,
    frame_from_matrix,
    inverse_frame,
    transform,
    transform_basis,
)
from indicial.metric import (
    cross,
    inner,
    lower_index,
    metric_from_basis,
    metric_from_tensor,
    raise_index,
    triple,
)
from indicial.minkowski import boost, is_lorentz
from indicial.objects import DOWN, UP, new_object, swap_slots, symmetry_check
from indicial.symbols import levi_civita_symbol

WRAPPER_MODULES = frozenset(
    {
        "fromnumeric.py",
        "_methods.py",
        "shape_base.py",
        "numeric.py",
        "einsumfunc.py",
        # the np.linalg wrapper: numpy/linalg/_linalg.py, linalg.py before numpy 2
        "_linalg.py",
        "linalg.py",
    }
)
DIMS = (2, 3, 4, 5, 6)


def _is_wrapper(filename: str) -> bool:
    parts = os.path.normpath(filename).split(os.sep)
    return "numpy" in parts and parts[-1] in WRAPPER_MODULES


def _wrappers_entered(fn) -> list[str]:
    entered: list[str] = []

    def profile(frame, event, arg):
        if event == "call" and _is_wrapper(frame.f_code.co_filename):
            code = frame.f_code
            entered.append(f"{os.path.basename(code.co_filename)}:{code.co_name}")

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return entered


def _rng(dim: int) -> np.random.Generator:
    return np.random.default_rng(dim)


def _frame(dim: int):
    rng = _rng(dim)
    return frame_from_matrix(np.eye(dim) * 2.0 + rng.uniform(-0.3, 0.3, (dim, dim)))


def _metric(dim: int):
    a = _rng(dim).uniform(-1.0, 1.0, (dim, dim))
    return metric_from_tensor(a @ a.T + dim * np.eye(dim))


def _basis(dim: int):
    rows = np.eye(dim) + _rng(dim).uniform(-0.2, 0.2, (dim, dim))
    return [new_object(dim, (UP,), 0, row) for row in rows]


def _obj(dim: int, slots, weight: int = 0):
    rng = _rng(dim + len(slots))
    return new_object(dim, tuple(slots), weight, rng.standard_normal((dim,) * len(slots)))


def _cases():
    f3, m3 = _frame(3), _metric(3)
    for rank in range(5):
        for variance in (UP, DOWN):
            for weight in (0, 2):
                t = _obj(3, (variance,) * rank, weight)
                name = f"transform-rank{rank}-{variance.value}-w{weight}"
                yield name, lambda t=t: transform(t, f3)
    mixed, f4 = _obj(4, (UP, DOWN, UP), -1), _frame(4)
    yield "transform-mixed-dim4", lambda: transform(mixed, f4)
    lower_me, raise_me = _obj(3, (DOWN, UP, DOWN)), _obj(3, (UP, DOWN, DOWN))
    yield "lower_index", lambda: lower_index(lower_me, 1, m3)
    yield "raise_index", lambda: raise_index(raise_me, 2, m3)
    swap_me, square = _obj(3, (DOWN, DOWN, UP)), _obj(3, (DOWN, DOWN))
    yield "swap_slots", lambda: swap_slots(swap_me, 0, 1)
    yield "symmetry_check", lambda: symmetry_check(square, 0, 1)
    for dim in DIMS:
        m = np.eye(dim) * 2.0 + _rng(dim).uniform(-0.3, 0.3, (dim, dim))
        yield f"frame_from_matrix-dim{dim}", lambda m=m: frame_from_matrix(m)
        t = new_object(dim, (UP, DOWN), 1, m)
        yield f"determinant-dim{dim}", lambda t=t: determinant(t)
        yield f"inverse-dim{dim}", lambda t=t: inverse(t)
        g = _metric(dim).g.components
        yield f"metric_from_tensor-dim{dim}", lambda g=g: metric_from_tensor(g)
        basis, f = _basis(dim), _frame(dim)
        yield f"metric_from_basis-dim{dim}", lambda basis=basis: metric_from_basis(basis)
        yield f"transform_basis-dim{dim}", lambda f=f, basis=basis: transform_basis(f, basis)
        yield f"levi_civita_symbol-dim{dim}", lambda dim=dim: levi_civita_symbol(dim, DOWN)
    second = frame_from_matrix(f3.c.components.T)
    yield "inverse_frame", lambda: inverse_frame(f3)
    yield "compose", lambda: compose(f3, second)
    x = _obj(3, (UP,))
    y = new_object(3, (UP,), 0, [1.0, 2.0, 0.5])
    z = new_object(3, (UP,), 0, [0.5, -1.0, 2.0])
    yield "inner", lambda: inner(x, y, m3)
    yield "cross", lambda: cross(x, z, m3)
    yield "triple", lambda: triple(x, y, z, m3)
    yield "boost", lambda: boost(0.6)
    lorentz = boost(0.6)
    yield "is_lorentz", lambda: is_lorentz(lorentz)
    bindings = {"a": _obj(3, (UP, DOWN)), "b": _obj(3, (UP, DOWN)), "x": _obj(3, (UP,))}
    statements = {
        "execute-matvec": "y^r = a^r_s x^s",
        "execute-two-terms": "y^r = 2 * a^r_s b^s_t x^t + a^r_s x^s",
    }
    for name, text in statements.items():
        plan = validate(parse(text), bindings)
        yield name, lambda plan=plan: execute(plan, bindings)


CASES = list(_cases())


@pytest.mark.parametrize("fn", [fn for _, fn in CASES], ids=[name for name, _ in CASES])
def test_kernel_enters_no_numpy_wrapper(fn):
    fn()
    assert _wrappers_entered(fn) == []


def test_the_profile_sees_a_wrapper():
    arr = np.zeros((2, 3))
    assert "fromnumeric.py:swapaxes" in _wrappers_entered(lambda: np.swapaxes(arr, 0, 1))
