"""Minkowski products, Lorentz-condition checks, boosts, rapidities.

Four-vectors are length-4 arrays (index 0 is the time component) and
transformation matrices are 4x4 arrays, row = upper index, both read by
``objects._read_array`` and then checked for shape, so each refusal is a
ShapeError.  The metric signature is (+, -, -, -).

Two boost parameterizations are provided.  ``boost(beta)`` has off-diagonal
entries -beta*gamma; ``boost_from_rapidity(psi)`` has off-diagonal entries
+sinh(psi).  With rapidity(beta) = artanh(beta) (so sinh psi =
beta/sqrt(1-beta^2) and cosh psi = 1/sqrt(1-beta^2)), the two agree as

    boost(beta) == boost_from_rapidity(-rapidity(beta))

i.e. the conventions differ by the sign of the rapidity argument.

``beta`` and ``psi`` are read by ``objects._read_number`` as
``float(value)``, numeric strings included.  An int beyond float64 reads as
+-inf and so raises SuperluminalError, as a float 1e400 does; a value
``float`` cannot read (None, "abc", [0.5]) raises ShapeError.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ShapeError, SuperluminalError
from .objects import _identity, _read_array, _read_number, _scale

ETA = np.diag([1.0, -1.0, -1.0, -1.0])
ETA.setflags(write=False)

_CONDITION_TOL = 1e-9

# (s, r, expected value) for each unordered column pair s <= r
_COLUMN_PAIRS = tuple(
    (s, r, 0.0 if s != r else (1.0 if s == 0 else -1.0))
    for s in range(4)
    for r in range(s, 4)
)


def _read(x: object, shape: tuple[int, ...], what: str) -> np.ndarray:
    arr = _read_array(x, what)
    if arr.shape != shape:
        raise ShapeError(f"{what} must have shape {shape}, got {arr.shape}")
    return arr


def mink_product(x: Sequence[float], y: Sequence[float]) -> float:
    """x0*y0 - x1*y1 - x2*y2 - x3*y3."""
    xv = _read(x, (4,), "a four-vector")
    yv = _read(y, (4,), "a four-vector")
    return float(xv[0] * yv[0] - xv[1] * yv[1] - xv[2] * yv[2] - xv[3] * yv[3])


def is_lorentz(c: Sequence[Sequence[float]], tol: float = _CONDITION_TOL) -> bool:
    """Componentwise orthogonality condition on the matrix columns.

    For every column pair (s, r): c^0_s c^0_r - sum_i c^i_s c^i_r must be
    0 for s != r, 1 for s == r == 0, and -1 for s == r != 0.  IEEE products
    commute, so the value for (r, s) is that for (s, r) bit for bit, and
    each of the ten unordered pairs is evaluated once, from a fixed table.
    """
    # Python floats: the same IEEE products as numpy scalars, without a
    # RuntimeWarning for an inf or NaN entry
    t, x, y, z = _read(c, (4, 4), "a transformation matrix").tolist()
    for s, r, expected in _COLUMN_PAIRS:
        value = t[s] * t[r] - x[s] * x[r] - y[s] * y[r] - z[s] * z[r]
        # written so that a NaN value fails it too
        if not abs(value - expected) <= tol:
            return False
    return True


def eta_residual(c: Sequence[Sequence[float]]) -> float:
    """Independent check: max |C^T eta C - eta|.

    Zero exactly when the componentwise condition holds; the two routes are
    required to agree and tests pin that equivalence.  A non-finite entry
    gives NaN or inf, and so does a product beyond float64, with no
    RuntimeWarning.
    """
    m = _read(c, (4, 4), "a transformation matrix")
    with np.errstate(over="ignore", invalid="ignore"):
        return _scale(m.T @ ETA @ m - ETA)


def _check_beta(beta: float) -> float:
    beta = _read_number(beta, "beta")
    if not abs(beta) < 1.0:
        raise SuperluminalError(f"|beta| must be < 1, got {beta}")
    return beta


def _boost_matrix(diagonal: float, off_diagonal: float) -> np.ndarray:
    """The read-only boost along axis 1 with the given time-x block entries,
    filled into a copy of the shared identity (``np.eye`` is a Python
    function, ``copy`` is not)."""
    m = _identity(4).copy()
    m[0, 0] = m[1, 1] = diagonal
    m[0, 1] = m[1, 0] = off_diagonal
    m.setflags(False)
    return m


def boost(beta: float) -> np.ndarray:
    """Velocity-parameterized boost along axis 1.

    The 2x2 time-x block is [[g, -b*g], [-b*g, g]] with g = 1/sqrt(1-b^2);
    the spatial y/z block is the identity.
    """
    beta = _check_beta(beta)
    g = 1.0 / math.sqrt(1.0 - beta * beta)
    return _boost_matrix(g, -beta * g)


def rapidity(beta: float) -> float:
    """artanh(beta): the additive boost parameter."""
    beta = _check_beta(beta)
    return math.atanh(beta)


def boost_from_rapidity(psi: float) -> np.ndarray:
    """Rapidity-parameterized boost along axis 1.

    The 2x2 time-x block is [[cosh psi, sinh psi], [sinh psi, cosh psi]].
    Rapidities add under composition:
    boost_from_rapidity(a) @ boost_from_rapidity(b) ==
    boost_from_rapidity(a + b).
    """
    psi = _read_number(psi, "rapidity")
    # |sinh psi| < cosh psi, so a finite cosh bounds the whole block
    try:
        cosh = math.cosh(psi)
    except OverflowError:
        cosh = math.inf
    if not math.isfinite(cosh):  # also false for a NaN or infinite psi
        raise SuperluminalError(
            f"rapidity must be finite with cosh(psi) inside float64, got {psi}"
        )
    return _boost_matrix(cosh, math.sinh(psi))
