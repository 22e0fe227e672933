"""The geometry constructors at the edges of float64 and of their arguments.

Property: every constructor either returns only finite components or raises
a ``TensorError`` subclass, and ``is_lorentz`` and ``eta_residual`` return a
bool and a float.  RuntimeWarnings are errors here (pyproject), so a numpy
warning on the way to a result or a refusal fails the property too.  Inputs
mix ordinary entries with +-1e+-308, subnormals, +-0.0, +-inf and NaN, at
dims 1-6, with badly typed, non-positive and over-cap dims, and with
velocities and rapidities near +-1 and +-710.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indicial import determinants
from indicial.errors import ShapeError, SingularityError, TensorError
from indicial.frames import (
    Frame,
    compose,
    frame_from_matrix,
    identity_frame,
    inverse_frame,
    transform_basis,
)
from indicial.metric import (
    Metric,
    metric_from_basis,
    metric_from_tensor,
    orthonormal_metric,
)
from indicial.minkowski import boost, boost_from_rapidity, eta_residual, is_lorentz
from indicial.objects import DOWN, MAX_COMPONENTS, UP, TensorObject, new_object, zeros
from indicial.symbols import KroneckerKind, kronecker

_SPECIALS = (
    1e308, -1e308, 1e-308, -1e-308, 5e-324, -5e-324, 1e-310,
    0.0, -0.0, math.inf, -math.inf, math.nan,
)
# whole matrices are scaled by these, so that products and determinants of
# otherwise ordinary entries leave float64 on either side
_SCALES = (1.0, 1.0, 1.0, 1.5e154, 9.6e153, 1e-154, 1e300, 1e-300, 1e308, 5e-324)
# the smallest dim that puts dim ** rank past the dense storage cap
_OVER_CAP = {
    rank: next(d for d in itertools.count(2) if d ** rank > MAX_COMPONENTS)
    for rank in (2, 3, 4)
}
_OVER_CAP[1] = MAX_COMPONENTS + 1
_BAD_DIMS = (True, False, 2.0, "3", -1, 0, _OVER_CAP[2])


@st.composite
def _matrices(draw, dim=None):
    """A dim x dim list of floats: ordinary entries times one scale, with
    some entries replaced by specials."""
    d = draw(st.integers(1, 6)) if dim is None else dim
    scale = draw(st.sampled_from(_SCALES))
    entries = draw(st.lists(st.floats(-2.0, 2.0), min_size=d * d, max_size=d * d))
    entries = [v * scale for v in entries]
    for k in draw(st.lists(st.integers(0, d * d - 1), max_size=3)):
        entries[k] = draw(st.sampled_from(_SPECIALS))
    if d > 1 and draw(st.booleans()):
        # antisymmetric off-diagonal pair of one magnitude
        big = draw(st.sampled_from((1e308, 1.5e154, 1.0)))
        entries[1], entries[d] = big, -big
    return [entries[r * d:(r + 1) * d] for r in range(d)]


def _built_frame(m, inverted: bool) -> Frame:
    f = frame_from_matrix(m)
    return inverse_frame(f) if inverted else f


def _assert_finite(result) -> None:
    if isinstance(result, TensorObject):
        assert np.isfinite(result.components).all(), result.components
    elif isinstance(result, Frame):
        _assert_finite(result.c)
        _assert_finite(result.gamma)
        assert 0.0 < abs(result.det_gamma) < math.inf
    elif isinstance(result, Metric):
        _assert_finite(result.g)
        _assert_finite(result.g_inv)
        assert 0.0 < result.det_g < math.inf
    else:
        assert isinstance(result, np.ndarray) and np.isfinite(result).all(), result


_DIMS = st.one_of(st.integers(1, 6), st.sampled_from(_BAD_DIMS))
_NEAR_EDGE = (1.0, -1.0, 1.0 - 2.0 ** -53, -(1.0 - 2.0 ** -53), 0.9999999999, 710.0,
              -710.0, 709.78, -709.78, 710.5, math.inf, math.nan, 5e-324, -0.0)


def _call(data):
    """A drawn constructor call, as a thunk."""
    draw = data.draw
    fn = draw(st.sampled_from((
        frame_from_matrix, compose, inverse_frame, identity_frame,
        metric_from_tensor, metric_from_basis, orthonormal_metric,
        kronecker, zeros, boost, boost_from_rapidity,
    )))
    if fn is frame_from_matrix:
        m = draw(_matrices())
        return lambda: frame_from_matrix(m)
    if fn is compose or fn is inverse_frame:
        # building the frames may be refused too; compose then is not reached
        dim = draw(st.integers(1, 6))
        (m1, i1), (m2, i2) = (draw(st.tuples(_matrices(dim), st.booleans())) for _ in "12")
        if fn is inverse_frame:
            return lambda: inverse_frame(_built_frame(m1, i1))
        return lambda: compose(_built_frame(m1, i1), _built_frame(m2, i2))
    if fn is metric_from_tensor:
        m = draw(_matrices())
        if draw(st.booleans()):  # symmetric, so that the minors are reached
            a = np.array(m)
            m = np.where(np.tri(len(a), dtype=bool), a, a.T).tolist()
        return lambda: metric_from_tensor(m)
    if fn is metric_from_basis:
        rows = draw(_matrices())
        basis = [new_object(len(rows), (UP,), 0, row) for row in rows]
        return lambda: metric_from_basis(basis)
    if fn is zeros:
        rank = draw(st.integers(0, 4))
        dim = draw(st.one_of(_DIMS, st.just(_OVER_CAP.get(rank, 2))))
        return lambda: zeros(dim, (DOWN,) * rank)
    if fn is boost or fn is boost_from_rapidity:
        value = draw(st.one_of(st.sampled_from(_NEAR_EDGE), st.floats()))
        return lambda: fn(value)
    dim = draw(_DIMS)
    if fn is kronecker:
        kind = draw(st.sampled_from(list(KroneckerKind)))
        return lambda: kronecker(dim, kind)
    return lambda: fn(dim)


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_geometry_constructors_return_finite_components_or_a_tensor_error(data):
    call = _call(data)
    try:
        result = call()
    except TensorError:
        return
    _assert_finite(result)


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_the_lorentz_checks_return_quietly_on_any_matrix(data):
    m = data.draw(st.one_of(_matrices(4), _matrices()))
    for check, kind in ((is_lorentz, bool), (eta_residual, float)):
        try:
            assert type(check(m)) is kind
        except TensorError:
            assert len(m) != 4


def _near_limit_frames(rng: np.random.Generator, dim: int) -> list[Frame]:
    """Frames, and their inverses, whose |det c| lies at either end of
    float64 or past it."""
    frames = []
    for exponent, smallest, _ in itertools.product(
        (-309, -308.5, -308, -307, 307, 308, 308.2, 308.3, 308.6, 309, 310),
        (1.0, 0.5, 1e-3),
        range(3),  # orientations
    ):
        # scale * q1 diag(1, ..., 1, smallest) q2 has |det| = 10**exponent * smallest
        q1, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        q2, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        spectrum = np.ones(dim)
        spectrum[-1] = smallest
        m = 10.0 ** (exponent / dim) * (q1 * spectrum) @ q2
        for inverted in (False, True):
            try:  # a det(gamma) or det c outside float64 is refused here
                frames.append(_built_frame(m, inverted))
            except SingularityError:
                pass
    assert len(frames) > 20
    return frames


def test_compose_refuses_every_overflowing_product_by_its_determinant():
    """Wherever the product of two frames would leave float64, det(gamma)
    does first.  Above dim 2 the singularity threshold keeps every entry of
    such a product far inside float64, so only dim 2 meets an overflow."""
    rng = np.random.default_rng(2200)
    for dim in (2, 3, 4, 5, 6):
        overflowing = 0
        frames = _near_limit_frames(rng, dim)
        for f1, f2 in itertools.product(frames, repeat=2):
            with np.errstate(over="ignore", invalid="ignore"):
                product = f2.c.components @ f1.c.components
                inverse = f1.gamma.components @ f2.gamma.components
            finite = np.isfinite(product).all() and np.isfinite(inverse).all()
            overflowing += not finite
            try:
                composed = compose(f1, f2)
            except SingularityError:
                continue
            assert finite, (f1, f2)
            _assert_finite(composed)
        assert overflowing > 0 or dim > 2


def test_compose_at_dim_1_refuses_a_product_beyond_float64():
    f = frame_from_matrix([[1.5e154]])
    assert 0.0 < f.det_gamma * f.det_gamma < 1e-300  # subnormal: it passes
    with pytest.raises(SingularityError, match="outside float64"):
        compose(f, f)
    assert compose(f, inverse_frame(f)).c.components.item() == pytest.approx(1.0)


def test_a_finite_matrix_whose_determinant_overflows_counts_as_singular():
    # det = 2 a**2 = inf lies above the finite threshold 1e-12 a**2 = 9.2e295;
    # frame_from_matrix used to build a frame with det(gamma) = 5.4e-309
    a = 9.6e153
    m = [[a, a], [-a, a]]
    assert determinants.determinant(m) == math.inf
    with pytest.raises(SingularityError, match="singular within tolerance: \\|det\\| = inf"):
        frame_from_matrix(m)
    with pytest.raises(SingularityError, match="singular within tolerance: \\|det\\| = inf"):
        determinants.inverse(m)
    basis = [new_object(2, (UP,), 0, row) for row in m]
    with pytest.raises(SingularityError, match="linearly dependent"):
        transform_basis(identity_frame(2), basis)


@pytest.mark.parametrize("dim, message", [
    (-1, "dim must be a positive integer"),
    (0, "dim must be a positive integer"),
    (2.0, "dim must be a positive integer"),
    (True, "dim must be a positive integer"),
    ("3", "dim must be a positive integer"),
    (_OVER_CAP[2], "dense storage cap exceeded"),
])
@pytest.mark.parametrize("build", [
    lambda dim: kronecker(dim, KroneckerKind.MIXED),
    identity_frame,
    orthonormal_metric,
    lambda dim: zeros(dim, (UP, DOWN)),
], ids=["kronecker", "identity_frame", "orthonormal_metric", "zeros"])
def test_a_bad_or_over_cap_dim_is_refused_before_anything_is_allocated(
    build, dim, message, monkeypatch
):
    def allocate(*args, **kwargs):
        raise AssertionError("allocated before the dim was checked")

    monkeypatch.setattr(np, "eye", allocate)
    monkeypatch.setattr(np, "zeros", allocate)
    with pytest.raises(ShapeError, match=message):
        build(dim)
