import math

import numpy as np
import pytest

from oracles import compose_velocities, conjugation_residual

from indicial.errors import ShapeError, SuperluminalError
from indicial.minkowski import (
    ETA,
    boost,
    boost_from_rapidity,
    eta_residual,
    is_lorentz,
    mink_product,
    rapidity,
)


def _rotation4(angle):
    c, s = math.cos(angle), math.sin(angle)
    m = np.eye(4)
    m[1, 1] = c
    m[1, 2] = -s
    m[2, 1] = s
    m[2, 2] = c
    return m


def test_eta_signature():
    assert np.array_equal(ETA, np.diag([1.0, -1.0, -1.0, -1.0]))
    with pytest.raises(ValueError):
        ETA[0, 0] = 2.0  # read-only


def test_mink_product_signs():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    y = np.array([5.0, 6.0, 7.0, 8.0])
    expected = 1.0 * 5.0 - 2.0 * 6.0 - 3.0 * 7.0 - 4.0 * 8.0
    assert mink_product(x, y) == expected
    assert mink_product(x, y) == mink_product(y, x)


def test_is_lorentz_on_known_members():
    assert is_lorentz(np.eye(4))
    assert is_lorentz(boost(0.5))
    assert is_lorentz(_rotation4(0.7))
    assert is_lorentz(boost(-0.8) @ _rotation4(1.1) @ boost(0.25))
    assert not is_lorentz(2.0 * np.eye(4))
    assert not is_lorentz(np.eye(4) + 1e-3)
    assert not is_lorentz(np.zeros((4, 4)))


def test_non_finite_matrices_are_not_lorentz():
    # NaN failed no `> tol` test, and an inf entry times 0 warned
    with np.errstate(invalid="ignore"):
        inf_eye = np.eye(4) * np.inf
    for c in (np.full((4, 4), np.nan), inf_eye, np.diag([np.inf] * 4), boost(0.5) * 1e200):
        assert is_lorentz(c) is False
        # NaN or inf, with no RuntimeWarning from inf * 0 or an overflow
        assert not eta_residual(c) <= 1e-9


def test_eta_residual_matches_loop_oracle():
    rng = np.random.default_rng(0)
    for c in (boost(0.6), _rotation4(0.3), rng.uniform(-1, 1, (4, 4))):
        expected = conjugation_residual(c.tolist(), ETA.tolist())
        assert abs(eta_residual(c) - expected) <= 1e-15


def test_condition_and_product_preservation_agree():
    rng = np.random.default_rng(1)
    candidates = [
        np.eye(4),
        boost(0.9),
        _rotation4(2.0),
        boost(0.3) @ _rotation4(0.5),
        np.eye(4) * 1.001,
        rng.uniform(-1, 1, (4, 4)),
    ]
    for c in candidates:
        assert is_lorentz(c) == (eta_residual(c) <= 1e-9)


def test_product_preserved_under_lorentz_maps():
    rng = np.random.default_rng(2)
    for _ in range(50):
        c = boost(float(rng.uniform(-0.9, 0.9))) @ _rotation4(float(rng.uniform(0, 6)))
        x = rng.uniform(-1, 1, 4)
        y = rng.uniform(-1, 1, 4)
        lhs = mink_product(c @ x, c @ y)
        assert abs(lhs - mink_product(x, y)) <= 1e-9


def test_boost_entries_at_point_six():
    b = boost(0.6)
    assert abs(b[0, 0] - 1.25) <= 1e-12
    assert abs(b[1, 1] - 1.25) <= 1e-12
    assert abs(b[0, 1] + 0.75) <= 1e-12
    assert abs(b[1, 0] + 0.75) <= 1e-12
    assert np.array_equal(b[2:, 2:], np.eye(2))
    assert np.all(b[0, 2:] == 0) and np.all(b[2:, 0] == 0)


def test_boost_zero_is_identity():
    assert np.array_equal(boost(0.0), np.eye(4))


# an int beyond float64 reads as +-inf, like a float 1e400
_HUGE_INTS = [pytest.param(10**400, id="10**400"), pytest.param(-(10**400), id="-10**400")]


@pytest.mark.parametrize("beta", [1.0, -1.0, 1.5, -2.0, *_HUGE_INTS])
def test_superluminal_rejected(beta):
    with pytest.raises(SuperluminalError):
        boost(beta)
    with pytest.raises(SuperluminalError):
        rapidity(beta)


@pytest.mark.parametrize(
    "psi", [1000.0, -1000.0, math.nan, math.inf, -math.inf, *_HUGE_INTS]
)
def test_boost_from_rapidity_refuses_a_rapidity_outside_float64(psi):
    with pytest.raises(SuperluminalError):
        boost_from_rapidity(psi)


def test_boost_from_rapidity_keeps_the_largest_finite_cosh():
    b = boost_from_rapidity(-709.0)
    assert np.isfinite(b).all() and b[0, 0] == math.cosh(709.0)


@pytest.mark.parametrize("call", [
    lambda: mink_product([1.0, 2.0, 3.0, "x"], [1.0, 2.0, 3.0, 4.0]),
    lambda: mink_product([1.0, 2.0, 3.0, 4.0], [[1.0], [2.0, 3.0]]),
    lambda: is_lorentz([[1.0, 0.0, 0.0, 0.0]] * 3 + [[1.0]]),
    lambda: eta_residual([["a"] * 4] * 4),
])
def test_non_numeric_input_is_a_shape_error(call):
    with pytest.raises(ShapeError, match="rectangular array of numbers"):
        call()


@pytest.mark.parametrize("value", [None, "abc", [0.5]], ids=["None", "abc", "[0.5]"])
@pytest.mark.parametrize("f", [boost, rapidity, boost_from_rapidity])
def test_a_parameter_float_cannot_read_is_a_shape_error(f, value):
    with pytest.raises(ShapeError, match="must be a real number"):
        f(value)


def _reference_boost(beta):
    """The explicit velocity-boost fill, kept as the byte reference."""
    beta = float(beta)
    g = 1.0 / math.sqrt(1.0 - beta * beta)
    m = np.eye(4)
    m[0, 0] = g
    m[0, 1] = -beta * g
    m[1, 0] = -beta * g
    m[1, 1] = g
    return m


def _reference_boost_from_rapidity(psi):
    """The explicit rapidity-boost fill, kept as the byte reference."""
    psi = float(psi)
    m = np.eye(4)
    m[0, 0] = math.cosh(psi)
    m[0, 1] = math.sinh(psi)
    m[1, 0] = math.sinh(psi)
    m[1, 1] = math.cosh(psi)
    return m


def test_boosts_are_byte_equal_to_the_explicit_fill():
    rng = np.random.default_rng(13)
    edge = 1.0 - 2.0 ** -53  # the largest |beta| below 1
    betas = [0.0, -0.0, 0.6, "0.6", "-0.25", 5e-324, 0.9999999999, -0.9999999999,
             edge, -edge]
    psis = [0.0, -0.0, 1.5, "-2.5", 709.0, -709.0, 1e-300, 710.0, -710.0, 710.4, -710.4]
    betas += rng.uniform(-0.9999, 0.9999, 200).tolist()
    psis += rng.uniform(-700.0, 700.0, 200).tolist()
    for beta in betas:
        b = boost(beta)
        assert not b.flags.writeable
        assert b.tobytes() == _reference_boost(beta).tobytes()
    for psi in psis:
        b = boost_from_rapidity(psi)
        assert not b.flags.writeable
        assert b.tobytes() == _reference_boost_from_rapidity(psi).tobytes()
    # each boost is a matrix of its own
    assert not np.shares_memory(boost(0.5), boost(0.5))


def test_rapidity_values():
    assert abs(rapidity(0.6) - math.log(2.0)) <= 1e-15
    assert abs(rapidity(0.0)) == 0.0
    assert abs(rapidity(-0.6) + math.log(2.0)) <= 1e-15


def test_boost_and_rapidity_form_agree():
    # sign convention: boost(beta) equals boost_from_rapidity(-rapidity(beta))
    for beta in (-0.9, -0.4, 0.0, 0.3, 0.77):
        psi = rapidity(beta)
        assert np.max(np.abs(boost(beta) - boost_from_rapidity(-psi))) <= 1e-12


def test_rapidities_add_and_velocities_compose():
    rng = np.random.default_rng(3)
    for _ in range(50):
        b1, b2 = rng.uniform(-0.9, 0.9, 2)
        composed = boost(b1) @ boost(b2)
        assert np.max(np.abs(composed - boost(compose_velocities(b1, b2)))) <= 1e-9
        psi1, psi2 = rapidity(b1), rapidity(b2)
        two = boost_from_rapidity(-psi1) @ boost_from_rapidity(-psi2)
        assert np.max(np.abs(composed - two)) <= 1e-9
        assert np.max(
            np.abs(two - boost_from_rapidity(-(psi1 + psi2)))
        ) <= 1e-9


def test_hyperbolic_components_of_rapidity():
    for beta in (-0.8, -0.1, 0.5, 0.95):
        psi = rapidity(beta)
        gamma = 1.0 / math.sqrt(1.0 - beta * beta)
        assert abs(math.cosh(psi) - gamma) <= 1e-12
        assert abs(math.sinh(psi) - beta * gamma) <= 1e-12


def test_apply_matrix_and_shape_errors():
    with pytest.raises(ShapeError):
        mink_product(np.ones(3), np.ones(4))
    with pytest.raises(ShapeError):
        is_lorentz(np.ones((3, 3)))
