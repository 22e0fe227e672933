"""Property: every entry point that takes a caller's array returns or raises
a ``TensorError``, and one holding ``None`` or an int beyond float64 raises
``ShapeError``.

The nine entry points are ``new_object``, the five matrix functions,
``mink_product``, ``is_lorentz`` and ``eta_residual``.  Leaves are ordinary
floats and ints, ``None``, ``+-10**400``, bools, and numeric and non-numeric
strings, in well-shaped and ragged nested lists and in well-shaped
object-dtype ndarrays.  NaN and magnitudes whose products overflow stay out:
those are the finiteness rule's cases.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from indicial.determinants import determinant, inverse, singularity_threshold
from indicial.errors import ShapeError, TensorError
from indicial.frames import frame_from_matrix
from indicial.metric import metric_from_tensor
from indicial.minkowski import eta_residual, is_lorentz, mink_product
from indicial.objects import UP, new_object

_HUGE = (10 ** 400, -(10 ** 400))

_LEAVES = st.one_of(
    st.floats(-1e3, 1e3),
    st.integers(-1000, 1000),
    st.none(),
    st.sampled_from(_HUGE),
    st.booleans(),
    st.floats(-1e3, 1e3).map(repr),
    st.integers(-1000, 1000).map(str),
    st.sampled_from(["", "x", "1,5", "one", "2j"]),
)

_RAGGED = st.recursive(_LEAVES, lambda inner: st.lists(inner, max_size=4), max_leaves=12)


def _nest(flat, dim, rank):
    if rank == 0:
        return flat[0]
    step = dim ** (rank - 1)
    return [_nest(flat[k * step:(k + 1) * step], dim, rank - 1) for k in range(dim)]


@st.composite
def _array(draw):
    """``(dim, rank, x)``: a well-shaped ``(dim,) * rank`` array two times
    in three, as nested lists or an object-dtype ndarray, else any nesting
    of lists and leaves."""
    dim, rank = draw(st.integers(1, 4)), draw(st.integers(0, 2))
    if draw(st.integers(0, 2)):
        size = dim ** rank
        x = _nest(draw(st.lists(_LEAVES, min_size=size, max_size=size)), dim, rank)
        return dim, rank, np.array(x, dtype=object) if draw(st.booleans()) else x
    return dim, rank, draw(_RAGGED)


def _holds_a_refused_leaf(x) -> bool:
    if isinstance(x, np.ndarray):
        x = x.tolist()
    if isinstance(x, list):
        return any(map(_holds_a_refused_leaf, x))
    return x is None or x in _HUGE


_FOUR_VECTOR = [1.0, 0.5, 0.0, -2.0]

_ENTRY_POINTS = {
    "new_object": lambda dim, rank, x: new_object(dim, (UP,) * rank, 0, x),
    "determinant": lambda dim, rank, x: determinant(x),
    "inverse": lambda dim, rank, x: inverse(x),
    "singularity_threshold": lambda dim, rank, x: singularity_threshold(x),
    "frame_from_matrix": lambda dim, rank, x: frame_from_matrix(x),
    "metric_from_tensor": lambda dim, rank, x: metric_from_tensor(x),
    "mink_product-x": lambda dim, rank, x: mink_product(x, _FOUR_VECTOR),
    "mink_product-y": lambda dim, rank, x: mink_product(_FOUR_VECTOR, x),
    "is_lorentz": lambda dim, rank, x: is_lorentz(x),
    "eta_residual": lambda dim, rank, x: eta_residual(x),
}


@settings(max_examples=500, deadline=None)
@given(_array())
def test_array_entry_points_raise_only_tensor_errors(array):
    dim, rank, x = array
    refused = _holds_a_refused_leaf(x)
    for name, call in _ENTRY_POINTS.items():
        try:
            call(dim, rank, x)
        except TensorError as exc:
            assert isinstance(exc, ShapeError) or not refused, (name, exc)
        else:
            assert not refused, (name, x)
