"""JSON documents for tensors, frames, bases, and name bindings.

Tensor document::

    {"dim": 3, "slots": ["up", "down"], "weight": 0,
     "components": [[...], [...], [...]]}

Components nest one list level per slot, outermost level = slot 0; a rank-0
document stores a bare number.  Frame documents carry the new-from-old
matrix under "c" (row = upper index); the inverse is always derived, never
read.  Basis documents list the basis vectors' ambient coordinates under
"vectors".  A bindings file is either an object mapping names to tensor
documents or a single tensor document bound under the file's stem name.

Every number in every document passes one reader, ``_read_array``: it must
be a JSON number (not a bool) that float64 holds as a finite value, so NaN,
Infinity and integers beyond the float64 range are rejected at load with a
``DocumentError``.  The nesting is checked against the declared dim before
any array is allocated.  Each check runs in C over a whole nesting level at
once (the item types, the list lengths, then the leaf types), so a read
costs little more than numpy's own conversion of the nested lists; a Python
scan runs only to name the first offending leaf of a rejected document.

Emission is one ``orjson.dumps`` call that writes the float64 components
straight from the array, each as the shortest decimal that reads back as
the same float64 (``-0.0`` kept; exponents spelled ``1e300``, ``2.5e-7``),
so reading a written document with ``json`` reproduces the exact values.
The text is compact: ``{"dim":2,"slots":["up"],"weight":0,...}``.  orjson
writes NaN and Infinity as ``null``, so every component is checked finite
first.  Loading stays on ``json``: orjson's parser takes more peak memory
on large documents, refuses NaN and ``1e400`` as invalid JSON before
``_read_array`` can name them, and reads integers beyond 64 bits as floats.
"""

from __future__ import annotations

import json
import os
from itertools import chain
from typing import Callable, Iterable, TypeVar

import numpy as np

from .errors import DocumentError
from .frames import Frame, frame_from_matrix
from .objects import MIXED_SLOTS, UP, TensorObject, Variance, new_object

_VARIANCES = {v.value: v for v in Variance}

_T = TypeVar("_T")


def _require_keys(obj: object, kind: str, allowed: set[str]) -> dict:
    if not isinstance(obj, dict):
        raise DocumentError(f"{kind} document must be an object, got {type(obj).__name__}")
    unknown = set(obj) - allowed
    if unknown:
        raise DocumentError(f"unknown {kind} document keys: {sorted(unknown)}")
    return obj


def _require_int(obj: dict, key: str, minimum: int | None = None) -> int:
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(f'"{key}" must be an integer, got {value!r}')
    if minimum is not None and value < minimum:
        raise DocumentError(f'"{key}" must be >= {minimum}, got {value}')
    return value


_LIST_TYPES = frozenset((list,))
_NUMBER_TYPES = frozenset((int, float))


def _is_list_type(kind: type) -> bool:
    return issubclass(kind, list)


def _is_number_type(kind: type) -> bool:
    """An ``int`` or ``float`` subclass that is not a ``bool`` subclass."""
    return issubclass(kind, (int, float)) and not issubclass(kind, bool)


def _all_of(items: list, exact: frozenset, accept: Callable[[type], bool]) -> bool:
    """Whether ``accept`` holds for the type of every item.  The common case,
    every type in ``exact``, is decided in C; otherwise ``accept`` runs once
    per distinct type."""
    return exact.issuperset(map(type, items)) or all(map(accept, set(map(type, items))))


_all_reduce = np.logical_and.reduce


def _read_array(node: object, dim: int, rank: int, what: str) -> np.ndarray:
    """Read ``rank`` levels of nested lists of length ``dim`` holding numbers.

    Each level is checked whole and then flattened, so the array of shape
    ``(dim,) * rank`` is allocated only once the input has matched it.  The
    checks run in C over a whole level: the set of its item types, the set
    of its list lengths, and ``itertools.chain`` for the next level.  The
    set of leaf types decides whether every leaf is a number; only when it
    is not does a Python scan find the first offending leaf in C order for
    the message.  That type check cannot be left to numpy, whose float64
    conversion silently accepts ``True``, ``"1.5"`` and ``None``.
    """
    level = [node]
    for depth in range(rank):
        if not (_all_of(level, _LIST_TYPES, _is_list_type) and {dim}.issuperset(map(len, level))):
            raise DocumentError(f"{what} must nest lists of length {dim} at depth {depth}")
        level = list(chain.from_iterable(level))
    if not _all_of(level, _NUMBER_TYPES, _is_number_type):
        bad = next(v for v in level if not _is_number_type(type(v)))
        raise DocumentError(f"{what} must hold numbers at depth {rank}, got {bad!r}")
    try:
        arr = np.array(level, dtype=np.float64)
    except OverflowError:
        raise DocumentError(f"{what} holds an integer outside the float64 range") from None
    finite = np.isfinite(arr)
    # the reduction ``ndarray.all`` runs, without its Python wrapper
    if not _all_reduce(finite, None):
        raise DocumentError(f"{what} must be finite, got {arr[~finite][0]}")
    return arr.reshape((dim,) * rank)


def parse_tensor_document(obj: object) -> TensorObject:
    """Validate and convert one tensor document."""
    obj = _require_keys(obj, "tensor", {"dim", "slots", "weight", "components"})
    dim = _require_int(obj, "dim", minimum=1)
    raw_slots = obj.get("slots")
    if not isinstance(raw_slots, list) or any(
        not isinstance(s, str) or s not in _VARIANCES for s in raw_slots
    ):
        raise DocumentError('"slots" must be a list of "up"/"down" strings')
    slots = tuple(_VARIANCES[s] for s in raw_slots)
    weight = _require_int(obj, "weight") if "weight" in obj else 0
    if "components" not in obj:
        raise DocumentError('missing "components"')
    arr = _read_array(obj["components"], dim, len(slots), '"components"')
    return new_object(dim, slots, weight, arr)


def format_tensor_document(t: TensorObject) -> str:
    """Serialize with a stable key order and shortest round-trip floats."""
    # imported here: orjson's own imports (uuid, zoneinfo, sysconfig) cost
    # ~5 ms that a process writing no document never pays
    import orjson

    components = t.components
    finite = np.isfinite(components)
    if not _all_reduce(finite, None):
        bad = components[~finite]
        raise DocumentError(f"cannot emit non-finite component {float(bad[0])!r}")
    # orjson writes a C-contiguous float64 array itself; ``default`` turns a
    # 0-d array or a non-C-contiguous view into Python floats instead
    return orjson.dumps(
        {"dim": t.dim, "slots": [s.value for s in t.slots], "weight": t.weight,
         "components": components},
        option=orjson.OPT_SERIALIZE_NUMPY,
        default=np.ndarray.tolist,
    ).decode()


def _load(path: str, parse: Callable[[object], _T]) -> _T:
    """Read the JSON file at ``path`` and parse it; errors name the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    # ValueError covers bad JSON, bad UTF-8 and integers over the digit limit;
    # json recurses once per nesting level
    except (ValueError, RecursionError) as exc:
        raise DocumentError(f"{path} is not valid JSON: {exc}") from exc
    try:
        return parse(obj)
    except DocumentError as exc:
        raise DocumentError(f"{path}: {exc}") from None


def load_tensor_document(path: str) -> TensorObject:
    return _load(path, parse_tensor_document)


def parse_frame_document(obj: object) -> Frame:
    obj = _require_keys(obj, "frame", {"dim", "c"})
    dim = _require_int(obj, "dim", minimum=1)
    matrix = _read_array(obj.get("c"), dim, 2, '"c"')
    return frame_from_matrix(new_object(dim, MIXED_SLOTS, 0, matrix))


def load_frame_document(path: str) -> Frame:
    return _load(path, parse_frame_document)


def parse_basis_document(obj: object) -> list[TensorObject]:
    obj = _require_keys(obj, "basis", {"dim", "vectors"})
    dim = _require_int(obj, "dim", minimum=1)
    matrix = _read_array(obj.get("vectors"), dim, 2, '"vectors"')
    return [new_object(dim, (UP,), 0, row) for row in matrix]


def load_basis_document(path: str) -> list[TensorObject]:
    return _load(path, parse_basis_document)


def _valid_name(name: str) -> bool:
    return bool(name) and name[0].isalpha() and name.isalnum()


def _parse_bindings(obj: object, path: str) -> dict[str, TensorObject]:
    if isinstance(obj, dict) and {"slots", "components"} <= set(obj):
        stem = os.path.splitext(os.path.basename(path))[0]
        if not _valid_name(stem):
            raise DocumentError(f"file stem {stem!r} is not a usable binding name")
        return {stem: parse_tensor_document(obj)}
    if not isinstance(obj, dict):
        raise DocumentError("bindings file must be a JSON object")
    entries = {}
    for name, doc in obj.items():
        if not _valid_name(name):
            raise DocumentError(f"invalid binding name {name!r}")
        entries[name] = parse_tensor_document(doc)
    return entries


def load_bindings(paths: Iterable[str]) -> dict[str, TensorObject]:
    """Merge one or more bindings files; duplicate names are an error."""
    bindings: dict[str, TensorObject] = {}
    for path in paths:
        for name, t in _load(path, lambda obj: _parse_bindings(obj, path)).items():
            if name in bindings:
                raise DocumentError(f"{path}: duplicate binding name {name!r}")
            bindings[name] = t
    return bindings
