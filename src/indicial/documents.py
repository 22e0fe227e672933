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

Emission uses 17 significant digits so reading a written document
reproduces the exact float64 values.
"""

from __future__ import annotations

import json
import math
import os
from typing import Iterable

import numpy as np

from .errors import DocumentError
from .frames import Frame, frame_from_matrix
from .objects import DOWN, MIXED_SLOTS, UP, TensorObject, new_object

_VARIANCES = {"up": UP, "down": DOWN}


def _require_int(obj: dict, key: str, minimum: int | None = None) -> int:
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(f'"{key}" must be an integer, got {value!r}')
    if minimum is not None and value < minimum:
        raise DocumentError(f'"{key}" must be >= {minimum}, got {value}')
    return value


def parse_tensor_document(obj: object) -> TensorObject:
    """Validate and convert one tensor document."""
    if not isinstance(obj, dict):
        raise DocumentError(f"tensor document must be an object, got {type(obj).__name__}")
    unknown = set(obj) - {"dim", "slots", "weight", "components"}
    if unknown:
        raise DocumentError(f"unknown tensor document keys: {sorted(unknown)}")
    dim = _require_int(obj, "dim", minimum=1)
    raw_slots = obj.get("slots")
    if not isinstance(raw_slots, list) or any(s not in _VARIANCES for s in raw_slots):
        raise DocumentError('"slots" must be a list of "up"/"down" strings')
    slots = tuple(_VARIANCES[s] for s in raw_slots)
    weight = _require_int(obj, "weight") if "weight" in obj else 0
    if "components" not in obj:
        raise DocumentError('missing "components"')
    arr = np.zeros((dim,) * len(slots))

    def walk(node: object, depth: int, idx: tuple[int, ...]) -> None:
        if depth == len(slots):
            if isinstance(node, bool) or not isinstance(node, (int, float)):
                raise DocumentError(
                    f"component at depth {depth} must be a number, got {node!r}"
                )
            arr[idx] = float(node)
            return
        if not isinstance(node, list) or len(node) != dim:
            raise DocumentError(
                f"components must nest lists of length {dim} at depth {depth}"
            )
        for k, sub in enumerate(node):
            walk(sub, depth + 1, idx + (k,))

    walk(obj["components"], 0, ())
    return new_object(dim, slots, weight, arr)


def _format_float(v: float) -> str:
    if not math.isfinite(v):
        raise DocumentError(f"cannot emit non-finite component {v!r}")
    return format(v, ".17g")


def _format_nested(arr: np.ndarray) -> str:
    if arr.ndim == 0:
        return _format_float(float(arr))
    return "[" + ", ".join(_format_nested(sub) for sub in arr) + "]"


def format_tensor_document(t: TensorObject) -> str:
    """Serialize with a stable key order and 17 significant digits."""
    slots = ", ".join(f'"{s.value}"' for s in t.slots)
    return (
        f'{{"dim": {t.dim}, "slots": [{slots}], "weight": {t.weight}, '
        f'"components": {_format_nested(t.components)}}}'
    )


def _load_json(path: str) -> object:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path} is not valid JSON: {exc}") from exc


def load_tensor_document(path: str) -> TensorObject:
    try:
        return parse_tensor_document(_load_json(path))
    except DocumentError as exc:
        raise DocumentError(f"{path}: {exc}") from None


def parse_frame_document(obj: object) -> Frame:
    if not isinstance(obj, dict):
        raise DocumentError("frame document must be an object")
    unknown = set(obj) - {"dim", "c"}
    if unknown:
        raise DocumentError(f"unknown frame document keys: {sorted(unknown)}")
    dim = _require_int(obj, "dim", minimum=1)
    rows = obj.get("c")
    matrix = _parse_matrix(rows, dim, '"c"')
    return frame_from_matrix(new_object(dim, MIXED_SLOTS, 0, matrix))


def _parse_matrix(rows: object, dim: int, what: str) -> np.ndarray:
    if not isinstance(rows, list) or len(rows) != dim:
        raise DocumentError(f"{what} must be a list of {dim} rows")
    arr = np.zeros((dim, dim))
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise DocumentError(f"{what} row {r} must be a list of {dim} numbers")
        for s, v in enumerate(row):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise DocumentError(f"{what}[{r}][{s}] must be a number, got {v!r}")
            arr[r, s] = float(v)
    return arr


def load_frame_document(path: str) -> Frame:
    try:
        return parse_frame_document(_load_json(path))
    except DocumentError as exc:
        raise DocumentError(f"{path}: {exc}") from None


def parse_basis_document(obj: object) -> list[TensorObject]:
    if not isinstance(obj, dict):
        raise DocumentError("basis document must be an object")
    unknown = set(obj) - {"dim", "vectors"}
    if unknown:
        raise DocumentError(f"unknown basis document keys: {sorted(unknown)}")
    dim = _require_int(obj, "dim", minimum=1)
    matrix = _parse_matrix(obj.get("vectors"), dim, '"vectors"')
    return [new_object(dim, (UP,), 0, matrix[r]) for r in range(dim)]


def load_basis_document(path: str) -> list[TensorObject]:
    try:
        return parse_basis_document(_load_json(path))
    except DocumentError as exc:
        raise DocumentError(f"{path}: {exc}") from None


def _valid_name(name: str) -> bool:
    return bool(name) and name[0].isalpha() and name.isalnum()


def load_bindings(paths: Iterable[str]) -> dict[str, TensorObject]:
    """Merge one or more bindings files; duplicate names are an error."""
    bindings: dict[str, TensorObject] = {}
    for path in paths:
        obj = _load_json(path)
        try:
            if isinstance(obj, dict) and {"slots", "components"} <= set(obj):
                stem = os.path.splitext(os.path.basename(path))[0]
                if not _valid_name(stem):
                    raise DocumentError(
                        f"file stem {stem!r} is not a usable binding name"
                    )
                entries = {stem: parse_tensor_document(obj)}
            elif isinstance(obj, dict):
                entries = {}
                for name, doc in obj.items():
                    if not _valid_name(name):
                        raise DocumentError(f"invalid binding name {name!r}")
                    entries[name] = parse_tensor_document(doc)
            else:
                raise DocumentError("bindings file must be a JSON object")
        except DocumentError as exc:
            raise DocumentError(f"{path}: {exc}") from None
        for name, t in entries.items():
            if name in bindings:
                raise DocumentError(f"{path}: duplicate binding name {name!r}")
            bindings[name] = t
    return bindings
