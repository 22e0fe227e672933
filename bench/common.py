"""Pieces shared by the three workload generators.

An ``Op`` is one unit of closed-loop work.  ``run`` is the library call the
benchmark times; ``twin`` computes the same result with plain numpy (or the
stdlib JSON codec) and returns ``(floor_seconds_by_part, expected)``; the
runner times it outside the op and uses ``expected`` as the oracle value for
``check``.  Ops that must raise carry ``expect``, the ``TensorError``
subclass they must raise; CLI-shaped requests instead return their exit
code, which ``check`` grades.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_library():
    """Import indicial from the checkout's ``src``; exit 2 when it is absent."""
    if not os.path.isfile(os.path.join(SRC, "indicial", "__init__.py")):
        print(f"error: no indicial sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import indicial
    import indicial.cli

    return indicial


Twin = Callable[[], "tuple[dict[str, float], Any]"]


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    twin: Twin | None = None
    check: Callable[[Any, Any], bool] | None = None
    expect: type | None = None  # the exception the op must raise


def cycle_kinds(rng: np.random.Generator, shares: dict[str, int]) -> list[str]:
    """One shuffled cycle holding every kind exactly ``shares[kind]`` times.

    Fixed shares per cycle keep the op mix, and so the latency percentiles,
    the same for every seed; the seed only changes order and content.
    """
    kinds = [k for k, n in shares.items() for _ in range(n)]
    rng.shuffle(kinds)
    return kinds


def close(got: np.ndarray, want: np.ndarray, rtol: float = 1e-9) -> bool:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return False
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    return bool(np.allclose(got, want, rtol=rtol, atol=rtol * scale))


def well_conditioned(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random matrix with singular values in [0.5, 2], far from singular."""
    q1, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    q2, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q1 @ np.diag(rng.uniform(0.5, 2.0, dim)) @ q2


def spd(rng: np.random.Generator, dim: int, negative: bool = False) -> np.ndarray:
    """Symmetric matrix with eigenvalues in [0.5, 2]; one is -1 if ``negative``."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eig = rng.uniform(0.5, 2.0, dim)
    if negative:
        eig[rng.integers(dim)] = -1.0
    m = q @ np.diag(eig) @ q.T
    return (m + m.T) / 2.0
