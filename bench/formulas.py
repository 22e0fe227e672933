"""The ``formulas`` workload: parse -> validate -> order -> execute on small
fresh bindings, with statement texts reused Zipf-like from a seeded catalogue.

Every catalogue entry is built from a structured template, so the generator
knows each factor's axis letters and fixed digits itself; the oracle and the
numpy floor are one ``np.einsum`` per term over those subscripts, never the
library's plan.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from common import Op, close, cycle_kinds

# (mode, target, terms, weights, error, extra)
#   target: "Y^r_s", "Y" (scalar target) or None (no target)
#   terms: list of (coefficient, "A^r_s X^s"); placeholders are upper-case
#   extra: "rank" binds the first factor to one slot more than written,
#          "dim" binds the last factor at dim + 1
S, O = "strict", "orthogonal"
_TEMPLATES = [
    (S, "Y^r", [(1, "A^r_s X^s")], {}, None, None),
    (S, None, [(1, "X^r W_r")], {}, None, None),
    (S, "Y", [(1, "A^r_r")], {}, None, None),
    (S, "Y_r", [(1, "G_r_s X^s")], {}, None, None),
    (S, "C^r_t", [(1, "A^r_s B^s_t")], {}, None, None),
    (S, "D_s_r", [(1, "M_r_s")], {}, None, None),
    (S, "Y", [(1, "G_r_s X^r X^s")], {}, None, None),
    (S, "Y^r", [(1, "A^r_s B^s_t X^t")], {}, None, None),
    (S, "Z", [(1, "A^r_s B^s_t C^t_r")], {}, None, None),
    (S, "W^r", [(2, "A^r_s X^s"), (-0.5, "X^r")], {}, None, None),
    (S, "V_r", [(1, "A^s_r_s")], {}, None, None),
    (S, "P^r", [(1, "A^r_1")], {}, None, None),
    (S, "U", [(1, "A^2_s X^s")], {}, None, None),
    (S, "T^r^s", [(1, "X^r Y^s")], {}, None, None),
    (S, "T^s^r", [(1, "X^r Y^s")], {}, None, None),
    (S, "K", [(1, "E_r_s_t X^r Y^s Z^t")], {}, None, None),
    (S, "Y^r", [(1, "A^r_s X^s"), (1, "B^r_s X^s"), (1, "C^r")], {}, None, None),
    (S, "M^r_s", [(1, "A^r_t B^t_u C^u_s")], {}, None, None),
    (S, "N^r_s", [(1, "A^r_t B^t_u C^u_v D^v_s")], {}, None, None),
    (S, "O", [(1, "A^r_s B^s_r")], {}, None, None),
    (S, "F_r_s", [(1.5, "G_r_s"), (1, "G_s_r")], {}, None, None),
    (S, "C_r_s", [(1, "M^t_r_t_s")], {}, None, None),
    (S, "S", [(1, "M^r^s_r_s")], {}, None, None),
    (S, "Z^r_s", [(1, "W^r U_s")], {"W": 1}, None, None),
    (S, "Z^r", [(1, "W^r"), (3, "V^r")], {"W": 1, "V": 1}, None, None),
    (S, "Q", [(1, "A^1_s X^s"), (-1, "A^2_s Y^s")], {}, None, None),
    (S, "Y^r", [(-1, "A^r_s X^s")], {}, None, None),
    (S, "Y^r", [(1e-3, "A^r_s X^s"), (1, "X^r")], {}, None, None),
    (S, "H^r_s_t", [(1, "A^r_u B^u_s_t")], {}, None, None),
    (S, "R_t_r", [(1, "E_r_s_t X^s")], {}, None, None),
    (O, "Y_r", [(1, "A_r_s X_s")], {}, None, None),
    (O, "S", [(1, "X_r X_r")], {}, None, None),
    (O, "C_r_t", [(1, "A_r_s B_s_t"), (-1, "B_r_s A_s_t")], {}, None, None),
    (O, "T", [(1, "A_r_r")], {}, None, None),
    (O, "V_r", [(1, "E_r_s_t X_s Y_t")], {}, None, None),
    (O, "K", [(1, "A_r_s B_s_t C_t_u D_u_r")], {}, None, None),
]
_VIOLATIONS = [
    (S, "Y^r", [(1, "A^r_s X^s Z^s")], {}, "ConventionError", None),
    (S, "Y^r", [(1, "A^r^s X^s")], {}, "ConventionError", None),
    (S, "Y^r", [(1, "A^r_s X^s"), (1, "B^t")], {}, "ConventionError", None),
    (S, "Y^r", [(1, "A^r_s X^s")], {}, "ShapeError", "rank"),
    (S, "Y^r", [(1, "A^r_s X^s")], {}, "ShapeError", "dim"),
    (S, "Y^r", [(1, "A^r_7")], {}, "AddressingError", None),
]
_NAMES = ["a", "b", "c", "g", "h", "m", "p", "q", "t", "u", "v", "w", "x",
          "y", "z", "e", "f", "k", "n", "T", "R", "vel", "acc", "M2", "g0",
          "phi", "B1", "Kx"]
_COEFFS = ["2", "0.5", "1.5e-3", "3.25", ".75", "10", "1.25"]
ZIPF_S = 1.1


def _split_factor(token: str) -> tuple[str, list[tuple[str, str]]]:
    """Template token "A^r_s" -> ("A", [("u", "r"), ("d", "s")])."""
    cut = next((i for i, ch in enumerate(token) if ch in "^_"), len(token))
    body = token[cut:]
    written = [("u" if body[k] == "^" else "d", body[k + 1])
               for k in range(0, len(body), 2)]
    return token[:cut], written


@dataclass
class Entry:
    """One catalogue statement and what the generator knows about it."""

    text: str
    strict: bool
    bindings: dict[str, tuple[tuple[str, ...], int, int]]  # name -> slots, weight, dim offset
    terms: list[tuple[float, list[tuple[str, tuple]]]]  # (coef, [(name, axis keys)])
    target: str  # free letters of the result, in target order
    result_slots: tuple[str, ...]
    weight: int
    error: str | None


def _render(written: list[tuple[str, str]], rng: np.random.Generator) -> str:
    out, k = [], 0
    while k < len(written):
        run = [written[k]]
        while k + len(run) < len(written) and written[k + len(run)][0] == run[0][0]:
            run.append(written[k + len(run)])
        mark = "^" if run[0][0] == "u" else "_"
        if len(run) > 1 and rng.random() < 0.6:
            out.append(mark + "{" + "".join(ch for _, ch in run) + "}")
        else:
            out.extend(mark + ch for _, ch in run)
        k += len(run)
    return "".join(out)


def _binding_axes(written, slots, strict):
    """Axis key per bound slot: a letter, or an int for a fixed digit."""
    if strict:
        pools = {v: [k for k, s in enumerate(slots) if s == v] for v in "ud"}
        order = [pools[v].pop(0) for v, _ in written]
    else:
        order = list(range(len(written)))
    axes: list = [None] * len(slots)
    for (_, ch), slot in zip(written, order):
        axes[slot] = int(ch) - 1 if ch.isdigit() else ch
    return tuple(axes)


def _make_entry(template, rng: np.random.Generator) -> Entry:
    mode, target, terms, weights, error, extra = template
    strict = mode == S
    letters = iter(rng.permutation(list("abcdefghijklmnopqrstuvwxyz")))
    letter_map: dict[str, str] = {}
    names = iter(rng.permutation(_NAMES))
    name_map: dict[str, str] = {}

    def letter(ch: str) -> str:
        if ch.isdigit():
            return ch
        return letter_map.setdefault(ch, str(next(letters)))

    def name(placeholder: str) -> str:
        return name_map.setdefault(placeholder, str(next(names)))

    bindings: dict[str, tuple[tuple[str, ...], int, int]] = {}
    out_terms, texts = [], []
    for t_index, (coef, body) in enumerate(terms):
        if coef in (1, -1):
            coef_value, prefix = float(coef), ""
        else:
            literal = "1e-3" if coef == 1e-3 else str(rng.choice(_COEFFS))
            coef_value = math.copysign(float(literal), coef)
            prefix = literal + " * "
        factors, rendered = [], []
        tokens = body.split()
        for f_index, token in enumerate(tokens):
            placeholder, written = _split_factor(token)
            written = [(v, letter(ch)) for v, ch in written]
            real = name(placeholder)
            if real not in bindings:
                if strict:
                    # bind with a seeded interleaving of the written variances
                    # that keeps each variance's order: x_1^r and x^r_1 agree
                    slots = list(v for v, _ in written)
                    if rng.random() < 0.3:
                        slots = sorted(slots, key=lambda v: v == "u")
                else:
                    slots = [str(rng.choice(["u", "d"])) for _ in written]
                offset = 0
                if extra == "rank" and f_index == 0:
                    slots = slots + ["d"]
                if extra == "dim" and f_index == len(tokens) - 1:
                    offset = 1
                bindings[real] = (tuple(slots), weights.get(placeholder, 0), offset)
            slots = bindings[real][0]
            if len(slots) == len(written):
                factors.append((real, _binding_axes(written, slots, strict)))
            rendered.append(real + _render(written, rng))
        sign = "- " if coef_value < 0 else ("+ " if t_index else "")
        texts.append((" " if t_index else "") + sign + prefix + " ".join(rendered))
        out_terms.append((coef_value, factors))

    text = "".join(texts)
    free, result_slots = "", ()
    if target is not None:
        t_name, t_written = _split_factor(target)
        t_written = [(v, letter(ch)) for v, ch in t_written]
        free = "".join(ch for _, ch in t_written)
        result_slots = tuple(v for v, _ in t_written)
        head = name(t_name) + _render(t_written, rng)
        text = f"{head} = {text}"
    weight = sum(bindings[n][1] for n, _ in out_terms[0][1]) if not error else 0
    return Entry(text, strict, bindings, out_terms, free, result_slots, weight, error)


def build_catalogue(rng: np.random.Generator) -> tuple[list[Entry], list[Entry]]:
    return ([_make_entry(t, rng) for t in _TEMPLATES],
            [_make_entry(t, rng) for t in _VIOLATIONS])


def _oracle(entry: Entry, arrays: dict[str, np.ndarray]) -> np.ndarray:
    total = None
    for coef, factors in entry.terms:
        operands, subs = [], []
        for name, axes in factors:
            index = tuple(a if isinstance(a, int) else slice(None) for a in axes)
            operands.append(arrays[name][index])
            subs.append("".join(a for a in axes if not isinstance(a, int)))
        value = coef * np.einsum(",".join(subs) + "->" + entry.target, *operands)
        total = value if total is None else total + value
    return total


class Formulas:
    shares = {"valid": 95, "violation": 5}

    def __init__(self, ix, rng: np.random.Generator):
        self.ix = ix
        self.rng = rng
        self.valid, self.bad = build_catalogue(rng)
        p = 1.0 / np.arange(1, len(self.valid) + 1) ** ZIPF_S
        self.p = p / p.sum()
        self.var = {"u": ix.UP, "d": ix.DOWN}
        self.errors = {e: getattr(ix, e) for e in
                       ("ConventionError", "ShapeError", "AddressingError")}

    def warmup(self) -> list[Op]:
        return [self._op(entry) for entry in self.valid + self.bad]

    def cycle(self) -> list[Op]:
        rng = self.rng
        return [self._op(self.valid[rng.choice(len(self.valid), p=self.p)] if kind == "valid"
                         else self.bad[rng.integers(len(self.bad))])
                for kind in cycle_kinds(rng, self.shares)]

    def _op(self, entry: Entry) -> Op:
        ix, rng = self.ix, self.rng
        dim = int(rng.integers(2, 5))
        raw = {}
        for name, (slots, weight, offset) in entry.bindings.items():
            d = dim + offset
            raw[name] = (d, tuple(self.var[s] for s in slots), weight,
                         rng.standard_normal((d,) * len(slots)))
        mode = ix.Mode.STRICT if entry.strict else ix.Mode.ORTHOGONAL
        text = entry.text

        def run():
            b = {n: ix.new_object(d, s, w, a) for n, (d, s, w, a) in raw.items()}
            plan = ix.order_contractions(ix.validate(ix.parse(text), b, mode))
            return ix.execute(plan, b)

        if entry.error:
            return Op("violation", run, expect=self.errors[entry.error])
        arrays = {n: a for n, (_, _, _, a) in raw.items()}
        want_slots = tuple(self.var[s] for s in entry.result_slots)

        def twin():
            t0 = time.perf_counter()
            value = _oracle(entry, arrays)
            return {"einsum": time.perf_counter() - t0}, value

        def check(res, value) -> bool:
            return (res.dim == dim and res.slots == want_slots
                    and res.weight == entry.weight and close(res.components, value))

        return Op("eval", run, twin, check)
