"""The fault table: which catalogue checks each plausible library fault fails.

Each row replaces one library function, at the attribute the catalogue
reads, by a faulty version: a sign, a transpose, a dropped term or power, a
skipped refusal, a degenerate generator.  It runs ``run_checks`` at dims
2-6 with seed 42 and asserts the exact set of check ids that fail at one or
more of those dims.  The first row applies no fault and expects none to
fail.  Every check id is named by some row, so no check in
``check-exercises`` passes whatever the library does.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from indicial import exercises
from indicial.errors import ConventionError, DefinitenessError, SingularityError
from indicial.exercises import determinants, frames, metric, minkowski, objects, symbols
from indicial.objects import DOWN, UP, TensorObject, new_object

replace = dataclasses.replace


def _like(t: TensorObject, components=None, *, slots=None, weight=None) -> TensorObject:
    """``t`` with some of its components, slots and weight replaced."""
    return TensorObject(
        t.dim,
        t.slots if slots is None else slots,
        t.weight if weight is None else weight,
        t.components if components is None else np.asarray(components, dtype=float),
    )


def _transposed(t: TensorObject) -> TensorObject:
    return _like(t, t.components.T)


def _array(x) -> np.ndarray:
    return np.asarray(getattr(x, "components", x), dtype=float)


def _on_result(edit):
    """The real function, with ``edit(result, *args)`` applied to its result."""
    return lambda real: lambda *args: edit(real(*args), *args)


def _in_frame(edit):
    """The real law, applied in the frame that ``edit`` makes of its frame."""
    return lambda real: lambda t, f: real(t, edit(f))


def _replaced_by(fake):
    return lambda real: fake


def _refusal_skipped(cls, fallback):
    """The real function, but ``fallback`` where it would raise ``cls``."""
    def make(real):
        def fake(*args):
            try:
                return real(*args)
            except cls:
                return fallback(*args)
        return fake
    return make


# the three broken laws that the covariance checks were first measured
# against

def _drop_weight(real):
    return lambda t, f: new_object(t.dim, t.slots, 0, real(t, f).components)


def _drop_det_power(real):
    def law(t, f):
        unweighted = new_object(t.dim, t.slots, 0, t.components)
        return new_object(t.dim, t.slots, t.weight, real(unweighted, f).components)
    return law


def _every_slot(variance):
    def make(real):
        def law(t, f):
            relabelled = new_object(t.dim, (variance,) * t.rank, t.weight, t.components)
            return new_object(t.dim, t.slots, t.weight, real(relabelled, f).components)
        return law
    return make


def _pinv_frame(c) -> frames.Frame:
    m = _array(c)
    gamma = np.linalg.pinv(m)
    return frames.Frame(len(m), TensorObject(len(m), (UP, DOWN), 0, m),
                        TensorObject(len(m), (UP, DOWN), 0, gamma), 1.0)


def _permanent(t) -> float:
    m = _array(t)
    return float(sum(math.prod(m[i, p] for i, p in enumerate(perm))
                     for _, perm in symbols._signed_permutations(len(m))))


def _sarrus(m: np.ndarray) -> float:
    """The products along the wrapped diagonals, which give the determinant
    only up to dim 3."""
    d = len(m)
    rows = range(d)
    return float(sum(math.prod(m[i, (i + k) % d] for i in rows)
                     - math.prod(m[i, (k - i) % d] for i in rows) for k in rows))


def _backward_in_the_same_frame(old, new, f, weight, tol=1e-9) -> bool:
    forward = frames.transform(_like(old, weight=weight), f)
    backward = frames.transform(_like(new, weight=weight), f)
    return bool(np.allclose(new.components, forward.components, rtol=tol, atol=tol)
                and np.allclose(old.components, backward.components, rtol=tol, atol=tol))


def _symmetry_labels_swapped(real):
    s = objects.Symmetry
    swap = {s.SYMMETRIC: s.ANTISYMMETRIC, s.ANTISYMMETRIC: s.SYMMETRIC, s.NEITHER: s.NEITHER}
    return lambda *args, **kw: swap[real(*args, **kw)]


def _kronecker_mixed_slots_reversed(real):
    def kronecker(dim, kind):
        delta = real(dim, kind)
        return _like(delta, slots=(DOWN, UP)) if kind is symbols.KroneckerKind.MIXED else delta
    return kronecker


def _kronecker_fixed_kinds_swapped(real):
    kinds = symbols.KroneckerKind
    other = {kinds.MIXED: kinds.MIXED, kinds.LOWER_LOWER: kinds.UPPER_UPPER,
             kinds.UPPER_UPPER: kinds.LOWER_LOWER}
    return lambda dim, kind: real(dim, other[kind])


def _indefinite_metric(g) -> metric.Metric:
    m = _array(g)
    return metric.Metric(TensorObject(len(m), (DOWN, DOWN), 0, m),
                         TensorObject(len(m), (UP, UP), 0, np.linalg.pinv(m)), 1.0)


def _gram_of_columns(basis) -> metric.Metric:
    rows = np.array([e.components for e in basis])
    return metric.metric_from_tensor(rows.T @ rows)


def _boost_matrix(diagonal: float, off_diagonal: float) -> np.ndarray:
    m = np.eye(4)
    m[0, 0] = m[1, 1] = diagonal
    m[0, 1] = m[1, 0] = off_diagonal
    return m


def _unchecked_boost(beta: float) -> np.ndarray:
    gamma = 1.0 / math.sqrt(1.0 - beta * beta)
    return _boost_matrix(gamma, -beta * gamma)


def _pairs_on_the_diagonal_only(c, tol=1e-9) -> bool:
    m = np.asarray(c, dtype=float)
    return bool(np.allclose(np.diag(m.T @ minkowski.ETA @ m), np.diag(minkowski.ETA), atol=tol))


def _terms_edited(edit):
    """``execute`` on the plan with its terms edited."""
    def make(real):
        return lambda plan, bindings: real(replace(plan, terms=edit(plan.terms)), bindings)
    return make


def _matrices_read_transposed(real):
    def execute(plan, bindings):
        return real(plan, {name: _transposed(t) if t.rank == 2 else t
                           for name, t in bindings.items()})
    return execute


def _scheduler_keeps_written_output_axes(real):
    def order(plan):
        new = real(plan)
        # a term is (factors, steps, output_axes, coefficient, schedule)
        return replace(new, terms=tuple(n[:2] + o[2:3] + n[3:]
                                        for n, o in zip(new.terms, plan.terms)))
    return order


def _weight_of_first_factor(real):
    def validate(statement, bindings, mode=exercises.Mode.STRICT):
        plan = real(statement, bindings, mode)
        return replace(plan, weight=bindings[statement.terms[0].factors[0].name].weight)
    return validate


def _term_weights_unchecked(real):
    def validate(statement, bindings, mode=exercises.Mode.STRICT):
        try:
            return real(statement, bindings, mode)
        except ConventionError as exc:
            if "weight" not in str(exc):
                raise
            return real(statement, {k: _like(t, weight=0) for k, t in bindings.items()}, mode)
    return validate


def _row(label, target, name, fault, failing):
    return pytest.param(target, name, fault, set(failing.split()), id=label)


ROWS = [
    _row("no fault", None, None, None, ""),
    # the weighted transformation law
    _row("transform: every slot treated as upper", frames, "transform",
         _every_slot(UP),
         "eq07 eq10 eq14 eq15 eq18 eq22 ex19 ex25 ex26 ex28 ex29 ex30 ex32 ex43 ex44 "
         "ex45 ex48 ex49 ex50 ex52"),
    _row("transform: every slot treated as lower", frames, "transform",
         _every_slot(DOWN),
         "eq04 eq10 eq14 eq15 eq18 ex25 ex27 ex28 ex29 ex30 ex32 ex43 ex44 ex45 ex48 "
         "ex49 ex51 ex52"),
    _row("transform: lower slots through gamma transposed", frames, "transform",
         _in_frame(lambda f: replace(f, gamma=_transposed(f.gamma))),
         "eq07 eq10 eq14 eq15 eq18 eq22 ex19 ex25 ex28 ex29 ex30 ex32 ex43 ex44 ex48"),
    _row("transform: upper slots through c transposed", frames, "transform",
         _in_frame(lambda f: replace(f, c=_transposed(f.c))),
         "eq04 eq10 eq14 eq15 eq18 ex25 ex28 ex29 ex30 ex32 ex43 ex44 ex48"),
    _row("transform: the weight power taken from det c", frames, "transform",
         _in_frame(lambda f: replace(f, det_gamma=1.0 / f.det_gamma)),
         "eq15 ex44 ex45 ex48"),
    _row("transform: the weight power of |det gamma|", frames, "transform",
         _in_frame(lambda f: replace(f, det_gamma=abs(f.det_gamma))),
         "eq15 ex45"),
    _row("transform: the weight power dropped", frames, "transform",
         _drop_det_power,
         "eq15 ex44 ex45 ex48"),
    _row("transform: the weight dropped", frames, "transform",
         _drop_weight,
         "eq15 ex41 ex48"),
    _row("transform: a vector fast path through c transposed", frames, "transform",
         lambda real: lambda t, f: real(t, replace(f, c=_transposed(f.c)) if t.rank == 1 else f),
         "eq04 eq10 eq15 eq18 ex28 ex30 ex42"),
    _row("transform: output slots in reverse order", frames, "transform",
         _on_result(lambda r, t, f: _like(r, r.components.T)),
         "eq14 eq15 ex23 ex28 ex29 ex30 ex32 ex42 ex43 ex44 ex45 ex48 ex52"),
    # frames
    _row("frame_from_matrix: a singular matrix accepted", frames, "frame_from_matrix",
         _refusal_skipped(SingularityError, _pinv_frame),
         "det-singular frame-singular"),
    _row("frame_from_matrix: gamma transposed", frames, "frame_from_matrix",
         _on_result(lambda f, c: replace(f, gamma=_transposed(f.gamma))),
         "eq10 eq13 eq18 eq22 ex19 ex20 ex25 ex28 ex29 ex30 ex43 ex48"),
    _row("frame_from_matrix: det c cached as det gamma", frames, "frame_from_matrix",
         _on_result(lambda f, c: replace(f, det_gamma=1.0 / f.det_gamma)),
         "ex45 ex48 ex50 ex51"),
    _row("random_frame: the identity", frames, "random_frame",
         _replaced_by(lambda rng, dim=3, min_det=0.1: frames.identity_frame(dim)),
         "ex20"),
    _row("transform_basis: gamma untransposed", frames, "transform_basis",
         lambda real: lambda f, basis: real(replace(f, gamma=_transposed(f.gamma)), basis),
         "eq13 ex21"),
    _row("transform_basis: the old basis returned", frames, "transform_basis",
         _replaced_by(lambda f, basis: list(basis)),
         "eq13 ex21"),
    _row("verify_transform_law: checked backward in the same frame",
         frames, "verify_transform_law",
         _replaced_by(_backward_in_the_same_frame),
         "ex48"),
    # objects
    _row("add: subtracts", objects, "add",
         _replaced_by(lambda a, b: _like(a, a.components - b.components)),
         "ex06 ex41"),
    _row("add: returns its first operand", objects, "add",
         _replaced_by(lambda a, b: a),
         "ex06 ex41"),
    _row("outer_product: the weight of the first operand", objects, "outer_product",
         _on_result(lambda r, a, b: _like(r, weight=a.weight)),
         "ex40 ex42"),
    _row("outer_product: operands in reverse order", objects, "outer_product",
         _on_result(lambda r, a, b: _like(
             r, np.multiply.outer(b.components, a.components).reshape(r.components.shape))),
         "core-dot ex23 ex28 ex42"),
    _row("contract: the weight dropped", objects, "contract",
         _on_result(lambda r, t, up, down: _like(r, weight=0)),
         "ex43"),
    _row("contract: always the first two slots", objects, "contract",
         lambda real: lambda t, up, down: real(t, 0, 1),
         "core-dot"),
    _row("symmetry_check: labels swapped", objects, "symmetry_check",
         _symmetry_labels_swapped,
         "ex24"),
    _row("swap_slots: returns the object unchanged", objects, "swap_slots",
         _replaced_by(lambda t, i, j: t),
         "ex06"),
    # determinants
    _row("determinant: negated", determinants, "determinant",
         _on_result(lambda d, t: -d),
         "det-paths det-product eq01 eq02 ex11 ex12 ex13 ex14"),
    _row("determinant: absolute value", determinants, "determinant",
         _on_result(lambda d, t: abs(d)),
         "det-paths eq02 ex12 ex13"),
    _row("determinant: the permanent", determinants, "determinant",
         _replaced_by(_permanent),
         "det-paths det-product eq01 eq02 ex12 ex13 ex14 ex48 ex49"),
    _row("determinant: the rule of Sarrus above dim 3", determinants, "determinant",
         lambda real: lambda t: real(t) if len(_array(t)) <= 3 else _sarrus(_array(t)),
         "det-paths det-product ex48 ex49"),
    _row("inverse: a singular matrix accepted", determinants, "inverse",
         _refusal_skipped(SingularityError, lambda t: TensorObject(
             len(t), (UP, DOWN), 0, np.linalg.pinv(_array(t)))),
         "det-singular"),
    # symbols
    _row("kronecker: the mixed delta lower slot first", symbols, "kronecker",
         _kronecker_mixed_slots_reversed,
         "ex07 ex11"),
    _row("kronecker: twice-upper and twice-lower swapped", symbols, "kronecker",
         _kronecker_fixed_kinds_swapped,
         "eq22 ex26 ex27"),
    _row("levi_civita_symbol: the weights swapped", symbols, "levi_civita_symbol",
         _on_result(lambda e, dim, v: _like(e, weight=-e.weight)),
         "ex45"),
    _row("levi_civita_symbol: weight 0", symbols, "levi_civita_symbol",
         _on_result(lambda e, dim, v: _like(e, weight=0)),
         "ex45"),
    _row("levi_civita_symbol: negated", symbols, "levi_civita_symbol",
         _on_result(lambda e, dim, v: _like(e, -e.components)),
         "eq01 ex10 ex13"),
    _row("levi_civita_symbol: unsigned", symbols, "levi_civita_symbol",
         _on_result(lambda e, dim, v: _like(e, abs(e.components))),
         "eq01 eq02 ex10 ex13 ex14 ex15 ex45"),
    # metrics
    _row("metric_from_tensor: reads the lower triangle only", metric, "metric_from_tensor",
         lambda real: lambda g: real(np.tril(_array(g)) + np.tril(_array(g), -1).T),
         "metric-definite"),
    _row("metric_from_tensor: an indefinite matrix accepted", metric, "metric_from_tensor",
         _refusal_skipped(DefinitenessError, _indefinite_metric),
         "metric-definite"),
    _row("metric_from_tensor: det g from the first minor", metric, "metric_from_tensor",
         _on_result(lambda m, g: replace(m, det_g=float(m.g.components[0, 0]))),
         "eq22 ex52 ex54 ex55 ex56"),
    _row("metric_from_tensor: g as its own inverse", metric, "metric_from_tensor",
         _on_result(lambda m, g: replace(m, g_inv=_like(m.g, slots=(UP, UP)))),
         "eq21 ex35 ex36 ex37 ex54"),
    _row("metric_from_basis: the Gram matrix of the columns", metric, "metric_from_basis",
         _replaced_by(_gram_of_columns),
         "ex34"),
    _row("metric_from_basis: the identity", metric, "metric_from_basis",
         _replaced_by(lambda basis: metric.orthonormal_metric(basis[0].dim)),
         "ex34 ex35 ex55 metric-definite"),
    _row("random_metric: the identity", metric, "random_metric",
         _replaced_by(lambda rng, dim=3, min_det=0.1: metric.orthonormal_metric(dim)),
         "ex35"),
    _row("orthonormal_metric: doubled", metric, "orthonormal_metric",
         _replaced_by(lambda dim=3: metric.metric_from_tensor(2.0 * np.eye(dim))),
         "ex39"),
    _row("lower_index: ignores the metric", metric, "lower_index",
         _replaced_by(lambda t, slot, m: _like(
             t, slots=t.slots[:slot] + (DOWN,) + t.slots[slot + 1:])),
         "eq19 eq21 ex36 ex37"),
    _row("lower_index: through the inverse metric", metric, "lower_index",
         lambda real: lambda t, slot, m: real(
             t, slot, replace(m, g=_like(m.g_inv, slots=(DOWN, DOWN)))),
         "eq19 eq21 ex36 ex37"),
    _row("lower_index: the slot left upper", metric, "lower_index",
         _on_result(lambda r, t, slot, m: _like(r, slots=t.slots)),
         "eq19 eq21"),
    _row("raise_index: through the metric", metric, "raise_index",
         lambda real: lambda t, slot, m: real(
             t, slot, replace(m, g_inv=_like(m.g, slots=(UP, UP)))),
         "eq21 ex54"),
    _row("inner: ignores the metric", metric, "inner",
         _replaced_by(lambda x, y, m: float(x.components @ y.components)),
         "eq18 ex37 ex55 ex56"),
    _row("levi_civita_tensor: the upper one times sqrt(det g)", metric, "levi_civita_tensor",
         lambda real: lambda m, v: real(m, v) if v is DOWN else _like(
             real(m, v), real(m, v).components * m.det_g),
         "ex52 ex54"),
    _row("levi_civita_tensor: det g not square-rooted", metric, "levi_civita_tensor",
         lambda real: lambda m, v: real(replace(m, det_g=m.det_g ** 2), v),
         "ex52 ex54 ex55"),
    _row("cross: doubled", metric, "cross",
         _on_result(lambda z, x, y, m: _like(z, 2.0 * z.components)),
         "eq22 ex55 ex56"),
    _row("cross: not divided by sqrt(det g)", metric, "cross",
         _on_result(lambda z, x, y, m: _like(z, z.components * math.sqrt(m.det_g))),
         "eq22 ex55 ex56"),
    _row("cross: operands in reverse order", metric, "cross",
         lambda real: lambda x, y, m: real(y, x, m),
         "eq22 ex55"),
    _row("triple: negated", metric, "triple",
         _on_result(lambda v, *args: -v),
         "ex55"),
    # Minkowski space
    _row("boost: the opposite velocity", minkowski, "boost",
         lambda real: lambda beta: real(-beta),
         "ex59 ex60"),
    _row("boost: no Lorentz factor", minkowski, "boost",
         lambda real: lambda beta: (real(beta), _boost_matrix(1.0, -beta))[1],
         "ex57 ex59 ex60"),
    _row("boost: |beta| >= 1 accepted", minkowski, "boost",
         _replaced_by(_unchecked_boost),
         "superluminal"),
    _row("rapidity: beta itself", minkowski, "rapidity",
         lambda real: lambda beta: (real(beta), beta)[1],
         "ex60"),
    _row("rapidity: |beta| >= 1 accepted", minkowski, "rapidity",
         _replaced_by(math.atanh),
         "superluminal"),
    _row("boost_from_rapidity: sinh negated", minkowski, "boost_from_rapidity",
         lambda real: lambda psi: real(-psi),
         "ex60"),
    _row("boost_from_rapidity: circular functions", minkowski, "boost_from_rapidity",
         _replaced_by(lambda psi: _boost_matrix(math.cos(psi), math.sin(psi))),
         "ex60"),
    _row("is_lorentz: always true", minkowski, "is_lorentz",
         _replaced_by(lambda c, tol=1e-9: True),
         "ex58"),
    _row("is_lorentz: always false", minkowski, "is_lorentz",
         _replaced_by(lambda c, tol=1e-9: False),
         "ex57 ex58"),
    _row("is_lorentz: the diagonal pairs only", minkowski, "is_lorentz",
         _replaced_by(_pairs_on_the_diagonal_only),
         "ex58"),
    _row("eta_residual: against the identity", minkowski, "eta_residual",
         _replaced_by(lambda c: float(np.max(np.abs(_array(c).T @ _array(c) - np.eye(4))))),
         "ex57 ex58"),
    _row("mink_product: Euclidean", minkowski, "mink_product",
         _replaced_by(lambda x, y: float(np.dot(x, y))),
         "eq25 ex58"),
    _row("mink_product: the z term dropped", minkowski, "mink_product",
         lambda real: lambda x, y: real([*x[:3], 0.0], y),
         "eq25 ex58"),
    # the statement path: the names the catalogue binds itself
    _row("execute: coefficients dropped", exercises, "execute",
         _terms_edited(lambda terms: tuple(t[:3] + (1.0,) + t[4:] for t in terms)),
         "einsum-oracle"),
    _row("execute: the first term only", exercises, "execute",
         _terms_edited(lambda terms: terms[:1]),
         "einsum-oracle"),
    _row("execute: the result transposed", exercises, "execute",
         _on_result(lambda r, plan, bindings: _like(r, r.components.T)),
         "einsum-oracle eq02 ex14 ex29 ex30 ex44"),
    _row("execute: every result slot lower", exercises, "execute",
         _on_result(lambda r, plan, bindings: _like(r, slots=(DOWN,) * r.rank)),
         "det-product ex03 ex29 ex30 ex32 ex44"),
    _row("execute: matrices read transposed", exercises, "execute",
         _matrices_read_transposed,
         "conv-violations einsum-oracle ex03 ex29 ex32"),
    _row("order_contractions: the written schedule kept", exercises, "order_contractions",
         _replaced_by(lambda plan: plan),
         "plan-cost"),
    _row("order_contractions: the written output axes kept", exercises, "order_contractions",
         _scheduler_keeps_written_output_axes,
         "plan-order-invariance"),
    _row("validate: the weight of the first factor", exercises, "validate",
         _weight_of_first_factor,
         "einsum-weights"),
    _row("validate: weight 0", exercises, "validate",
         _on_result(lambda plan, *args: replace(plan, weight=0)),
         "einsum-weights ex44"),
    _row("validate: term weights not compared", exercises, "validate",
         _term_weights_unchecked,
         "einsum-weights"),
    _row("validate: always orthogonal mode", exercises, "validate",
         lambda real: lambda s, bindings, mode=None: real(s, bindings, exercises.Mode.ORTHOGONAL),
         "conv-violations"),
    _row("parse: a trailing + ignored", exercises, "parse",
         lambda real: lambda text: real(text.rstrip(" +")),
         "conv-violations"),
]


def _failing() -> set[str]:
    return {r.check_id for dim in range(2, 7)
            for r in exercises.run_checks(dim=dim, seed=42) if r.status == "fail"}


@pytest.mark.parametrize("target, name, fault, failing", ROWS)
def test_a_fault_fails_exactly_its_checks(monkeypatch, target, name, fault, failing):
    if fault is not None:
        monkeypatch.setattr(target, name, fault(getattr(target, name)))
    assert _failing() == failing


def test_every_check_is_named_by_a_row():
    named = set().union(*(row.values[3] for row in ROWS))
    assert {c.check_id for c in exercises._REGISTRY} <= named
