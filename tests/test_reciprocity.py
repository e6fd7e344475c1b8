import math
import random

import numpy as np
import pytest

from pairrules.born import HFunction
from pairrules.pairs import Pair, StandardForm
from pairrules.reciprocity import (
    Accepted,
    CONJUGATION,
    IDENTITY,
    PROJECTION,
    RejectedCounterexample,
    RejectedInadmissibleExponents,
    RejectedNonInvertible,
    SWAP,
    ReciprocityOp,
    antihom_residual,
    eliminate,
    name_of,
    repeated_measurement_pair,
    rev_pair,
    run_full_elimination,
    solve_reciprocity,
    witness_alpha,
)


def test_rev_pair_examples():
    assert rev_pair(IDENTITY, Pair(3, 4)) == Pair(3, 4)
    assert rev_pair(CONJUGATION, Pair(3, 4)) == Pair(3, -4)
    assert rev_pair(SWAP, Pair(3, 4)) == Pair(4, 3)
    assert rev_pair(PROJECTION, Pair(3, 4)) == Pair(3, 0)


def test_rev_pair_is_linear(rng):
    for _ in range(500):
        r = ReciprocityOp(*(rng.uniform(-2, 2) for _ in range(4)))
        a = Pair(rng.uniform(-2, 2), rng.uniform(-2, 2))
        b = Pair(rng.uniform(-2, 2), rng.uniform(-2, 2))
        lhs = rev_pair(r, Pair(a.c1 + b.c1, a.c2 + b.c2))
        ra, rb = rev_pair(r, a), rev_pair(r, b)
        assert abs(lhs.c1 - (ra.c1 + rb.c1)) < 1e-12
        assert abs(lhs.c2 - (ra.c2 + rb.c2)) < 1e-12


def test_antihom_residual_examples(rng):
    for _ in range(50):
        a = Pair(rng.uniform(-2, 2), rng.uniform(-2, 2))
        b = Pair(rng.uniform(-2, 2), rng.uniform(-2, 2))
        for op in (IDENTITY, CONJUGATION):
            res = antihom_residual(op, StandardForm.C1, a, b)
            assert max(abs(res.c1), abs(res.c2)) < 1e-12

    res = antihom_residual(SWAP, StandardForm.C1, Pair(1, 0), Pair(0, 1))
    assert res == Pair(1, -1)


def test_solver_returns_exact_operator_sets():
    sols = solve_reciprocity(StandardForm.C1)
    assert {op.as_tuple() for op in sols.operators} == {
        IDENTITY.as_tuple(),
        CONJUGATION.as_tuple(),
    }
    assert all(op.invertible for op in sols.operators)

    sols = solve_reciprocity(StandardForm.C2)
    assert {op.as_tuple() for op in sols.operators} == {PROJECTION.as_tuple()}
    assert not sols.operators[0].invertible
    # the full solution set for this form is larger than the single named
    # representative; the solver must say so rather than hide it
    assert sols.extras

    sols = solve_reciprocity(StandardForm.C3)
    assert {op.as_tuple() for op in sols.operators} == {
        IDENTITY.as_tuple(),
        SWAP.as_tuple(),
    }
    assert all(op.invertible for op in sols.operators)


def _grid_residuals(form, rng):
    """Brute-force check of every R on a [-2,2] step-0.25 grid.

    Returns (grid points, max antihom residual over 100 random (a,b)).
    """
    vals = np.arange(-2.0, 2.0 + 1e-9, 0.25)
    grid = np.stack(np.meshgrid(vals, vals, vals, vals, indexing="ij"), -1).reshape(-1, 4)
    g = np.array(form.gamma.as_tuple())

    def mul(x1, x2, y1, y2):
        return (
            g[0] * x1 * y1 + g[1] * x1 * y2 + g[2] * x2 * y1 + g[3] * x2 * y2,
            g[4] * x1 * y1 + g[5] * x1 * y2 + g[6] * x2 * y1 + g[7] * x2 * y2,
        )

    a = np.array([[rng.uniform(-2, 2), rng.uniform(-2, 2)] for _ in range(100)])
    b = np.array([[rng.uniform(-2, 2), rng.uniform(-2, 2)] for _ in range(100)])
    ab1, ab2 = mul(a[:, 0], a[:, 1], b[:, 0], b[:, 1])

    worst = np.zeros(len(grid))
    for lo in range(0, len(grid), 8192):
        R = grid[lo : lo + 8192]
        r1, r2, r3, r4 = (R[:, i : i + 1] for i in range(4))
        lhs1 = r1 * ab1 + r2 * ab2
        lhs2 = r3 * ab1 + r4 * ab2
        rb1, rb2 = r1 * b[:, 0] + r2 * b[:, 1], r3 * b[:, 0] + r4 * b[:, 1]
        ra1, ra2 = r1 * a[:, 0] + r2 * a[:, 1], r3 * a[:, 0] + r4 * a[:, 1]
        rhs1, rhs2 = mul(rb1, rb2, ra1, ra2)
        res = np.maximum(np.abs(lhs1 - rhs1), np.abs(lhs2 - rhs2))
        worst[lo : lo + 8192] = res.max(axis=1)
    return grid, worst


@pytest.mark.parametrize("form", [StandardForm.C1, StandardForm.C2, StandardForm.C3])
def test_grid_brute_force_confirms_solver_completeness(form):
    rng = random.Random(99)
    grid, worst = _grid_residuals(form, rng)
    sols = solve_reciprocity(form)
    hits = grid[worst < 1e-6]
    assert len(hits) > 0
    for pt in hits:
        # the zero map always satisfies the equations and is discarded by
        # policy, so allow it alongside the reported solution branches
        d = min(sols.distance(pt), float(np.linalg.norm(pt)))
        assert d < 0.125, f"{form}: unexplained grid solution {pt}"
    # conversely every named representative is itself a grid solution
    for op in sols.operators:
        idx = np.all(np.isclose(grid, op.as_tuple()), axis=1)
        assert worst[idx].max() < 1e-6


def test_repeated_measurement_examples(rng):
    for _ in range(50):
        a = Pair(rng.uniform(-2, 2), rng.uniform(-2, 2))
        b = Pair(rng.uniform(-2, 2), rng.uniform(-2, 2))
        c = repeated_measurement_pair(a, b, CONJUGATION, StandardForm.C1)
        want = a.c1**2 + a.c2**2 + b.c1**2 + b.c2**2
        assert abs(c.c1 - want) < 1e-12 and abs(c.c2) < 1e-12

        c = repeated_measurement_pair(a, b, SWAP, StandardForm.C3)
        want = a.c1 * a.c2 + b.c1 * b.c2
        assert abs(c.c1 - want) < 1e-12 and abs(c.c2 - want) < 1e-12

    s = 1.5
    c = repeated_measurement_pair(Pair(s, 0), Pair(0, -s), IDENTITY, StandardForm.C1)
    assert abs(c.c1) < 1e-12 and abs(c.c2) < 1e-12


def test_eliminate_c1_conjugation_accepted():
    v = eliminate(StandardForm.C1, CONJUGATION)
    assert isinstance(v, Accepted)
    assert v.alpha == pytest.approx(2.0, abs=1e-8)
    assert v.witness_alpha is not None
    assert abs(v.witness_alpha - v.sampled_alpha) < 1e-6


def test_eliminate_c1_identity_counterexample():
    v = eliminate(StandardForm.C1, IDENTITY)
    assert isinstance(v, RejectedCounterexample)
    assert v.revalidate(IDENTITY)
    assert abs(v.lhs - 1.0) < 1e-9
    assert abs(v.rhs - 1.0) > 0.1


def test_eliminate_c2_projection_not_invertible():
    v = eliminate(StandardForm.C2, PROJECTION)
    assert isinstance(v, RejectedNonInvertible)


def test_eliminate_c3_identity_inadmissible_exponents():
    v = eliminate(StandardForm.C3, IDENTITY)
    assert isinstance(v, RejectedInadmissibleExponents)
    got = {tuple(round(x, 6) for x in e) for e in v.exponents}
    assert got == {(2.0, 0.0), (0.0, 2.0)}


def test_eliminate_c3_swap_counterexample():
    v = eliminate(StandardForm.C3, SWAP)
    assert isinstance(v, RejectedCounterexample)
    assert v.revalidate(SWAP)


def test_alpha_grid_isolates_two():
    # witness family a=(s,0), b=(0,q) with s^alpha + q^alpha = 1:
    # the repeated-measurement pair is (s^2+q^2, 0), so the implication
    # residual is |(s^2+q^2)^{alpha/2} - 1|
    def residual(alpha):
        worst = 0.0
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            s = p ** (1.0 / alpha)
            q = (1.0 - p) ** (1.0 / alpha)
            worst = max(worst, abs((s * s + q * q) ** (alpha / 2.0) - 1.0))
        return worst

    grid = [0.5 + 0.25 * k for k in range(15)]
    assert 2.0 in grid
    for alpha in grid:
        if alpha == 2.0:
            assert residual(alpha) < 1e-9
        else:
            assert residual(alpha) > 1e-3


def test_witness_alpha_bisection():
    assert witness_alpha() == pytest.approx(2.0, abs=1e-8)


def test_full_elimination_report():
    report = run_full_elimination()
    assert report.matches_expected
    assert report.deviations == ()
    accepted = report.accepted_cells()
    assert len(accepted) == 1
    cell = accepted[0]
    assert cell.form is StandardForm.C1
    assert cell.operator_name == "conjugation"
    assert report.alpha == pytest.approx(2.0, abs=1e-8)
    # every counterexample certificate must revalidate
    for c in report.cells:
        if isinstance(c.verdict, RejectedCounterexample):
            assert c.verdict.revalidate(c.operator)
    assert report.rules["series"] == "complex multiplication"
    text = report.render_text()
    assert "accepted" in text and "Surviving calculus" in text
    payload = report.to_json()
    assert payload["matches_expected"] is True
    assert len(payload["cells"]) == 7


def test_name_of_named_operators():
    assert name_of(IDENTITY) == "identity"
    assert name_of(CONJUGATION) == "conjugation"
    assert name_of(SWAP) == "swap"
    assert name_of(PROJECTION) == "projection"


def test_revalidate_is_false_where_h_is_undefined_at_a_premise_pair():
    h = HFunction(StandardForm.C3, -1.0, 1.0)  # |x1|^-1 |x2|: undefined at x1 = 0
    cert = RejectedCounterexample(Pair(0.0, 1.0), Pair(1.0, 1.0), 1.0, 0.0, h)
    assert cert.revalidate(IDENTITY) is False


@pytest.mark.parametrize("seed", [1, 2, 3, 7, 42])
def test_full_elimination_is_seed_independent(seed):
    report = run_full_elimination(seed=seed)
    assert report.deviations == ()
    verdicts = {(c.form, c.operator_name): c.verdict for c in report.cells}
    assert {k: v.verdict for k, v in verdicts.items()} == {
        (StandardForm.N1, "-"): "rejected-inadmissible-exponents",
        (StandardForm.N2, "-"): "rejected-inadmissible-exponents",
        (StandardForm.C2, "projection"): "rejected-non-invertible",
        (StandardForm.C3, "identity"): "rejected-inadmissible-exponents",
        (StandardForm.C3, "swap"): "rejected-counterexample",
        (StandardForm.C1, "identity"): "rejected-counterexample",
        (StandardForm.C1, "conjugation"): "accepted",
    }
    assert report.alpha == pytest.approx(2.0, abs=1e-8)
    accepted = verdicts[(StandardForm.C1, "conjugation")]
    assert abs(accepted.witness_alpha - accepted.sampled_alpha) < 1e-6
    got = {tuple(round(x, 6) for x in e) for e in verdicts[(StandardForm.C3, "identity")].exponents}
    assert got == {(2.0, 0.0), (0.0, 2.0)}
    for c in report.cells:
        if isinstance(c.verdict, RejectedCounterexample):
            assert c.verdict.revalidate(c.operator)
