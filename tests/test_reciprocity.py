import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

from pairrules import reciprocity
from pairrules.born import HFunction
from pairrules.pairs import DEFAULT_TOL, ROUNDING_FLOOR, Pair, StandardForm, _product
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
    _SAMPLES,
    _exponent_grid,
    _residual_draws,
    _residuals,
    _verdict,
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


def test_eliminate_keeps_exponents_below_a_tolerance_under_float_rounding():
    v = eliminate(StandardForm.C1, CONJUGATION, tol=1e-300)
    assert isinstance(v, Accepted)
    assert v.alpha == pytest.approx(2.0, abs=1e-8)

    report = run_full_elimination(tol=1e-16)
    assert report.deviations == ()
    assert report.alpha == pytest.approx(2.0, abs=1e-8)
    for c in report.cells:
        if isinstance(c.verdict, RejectedCounterexample):
            assert c.verdict.revalidate(c.operator)
            # the premise h(a) + h(b) = 1 holds only up to float rounding
            assert c.verdict.revalidate(c.operator, tol=1e-16)


def test_eliminate_c2_identity_is_seed_independent():
    # The grid's only hit is (2, 0), which leaves h blind to x2.  Nearby
    # betas have residuals as small, and any beta != 0 would make h
    # admissible and the cell "accepted".
    wrong = {}
    for seed in range(60):
        v = eliminate(StandardForm.C2, IDENTITY, seed=seed)
        got = (v.verdict, getattr(v, "exponents", None))
        if got != ("rejected-inadmissible-exponents", ((2.0, 0.0),)):
            wrong[seed] = got
    assert wrong == {}


# The compass search that refined every grid hit before eliminate became a
# single grid pass, kept as an oracle: on the cells the paper's table rests
# on, it never moves a hit, so the grid alone decides them.


def reference_polish(form, r, start, draws):
    """Compass search refining an exponent candidate; deterministic via fixed draws."""

    def f(pt):  # NaN, an unreachable premise, never improves
        return float(_residuals(form, r, np.array([pt]), draws)[0])

    pt = start
    best = f(pt)
    step = 0.05
    while step > 1e-10:
        improved = False
        for i in range(len(pt)):
            for sgn in (1.0, -1.0):
                cand = tuple(v + (sgn * step if j == i else 0.0) for j, v in enumerate(pt))
                val = f(cand)
                if val < best:
                    best, pt = val, cand
                    improved = True
        if not improved:
            step /= 2.0
    return pt, best


@pytest.mark.parametrize("form, r", [(StandardForm.C1, CONJUGATION), (StandardForm.C3, IDENTITY)])
def test_reference_polish_leaves_every_grid_hit_in_place(form, r):
    grid = _exponent_grid(form)
    for seed in range(10):
        draws = _residual_draws(form, random.Random(seed), _SAMPLES)
        residuals = _residuals(form, r, np.array(grid), draws)
        hits = [pt for pt, res in zip(grid, residuals) if res < 1e-6]
        assert sorted(hits) == ([(2.0,)] if form is StandardForm.C1 else [(0.0, 2.0), (2.0, 0.0)])
        for pt in hits:
            assert reference_polish(form, r, pt, draws)[0] == pt


# The single full-grid pass that eliminate's screen-and-confirm replaced,
# kept as an oracle: every grid row on every premise draw.


def reference_eliminate(form, r, tol=DEFAULT_TOL, seed=0):
    """eliminate with the unscreened candidate step."""
    if not r.invertible:
        return RejectedNonInvertible(r)
    draws = _residual_draws(form, random.Random(seed), _SAMPLES)
    grid = _exponent_grid(form)
    bound = min(1e-6, max(tol, ROUNDING_FLOOR))
    residuals = _residuals(form, r, np.array(grid), draws)
    candidates = [pt for pt, res in zip(grid, residuals) if res < bound]  # NaN never passes
    return _verdict(form, r, candidates, tol, seed)


@pytest.mark.parametrize("form", list(StandardForm), ids=lambda f: f.value)
@pytest.mark.parametrize("r", [IDENTITY, CONJUGATION, SWAP, PROJECTION], ids=name_of)
def test_screened_eliminate_equals_the_full_grid_pass(form, r):
    for seed in range(20):
        assert eliminate(form, r, seed=seed).to_json() == reference_eliminate(form, r, seed=seed).to_json()


@pytest.mark.parametrize("seeded, rand", [(0, 1), (1, 0), (1, 1)])
def test_a_smaller_screen_gives_the_same_verdicts(monkeypatch, seeded, rand):
    # Screens this small let through rows that only the confirm step rejects.
    monkeypatch.setattr(reciprocity, "_SCREEN_SEEDED", seeded)
    monkeypatch.setattr(reciprocity, "_SCREEN_RANDOM", rand)
    for form in (StandardForm.C1, StandardForm.C2, StandardForm.C3):
        for r, seed in itertools.product((IDENTITY, CONJUGATION, SWAP), range(3)):
            assert eliminate(form, r, seed=seed).to_json() == reference_eliminate(form, r, seed=seed).to_json()


def test_rows_the_screen_cannot_reach_go_on_to_the_confirm_step(monkeypatch):
    rows = []

    def unreachable_in_screen(form, r, exps, draws):
        rows.append(len(exps))
        res = _residuals(form, r, exps, draws)
        return np.full_like(res, np.nan) if len(rows) == 1 else res

    monkeypatch.setattr(reciprocity, "_residuals", unreachable_in_screen)
    v = eliminate(StandardForm.C1, CONJUGATION)
    assert rows == [len(_exponent_grid(StandardForm.C1))] * 2
    assert v.to_json() == reference_eliminate(StandardForm.C1, CONJUGATION).to_json()


@pytest.mark.parametrize("r, confirmed", [(IDENTITY, 2), (SWAP, 0)], ids=["identity", "swap"])
def test_screen_leaves_few_c3_rows_to_confirm(monkeypatch, r, confirmed):
    rows = []

    def counted(form, r, exps, draws):
        rows.append(len(exps))
        return _residuals(form, r, exps, draws)

    monkeypatch.setattr(reciprocity, "_residuals", counted)
    eliminate(StandardForm.C3, r, seed=0)
    assert rows == [len(_exponent_grid(StandardForm.C3)), confirmed]


# The symbolic solve that solve_reciprocity's closed form replaced, kept as
# an independent oracle: match the monomial coefficients of
# R(a * b) - R(b) * R(a) and hand the 8 polynomial equations to sympy.


def _coefficient_equations(form):
    R1, R2, R3, R4 = sp.symbols("R1 R2 R3 R4")
    a1, a2, b1, b2 = sp.symbols("a1 a2 b1 b2")
    g = [sp.Rational(int(x)) for x in form.gamma.as_tuple()]

    def rev(x1, x2):
        return (R1 * x1 + R2 * x2, R3 * x1 + R4 * x2)

    lhs = rev(*_product(g, a1, a2, b1, b2))
    rhs = _product(g, *rev(b1, b2), *rev(a1, a2))
    eqs = []
    for diff in (lhs[0] - rhs[0], lhs[1] - rhs[1]):
        eqs.extend(sp.Poly(sp.expand(diff), a1, a2, b1, b2).coeffs())
    return (R1, R2, R3, R4), eqs


def _sympy_branches(form):
    """Real affine branches of sp.solve's solution set: (base, directions)."""
    syms, eqs = _coefficient_equations(form)
    branches = []
    for sol in sp.solve(eqs, list(syms), dict=True):
        exprs = [sp.expand(sol.get(s, s)) for s in syms]
        free = sorted({f for e in exprs for f in e.free_symbols}, key=lambda s: s.name)
        for f in free:
            assert all(sp.degree(sp.Poly(e, f)) <= 1 for e in exprs), f"non-affine: {exprs}"
        base = [complex(e.subs({f: 0 for f in free})) for e in exprs]
        dirs = [[complex(sp.diff(e, f)) for e in exprs] for f in free]
        if any(abs(z.imag) > 1e-9 for z in base + sum(dirs, [])):
            continue  # complex-valued: not a real reciprocity operator
        branches.append((tuple(z.real for z in base), [[z.real for z in d] for d in dirs]))
    return branches


def _same_span(d1, d2) -> bool:
    rank = np.linalg.matrix_rank
    return len(d1) == len(d2) == rank(np.array(d1)) == rank(np.array(d1 + d2))


@pytest.mark.parametrize("form", [StandardForm.C1, StandardForm.C2, StandardForm.C3])
def test_closed_form_branches_equal_the_symbolic_solve(form):
    got = solve_reciprocity(form).branches
    want = _sympy_branches(form)
    assert len(got) == len(want)
    for b in got:
        dirs = [list(d) for d in b.directions]
        assert any(
            np.allclose(b.base, base, rtol=0.0, atol=1e-12) and _same_span(dirs, d)
            for base, d in want
        ), f"{form}: {b} is not a branch of the symbolic solve"


@pytest.mark.parametrize("form", [StandardForm.C1, StandardForm.C2, StandardForm.C3])
def test_every_enumerated_operator_reverses_products(form):
    rng = random.Random(5)
    ops = []
    for b in solve_reciprocity(form).branches:
        if not b.directions:
            ops.append(ReciprocityOp(*b.base))
        for t in (-2.0, 0.5, 3.0):
            for d in b.directions:
                ops.append(ReciprocityOp(*(x + t * y for x, y in zip(b.base, d))))
    for op in ops:
        for _ in range(50):
            a = Pair(rng.uniform(-2, 2), rng.uniform(-2, 2))
            b = Pair(rng.uniform(-2, 2), rng.uniform(-2, 2))
            res = antihom_residual(op, form, a, b)
            assert max(abs(res.c1), abs(res.c2)) < 1e-12, (form, op, a, b)


_SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize(
    "argv", [["derive"], ["solve-reciprocity", "C2"], ["eliminate", "C1", "conjugation"]]
)
def test_cli_runs_without_loading_sympy(argv):
    script = (
        "import sys\n"
        "from pairrules.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print('sympy loaded' if 'sympy' in sys.modules else 'sympy not loaded', file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=dict(os.environ, PYTHONPATH=str(_SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "sympy not loaded"
