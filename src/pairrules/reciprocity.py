"""Reciprocity operators and the repeated-measurement elimination.

A reciprocity operator R sends the weight of a sequence to the weight of the
reversed sequence.  Linearity is given; the series rule forces R to reverse
products, R(a * b) = R(b) * R(a).  On the commutative unital forms C1, C2 and
C3 that makes R an algebra endomorphism, enumerated exactly in closed form.
Demanding that the normalization premise h(a) + h(b) = 1 imply
h((a * R(a)) + (b * R(b))) = 1 then eliminates every candidate except complex
multiplication with conjugation and exponent alpha = 2.

One numpy kernel tests the implication over blocks of exponent rows.  No
premise draw depends on the exponents, so each cell draws once and tests its
whole exponent grid on the same draws.  Unreachable premises are masked out,
and an undefined h(c) counts as a residual of 1.  A block holds a fixed
number of (row, premise pair) elements, so a few draws take many rows at once.

`eliminate` screens the grid on its first few draws and confirms the rows
that pass on all of them.  A row's residual is a max over its premise pairs,
and the screened pairs are among the full ones, so a row the screen rejects
would be rejected on all draws too; rows the screen cannot reach (NaN) go on
to the confirm step.  The candidate set is the one a single full pass gives.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .pairs import DEFAULT_TOL, ROUNDING_FLOOR, LinearMap, Pair, StandardForm, _product, bilinear_mul, pair_add
from .born import DomainError, HFunction, admissible, h_array, h_eval, solution_family_for
from .regrading import apply_to_pair as rev_pair


class ReciprocityOp(LinearMap):
    """A LinearMap used as a reciprocity operator.

    Only its JSON form differs: a report of the matrix, whether it is
    invertible and its name."""

    def to_json(self) -> dict:
        return {"matrix": super().to_json(), "invertible": self.invertible, "name": name_of(self)}

    @classmethod
    def from_json(cls, data: dict) -> "ReciprocityOp":
        return super().from_json(data["matrix"])


IDENTITY = ReciprocityOp(1.0, 0.0, 0.0, 1.0)
CONJUGATION = ReciprocityOp(1.0, 0.0, 0.0, -1.0)
SWAP = ReciprocityOp(0.0, 1.0, 1.0, 0.0)
PROJECTION = ReciprocityOp(1.0, 0.0, 0.0, 0.0)

OPERATOR_NAMES = {
    IDENTITY: "identity",
    CONJUGATION: "conjugation",
    SWAP: "swap",
    PROJECTION: "projection",
}


def name_of(r: ReciprocityOp) -> str:
    return OPERATOR_NAMES.get(r, "custom")


def antihom_residual(r: ReciprocityOp, form: StandardForm, a: Pair, b: Pair) -> Pair:
    """R(a * b) - R(b) * R(a) under the form's multiplication."""
    g = form.gamma
    lhs = rev_pair(r, bilinear_mul(g, a, b))
    rhs = bilinear_mul(g, rev_pair(r, b), rev_pair(r, a))
    return Pair(lhs.c1 - rhs.c1, lhs.c2 - rhs.c2)


@dataclass(frozen=True)
class SolutionBranch:
    """An affine piece of the reciprocity solution set: base + span(directions)."""

    base: tuple[float, float, float, float]
    directions: tuple[tuple[float, float, float, float], ...] = ()

    def distance(self, point: Sequence[float]) -> float:
        p = np.asarray(point, dtype=float) - np.asarray(self.base)
        if self.directions:
            d = np.asarray(self.directions, dtype=float).T
            coeff, *_ = np.linalg.lstsq(d, p, rcond=None)
            p = p - d @ coeff
        return float(np.linalg.norm(p))

    def to_json(self) -> dict:
        return {"base": list(self.base), "directions": [list(d) for d in self.directions]}


_PAPER_TABLE = {
    StandardForm.C1: (IDENTITY, CONJUGATION),
    StandardForm.C2: (PROJECTION,),
    StandardForm.C3: (IDENTITY, SWAP),
}


@dataclass(frozen=True)
class ReciprocitySolutions:
    form: StandardForm
    operators: tuple[ReciprocityOp, ...]
    branches: tuple[SolutionBranch, ...]
    extras: tuple[str, ...] = ()

    def distance(self, point: Sequence[float]) -> float:
        return min(b.distance(point) for b in self.branches)

    def to_json(self) -> dict:
        return {
            "form": self.form.value,
            "operators": [op.to_json() for op in self.operators],
            "branches": [b.to_json() for b in self.branches],
            "extras": list(self.extras),
        }


def _columns(p, q) -> LinearMap:
    """The map sending (1, 0) to p and (0, 1) to q."""
    return LinearMap(p[0], q[0], p[1], q[1])


def _unital_basis(form: StandardForm) -> tuple[LinearMap, Fraction, Fraction]:
    """The exact unit u and a second basis vector j as the columns of a map, and
    (c, d) with j * j = c u + d j.  The unit solves u * (1, 1) = (1, 1)."""
    g = [Fraction(x) for x in form.gamma.as_tuple()]
    u = _columns(_product(g, 1, 0, 1, 1), _product(g, 0, 1, 1, 1)).inverse().apply(1, 1)
    j = (0, 1) if u[0] else (1, 0)
    basis = _columns(u, j)
    return basis, *basis.inverse().apply(*_product(g, *j, *j))


def _endomorphisms(form: StandardForm) -> list[SolutionBranch]:
    """Every product-reversing linear map of a unital form: families, then points.

    The form is commutative, so such an R is an algebra endomorphism: e = R(1)
    is idempotent, y = R(j) has y e = y and y^2 = c e + d y.  disc = d^2 + 4c
    splits the forms as mu does.  Below zero e = 1 and y = j or d - j; at zero
    y = d/2 + t (j - d/2); above zero also y = r e, r^2 = c + d r, for e = 1
    and two more idempotents."""
    basis, c, d = _unital_basis(form)

    def in_pairs(e, y) -> tuple[float, ...]:  # e and y in (u, j) coordinates
        m = basis.compose(_columns(e, y)).compose(basis.inverse())
        return tuple(float(x) for x in m.as_tuple())

    one, zero = (1, 0), (0, 0)
    disc = d * d + 4 * c
    if not disc:
        line = SolutionBranch(in_pairs(one, (d / 2, 0)), (in_pairs(zero, (-d / 2, 1)),))
        return [line, SolutionBranch(in_pairs(zero, zero))]
    points = [in_pairs(zero, zero), in_pairs(one, (0, 1)), in_pairs(one, (d, -1))]
    if disc > 0:
        root = Fraction(math.sqrt(disc))
        for e in (one, ((1 - d / root) / 2, 1 / root), ((1 + d / root) / 2, -1 / root)):
            points += [in_pairs(e, (r * e[0], r * e[1])) for r in ((d + root) / 2, (d - root) / 2)]
    return [SolutionBranch(p) for p in sorted(points)]


def solve_reciprocity(form: StandardForm) -> ReciprocitySolutions:
    """Enumerate the product-reversing operators in closed form and report all branches.

    The named representatives (identity, conjugation, swap, projection) are
    pattern-matched out of the solution set; anything beyond them, such as
    parameterized families or non-invertible shapes, is kept as a flagged
    extra branch rather than suppressed.
    """
    if form not in _PAPER_TABLE:
        raise ValueError(f"reciprocity analysis applies to C1, C2, C3; got {form.value}")
    branches = _endomorphisms(form)

    def on_branch(op: ReciprocityOp) -> bool:
        return any(b.distance(op.as_tuple()) < 1e-9 for b in branches)

    operators = tuple(op for op in _PAPER_TABLE[form] if on_branch(op))
    if len(operators) != len(_PAPER_TABLE[form]):
        raise RuntimeError(f"expected representative missing from solution set for {form.value}")

    named_points = {op.as_tuple() for op in operators} | {(0.0, 0.0, 0.0, 0.0)}
    extras = []
    for b in branches:
        if b.directions:
            extras.append(
                f"one-parameter family through {b.base} along {b.directions[0]}; "
                "contains invertible members beyond the listed representative"
            )
        elif b.base not in named_points:
            op = ReciprocityOp(*b.base)
            extras.append(
                f"additional solution {b.base}"
                + ("" if op.invertible else " (non-invertible)")
            )
    return ReciprocitySolutions(form, operators, tuple(branches), tuple(extras))


def repeated_measurement_pair(a: Pair, b: Pair, r: ReciprocityOp, form: StandardForm) -> Pair:
    """The weight (a * R(a)) + (b * R(b)) of the coarse interleaved sequence."""
    g = form.gamma
    return pair_add(bilinear_mul(g, a, rev_pair(r, a)), bilinear_mul(g, b, rev_pair(r, b)))


@dataclass(frozen=True)
class Accepted:
    alpha: float
    witness_alpha: Optional[float] = None
    sampled_alpha: Optional[float] = None

    verdict = "accepted"

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "alpha": self.alpha,
            "witness_alpha": self.witness_alpha,
            "sampled_alpha": self.sampled_alpha,
        }


@dataclass(frozen=True)
class RejectedNonInvertible:
    operator: ReciprocityOp

    verdict = "rejected-non-invertible"

    def to_json(self) -> dict:
        return {"verdict": self.verdict, "operator": self.operator.to_json()}


@dataclass(frozen=True)
class RejectedCounterexample:
    a: Pair
    b: Pair
    lhs: float
    rhs: float
    h: HFunction

    verdict = "rejected-counterexample"

    def revalidate(self, r: ReciprocityOp, tol: float = DEFAULT_TOL) -> bool:
        """Recompute the certificate from scratch: premise holds, conclusion fails."""
        try:
            lhs = h_eval(self.h, self.a) + h_eval(self.h, self.b)
        except DomainError:
            return False  # h undefined at a premise pair: no premise holds
        try:
            rhs = h_eval(self.h, repeated_measurement_pair(self.a, self.b, r, self.h.form))
        except DomainError:
            rhs = 0.0
        return abs(lhs - 1.0) < max(tol, ROUNDING_FLOOR) and abs(rhs - 1.0) > 0.1

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "a": self.a.to_json(),
            "b": self.b.to_json(),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "h": self.h.to_json(),
        }


@dataclass(frozen=True)
class RejectedInadmissibleExponents:
    detail: str
    exponents: tuple[tuple[float, ...], ...] = ()

    verdict = "rejected-inadmissible-exponents"

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "detail": self.detail,
            "exponents": [list(e) for e in self.exponents],
        }


Verdict = Union[Accepted, RejectedNonInvertible, RejectedCounterexample, RejectedInadmissibleExponents]


# (exponent row × premise pair) elements per kernel block: 64 rows of C3's 90
# pairs.  A block's numpy temporaries peak below 1 MB whatever the row and
# pair counts.
_BLOCK = 64 * 90

# Random premise pairs per residual evaluation; a quarter as many degenerate ones.
_SAMPLES = 60

# Leading (seeded, random) draw rows that screen the whole grid before the
# survivors are confirmed on all draws: 8 premise pairs per C3 row, 6 otherwise.
_SCREEN_SEEDED = 2
_SCREEN_RANDOM = 4


def _signed(rng: random.Random, lo: float) -> float:
    return rng.uniform(lo, 2.0) * rng.choice((-1.0, 1.0))


def _random_draws(rng: random.Random, n: int) -> np.ndarray:
    """Rows (p, xa1, xa2, xb1, xb2): points to rescale to h(a) = p and h(b) = 1 - p."""
    rows = [(rng.uniform(0.05, 0.95), *(_signed(rng, 0.2) for _ in range(4))) for _ in range(n)]
    return np.array(rows, dtype=float).reshape(n, 5)


def _seeded_draws(form: StandardForm, rng: random.Random, n: int) -> np.ndarray:
    """Rows for the degenerate constructions: a unit direction (C1), a point
    and a balance ratio t (C3), or a point (C2)."""
    rows = []
    for _ in range(n):
        if form is StandardForm.C1:
            theta = rng.uniform(0.0, 2.0 * math.pi)
            rows.append((math.cos(theta), math.sin(theta)))
        elif form is StandardForm.C3:
            rows.append((_signed(rng, 0.5), _signed(rng, 0.5), rng.uniform(0.5, 2.0)))
        else:
            rows.append((rng.uniform(0.5, 2.0), rng.uniform(-2.0, 2.0)))
    return np.array(rows, dtype=float)


def _residual_draws(form: StandardForm, rng: random.Random, samples: int) -> tuple:
    """(seeded, random) draws of one residual evaluation; the random ones are drawn first."""
    rand = _random_draws(rng, samples)
    return _seeded_draws(form, rng, max(8, samples // 4)), rand


def _scaled_to(form: StandardForm, alpha, beta, x1, x2, p):
    """Rescale (x1, x2) to h = p per exponent row; also the mask where scaling reaches p.

    C2's exponential factor is scale-invariant.  When alpha + beta = 0, C3
    scales the one component with a nonzero exponent."""
    h0 = h_array(form, alpha, beta, x1, x2)
    e = alpha + beta if form is StandardForm.C3 else alpha
    use1 = use2 = np.abs(e) > 1e-6
    if form is StandardForm.C3:
        first = ~use1 & (np.abs(alpha) > 1e-6)
        second = ~use1 & ~first & (np.abs(beta) > 1e-6)
        e = np.where(first, alpha, np.where(second, beta, e))
        use1, use2 = use1 | first, use2 | second
    s = (p / h0) ** (1.0 / e)
    ok = (h0 > 0.0) & (use1 | use2)
    return np.where(use1, s * x1, x1), np.where(use2, s * x2, x2), ok


def _premise_pairs(form: StandardForm, exps: np.ndarray, seeded: np.ndarray, rand: np.ndarray):
    """Pairs (a1, a2, b1, b2) × rows × pairs with h(a) + h(b) = 1, and where they exist.

    The seeded pairs come first: degenerate constructions forcing c into
    corners such as c = (0, 0) that uniform sampling essentially never hits,
    exactly the cases that disqualify the rejected cells."""
    alpha, beta = exps[:, :1], exps[:, 1:]
    a1, a2, ok = _scaled_to(form, alpha, beta, seeded[:, 0], seeded[:, 1], 0.5)
    if form is StandardForm.C1:
        b1, b2 = a2, -a1  # shares h with a, so h(a) = 1/2 meets the premise
    elif form is StandardForm.C3:
        # Mirror family b = (a1, -a2); beside it, balanced a1 = b2 = r t, a2 = b1 = r / t.
        t, total = seeded[:, 2], alpha + beta
        denom = t ** (alpha - beta) + t ** (beta - alpha)
        rr = (1.0 / denom) ** (1.0 / total)
        bal = (np.abs(total) > 1e-6) & (denom > 0)
        a1, a2, b1, b2, ok = (
            np.stack(both, axis=-1).reshape(len(exps), -1)
            for both in ((a1, rr * t), (a2, rr / t), (a1, rr / t), (-a2, rr * t), (ok, bal))
        )
    else:  # C2: b = (-a1, a2), where the exponential factor lets h(b) = h(a)
        b1, b2 = -a1, a2
        ok &= np.abs(h_array(form, alpha, beta, b1, b2) - 0.5) < 1e-12
    premise = h_array(form, alpha, beta, a1, a2) + h_array(form, alpha, beta, b1, b2)
    ok &= np.abs(premise - 1.0) < 1e-9
    ra1, ra2, ok_a = _scaled_to(form, alpha, beta, rand[:, 1], rand[:, 2], rand[:, 0])
    rb1, rb2, ok_b = _scaled_to(form, alpha, beta, rand[:, 3], rand[:, 4], 1.0 - rand[:, 0])
    pairs = np.concatenate([np.stack((a1, a2, b1, b2)), np.stack((ra1, ra2, rb1, rb2))], axis=2)
    return pairs, np.concatenate([ok, ok_a & ok_b], axis=1)


def _conclusion(form: StandardForm, r: ReciprocityOp, exps: np.ndarray, pairs: np.ndarray):
    """h(c) at c = (a * R(a)) + (b * R(b)) for every pair; NaN where undefined."""
    g = form.gamma.as_tuple()

    def times_rev(x1, x2):
        return _product(g, x1, x2, *r.apply(x1, x2))

    (p1, p2), (q1, q2) = times_rev(pairs[0], pairs[1]), times_rev(pairs[2], pairs[3])
    return h_array(form, exps[:, :1], exps[:, 1:], p1 + q1, p2 + q2)


def _residuals(form: StandardForm, r: ReciprocityOp, exps: np.ndarray, draws: tuple) -> np.ndarray:
    """implication_residual for every exponent row on shared draws; NaN for None."""
    seeded, rand = draws
    # _premise_pairs builds two C3 pairs per seeded draw and one otherwise.
    pairs_per_row = len(seeded) * (2 if form is StandardForm.C3 else 1) + len(rand)
    step = max(1, _BLOCK // pairs_per_row)
    out = np.empty(len(exps))
    with np.errstate(all="ignore"):  # masked entries may divide by zero or overflow
        for lo in range(0, len(exps), step):
            rows = exps[lo : lo + step]
            pairs, ok = _premise_pairs(form, rows, *draws)
            dev = np.abs(_conclusion(form, r, rows, pairs) - 1.0)
            worst = np.where(ok, np.where(np.isnan(dev), 1.0, dev), 0.0).max(axis=1)
            out[lo : lo + step] = np.where(ok.any(axis=1), worst, np.nan)
    return out


def implication_residual(
    form: StandardForm,
    r: ReciprocityOp,
    exps: tuple[float, ...],
    rng: random.Random,
    samples: int = _SAMPLES,
) -> Optional[float]:
    """max |h(c) - 1| over premise-satisfying samples; None if the premise is unreachable.

    A domain error at c counts as a full violation: the probability of the
    combined sequence must exist and equal one.
    """
    draws = _residual_draws(form, rng, samples)
    res = _residuals(form, r, np.array([exps], dtype=float), draws)[0]
    return None if math.isnan(res) else float(res)


def _make_h(form: StandardForm, exps: tuple[float, ...]) -> HFunction:
    """The h of an exponent row; N1 and N2 rows carry a beta that h does not take."""
    return HFunction(form, *exps[: 2 if solution_family_for(form).beta_free else 1])


def _exponent_grid(form: StandardForm) -> list[tuple[float, ...]]:
    axis = [x / 4.0 for x in range(-16, 17) if x != 0]
    if form is StandardForm.C1:
        return [(a,) for a in axis]
    axis0 = axis + [0.0]
    return [(a, b) for a in axis0 for b in axis0 if (a, b) != (0.0, 0.0)]


def witness_alpha(p: float = 0.3, lo: float = 0.5, hi: float = 4.0) -> float:
    """Closed-form exponent for the surviving cell, independent of sampling.

    On the witness family a = (s, 0), b = (0, q) with s^alpha + q^alpha = 1,
    the conclusion reads (s^2 + q^2)^alpha = 1, so with s^alpha = p the
    requirement is p^(2/alpha) + (1-p)^(2/alpha) = 1, solved here by bisection.
    """

    def f(alpha: float) -> float:
        return p ** (2.0 / alpha) + (1.0 - p) ** (2.0 / alpha) - 1.0

    flo, fhi = f(lo), f(hi)
    if flo * fhi > 0:
        raise ValueError("bisection bracket does not straddle the root")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo, flo = mid, f(mid)
    return 0.5 * (lo + hi)


def _find_counterexample(
    form: StandardForm,
    r: ReciprocityOp,
    rng: random.Random,
    tol: float,
) -> Optional[RejectedCounterexample]:
    canonical = (2.0,) if form is StandardForm.C1 else (1.0, 1.0)
    exps = np.array([canonical])
    seeded = _seeded_draws(form, rng, 64)
    rand = _random_draws(rng, 256)
    with np.errstate(all="ignore"):
        pairs, ok = _premise_pairs(form, exps, seeded, rand)
        hc = _conclusion(form, r, exps, pairs)[0]
        alpha, beta = exps[:, :1], exps[:, 1:]
        lhs = (h_array(form, alpha, beta, *pairs[:2]) + h_array(form, alpha, beta, *pairs[2:]))[0]
    rhs = np.where(np.isnan(hc), 0.0, hc)
    premise = np.abs(lhs - 1.0) < max(tol, ROUNDING_FLOOR)
    fails = np.flatnonzero(ok[0] & premise & (np.abs(rhs - 1.0) > 0.1))
    if not len(fails):
        return None
    i = fails[0]  # the first failing pair in draw order
    a, b = Pair(*pairs[:2, 0, i].tolist()), Pair(*pairs[2:, 0, i].tolist())
    return RejectedCounterexample(a, b, float(lhs[i]), float(rhs[i]), _make_h(form, canonical))


def _verdict(
    form: StandardForm,
    r: ReciprocityOp,
    candidates: list[tuple[float, ...]],
    tol: float,
    seed: int,
) -> Verdict:
    """The verdict of an invertible cell from its grid candidates."""
    if candidates:
        admissible_sols = [e for e in candidates if admissible(_make_h(form, e))]
        if admissible_sols:
            exps = min(admissible_sols, key=lambda e: sum(x * x for x in e))
            sampled = exps[0]
            wit = None
            if form is StandardForm.C1 and name_of(r) == "conjugation":
                wit = witness_alpha()
                if abs(wit - sampled) > 1e-6:
                    raise RuntimeError(
                        f"independent exponent determinations disagree: {wit} vs {sampled}"
                    )
            alpha = wit if wit is not None else sampled
            return Accepted(round(alpha, 9), witness_alpha=wit, sampled_alpha=sampled)
        return RejectedInadmissibleExponents(
            "every exponent choice satisfying the implication leaves h blind "
            "to one pair component",
            tuple(tuple(round(x, 9) for x in e) for e in sorted(candidates)),
        )

    cert = _find_counterexample(form, r, random.Random(seed + 1), tol)
    if cert is None:
        raise RuntimeError(
            f"no exponents satisfy the implication for {form.value}/{name_of(r)}, "
            "but no counterexample certificate was found"
        )
    return cert


def eliminate(
    form: StandardForm,
    r: ReciprocityOp,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> Verdict:
    """Apply the repeated-measurement argument to one (form, operator) cell.

    Order matters: a non-invertible operator is rejected outright; otherwise
    the exponents making the normalization implication universal are solved
    for, and only if none exist is a concrete counterexample produced.

    The exponents are the points of the quarter-step grid whose residual, on
    the cell's one set of premise draws, is below min(1e-6, max(tol,
    ROUNDING_FLOOR)).  The paper's solutions (2 for C1, (2, 0) and (0, 2) for
    C3) lie on the grid exactly, so the grid needs no refinement.

    The grid is tested in two steps.  The screen evaluates every row on the
    first _SCREEN_SEEDED seeded and _SCREEN_RANDOM random draws; the confirm
    step evaluates only the rows the screen kept, on all draws.  This is
    exact: a row's residual is the max over its reachable premise pairs, and
    the full draws hold the screened pairs, so a row screened at or above the
    bound has a full residual at or above it too.  A row with no reachable
    screened pair (NaN) is kept.  Almost every row fails on a handful of
    pairs: at seed 0 the confirm step sees 0 to 65 of a cell's 32 or 1088
    rows.
    """
    if not r.invertible:
        return RejectedNonInvertible(r)

    seeded, rand = _residual_draws(form, random.Random(seed), _SAMPLES)
    grid = np.array(_exponent_grid(form))
    bound = min(1e-6, max(tol, ROUNDING_FLOOR))
    screen = (seeded[:_SCREEN_SEEDED], rand[:_SCREEN_RANDOM])
    kept = grid[~(_residuals(form, r, grid, screen) >= bound)]  # NaN rows go on
    residuals = _residuals(form, r, kept, (seeded, rand))
    # tolist() gives back the grid's Python floats; NaN never passes.
    candidates = [tuple(pt) for pt, res in zip(kept.tolist(), residuals) if res < bound]
    return _verdict(form, r, candidates, tol, seed)


@dataclass(frozen=True)
class EliminationCell:
    form: StandardForm
    operator: Optional[ReciprocityOp]
    operator_name: str
    verdict: Verdict

    def to_json(self) -> dict:
        return {
            "form": self.form.value,
            "operator": None if self.operator is None else self.operator.to_json(),
            "operator_name": self.operator_name,
            "verdict": self.verdict.to_json(),
        }


_EXPECTED = {
    (StandardForm.N1, "-"): "rejected-inadmissible-exponents",
    (StandardForm.N2, "-"): "rejected-inadmissible-exponents",
    (StandardForm.C2, "projection"): "rejected-non-invertible",
    (StandardForm.C3, "identity"): "rejected-inadmissible-exponents",
    (StandardForm.C3, "swap"): "rejected-counterexample",
    (StandardForm.C1, "identity"): "rejected-counterexample",
    (StandardForm.C1, "conjugation"): "accepted",
}


@dataclass(frozen=True)
class EliminationReport:
    cells: tuple[EliminationCell, ...]
    deviations: tuple[str, ...]
    alpha: Optional[float]
    rules: dict = field(default_factory=dict)

    @property
    def matches_expected(self) -> bool:
        return not self.deviations

    def accepted_cells(self) -> list[EliminationCell]:
        return [c for c in self.cells if isinstance(c.verdict, Accepted)]

    def to_json(self) -> dict:
        return {
            "cells": [c.to_json() for c in self.cells],
            "deviations": list(self.deviations),
            "alpha": self.alpha,
            "rules": self.rules,
            "matches_expected": self.matches_expected,
        }

    def render_text(self) -> str:
        lines = ["Elimination of candidate multiplications"]
        lines.append("")
        for c in self.cells:
            v = c.verdict
            desc = v.verdict
            if isinstance(v, Accepted):
                desc += f" (alpha = {v.alpha:g})"
            elif isinstance(v, RejectedCounterexample):
                desc += f" (a = {v.a.to_json()}, b = {v.b.to_json()}, h(c) = {v.rhs:g})"
            elif isinstance(v, RejectedInadmissibleExponents) and v.exponents:
                desc += f" (exponents {[list(e) for e in v.exponents]})"
            lines.append(f"  {c.form.value:>2} / {c.operator_name:<11} -> {desc}")
        lines.append("")
        if self.deviations:
            lines.append("DEVIATIONS FROM EXPECTED TABLE:")
            lines.extend(f"  {d}" for d in self.deviations)
        else:
            lines.append("Surviving calculus:")
            lines.append(f"  parallel:    {self.rules.get('parallel')}")
            lines.append(f"  series:      {self.rules.get('series')}")
            lines.append(f"  probability: {self.rules.get('probability')}")
        return "\n".join(lines)


def run_full_elimination(
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> EliminationReport:
    """Process every standard form and return the full verdict table.

    Certificates inside rejection verdicts are revalidated before the report
    is assembled; any mismatch with the expected table is listed as a
    deviation rather than silently accepted.
    """
    cells: list[EliminationCell] = []

    for form in (StandardForm.N1, StandardForm.N2):
        cells.append(
            EliminationCell(
                form,
                None,
                "-",
                RejectedInadmissibleExponents(
                    "every multiplicative h for this form is |x1|^alpha, which "
                    "ignores the second component"
                ),
            )
        )

    for form in (StandardForm.C2, StandardForm.C3, StandardForm.C1):
        sols = solve_reciprocity(form)
        for op in sols.operators:
            cells.append(
                EliminationCell(form, op, name_of(op), eliminate(form, op, tol, seed))
            )

    deviations: list[str] = []
    seen = {(c.form, c.operator_name): c.verdict.verdict for c in cells}
    for key, expected in _EXPECTED.items():
        got = seen.get(key)
        if got != expected:
            deviations.append(f"{key[0].value}/{key[1]}: expected {expected}, got {got}")
    for key in seen:
        if key not in _EXPECTED:
            deviations.append(f"unexpected cell {key[0].value}/{key[1]}")

    for c in cells:
        if isinstance(c.verdict, RejectedCounterexample) and c.operator is not None:
            if not c.verdict.revalidate(c.operator):
                deviations.append(
                    f"counterexample certificate for {c.form.value}/{c.operator_name} "
                    "failed revalidation"
                )

    accepted = [c.verdict for c in cells if isinstance(c.verdict, Accepted)]
    alpha = accepted[0].alpha if len(accepted) == 1 else None
    rules = {
        "parallel": "componentwise sum (complex addition)",
        "series": "complex multiplication",
        "probability": "p(x) = x1^2 + x2^2",
        "alpha": alpha,
    }
    return EliminationReport(tuple(cells), tuple(deviations), alpha, rules)
