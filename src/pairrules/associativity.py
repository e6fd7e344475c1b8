"""Associativity constraints on bilinear pair products and their solution families.

The associativity condition (a*b)*c = a*(b*c), imposed on an arbitrary bilinear
product, reduces to twelve polynomial equations in the eight gamma coefficients.
Every associative gamma belongs to one of three parameterized families (one
commutative, two non-commutative) or to a handful of degenerate limiting shapes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Union

from .pairs import DEFAULT_TOL, ROUNDING_FLOOR, GammaVector, Pair, bilinear_mul, pair_sub


@dataclass(frozen=True)
class TwelveResiduals:
    """Left-minus-right values of the twelve associativity equations, in printed order."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) != 12:
            raise ValueError("expected 12 residuals")

    def max_abs(self) -> float:
        return max(abs(v) for v in self.values)

    def to_json(self) -> list[float]:
        return list(self.values)


def twelve_equations(g: GammaVector) -> TwelveResiduals:
    """Evaluate the twelve associativity constraints; all vanish iff * is associative."""
    g1, g2, g3, g4, g5, g6, g7, g8 = g.as_tuple()
    return TwelveResiduals((
        g2 * g6 - g4 * g5,
        g3 * g7 - g4 * g5,
        g4 * (g2 - g3),
        g4 * (g6 - g7),
        g5 * (g2 - g3),
        g5 * (g6 - g7),
        g2 * (g1 - g7) - g3 * (g1 - g6),
        g4 * (g1 - g7) - g3 * (g3 - g8),
        g7 * (g1 - g7) - g5 * (g3 - g8),
        g7 * (g2 - g8) - g6 * (g3 - g8),
        g5 * (g2 - g8) - g6 * (g1 - g6),
        g2 * (g2 - g8) - g4 * (g1 - g6),
    ))


def assoc_residual(g: GammaVector, a: Pair, b: Pair, c: Pair) -> Pair:
    """(a*b)*c - a*(b*c) under the product defined by g."""
    lhs = bilinear_mul(g, bilinear_mul(g, a, b), c)
    rhs = bilinear_mul(g, a, bilinear_mul(g, b, c))
    return pair_sub(lhs, rhs)


def _pair_norm(a: Pair) -> float:
    return max(abs(a.c1), abs(a.c2))


def is_associative(
    g: GammaVector,
    tol: float = DEFAULT_TOL,
    samples: int = 1000,
    seed: int = 0,
) -> bool:
    """Decide associativity via the twelve equations, with a randomized self-check.

    The residuals are quadratic in gamma, so the threshold is scaled by
    max(1, ||gamma||_inf^2).  When the twelve equations pass, a randomized
    triple test must agree; a disagreement signals an implementation bug and
    raises RuntimeError rather than returning a verdict.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    norm2 = g.norm_inf() ** 2
    passed = twelve_equations(g).max_abs() <= tol * max(1.0, norm2)
    if passed:
        triple_tol = max(tol, ROUNDING_FLOOR)  # a triple residual carries float rounding
        rng = random.Random(seed)
        for _ in range(samples):
            a = Pair(rng.uniform(-2, 2), rng.uniform(-2, 2))
            b = Pair(rng.uniform(-2, 2), rng.uniform(-2, 2))
            c = Pair(rng.uniform(-2, 2), rng.uniform(-2, 2))
            r = assoc_residual(g, a, b, c)
            size = norm2 * _pair_norm(a) * _pair_norm(b) * _pair_norm(c)
            bound = triple_tol * max(1.0, size) * 64.0
            if max(abs(r.c1), abs(r.c2)) > bound:
                raise RuntimeError(
                    "internal inconsistency: twelve equations vanish but a random "
                    f"triple has residual {r} (gamma={g.as_tuple()})"
                )
    return passed


@dataclass(frozen=True)
class CommutativeA:
    """Commutative family: gamma = (t-p*e, f*e, f*e, f; t*e, t, t, p+f*e)
    with theta=t, phi=f, psi=p, epsilon=e."""

    theta: float
    phi: float
    psi: float
    epsilon: float
    notes: tuple[str, ...] = field(default=(), compare=False)

    family = "commutative_a"

    def params(self) -> dict[str, float]:
        return {
            "theta": self.theta,
            "phi": self.phi,
            "psi": self.psi,
            "epsilon": self.epsilon,
        }


@dataclass(frozen=True)
class NonCommutativeB:
    """Non-commutative family with gamma = (g1, g2, 0, 0; 0, 0, g1, g2)."""

    gamma1: float
    gamma2: float
    notes: tuple[str, ...] = field(default=(), compare=False)

    family = "noncommutative_b"

    def params(self) -> dict[str, float]:
        return {"gamma1": self.gamma1, "gamma2": self.gamma2}


@dataclass(frozen=True)
class NonCommutativeC:
    """Non-commutative family with gamma = (g1, 0, g3, 0; 0, g1, 0, g3)."""

    gamma1: float
    gamma3: float
    notes: tuple[str, ...] = field(default=(), compare=False)

    family = "noncommutative_c"

    def params(self) -> dict[str, float]:
        return {"gamma1": self.gamma1, "gamma3": self.gamma3}


@dataclass(frozen=True)
class DegenerateLimit:
    """Associative limiting shapes not covered by the parameterized templates."""

    gamma: GammaVector
    notes: tuple[str, ...] = field(default=(), compare=False)

    family = "degenerate_limit"

    def params(self) -> dict[str, list[float]]:
        return {"gamma": self.gamma.to_json()}


@dataclass(frozen=True)
class NotAssociative:
    residuals: TwelveResiduals
    notes: tuple[str, ...] = field(default=(), compare=False)

    family = "not_associative"

    def params(self) -> dict[str, list[float]]:
        return {"residuals": self.residuals.to_json()}


Classification = Union[CommutativeA, NonCommutativeB, NonCommutativeC, DegenerateLimit, NotAssociative]


def classification_to_json(c: Classification) -> dict:
    out: dict = {"family": c.family, "params": c.params()}
    if c.notes:
        out["notes"] = list(c.notes)
    return out


def classify(g: GammaVector, tol: float = DEFAULT_TOL) -> Classification:
    """Run the full case analysis on an associative gamma.

    The case split is exact over the reals; with floats, zero tests use
    |x| <= tol * max(1, ||gamma||_inf), and near-threshold values are taken
    by the first matching branch with a "borderline" note attached.
    """
    if not is_associative(g, tol=tol):
        return NotAssociative(twelve_equations(g))

    ztol = tol * max(1.0, g.norm_inf())
    notes: list[str] = []

    def zero(x: float) -> bool:
        return abs(x) <= ztol

    for x in (g.g2, g.g3, g.g6, g.g7):
        if ztol < abs(x) < 100.0 * ztol:
            notes.append("borderline")
            break

    if not zero(g.g6) or not zero(g.g7):
        if abs(g.g6 - g.g7) <= ztol:
            # commutative branch: theta = g6, epsilon = g5/g6, phi = g4, psi = g8 - phi*epsilon
            theta = g.g6
            epsilon = g.g5 / g.g6
            phi = g.g4
            psi = g.g8 - phi * epsilon
            return CommutativeA(theta, phi, psi, epsilon, tuple(notes))
        if zero(g.g6):
            return NonCommutativeB(g.g1, g.g2, tuple(notes))
        if zero(g.g7):
            return NonCommutativeC(g.g1, g.g3, tuple(notes))
        # Associativity forces g6 = g7 whenever both are nonzero; getting here
        # means the tolerance policy split an inconsistent middle ground.
        return NotAssociative(twelve_equations(g), ("inconsistent-case-split",))

    # g6 = g7 = 0: mirror analysis on g2, g3.
    if not zero(g.g2) or not zero(g.g3):
        if abs(g.g2 - g.g3) <= ztol:
            if not zero(g.g4):
                # commutative template with theta = 0: epsilon = g2/g4, phi = g4
                phi = g.g4
                epsilon = g.g2 / g.g4
                psi = g.g8 - phi * epsilon
                return CommutativeA(0.0, phi, psi, epsilon, tuple(notes))
            # g2 = g3 != 0 with g4 = 0 is associative but escapes the template
            # (epsilon would need phi != 0); it is a swap-conjugate limiting case.
            return DegenerateLimit(g, tuple(notes))
        if zero(g.g3):
            return NonCommutativeB(g.g1, g.g2, tuple(notes))
        return NonCommutativeC(g.g1, g.g3, tuple(notes))

    return DegenerateLimit(g, tuple(notes))


def reconstruct_gamma(c: Classification) -> GammaVector:
    """Emit the gamma defined by a family template; round-trips with classify."""
    if isinstance(c, CommutativeA):
        t, f, p, e = c.theta, c.phi, c.psi, c.epsilon
        return GammaVector(t - p * e, f * e, f * e, f, t * e, t, t, p + f * e)
    if isinstance(c, NonCommutativeB):
        return GammaVector(c.gamma1, c.gamma2, 0.0, 0.0, 0.0, 0.0, c.gamma1, c.gamma2)
    if isinstance(c, NonCommutativeC):
        return GammaVector(c.gamma1, 0.0, c.gamma3, 0.0, 0.0, c.gamma1, 0.0, c.gamma3)
    if isinstance(c, DegenerateLimit):
        return c.gamma
    raise ValueError("cannot reconstruct a gamma from a NotAssociative classification")


def gammas_close(a: GammaVector, b: GammaVector, tol: float) -> bool:
    return all(math.isclose(x, y, rel_tol=0.0, abs_tol=tol) for x, y in zip(a.as_tuple(), b.as_tuple()))
