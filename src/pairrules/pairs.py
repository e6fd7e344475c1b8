"""Core value types: real number pairs and the gamma-parameterized bilinear products on them.

All values are immutable and all operations are pure functions, so everything
here is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

# The one numerical tolerance shared by every stage and the CLI's --tol default.
DEFAULT_TOL = 1e-9
# No bound derived from a tolerance goes below this: float rounding in a
# residual near unit scale reaches 1e-15.
ROUNDING_FLOOR = 1e-12


class NonFiniteError(ValueError):
    """Raised when a constructor receives a NaN or infinite component."""


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise NonFiniteError(f"{name} components must be finite, got {values!r}")


@dataclass(frozen=True)
class Pair:
    """A two-component real value: the weight attached to an outcome sequence."""

    c1: float
    c2: float

    def __post_init__(self) -> None:
        _require_finite("Pair", self.c1, self.c2)

    def to_json(self) -> list[float]:
        return [self.c1, self.c2]

    @classmethod
    def from_json(cls, data: Iterable[float]) -> "Pair":
        c1, c2 = data
        return cls(float(c1), float(c2))


ZERO = Pair(0.0, 0.0)
ONE = Pair(1.0, 0.0)


@dataclass(frozen=True)
class GammaVector:
    """Eight real coefficients defining a candidate bilinear multiplication.

    g1..g4 produce the first output component, g5..g8 the second.
    """

    g1: float
    g2: float
    g3: float
    g4: float
    g5: float
    g6: float
    g7: float
    g8: float

    def __post_init__(self) -> None:
        _require_finite("GammaVector", *self.as_tuple())

    def as_tuple(self) -> tuple[float, ...]:
        return (self.g1, self.g2, self.g3, self.g4, self.g5, self.g6, self.g7, self.g8)

    def norm_inf(self) -> float:
        return max(abs(g) for g in self.as_tuple())

    def to_json(self) -> list[float]:
        return list(self.as_tuple())

    @classmethod
    def from_sequence(cls, values: Iterable[float]) -> "GammaVector":
        vals = [float(v) for v in values]
        if len(vals) != 8:
            raise ValueError(f"expected 8 components, got {len(vals)}")
        return cls(*vals)


class StandardForm(Enum):
    """The five canonical multiplications reachable by invertible regrading."""

    C1 = "C1"
    C2 = "C2"
    C3 = "C3"
    N1 = "N1"
    N2 = "N2"

    @property
    def gamma(self) -> GammaVector:
        return STANDARD_GAMMAS[self]


STANDARD_GAMMAS: dict[StandardForm, GammaVector] = {
    StandardForm.C1: GammaVector(1.0, 0.0, 0.0, -1.0, 0.0, 1.0, 1.0, 0.0),
    StandardForm.C2: GammaVector(1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0),
    StandardForm.C3: GammaVector(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0),
    StandardForm.N1: GammaVector(1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0),
    StandardForm.N2: GammaVector(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0),
}


@dataclass(frozen=True)
class LinearMap:
    """A real linear map [[s, t], [u, v]] on pair space: a regrading or a reciprocity operator."""

    s: float
    t: float
    u: float
    v: float

    def __post_init__(self) -> None:
        _require_finite(type(self).__name__, self.s, self.t, self.u, self.v)

    @property
    def det(self) -> float:
        return self.s * self.v - self.t * self.u

    def norm_inf(self) -> float:
        return max(abs(self.s), abs(self.t), abs(self.u), abs(self.v))

    @property
    def invertible(self) -> bool:
        """|det| above DEFAULT_TOL, scaled like det by max(1, ||m||_inf^2)."""
        return abs(self.det) > DEFAULT_TOL * max(1.0, self.norm_inf() ** 2)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.s, self.t, self.u, self.v)

    def apply(self, x1, x2):
        """The image of (x1, x2); the components may be floats or numpy arrays."""
        return self.s * x1 + self.t * x2, self.u * x1 + self.v * x2

    @classmethod
    def identity(cls):
        return cls(1.0, 0.0, 0.0, 1.0)

    def inverse(self):
        d = self.det
        return type(self)(self.v / d, -self.t / d, -self.u / d, self.s / d)

    def compose(self, other: "LinearMap"):
        """Matrix product self . other: apply `other` first, then self."""
        return type(self)(
            self.s * other.s + self.t * other.u,
            self.s * other.t + self.t * other.v,
            self.u * other.s + self.v * other.u,
            self.u * other.t + self.v * other.v,
        )

    def to_json(self) -> list[list[float]]:
        return [[self.s, self.t], [self.u, self.v]]

    @classmethod
    def from_json(cls, data):
        (s, t), (u, v) = data
        return cls(float(s), float(t), float(u), float(v))


def pair_add(a: Pair, b: Pair) -> Pair:
    """Componentwise sum: the unique parallel-combination rule."""
    return Pair(a.c1 + b.c1, a.c2 + b.c2)


def pair_sub(a: Pair, b: Pair) -> Pair:
    return Pair(a.c1 - b.c1, a.c2 - b.c2)


def scalar_mul(r: float, a: Pair) -> Pair:
    _require_finite("scalar", r)
    return Pair(r * a.c1, r * a.c2)


def _product(g, x1, x2, y1, y2):
    """(x1, x2) * (y1, y2) under the eight coefficients g, in g1..g8 order.

    The one statement of the bilinear product: the components may be floats,
    Fractions, numpy arrays or sympy expressions.
    """
    g1, g2, g3, g4, g5, g6, g7, g8 = g
    return (
        g1 * x1 * y1 + g2 * x1 * y2 + g3 * x2 * y1 + g4 * x2 * y2,
        g5 * x1 * y1 + g6 * x1 * y2 + g7 * x2 * y1 + g8 * x2 * y2,
    )


def bilinear_mul(g: GammaVector, a: Pair, b: Pair) -> Pair:
    """Product of two pairs under the multiplication defined by g."""
    return Pair(*_product(g.as_tuple(), a.c1, a.c2, b.c1, b.c2))


def complex_mul(a: Pair, b: Pair) -> Pair:
    """The C1 product: ordinary complex multiplication of (c1 + i c2)."""
    return Pair(a.c1 * b.c1 - a.c2 * b.c2, a.c1 * b.c2 + a.c2 * b.c1)


def commutator(g: GammaVector, a: Pair, b: Pair) -> Pair:
    """a*b - b*a under the multiplication defined by g."""
    return pair_sub(bilinear_mul(g, a, b), bilinear_mul(g, b, a))
