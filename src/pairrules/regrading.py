"""Invertible changes of basis on pair space and reduction to the five standard forms.

A regrading is a pairs.LinearMap m that must be invertible; the Regrading
subclass adds only that invariant.  It acts on pairs directly (apply_to_pair,
shared with the reciprocity operators of stage 3, which are LinearMaps too)
and on gamma vectors through an 8x8 coefficient matrix, fixed by the
requirement that multiplication be equivariant:

    apply_to_pair(m, a * b)  ==  apply_to_pair(m, a) *' apply_to_pair(m, b)

where *' uses the transformed gamma.  transform_gamma below is calibrated
against that law (the test suite re-checks it on random inputs), which pins
down the direction convention of the coefficient matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .pairs import (
    DEFAULT_TOL,
    GammaVector,
    LinearMap,
    Pair,
    STANDARD_GAMMAS,
    StandardForm,
)
from .associativity import (
    Classification,
    CommutativeA,
    DegenerateLimit,
    NonCommutativeB,
    NonCommutativeC,
    NotAssociative,
    gammas_close,
    reconstruct_gamma,
)


class SingularRegradingError(ValueError):
    """Raised when a candidate 2x2 map is not invertible within tolerance."""


class Regrading(LinearMap):
    """A LinearMap that must be invertible: a singular one is refused at construction."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.invertible:
            raise SingularRegradingError(
                f"regrading [[{self.s}, {self.t}], [{self.u}, {self.v}]] is singular"
            )


def apply_to_pair(m: LinearMap, a: Pair) -> Pair:
    return Pair(*m.apply(a.c1, a.c2))


def _coefficient_matrix(s: float, t: float, u: float, v: float) -> np.ndarray:
    """The printed 8x8 gamma-transformation matrix, including its 1/(sv-tu) prefactor.

    Transcribed entry by entry; each entry is the symbol product from the
    printed row/column position (rows ordered g1'..g8', columns g1..g8).
    """
    rows = [
        [s*s*v,   s*u*v,   s*u*v,   u*u*v,   -s*s*t,  -s*t*u,  -s*t*u,  -t*u*u],
        [s*t*v,   s*v*v,   t*u*v,   u*v*v,   -s*t*t,  -s*t*v,  -t*t*u,  -t*u*v],
        [s*t*v,   t*u*v,   s*v*v,   u*v*v,   -s*t*t,  -t*t*u,  -s*t*v,  -t*u*v],
        [t*t*v,   t*v*v,   t*v*v,   v*v*v,   -t*t*t,  -t*t*v,  -t*t*v,  -t*v*v],
        [-s*s*u,  -s*u*u,  -s*u*u,  -u*u*u,  s*s*s,   s*s*u,   s*s*u,   s*u*u],
        [-s*t*u,  -s*u*v,  -t*u*u,  -u*u*v,  s*s*t,   s*s*v,   s*t*u,   s*u*v],
        [-s*t*u,  -t*u*u,  -s*u*v,  -u*u*v,  s*s*t,   s*t*u,   s*s*v,   s*u*v],
        [-t*t*u,  -t*u*v,  -t*u*v,  -u*v*v,  s*t*t,   s*t*v,   s*t*v,   s*v*v],
    ]
    return np.array(rows, dtype=float) / (s * v - t * u)


def transform_gamma(m: Regrading, g: GammaVector) -> GammaVector:
    """gamma in the regraded basis: the unique gamma' satisfying the equivariance law.

    The printed coefficient matrix expresses the inverse direction, so it is
    evaluated at the entries of m^-1 here.
    """
    inv = m.inverse()
    out = _coefficient_matrix(inv.s, inv.t, inv.u, inv.v) @ np.array(g.as_tuple())
    return GammaVector.from_sequence(out)


@dataclass(frozen=True)
class ReductionResult:
    form: StandardForm
    map: Regrading
    mu: Optional[int] = None

    def to_json(self) -> dict:
        out: dict = {"form": self.form.value, "map": self.map.to_json()}
        if self.mu is not None:
            out["mu"] = self.mu
        return out


@dataclass(frozen=True)
class Inadmissible:
    reason: str

    def to_json(self) -> dict:
        return {"inadmissible": self.reason}


ReductionOutcome = Union[ReductionResult, Inadmissible]


def mu_of(c: Classification) -> int:
    """sgn(4*theta*phi + psi^2), the invariant separating the commutative standard forms."""
    if not isinstance(c, CommutativeA):
        raise ValueError("mu is defined only for the commutative family")
    d = 4.0 * c.theta * c.phi + c.psi ** 2
    if d > 0:
        return 1
    if d < 0:
        return -1
    return 0


# The mu=+1 commutative standard form is not itself on the five-form list; it
# is carried to the separable constant (1,0,0,0; 0,0,0,1) by this final map.
_MU_PLUS_FORM = GammaVector(1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0)
_MU_PLUS_TO_C3 = Regrading(1.0, -1.0, 1.0, 1.0)

_FORM_BY_MU = {-1: StandardForm.C1, 0: StandardForm.C2, 1: StandardForm.C3}


def _verify_reduction(m: Regrading, g: GammaVector, target: GammaVector, tol: float) -> bool:
    got = transform_gamma(m, g)
    scale = max(1.0, g.norm_inf()) * max(1.0, m.norm_inf() ** 3) * max(1.0, 1.0 / abs(m.det))
    return gammas_close(got, target, tol * scale)


def _exact_standard_match(g: GammaVector, tol: float) -> Optional[StandardForm]:
    for form, const in STANDARD_GAMMAS.items():
        if gammas_close(g, const, tol):
            return form
    return None


def _reduce_commutative(c: CommutativeA, tol: float) -> ReductionOutcome:
    mu = mu_of(c)
    g = reconstruct_gamma(c)

    zeta = c.psi + c.phi * c.epsilon
    if abs(c.theta - zeta * c.epsilon) <= tol * max(1.0, g.norm_inf()):
        return Inadmissible(
            "singular regrading: theta = (psi + phi*epsilon)*epsilon, products "
            "collapse onto a line"
        )

    disc = 4.0 * c.theta * c.phi + c.psi ** 2
    delta = math.sqrt(abs(disc)) if mu != 0 else 1.0
    try:
        recovery = Regrading(
            0.5 * (2.0 * c.theta - c.psi * c.epsilon),
            0.5 * (2.0 * c.phi * c.epsilon + c.psi),
            0.5 * c.epsilon * delta,
            0.5 * delta,
        )
    except SingularRegradingError:
        return Inadmissible(
            "singular regrading: recovery matrix has vanishing determinant"
        )
    form = _FORM_BY_MU[mu]
    if mu == 1:
        # recovery carries g to the mu=+1 form; a second map reaches C3.
        m = _MU_PLUS_TO_C3.compose(recovery)
    else:
        m = recovery
    if not _verify_reduction(m, g, form.gamma, max(tol, 1e-8)):
        raise RuntimeError(f"reduction map failed verification for {c!r}")
    return ReductionResult(form, m, mu)


def _reduce_degenerate(d: DegenerateLimit, tol: float) -> ReductionOutcome:
    g = d.gamma
    ztol = tol * max(1.0, g.norm_inf())

    def nz(x: float) -> bool:
        return abs(x) > ztol

    # Shape (g1,0,0,0; 0,0,0,g8): componentwise product with independent scales.
    if all(abs(x) <= ztol for x in (g.g2, g.g3, g.g4, g.g5, g.g6, g.g7)):
        if nz(g.g1) and nz(g.g8):
            try:
                m = Regrading(g.g1, 0.0, 0.0, g.g8)
            except SingularRegradingError:
                m = None
            if m is not None and _verify_reduction(m, g, StandardForm.C3.gamma, max(tol, 1e-8)):
                return ReductionResult(StandardForm.C3, m)
        return Inadmissible("degenerate multiplication confines products to a line")

    # Shape (g1, c, c, 0; 0,0,0,c) with c != 0: a unital algebra that escapes
    # the commutative template.  Its identity is (0, 1/c); the basis vector
    # (1, 0) squares to g1 times itself, so the algebra splits into two
    # idempotents (g1 != 0, giving C3) or carries a nilpotent (g1 = 0, C2).
    cval = g.g2
    if (
        nz(cval)
        and abs(g.g3 - cval) <= ztol
        and abs(g.g8 - cval) <= ztol
        and all(abs(x) <= ztol for x in (g.g4, g.g5, g.g6, g.g7))
    ):
        try:
            if nz(g.g1):
                basis = np.array([[1.0 / g.g1, -1.0 / g.g1], [0.0, 1.0 / cval]])
                m_mat = np.linalg.inv(basis)
                m = Regrading(*(float(x) for x in m_mat.ravel()))
                target = StandardForm.C3
            else:
                m = Regrading(0.0, cval, 1.0, 0.0)
                target = StandardForm.C2
        except SingularRegradingError:
            m = None
        if m is not None and _verify_reduction(m, g, target.gamma, max(tol, 1e-8)):
            return ReductionResult(target, m)

    return Inadmissible("degenerate multiplication confines products to a line")


def reduce_to_standard(c: Classification, tol: float = DEFAULT_TOL) -> ReductionOutcome:
    """Build the regrading carrying a classified gamma onto its standard constant.

    The recovery matrices map standard-form coordinates back to the family's;
    under the equivariance convention used by transform_gamma they act directly
    as the reduction maps.  Every returned map is re-verified against the
    standard constant before being reported.
    """
    if isinstance(c, NotAssociative):
        raise ValueError("cannot reduce a non-associative multiplication")

    g = reconstruct_gamma(c)
    form = _exact_standard_match(g, tol)
    if form is not None:
        mu = mu_of(c) if isinstance(c, CommutativeA) else None
        return ReductionResult(form, Regrading.identity(), mu)

    if isinstance(c, CommutativeA):
        return _reduce_commutative(c, tol)

    # Both non-commutative families reduce by the map [[gamma1, x], [-x, gamma1]].
    if isinstance(c, NonCommutativeB):
        x, form = c.gamma2, StandardForm.N2
    elif isinstance(c, NonCommutativeC):
        x, form = c.gamma3, StandardForm.N1
    else:
        return _reduce_degenerate(c, tol)
    try:
        m = Regrading(c.gamma1, x, -x, c.gamma1)
    except SingularRegradingError:
        return Inadmissible("recovery matrix is non-invertible: both parameters vanish")
    if not _verify_reduction(m, g, form.gamma, max(tol, 1e-8)):
        raise RuntimeError(f"reduction map failed verification for {c!r}")
    return ReductionResult(form, m)
