"""Probability-candidate functions h per standard form.

Each standard multiplication admits a continuous family of functions h
satisfying h(a * b) = h(a) h(b).  This module evaluates those closed forms,
measures the multiplicativity residual, and decides admissibility, meaning
non-trivial dependence on both pair components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .pairs import Pair, StandardForm, bilinear_mul


class DomainError(ValueError):
    """The candidate function is not defined at the requested point."""


FORMULA_IDS = {
    StandardForm.C1: "radial-power",
    StandardForm.C2: "power-exponential-ratio",
    StandardForm.C3: "component-powers",
    StandardForm.N1: "first-component-power",
    StandardForm.N2: "first-component-power",
}


@dataclass(frozen=True)
class HFunction:
    """One member of a standard form's multiplicative solution family.

    beta is meaningful only for C2 and C3; it must be None elsewhere.
    """

    form: StandardForm
    alpha: float
    beta: Optional[float] = None

    def __post_init__(self) -> None:
        needs_beta = self.form in (StandardForm.C2, StandardForm.C3)
        if needs_beta and self.beta is None:
            raise ValueError(f"{self.form.value} requires a beta parameter")
        if not needs_beta and self.beta is not None:
            raise ValueError(f"{self.form.value} takes no beta parameter")

    def to_json(self) -> dict:
        return {"form": self.form.value, "alpha": self.alpha, "beta": self.beta}


def _power(base: float, exponent: float) -> float:
    """|base|^exponent with a hard error where the expression is undefined."""
    mag = abs(base)
    if mag == 0.0:
        if exponent > 0:
            return 0.0
        if exponent == 0:
            return 1.0
        raise DomainError("zero component raised to a negative power")
    return mag ** exponent


def h_eval(h: HFunction, a: Pair) -> float:
    """Evaluate the closed-form solution at a pair.

    C1: (x1^2 + x2^2)^(alpha/2).
    C2: |x1|^alpha * exp(beta * x2 / x1), undefined on the line x1 = 0.
    C3: |x1|^alpha * |x2|^beta.
    N1, N2: |x1|^alpha (the second component drops out).
    """
    if h.form is StandardForm.C1:
        r2 = a.c1 * a.c1 + a.c2 * a.c2
        return _power(math.sqrt(r2), h.alpha)
    if h.form is StandardForm.C2:
        if a.c1 == 0.0:
            raise DomainError("C2 solution is undefined at x1 = 0")
        assert h.beta is not None
        return _power(a.c1, h.alpha) * math.exp(h.beta * a.c2 / a.c1)
    if h.form is StandardForm.C3:
        assert h.beta is not None
        return _power(a.c1, h.alpha) * _power(a.c2, h.beta)
    return _power(a.c1, h.alpha)


def h_array(form: StandardForm, alpha, beta, x1, x2) -> np.ndarray:
    """Array form of h_eval at the points (x1, x2), broadcasting the parameters.

    NaN marks the points where h_eval raises DomainError, and an overflow
    gives inf.  beta is ignored by the forms that take none.
    """

    def power(base, exponent):
        mag = np.abs(base)
        return np.where((mag == 0.0) & (exponent < 0), np.nan, mag ** exponent)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if form is StandardForm.C1:
            return power(np.sqrt(x1 * x1 + x2 * x2), alpha)
        if form is StandardForm.C2:
            return np.where(x1 == 0.0, np.nan, power(x1, alpha) * np.exp(beta * x2 / x1))
        if form is StandardForm.C3:
            return power(x1, alpha) * power(x2, beta)
        return power(x1, alpha)


def multiplicativity_residual(h: HFunction, a: Pair, b: Pair) -> float:
    """|h(a * b) - h(a) h(b)| under the multiplication of h's form."""
    c = bilinear_mul(h.form.gamma, a, b)
    return abs(h_eval(h, c) - h_eval(h, a) * h_eval(h, b))


def admissible(h: HFunction) -> bool:
    """True iff h depends non-trivially on both pair components.

    Decided analytically from the parameters: C1 mixes both components through
    the radius, so alpha != 0 suffices; C2 needs beta != 0 for the second
    component to matter; C3 needs both exponents nonzero; N1 and N2 ignore the
    second component entirely and are never admissible.
    """
    if h.form is StandardForm.C1:
        return h.alpha != 0.0
    if h.form is StandardForm.C2:
        # beta != 0 already makes both directions active: the ratio x2/x1
        # varies with either component at generic points.
        return h.beta != 0.0
    if h.form is StandardForm.C3:
        return h.alpha != 0.0 and h.beta != 0.0
    return False


@dataclass(frozen=True)
class HFamilyDescriptor:
    """Parameter schema of a standard form's solution family."""

    form: StandardForm
    formula_id: str
    alpha_free: bool
    beta_free: bool

    def make(self, alpha: float, beta: Optional[float] = None) -> HFunction:
        if self.beta_free:
            return HFunction(self.form, alpha, 0.0 if beta is None else beta)
        if beta is not None:
            raise ValueError(f"{self.form.value} takes no beta parameter")
        return HFunction(self.form, alpha)

    def to_json(self) -> dict:
        return {
            "form": self.form.value,
            "formula": self.formula_id,
            "alpha_free": self.alpha_free,
            "beta_free": self.beta_free,
        }


def solution_family_for(form: StandardForm) -> HFamilyDescriptor:
    return HFamilyDescriptor(
        form=form,
        formula_id=FORMULA_IDS[form],
        alpha_free=True,
        beta_free=form in (StandardForm.C2, StandardForm.C3),
    )
