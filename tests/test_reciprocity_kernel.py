"""The batched residual kernel against a scalar reference over Pair and h_eval.

The reference is the per-point loop the kernel replaced: each residual call
draws its premise pairs from a fresh random.Random(seed), random pairs first,
then the degenerate constructions.  The kernel shares one set of draws
across the grid and computes powers with numpy, so values may differ in the
last bits but must keep the same None pattern and the same hits.
"""

import math
import random
from typing import Optional

import numpy as np
import pytest

from pairrules.born import DomainError, h_eval, solution_family_for
from pairrules.pairs import Pair, StandardForm
from pairrules.reciprocity import (
    CONJUGATION,
    IDENTITY,
    SWAP,
    _exponent_grid,
    _residual_draws,
    _residuals,
    implication_residual,
    repeated_measurement_pair,
)


def _make_h(form, exps):
    fam = solution_family_for(form)
    return fam.make(exps[0], exps[1]) if fam.beta_free else fam.make(exps[0])


def _scaled_to(form, exps, x: Pair, p: float) -> Optional[Pair]:
    h = _make_h(form, exps)
    try:
        h0 = h_eval(h, x)
    except DomainError:
        return None
    if h0 <= 0.0:
        return None
    total = exps[0] + exps[1] if form is StandardForm.C3 else exps[0]
    if abs(total) > 1e-6:
        s = (p / h0) ** (1.0 / total)
        return Pair(s * x.c1, s * x.c2)
    if form is StandardForm.C3 and abs(exps[0]) > 1e-6:
        return Pair((p / h0) ** (1.0 / exps[0]) * x.c1, x.c2)
    if form is StandardForm.C3 and abs(exps[1]) > 1e-6:
        return Pair(x.c1, (p / h0) ** (1.0 / exps[1]) * x.c2)
    return None


def _seeded_pairs(form, exps, rng, n):
    out = []
    for _ in range(n):
        if form is StandardForm.C1:
            theta = rng.uniform(0.0, 2.0 * math.pi)
            a = _scaled_to(form, exps, Pair(math.cos(theta), math.sin(theta)), 0.5)
            if a is not None:
                out.append((a, Pair(a.c2, -a.c1)))
        else:  # C3
            alpha, beta = exps
            x = rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0))
            y = rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0))
            a = _scaled_to(form, exps, Pair(x, y), 0.5)
            if a is not None:
                out.append((a, Pair(a.c1, -a.c2)))
            t = rng.uniform(0.5, 2.0)
            denom = t ** (alpha - beta) + t ** (beta - alpha)
            if abs(alpha + beta) > 1e-6 and denom > 0:
                rr = (1.0 / denom) ** (1.0 / (alpha + beta))
                out.append((Pair(rr * t, rr / t), Pair(rr / t, rr * t)))
    h = _make_h(form, exps)
    checked = []
    for a, b in out:
        try:
            if abs(h_eval(h, a) + h_eval(h, b) - 1.0) < 1e-9:
                checked.append((a, b))
        except DomainError:
            continue
    return checked


def _random_pairs(form, exps, rng, n):
    out = []
    for _ in range(n):
        p = rng.uniform(0.05, 0.95)
        xa = Pair(
            rng.uniform(0.2, 2.0) * rng.choice((-1.0, 1.0)),
            rng.uniform(0.2, 2.0) * rng.choice((-1.0, 1.0)),
        )
        xb = Pair(
            rng.uniform(0.2, 2.0) * rng.choice((-1.0, 1.0)),
            rng.uniform(0.2, 2.0) * rng.choice((-1.0, 1.0)),
        )
        a = _scaled_to(form, exps, xa, p)
        b = _scaled_to(form, exps, xb, 1.0 - p)
        if a is not None and b is not None:
            out.append((a, b))
    return out


def _reference_residual(form, r, exps, rng, samples=60) -> Optional[float]:
    pairs = _random_pairs(form, exps, rng, samples)
    pairs += _seeded_pairs(form, exps, rng, max(8, samples // 4))
    if not pairs:
        return None
    h = _make_h(form, exps)
    worst = 0.0
    for a, b in pairs:
        try:
            worst = max(worst, abs(h_eval(h, repeated_measurement_pair(a, b, r, form)) - 1.0))
        except DomainError:
            worst = max(worst, 1.0)
    return worst


@pytest.mark.parametrize(
    "form, r",
    [
        (StandardForm.C3, IDENTITY),
        (StandardForm.C3, SWAP),
        (StandardForm.C1, IDENTITY),
        (StandardForm.C1, CONJUGATION),
    ],
)
def test_batched_grid_matches_scalar_reference(form, r):
    grid = _exponent_grid(form)
    got = _residuals(form, r, np.array(grid), _residual_draws(form, random.Random(0), 60))
    want = [_reference_residual(form, r, pt, random.Random(0)) for pt in grid]

    assert [math.isnan(x) for x in got] == [w is None for w in want]
    assert {pt for pt, x in zip(grid, got) if x < 1e-6} == {
        pt for pt, w in zip(grid, want) if w is not None and w < 1e-6
    }
    for pt, x, w in zip(grid, got, want):
        if w is not None:
            # 1e-15 absolute covers residuals that are rounding noise around 0
            assert math.isclose(x, w, rel_tol=1e-9, abs_tol=1e-15), (pt, x, w)


def test_zero_conclusion_with_negative_alpha_counts_as_one():
    # With samples=0 only the degenerate C1 pairs b = (a2, -a1) remain, and
    # under the identity they all give c = (0, 0), where h = |c|^alpha is
    # undefined for alpha < 0.
    res = implication_residual(StandardForm.C1, IDENTITY, (-1.0,), random.Random(0), samples=0)
    assert res == 1.0
    assert res == _reference_residual(StandardForm.C1, IDENTITY, (-1.0,), random.Random(0), 0)
