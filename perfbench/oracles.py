"""Independent output checks for the benchmark workloads.

Nothing here imports pairrules: every check recomputes the expected result
from the paper's definitions with plain Python or numpy, so a defect in the
library cannot hide behind the same defect in its checker.  Each check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math

import numpy as np

# gamma index 4*k + 2*i + j is the coefficient of a_i * b_j in component k.
STANDARD_GAMMAS = {
    "C1": (1.0, 0.0, 0.0, -1.0, 0.0, 1.0, 1.0, 0.0),
    "C2": (1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0),
    "C3": (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0),
    "N1": (1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0),
    "N2": (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0),
}

# The verdict table the paper derives: only C1 with conjugation survives.
EXPECTED_VERDICTS = {
    ("N1", "-"): "rejected-inadmissible-exponents",
    ("N2", "-"): "rejected-inadmissible-exponents",
    ("C2", "projection"): "rejected-non-invertible",
    ("C3", "identity"): "rejected-inadmissible-exponents",
    ("C3", "swap"): "rejected-counterexample",
    ("C1", "identity"): "rejected-counterexample",
    ("C1", "conjugation"): "accepted",
}


def gamma_tensor(gamma) -> np.ndarray:
    """The bilinear product as T[k, i, j]: (a * b)_k = sum_ij T[k, i, j] a_i b_j."""
    return np.asarray(gamma, dtype=float).reshape(2, 2, 2)


def mul(t: np.ndarray, a, b) -> np.ndarray:
    return np.einsum("kij,i,j->k", t, np.asarray(a, dtype=float), np.asarray(b, dtype=float))


# ---------------------------------------------------------------- derive


def h_value(h: dict, x) -> float | None:
    """The closed-form probability candidate; None where it is undefined."""
    x1, x2 = float(x[0]), float(x[1])
    alpha, beta = h["alpha"], h["beta"]

    def power(base: float, e: float) -> float | None:
        if base == 0.0:
            return 0.0 if e > 0 else (1.0 if e == 0 else None)
        return abs(base) ** e

    form = h["form"]
    if form == "C1":
        return power(math.hypot(x1, x2), alpha)
    if form == "C2":
        if x1 == 0.0:
            return None
        return power(x1, alpha) * math.exp(beta * x2 / x1)
    if form == "C3":
        p, q = power(x1, alpha), power(x2, beta)
        return None if p is None or q is None else p * q
    return power(x1, alpha)


def _close(x: float, y: float, rel: float = 1e-9) -> bool:
    return abs(x - y) <= rel * max(1.0, abs(x), abs(y))


def check_certificate(cell: dict) -> list[str]:
    """Recompute a counterexample certificate from its JSON alone.

    The premise h(a) + h(b) = 1 must hold and the conclusion
    h(a * R(a) + b * R(b)) = 1 must fail by more than 0.1.
    """
    where = f"{cell['form']}/{cell['operator_name']}"
    v = cell["verdict"]
    if cell["operator"] is None:
        return [f"{where}: counterexample without an operator"]
    r = np.asarray(cell["operator"]["matrix"], dtype=float)
    t = gamma_tensor(STANDARD_GAMMAS[cell["form"]])
    a = np.asarray(v["a"], dtype=float)
    b = np.asarray(v["b"], dtype=float)
    ha, hb = h_value(v["h"], a), h_value(v["h"], b)
    if ha is None or hb is None:
        return [f"{where}: h undefined at a premise pair"]
    lhs = ha + hb
    c = mul(t, a, r @ a) + mul(t, b, r @ b)
    rhs = h_value(v["h"], c)
    problems = []
    if abs(lhs - 1.0) >= 1e-9:
        problems.append(f"{where}: premise fails, h(a) + h(b) = {lhs!r}")
    if not _close(lhs, v["lhs"]):
        problems.append(f"{where}: lhs {v['lhs']!r} does not recompute ({lhs!r})")
    if rhs is not None:
        if abs(rhs - 1.0) <= 0.1:
            problems.append(f"{where}: conclusion holds, h(c) = {rhs!r}")
        if not _close(rhs, v["rhs"]):
            problems.append(f"{where}: rhs {v['rhs']!r} does not recompute ({rhs!r})")
    return problems


def check_derive(exit_code: int, text: str) -> list[str]:
    """`pairrules derive --format json`: expected table, alpha = 2, valid certificates."""
    if exit_code != 0:
        return [f"derive exited with {exit_code}"]
    try:
        report = json.loads(text)["report"]
    except (ValueError, KeyError) as exc:
        return [f"derive output is not a report: {exc}"]
    problems = []
    if report.get("matches_expected") is not True:
        problems.append("derive reports matches_expected = false")
    if report.get("alpha") != 2.0:
        problems.append(f"derive reports alpha = {report.get('alpha')!r}")
    got = {(c["form"], c["operator_name"]): c["verdict"]["verdict"] for c in report["cells"]}
    if got != EXPECTED_VERDICTS:
        problems.append(f"verdict table differs: {sorted(got.items())}")
    for cell in report["cells"]:
        v = cell["verdict"]
        if v["verdict"] == "rejected-counterexample":
            problems.extend(check_certificate(cell))
        elif v["verdict"] == "accepted" and v["alpha"] != 2.0:
            problems.append(f"{cell['form']}/{cell['operator_name']}: alpha {v['alpha']!r}")
    return problems


# ---------------------------------------------------------------- classify

# Fixed probe pairs for the equivariance law; drawn once so checks are repeatable.
_PROBES = np.random.default_rng(20090706).uniform(-2.0, 2.0, size=(8, 2, 2))


def equivariance_error(gamma, m, target: str) -> float:
    """Largest relative violation of m(a *_gamma b) = m(a) *_target m(b) on the probes.

    If m reduces gamma then m/s reduces gamma/s, so both are divided by
    s = max|gamma| first; the check then holds at any magnitude of gamma.
    """
    s = max(abs(float(x)) for x in gamma) or 1.0
    t_in = gamma_tensor(gamma) / s
    t_out = gamma_tensor(STANDARD_GAMMAS[target])
    m = np.asarray(m, dtype=float) / s
    worst = 0.0
    for a, b in _PROBES:
        lhs = m @ mul(t_in, a, b)
        rhs = mul(t_out, m @ a, m @ b)
        scale = (
            np.abs(m).max() * np.abs(t_in).max() * np.abs(a).max() * np.abs(b).max()
            + np.abs(rhs).max()
        )
        worst = max(worst, float(np.abs(lhs - rhs).max() / scale))
    return worst


def check_classify(expect: dict, gamma, family: str, reduction: dict | None) -> list[str]:
    """One classify + reduce result against the generator's expectation.

    `expect` holds "associative" (bool), "form" (the standard form the
    input was built from, or None when the family fixes it only up to a
    degenerate case) and "inadmissible_ok" (the input confines products
    to a line, so an inadmissible reduction is correct).
    """
    if not expect["associative"]:
        if family != "not_associative":
            return [f"non-associative gamma {list(gamma)} classified as {family}"]
        return []
    if family == "not_associative":
        return [f"associative gamma {list(gamma)} classified as not_associative"]
    if reduction is None:
        return [f"associative gamma {list(gamma)} has no reduction"]
    if "inadmissible" in reduction:
        if expect["inadmissible_ok"]:
            return []
        return [f"gamma {list(gamma)} reported inadmissible: {reduction['inadmissible']}"]
    form = reduction["form"]
    problems = []
    if expect["form"] is not None and form != expect["form"]:
        problems.append(f"gamma {list(gamma)} reduced to {form}, expected {expect['form']}")
    err = equivariance_error(gamma, reduction["map"], form)
    if not err <= 1e-8:
        problems.append(
            f"map {reduction['map']} breaks equivariance for gamma {list(gamma)} -> {form} "
            f"(relative error {err:.3g})"
        )
    return problems


# ---------------------------------------------------------------- simulate


def interval_matrices(setup: dict) -> list[dict]:
    """Per interval, a complex matrix indexed [dst label, src label] over the slot atoms."""
    out = []
    for k, rows in enumerate(setup["tables"]):
        src = sorted(setup["slots"][k])
        dst = sorted(setup["slots"][k + 1])
        mat = np.zeros((len(dst), len(src)), dtype=complex)
        for s, d, c1, c2 in rows:
            mat[dst.index(d), src.index(s)] = complex(c1, c2)
        out.append({"src": src, "dst": dst, "mat": mat})
    return out


def sequence_amplitude(mats: list[dict], outcomes) -> complex:
    """Sum over paths as a product of interval matrices restricted to each outcome set."""
    outs = [[o] if isinstance(o, int) else sorted(o) for o in outcomes]
    v = np.ones(len(outs[0]), dtype=complex)
    for k in range(len(outs) - 1):
        m = mats[k]
        rows = [m["dst"].index(x) for x in outs[k + 1]]
        cols = [m["src"].index(x) for x in outs[k]]
        v = m["mat"][np.ix_(rows, cols)] @ v
    return complex(v.sum())


def expected_amplitudes(setup: dict, sequences: list) -> list[complex]:
    mats = interval_matrices(setup)
    return [sequence_amplitude(mats, raw) for raw in sequences]


def check_simulate(exit_code: int, text: str, setup: dict, sequences: list, expected=None) -> list[str]:
    """Probabilities match the matrix-product oracle; unitary totals equal one.

    `expected` may hold `expected_amplitudes(setup, sequences)` computed earlier.
    """
    if exit_code != 0:
        return [f"simulate exited with {exit_code}"]
    try:
        body = json.loads(text)
        results, norm = body["results"], body["normalization"]
    except (ValueError, KeyError) as exc:
        return [f"simulate output is not a result set: {exc}"]
    if len(results) != len(sequences):
        return [f"{len(results)} results for {len(sequences)} sequences"]
    if expected is None:
        expected = expected_amplitudes(setup, sequences)
    problems = []
    for raw, res, amp in zip(sequences, results, expected):
        p = abs(amp) ** 2
        got = complex(*res["amplitude"])
        if abs(got - amp) > 1e-9 or abs(res["probability"] - p) > 1e-9:
            problems.append(
                f"sequence {raw}: probability {res['probability']!r}, oracle {p!r}"
            )
    if norm.get("qualifies") is not True:
        problems.append("unitary set-up not recognised as unitary")
    totals = norm.get("totals_per_initial_label", {})
    for label, total in totals.items():
        if abs(total - 1.0) > 1e-9:
            problems.append(f"total probability from label {label} is {total!r}")
    if len(totals) != len(setup["slots"][0]):
        problems.append("normalization totals missing for some initial labels")
    return problems
