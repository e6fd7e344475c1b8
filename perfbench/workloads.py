"""Seeded inputs and single operations for each benchmark workload.

A workload is built from its seed alone: `make(name, seed, workdir)`
generates the inputs (writing input files under `workdir`), makes one
warm-up call and returns an object whose `op(i)` runs the i-th operation
and whose `check(i, output)` verifies it with `oracles`.  All workloads are
a closed loop with one caller in one thread: the next operation starts when
the previous one returns.

The program is driven only through its public API and its in-process CLI
entry point (`pairrules.cli.main`); the tracer patches module attributes,
so every call below looks its target up at call time.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

import oracles

def _cli(argv: list[str]) -> tuple[int, str]:
    """Run `pairrules <argv>` in-process and capture what it prints."""
    from pairrules import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# ---------------------------------------------------------------- derive


class Derive:
    """Repeated `pairrules derive --format json`; call i uses seed 1000*seed + i.

    Nearly all of its time is the exponent-grid scan, `_polish` and
    `implication_residual` in `reciprocity`, with `born.h_eval` underneath.
    """

    unit = "derive call"
    trace_ops = (0,)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        # Warm-up: the symbolic reciprocity solve, the part of derive that
        # fills sympy's caches, without paying for a whole elimination.
        code, _ = _cli(["solve-reciprocity", "C3", "--format", "json"])
        if code != 0:
            raise RuntimeError(f"warm-up solve-reciprocity exited with {code}")

    def kind(self, i: int) -> str:
        return "op"

    def op(self, i: int):
        return _cli(["derive", "--format", "json", "--seed", str(1000 * self.seed + i)])

    def check(self, i: int, out) -> list[str]:
        return oracles.check_derive(*out)


# ---------------------------------------------------------------- classify_mix

# Per block of 100 inputs: 70 associative ones spread over every family and
# 30 clearly non-associative perturbations.  The exact counts keep the mix,
# and so the throughput, identical across seeds.
ASSOCIATIVE_MIX = (
    ("commutative_mu_minus", 12),
    ("commutative_mu_plus", 12),
    ("commutative_mu_zero", 10),
    ("noncommutative_b", 8),
    ("noncommutative_c", 8),
    ("degenerate", 6),
    ("regraded_standard", 14),
)
REJECT_PER_BLOCK = 30
BLOCK = sum(n for _, n in ASSOCIATIVE_MIX) + REJECT_PER_BLOCK
CLASSIFY_BLOCKS = 10
# Regraded standard constants in the timed mix.  C2 is left out: a float
# regrading moves 4*theta*phi + psi^2 off exact zero, `mu_of` has no
# tolerance, and most such inputs come back as C1, C3 or inadmissible.
REGRADED_FORMS = ("C1", "C3", "N1", "N2")
# Inputs that hit a known defect are kept out of the timed mix, where every
# operation must succeed, and run once per classify_mix run instead, so the
# defect stays visible as a failure count:
#   large_magnitude - |gamma| 1e160..1e200, half associative: `norm_inf() ** 2`
#                     in `is_associative` raises OverflowError;
#   regraded_c2     - the C2 constant moved by a random regrading (see above).
PROBE_COUNT = 8


def _sign(rng) -> float:
    return float(rng.choice((-1.0, 1.0)))


def _commutative(t: float, f: float, p: float, e: float) -> tuple[float, ...]:
    return (t - p * e, f * e, f * e, f, t * e, t, t, p + f * e)


def _well_posed(t: float, f: float, p: float, e: float) -> bool:
    # Away from the singular surface theta = (psi + phi*eps)*eps, where the
    # reduction map degenerates and no tolerance is meaningful.
    return abs(t - (p + f * e) * e) > 0.25


def _draw_associative(rng, family: str) -> tuple[tuple[float, ...], dict]:
    """One associative gamma of the given family, at unit scale, with its expectation."""
    expect = {"associative": True, "form": None, "inadmissible_ok": False}
    if family.startswith("commutative"):
        while True:
            if family == "commutative_mu_zero":
                # Dyadic a, b, eps keep 4*theta*phi + psi^2 exactly zero.
                a = rng.integers(4, 17) / 8.0 * _sign(rng)
                b = rng.integers(4, 17) / 8.0 * _sign(rng)
                t, f, p = a * a, -b * b, 2.0 * a * b
                e = rng.integers(-16, 17) / 8.0
                form = "C2"
            else:
                t = rng.uniform(0.5, 2.0) * _sign(rng)
                same = family == "commutative_mu_plus"
                f = rng.uniform(0.5, 2.0) * (np.sign(t) if same else -np.sign(t))
                p = rng.uniform(-1.0, 1.0)
                e = rng.uniform(-2.0, 2.0)
                form = "C3" if same else "C1"
            if _well_posed(t, f, p, e):
                expect["form"] = form
                return _commutative(t, f, p, e), expect
    if family == "noncommutative_b":
        g1, g2 = (rng.uniform(0.5, 2.0) * _sign(rng) for _ in range(2))
        expect["form"] = "N2"
        return (g1, g2, 0.0, 0.0, 0.0, 0.0, g1, g2), expect
    if family == "noncommutative_c":
        g1, g3 = (rng.uniform(0.5, 2.0) * _sign(rng) for _ in range(2))
        expect["form"] = "N1"
        return (g1, 0.0, g3, 0.0, 0.0, g1, 0.0, g3), expect
    if family == "degenerate":
        g1, g8 = (rng.uniform(0.5, 2.0) * _sign(rng) for _ in range(2))
        shape = int(rng.integers(0, 4))
        if shape == 0:  # componentwise with independent scales
            expect["form"] = "C3"
            return (g1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, g8), expect
        if shape == 1:  # unital, escapes the commutative template; splits
            expect["form"] = "C3"
            return (g1, g8, g8, 0.0, 0.0, 0.0, 0.0, g8), expect
        if shape == 2:  # unital with a nilpotent
            expect["form"] = "C2"
            return (0.0, g8, g8, 0.0, 0.0, 0.0, 0.0, g8), expect
        expect["inadmissible_ok"] = True  # products confined to a line
        return (g1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0), expect
    if family.startswith("regraded"):
        form = "C2" if family == "regraded_c2" else str(rng.choice(REGRADED_FORMS))
        while True:
            m = rng.uniform(-2.0, 2.0, size=(2, 2))
            if abs(np.linalg.det(m)) > 0.5 and np.linalg.cond(m) < 10.0:
                break
        # gamma with m(a *gamma b) = m(a) *form m(b), so m reduces it to form.
        t = oracles.gamma_tensor(oracles.STANDARD_GAMMAS[form])
        g = np.einsum("kl,lpq,pi,qj->kij", np.linalg.inv(m), t, m, m)
        expect["form"] = form
        return tuple(float(x) for x in g.ravel()), expect
    raise ValueError(family)


_TRIPLES = np.random.default_rng(7).uniform(-2.0, 2.0, size=(16, 3, 2))


def _relative_assoc_residual(g) -> float:
    t = oracles.gamma_tensor(g)
    worst = 0.0
    for a, b, c in _TRIPLES:
        r = oracles.mul(t, oracles.mul(t, a, b), c) - oracles.mul(t, a, oracles.mul(t, b, c))
        worst = max(worst, float(np.abs(r).max()))
    return worst / max(np.abs(t).max() ** 2, 1e-300) / 8.0


def _draw_reject(rng) -> tuple[tuple[float, ...], dict]:
    """An associative draw with one coefficient moved far enough to break associativity."""
    families = [name for name, _ in ASSOCIATIVE_MIX]
    while True:
        g, _ = _draw_associative(rng, families[int(rng.integers(len(families)))])
        g = list(g)
        k = int(rng.integers(8))
        g[k] += rng.uniform(0.2, 1.0) * _sign(rng) * max(1.0, max(abs(x) for x in g))
        if _relative_assoc_residual(g) > 0.01:
            return tuple(g), {"associative": False, "form": None, "inadmissible_ok": False}


def _scaled(g, rng, lo: float, hi: float, dyadic: bool = False) -> tuple[float, ...]:
    """g times a factor log-uniform over 10**lo..10**hi; a power of two if dyadic."""
    if dyadic:
        factor = 2.0 ** int(rng.integers(round(lo / math.log10(2)), round(hi / math.log10(2)) + 1))
    else:
        factor = 10.0 ** rng.uniform(lo, hi)
    return tuple(float(factor * x) for x in g)


def classify_inputs(seed: int, blocks: int = CLASSIFY_BLOCKS) -> list[tuple[tuple, dict]]:
    """Blocks of 100 gamma vectors, shuffled within each block, magnitudes 1e-3..1e3."""
    rng = np.random.default_rng([seed, 1])
    out = []
    for _ in range(blocks):
        block = []
        for family, n in ASSOCIATIVE_MIX:
            for _ in range(n):
                g, expect = _draw_associative(rng, family)
                # Powers of two keep mu = 0 exact.
                dyadic = family == "commutative_mu_zero"
                block.append((_scaled(g, rng, -3.0, 3.0, dyadic), expect))
        for _ in range(REJECT_PER_BLOCK):
            g, expect = _draw_reject(rng)
            block.append((_scaled(g, rng, -3.0, 3.0), expect))
        order = rng.permutation(len(block))
        out.extend(block[j] for j in order)
    return out


def probe_inputs(seed: int) -> dict[str, list[tuple[tuple, dict]]]:
    """The known-defect inputs, PROBE_COUNT of each kind."""
    rng = np.random.default_rng([seed, 2])
    large = []
    for k in range(PROBE_COUNT):
        if k % 2 == 0:
            g, expect = _draw_associative(rng, "regraded_standard")
        else:
            g, expect = _draw_reject(rng)
        large.append((_scaled(g, rng, 160.0, 200.0), expect))
    regraded = []
    for _ in range(PROBE_COUNT):
        g, expect = _draw_associative(rng, "regraded_c2")
        regraded.append((_scaled(g, rng, -3.0, 3.0), expect))
    return {"large_magnitude": large, "regraded_c2": regraded}


def classify_once(gamma):
    """What `pairrules classify` does: classify, then reduce an associative result."""
    import pairrules

    c = pairrules.classify(pairrules.GammaVector.from_sequence(gamma))
    if c.family == "not_associative":
        return c.family, None
    return c.family, pairrules.reduce_to_standard(c).to_json()


class ClassifyMix:
    """`classify` then `reduce_to_standard` on a seeded 70/30 associative mix.

    Associative inputs pay the 1000-triple self-check in `is_associative`;
    non-associative ones leave after the twelve equations.
    """

    unit = "gamma vector"
    trace_ops = tuple(range(2 * BLOCK))

    def __init__(self, seed: int, workdir: str):
        self.inputs = classify_inputs(seed)
        self.probes = probe_inputs(seed)
        classify_once(self.inputs[0][0])

    def kind(self, i: int) -> str:
        return "assoc" if self.inputs[i % len(self.inputs)][1]["associative"] else "reject"

    def op(self, i: int):
        return classify_once(self.inputs[i % len(self.inputs)][0])

    def check(self, i: int, out) -> list[str]:
        gamma, expect = self.inputs[i % len(self.inputs)]
        return oracles.check_classify(expect, gamma, *out)

    def probe_failures(self) -> dict[str, list[str]]:
        """Run each known-defect probe once; one line per input that fails."""
        failures = {}
        for name, inputs in self.probes.items():
            failures[name] = []
            for gamma, expect in inputs:
                try:
                    problems = oracles.check_classify(expect, gamma, *classify_once(gamma))
                except (ArithmeticError, RuntimeError, ValueError) as exc:
                    problems = [f"gamma {list(gamma)}: {type(exc).__name__}: {exc}"]
                failures[name].extend(problems[:1])
        return failures


# ---------------------------------------------------------------- simulate


def random_unitary(rng, k: int) -> np.ndarray:
    z = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def make_setup(rng, slots: int, labels: int) -> dict:
    """A set-up file with the same atoms at every slot and random unitary tables."""
    atoms = list(range(1, labels + 1))
    tables = []
    for _ in range(slots - 1):
        u = random_unitary(rng, labels)
        tables.append(
            [[s, d, float(u[d - 1, s - 1].real), float(u[d - 1, s - 1].imag)] for s in atoms for d in atoms]
        )
    return {"slots": [atoms] * slots, "tables": tables, "setup_id": "bench"}


# Interior outcome-set sizes of every coarse chain sequence, in a random
# order: 4*3*2*2 = 48 paths each, so the work per call is the same for
# every seed.
COARSE_SIZES = (4, 3, 2, 2, 1)


def make_sequences(rng, slots: int, labels: int, count: int, coarse: int) -> list:
    """`count` sequences, `coarse` of them with coarse interior outcomes."""
    out = []
    for n in range(count):
        seq = [int(rng.integers(1, labels + 1)) for _ in range(slots)]
        if n < coarse:
            for k, size in zip(range(1, slots - 1), rng.permutation(COARSE_SIZES)):
                members = sorted(int(x) + 1 for x in rng.choice(labels, size=size, replace=False))
                seq[k] = members if size > 1 else members[0]
        out.append(seq)
    order = rng.permutation(count)
    return [out[j] for j in order]


class Simulate:
    """`pairrules simulate --format json` on seeded random-unitary set-up files."""

    unit = "simulate call"
    files = 3
    shape: tuple[int, int, int, int] = (0, 0, 0, 0)  # slots, labels, sequences, coarse

    def __init__(self, seed: int, workdir: str):
        slots, labels, count, coarse = self.shape
        rng = np.random.default_rng([seed, 3])
        os.makedirs(workdir, exist_ok=True)
        self.inputs = []
        self._expected: dict[int, list[complex]] = {}
        for k in range(self.files):
            setup = make_setup(rng, slots, labels)
            seqs = make_sequences(rng, slots, labels, count, coarse)
            paths = (os.path.join(workdir, f"setup{k}.json"), os.path.join(workdir, f"sequences{k}.json"))
            for path, data in zip(paths, (setup, seqs)):
                with open(path, "w") as fh:
                    json.dump(data, fh)
            self.inputs.append((paths, setup, seqs))
        self.op(0)

    def kind(self, i: int) -> str:
        return "op"

    def op(self, i: int):
        (setup_path, seq_path), _, _ = self.inputs[i % self.files]
        return _cli(["simulate", setup_path, seq_path, "--format", "json"])

    def check(self, i: int, out) -> list[str]:
        k = i % self.files
        _, setup, seqs = self.inputs[k]
        if k not in self._expected:
            self._expected[k] = oracles.expected_amplitudes(setup, seqs)
        return oracles.check_simulate(*out, setup, seqs, self._expected[k])


class SimulateChain(Simulate):
    """7 slots x 4 labels, 64 sequences, half with coarse interior outcomes.

    Path enumeration in `amplitude` and `normalization_check` dominates.
    """

    shape = (7, 4, 64, 32)
    trace_ops = (0, 1)


class SimulateBatch(Simulate):
    """4 slots x 3 labels, 5000 atomic sequences.

    JSON parsing and single-path amplitudes dominate.
    """

    shape = (4, 3, 5000, 0)
    trace_ops = (0, 1, 2)


WORKLOADS = {
    "derive": Derive,
    "classify_mix": ClassifyMix,
    "simulate_chain": SimulateChain,
    "simulate_batch": SimulateBatch,
}


def make(name: str, seed: int, workdir: str):
    """Generate the inputs of workload `name` and make its warm-up call."""
    return WORKLOADS[name](seed, workdir)
