"""Measurement-outcome sequences, their combination algebra, and amplitude assignment.

Sequences from one experimental set-up combine in parallel (coarsening one
interior outcome) and in series (chaining at a shared atomic junction).  An
amplitude assignment maps each atomic transition to a pair; a sequence's
amplitude is the sum over its atomic refinements of the product of transition
pairs, with complex multiplication as the product.  This realizes Feynman's
rules end to end.

`amplitude` evaluates that sum slot by slot rather than path by path.  Series
combination distributes over parallel combination, so the sum over paths
factors at every slot: the amplitude of reaching label d at slot k+1 is the
sum over labels x at slot k of the amplitude of reaching x times the
transition x -> d.  That is O(slots * labels^2) work in place of one product
per path, O(labels^slots).

Each transition table has one run-time form.  `AmplitudeAssignment` turns the
pairs it is given into Python complex numbers keyed by (from, to), once, at
construction; complex(c1, c2) is exact, so no float changes.  `amplitude`
multiplies those entries directly, and `normalization_check` builds its
unitarity matrices from the same entries.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Union

import numpy as np

from .pairs import NonFiniteError, Pair, StandardForm
from .born import HFunction, h_eval


class SequenceError(ValueError):
    """An invalid sequence construction or combination."""


class MissingAmplitudeError(LookupError):
    """A sequence uses an atomic transition absent from the assignment."""


def _label(x) -> int:
    """x itself if it is an atomic label: a positive int, and not a bool.

    Check each label before it goes into a set, where True and 1.0 merge
    with 1.
    """
    if isinstance(x, bool) or not isinstance(x, int) or x < 1:
        raise SequenceError(f"labels must be positive integers, got {x!r}")
    return x


def _component(x) -> float:
    """x as a float if it is a JSON number, not a bool, and finite as a float."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise SequenceError(f"amplitude components must be numbers, got {x!r}")
    try:
        f = float(x)
    except OverflowError:
        f = math.inf
    if not math.isfinite(f):
        raise SequenceError(f"amplitude components must be finite, got {f!r}")
    return f


@dataclass(frozen=True)
class Outcome:
    """A detector outcome: a nonempty set of positive integer atomic labels.

    A singleton set is atomic; a larger set is the coarse outcome whose
    detector spans those atoms.  The set is unordered by construction.
    """

    labels: frozenset[int]

    def __post_init__(self) -> None:
        if not self.labels:
            raise SequenceError("an outcome needs at least one label")
        for x in self.labels:
            _label(x)

    @property
    def atomic(self) -> bool:
        return len(self.labels) == 1

    @classmethod
    def of(cls, *labels: int) -> "Outcome":
        return cls(frozenset(labels))

    def to_json(self) -> list[int]:
        return sorted(self.labels)

    def __str__(self) -> str:
        inner = ",".join(str(x) for x in sorted(self.labels))
        return inner if self.atomic else "{" + inner + "}"


def _as_outcome(x: Union[Outcome, int, Iterable[int]]) -> Outcome:
    if isinstance(x, Outcome):
        return x
    if isinstance(x, int):
        x = (x,)
    return Outcome(frozenset(map(_label, x)))


@dataclass(frozen=True)
class Sequence:
    """An ordered run of outcomes from successive measurements of one set-up."""

    setup_id: str
    outcomes: tuple[Outcome, ...]

    def __post_init__(self) -> None:
        if len(self.outcomes) < 2:
            raise SequenceError("a sequence needs at least two outcomes")
        if not self.outcomes[0].atomic or not self.outcomes[-1].atomic:
            raise SequenceError("first and last outcomes must be atomic")

    @classmethod
    def of(cls, setup_id: str, *outcomes) -> "Sequence":
        return cls(setup_id, tuple(_as_outcome(o) for o in outcomes))

    def __len__(self) -> int:
        return len(self.outcomes)

    def to_json(self) -> list[list[int]]:
        return [o.to_json() for o in self.outcomes]

    def __str__(self) -> str:
        return "[" + "; ".join(str(o) for o in self.outcomes) + "]"


def parallel(a: Sequence, b: Sequence) -> Sequence:
    """Merge two sequences differing at exactly one interior slot (disjointly)."""
    if a.setup_id != b.setup_id:
        raise SequenceError("parallel combination requires the same set-up")
    if len(a) != len(b):
        raise SequenceError("parallel combination requires equal length")
    diffs = [i for i, (x, y) in enumerate(zip(a.outcomes, b.outcomes)) if x != y]
    if len(diffs) != 1:
        raise SequenceError(f"sequences must differ at exactly one slot, differ at {len(diffs)}")
    i = diffs[0]
    if i == 0 or i == len(a) - 1:
        raise SequenceError("first and last outcomes must stay atomic")
    xa, xb = a.outcomes[i].labels, b.outcomes[i].labels
    if xa & xb:
        raise SequenceError("outcome sets at the differing slot must be disjoint")
    merged = a.outcomes[:i] + (Outcome(xa | xb),) + a.outcomes[i + 1:]
    return Sequence(a.setup_id, merged)


def series(a: Sequence, b: Sequence) -> Sequence:
    """Chain two sequences sharing their junction outcome.

    The set-up identifiers concatenate with a separator, so chaining is
    associative at the identifier level as well as the outcome level.
    """
    tail, head = a.outcomes[-1], b.outcomes[0]
    if not tail.atomic or not head.atomic:
        raise SequenceError("junction outcomes must be atomic")
    if tail != head:
        raise SequenceError(f"junction mismatch: {tail} vs {head}")
    return Sequence(f"{a.setup_id}·{b.setup_id}", a.outcomes + b.outcomes[1:])


TransitionTable = Mapping[tuple[int, int], Pair]


class AmplitudeAssignment:
    """Per-interval tables mapping (label at slot k, label at slot k+1) to an amplitude.

    Built from tables of pairs, and held in one form only: each pair
    (c1, c2) becomes complex(c1, c2) once, here, keyed by (from, to).  That
    conversion is exact, so every later reading gives the same floats.
    Tables depend only on adjacent slots, never on earlier outcomes; that is
    how the closure of atomic measurements is encoded structurally.
    """

    def __init__(self, tables: Iterable[TransitionTable]):
        self.tables = tuple({k: complex(p.c1, p.c2) for k, p in t.items()} for t in tables)

    def entry(self, interval: int, src: int, dst: int) -> Pair:
        if interval >= len(self.tables):
            raise MissingAmplitudeError(f"no table for interval {interval}")
        try:
            z = self.tables[interval][src, dst]
        except KeyError:
            raise _missing(interval, src, dst) from None
        return Pair(z.real, z.imag)


def _missing(k: int, src: int, dst: int) -> MissingAmplitudeError:
    return MissingAmplitudeError(f"no amplitude for transition {src} -> {dst} on interval {k}")


def amplitude(s: Sequence, asg: AmplitudeAssignment) -> Pair:
    """Sum over atomic refinements of the product of transition amplitudes.

    Evaluated slot by slot: v maps each label of slot k to the summed
    amplitude of every refinement of the first k+1 outcomes that ends there,
    and v'[d] = sum over x in sorted(v) of v[x] * T_k(x, d).  Expanding the
    products recovers the sum over paths term by term, so the result equals
    it up to the order of the additions; for three slots the order is the
    same and so are the floats.  Every (x, d) of each interval is looked up,
    zero entries of v included, because every one of them lies on some path:
    a missing entry raises MissingAmplitudeError exactly when a path uses it.
    """
    if len(s) - 1 > len(asg.tables):
        raise MissingAmplitudeError(
            f"sequence spans {len(s) - 1} intervals but only {len(asg.tables)} tables given"
        )
    v = {x: 1 + 0j for x in s.outcomes[0].labels}
    for k, o in enumerate(s.outcomes[1:]):
        table, src = asg.tables[k], sorted(v.items())
        nxt = {}
        try:
            for d in sorted(o.labels):
                acc = 0j
                for x, a in src:
                    acc += a * table[x, d]
                nxt[d] = acc
        except KeyError:
            raise _missing(k, x, d) from None
        v = nxt
    (z,) = v.values()
    if not cmath.isfinite(z):
        raise NonFiniteError(f"amplitude of {s} is not finite: {z}")
    return Pair(z.real, z.imag)


# The surviving rule, p(x) = x1^2 + x2^2, as the C1 probability with alpha = 2.
BORN = HFunction(StandardForm.C1, 2.0)


def probability(s: Sequence, asg: AmplitudeAssignment) -> float:
    """The surviving rule: modulus squared of the amplitude."""
    return h_eval(BORN, amplitude(s, asg))


@dataclass(frozen=True)
class SetupSpec:
    """A declared experiment: atomic label sets per slot and transition tables."""

    slots: tuple[frozenset[int], ...]
    tables: tuple[TransitionTable, ...]
    setup_id: str = "setup"

    def __post_init__(self) -> None:
        if len(self.slots) < 2:
            raise SequenceError("a set-up needs at least two measurement slots")
        if len(self.tables) != len(self.slots) - 1:
            raise SequenceError("need exactly one table per adjacent slot interval")
        if not all(self.slots):
            raise SequenceError("every slot needs at least one label")

    def assignment(self) -> AmplitudeAssignment:
        return AmplitudeAssignment(self.tables)

    def validate_sequence(self, s: Sequence) -> None:
        if len(s) != len(self.slots):
            raise SequenceError(
                f"sequence length {len(s)} does not match {len(self.slots)} slots"
            )
        for i, o in enumerate(s.outcomes):
            if not o.labels <= self.slots[i]:
                raise SequenceError(
                    f"outcome {o} at slot {i} is not within the declared atoms "
                    f"{sorted(self.slots[i])}"
                )


def _table_matrix(table: Mapping[tuple[int, int], complex], labels: frozenset[int]) -> np.ndarray:
    """A square interval table as a complex matrix, column per source label."""
    ls = sorted(labels)
    return np.array([[table.get((s, d), 0j) for s in ls] for d in ls], dtype=complex)


def identity_table(labels: Iterable[int]) -> dict[tuple[int, int], Pair]:
    ls = list(labels)
    return {
        (x, y): Pair(1.0, 0.0) if x == y else Pair(0.0, 0.0)
        for x in ls
        for y in ls
    }


@dataclass(frozen=True)
class NormalizationReport:
    unitary_intervals: tuple[bool, ...]
    qualifies: bool
    totals: dict[int, float]
    max_total_deviation: Optional[float]  # None when the tables do not qualify
    max_interleave_deviation: float

    def to_json(self) -> dict:
        return {
            "unitary_intervals": list(self.unitary_intervals),
            "qualifies": self.qualifies,
            "totals_per_initial_label": {str(k): v for k, v in self.totals.items()},
            "max_total_deviation": self.max_total_deviation,
            "max_interleave_deviation": self.max_interleave_deviation,
        }


def normalization_check(setup: SetupSpec) -> NormalizationReport:
    """Conservation of total probability, and insensitivity to a trivial measurement.

    A set-up qualifies when every interval table is square and unitary as a
    complex matrix.  For a qualifying set-up, summing the probability of
    [i; full; ...; full; j] over final labels j gives 1 for every initial
    label i, and splicing in a trivial coarse measurement with an identity
    interval table changes no probability.
    """
    asg = setup.assignment()
    unitary_flags = []
    for k, table in enumerate(asg.tables):
        src, dst = setup.slots[k], setup.slots[k + 1]
        if src != dst:
            unitary_flags.append(False)
            continue
        m = _table_matrix(table, src)
        # An entry large enough to overflow m^H m is far from unitary, and the
        # inf or nan it leaves fails the comparison: no warning is needed.
        with np.errstate(over="ignore", invalid="ignore"):
            unitary_flags.append(bool(np.allclose(m.conj().T @ m, np.eye(len(src)), atol=1e-9)))
    qualifies = all(unitary_flags)

    full_interior = [Outcome(s) for s in setup.slots[1:-1]]
    base_p: dict[tuple[int, int], float] = {}
    totals: dict[int, float] = {}
    for i in sorted(setup.slots[0]):
        total = 0.0
        for j in sorted(setup.slots[-1]):
            s = Sequence("n", (Outcome.of(i), *full_interior, Outcome.of(j)))
            base_p[i, j] = probability(s, asg)
            total += base_p[i, j]
        totals[i] = total
    max_dev = max(abs(t - 1.0) for t in totals.values()) if qualifies else None

    mid = len(setup.slots) // 2
    widened_tables = (
        setup.tables[: mid - 1]
        + (identity_table(setup.slots[mid - 1]),)
        + setup.tables[mid - 1:]
    )
    asg2 = AmplitudeAssignment(widened_tables)
    max_interleave = 0.0
    for i in sorted(setup.slots[0]):
        for j in sorted(setup.slots[-1]):
            base = Sequence("n", (Outcome.of(i), *full_interior, Outcome.of(j)))
            spliced = Sequence(
                "n",
                base.outcomes[:mid]
                + (Outcome(setup.slots[mid - 1]),)
                + base.outcomes[mid:],
            )
            p1 = probability(spliced, asg2)
            max_interleave = max(max_interleave, abs(p1 - base_p[i, j]))

    return NormalizationReport(
        tuple(unitary_flags), qualifies, totals, max_dev, max_interleave
    )


@dataclass(frozen=True)
class SymmetryReport:
    cases: dict[str, int]
    failures: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {"cases": dict(self.cases), "failures": list(self.failures), "passed": self.passed}


def check_symmetries(cases: int = 1000, seed: int = 0) -> SymmetryReport:
    """Randomized verification of the five combination symmetries at the sequence level.

    Commutativity and associativity of parallel combination, associativity of
    series combination, and both distributivity laws.  All hold exactly by
    set and list semantics; any failure is reported with a witness.
    """
    rng = random.Random(seed)
    counts = {k: 0 for k in ("pll-comm", "pll-assoc", "ser-assoc", "right-dist", "left-dist")}
    failures: list[str] = []

    def note(law: str, *seqs: Sequence) -> None:
        failures.append(f"{law}: " + " ; ".join(str(s) for s in seqs))

    for _ in range(cases):
        n = rng.randint(3, 5)
        first = rng.randint(1, 4)
        last = rng.randint(1, 4)
        slot = rng.randint(1, n - 2)
        labels = rng.sample(range(1, 10), 3)

        def variant(label: int) -> Sequence:
            outs = [Outcome.of(first)]
            for k in range(1, n - 1):
                outs.append(Outcome.of(label if k == slot else rng.randint(1, 4)))
            outs.append(Outcome.of(last))
            return Sequence("s", tuple(outs))

        rng_state = rng.getstate()
        a = variant(labels[0])
        rng.setstate(rng_state)
        b = variant(labels[1])
        rng.setstate(rng_state)
        c = variant(labels[2])

        if parallel(a, b) != parallel(b, a):
            note("pll-comm", a, b)
        counts["pll-comm"] += 1

        if parallel(parallel(a, b), c) != parallel(a, parallel(b, c)):
            note("pll-assoc", a, b, c)
        counts["pll-assoc"] += 1

        d = Sequence.of("t", last, rng.randint(1, 4), rng.randint(1, 4))
        e = Sequence.of("u", d.outcomes[-1].to_json()[0], rng.randint(1, 4))
        if series(series(a, d), e) != series(a, series(d, e)):
            note("ser-assoc", a, d, e)
        counts["ser-assoc"] += 1

        lhs = series(parallel(a, b), d)
        rhs = parallel(series(a, d), series(b, d))
        if lhs != rhs:
            note("right-dist", a, b, d)
        counts["right-dist"] += 1

        f = Sequence.of("r", rng.randint(1, 4), rng.randint(1, 4), first)
        lhs = series(f, parallel(a, b))
        rhs = parallel(series(f, a), series(f, b))
        if lhs != rhs:
            note("left-dist", f, a, b)
        counts["left-dist"] += 1

    return SymmetryReport(counts, tuple(failures))


def setup_from_json(data: dict) -> SetupSpec:
    """Parse the set-up description format used by the CLI.

    {"slots": [[1,2],[1,2]], "tables": [[[from,to,c1,c2], ...]],
     "setup_id": "optional"}

    Labels, in slots and in tables, are positive JSON integers: no float, not
    even 2.0, and no boolean.  The components c1 and c2 are JSON numbers,
    integer or not, finite as floats: no string and no boolean.  Table k holds
    at most one row per (from, to), with from in slot k and to in slot k + 1.
    """
    try:
        slots = tuple(frozenset(map(_label, slot)) for slot in data["slots"])
        tables = []
        for k, raw in enumerate(data["tables"]):
            table: dict[tuple[int, int], Pair] = {}
            for src, dst, c1, c2 in raw:
                key = (_label(src), _label(dst))
                if key in table:
                    raise SequenceError(f"table {k} repeats the row for {list(key)}")
                table[key] = Pair(_component(c1), _component(c2))
            tables.append(table)
    except (KeyError, TypeError, ValueError) as exc:
        raise SequenceError(f"malformed set-up description: {exc}") from exc
    setup = SetupSpec(slots, tuple(tables), str(data.get("setup_id", "setup")))
    for k, table in enumerate(tables):
        for src, dst in table:
            if src not in slots[k] or dst not in slots[k + 1]:
                raise SequenceError(
                    f"table {k} row {[src, dst]} is not from slot {k} {sorted(slots[k])} "
                    f"to slot {k + 1} {sorted(slots[k + 1])}"
                )
    return setup


def sequences_from_json(data, setup: SetupSpec) -> list[Sequence]:
    """Parse sequences as arrays of outcomes (a label or an array of labels).

    Each distinct outcome is built once per call and shared by every sequence
    that holds it: a batch over a few labels repeats a handful of outcomes
    many times.  Only an exact int, or a list of exact ints, is looked up, so
    True and 1.0, which equal 1, never reach the outcome of 1; they are built,
    and refused, as if no earlier row held a 1.
    """
    if not isinstance(data, list):
        raise SequenceError("sequences file must hold an array of sequences")
    built: dict = {}

    def outcome(o) -> Outcome:
        if type(o) is int:
            key = o
        elif type(o) is list and all(type(x) is int for x in o):
            key = tuple(o)
        else:
            return _as_outcome(o)
        if key not in built:
            built[key] = _as_outcome(o)
        return built[key]

    out = []
    for raw in data:
        if not isinstance(raw, list):
            raise SequenceError("each sequence must be an array of outcomes")
        try:
            seq = Sequence(setup.setup_id, tuple(map(outcome, raw)))
        except TypeError as exc:
            raise SequenceError(f"malformed sequence {raw}: {exc}") from exc
        setup.validate_sequence(seq)
        out.append(seq)
    return out
