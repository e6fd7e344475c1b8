import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pairrules.pairs import Pair, complex_mul, pair_add
from pairrules.sequences import (
    AmplitudeAssignment,
    MissingAmplitudeError,
    Outcome,
    Sequence,
    SequenceError,
    SetupSpec,
    amplitude,
    check_symmetries,
    identity_table,
    normalization_check,
    parallel,
    probability,
    sequences_from_json,
    series,
    setup_from_json,
)


def rand_pair(rng):
    return Pair(rng.uniform(-1, 1), rng.uniform(-1, 1))


def full_table(rng, src, dst):
    return {(s, d): rand_pair(rng) for s in src for d in dst}


def test_outcome_and_sequence_validation():
    with pytest.raises(SequenceError):
        Outcome(frozenset())
    with pytest.raises(SequenceError):
        Sequence.of("s", 1)
    with pytest.raises(SequenceError):
        Sequence.of("s", (1, 2), 1, 3)
    with pytest.raises(SequenceError):
        Sequence.of("s", 1, 2, (3, 4))
    assert Outcome.of(3).atomic
    assert not Outcome.of(1, 2).atomic
    assert str(Sequence.of("s", 1, (1, 2), 2)) == "[1; {1,2}; 2]"


def test_parallel_examples():
    a = Sequence.of("s", 1, 1, 2)
    b = Sequence.of("s", 1, 2, 2)
    assert parallel(a, b) == Sequence.of("s", 1, (1, 2), 2)
    assert parallel(a, b) == parallel(b, a)

    c = Sequence.of("s", 1, 4, 3)
    x = Sequence.of("s", 1, 1, 3)
    y = Sequence.of("s", 1, 2, 3)
    assert parallel(parallel(x, y), c) == parallel(x, parallel(y, c))
    assert parallel(parallel(x, y), c) == Sequence.of("s", 1, (1, 2, 4), 3)


def test_parallel_errors():
    a = Sequence.of("s", 1, 1, 2)
    with pytest.raises(SequenceError):
        parallel(a, Sequence.of("other", 1, 2, 2))
    with pytest.raises(SequenceError):
        parallel(a, Sequence.of("s", 1, 2, 2, 2))
    with pytest.raises(SequenceError):
        parallel(a, a)  # differs nowhere
    with pytest.raises(SequenceError):
        parallel(a, Sequence.of("s", 2, 2, 2))  # differs at two slots
    with pytest.raises(SequenceError):
        parallel(a, Sequence.of("s", 2, 1, 2))  # differs at the first slot
    with pytest.raises(SequenceError):
        parallel(Sequence.of("s", 1, (1, 2), 2), Sequence.of("s", 1, (2, 3), 2))


def test_series_examples():
    a = Sequence.of("a", 1, 2)
    b = Sequence.of("b", 2, 3)
    c = Sequence.of("c", 3, 4)
    assert series(a, b).to_json() == [[1], [2], [3]]
    assert series(series(a, b), c).to_json() == [[1], [2], [3], [4]]
    assert series(series(a, b), c) == series(a, series(b, c))
    with pytest.raises(SequenceError):
        series(a, c)  # junction 2 != 3


def test_symmetry_report():
    report = check_symmetries(cases=1000, seed=0)
    assert report.passed
    assert all(v == 1000 for v in report.cases.values())
    assert len(report.cases) == 5


def test_amplitude_examples():
    asg = AmplitudeAssignment(({(1, 2): Pair(0.6, 0.8)},))
    assert amplitude(Sequence.of("s", 1, 2), asg) == Pair(0.6, 0.8)
    assert probability(Sequence.of("s", 1, 2), asg) == pytest.approx(1.0)

    p, q = Pair(0.5, 0.1), Pair(0.2, -0.3)
    pp, qq = Pair(-0.4, 0.2), Pair(0.3, 0.3)
    asg = AmplitudeAssignment(
        ({(1, 1): p, (1, 2): q}, {(1, 1): pp, (2, 1): qq})
    )
    got = amplitude(Sequence.of("s", 1, (1, 2), 1), asg)
    want = pair_add(complex_mul(p, pp), complex_mul(q, qq))
    assert abs(got.c1 - want.c1) < 1e-15 and abs(got.c2 - want.c2) < 1e-15


def test_missing_amplitude_raises():
    asg = AmplitudeAssignment(({(1, 2): Pair(1, 0)},))
    with pytest.raises(MissingAmplitudeError):
        amplitude(Sequence.of("s", 1, 3), asg)
    with pytest.raises(MissingAmplitudeError):
        amplitude(Sequence.of("s", 1, 2, 1), asg)


def test_destructive_interference():
    s = 0.7
    asg = AmplitudeAssignment(
        ({(1, 1): Pair(s, 0), (1, 2): Pair(-s, 0)}, {(1, 1): Pair(1, 0), (2, 1): Pair(1, 0)})
    )
    seq = Sequence.of("s", 1, (1, 2), 1)
    assert probability(seq, asg) < 1e-12
    # each path alone carries probability s^2 * 1
    one = Sequence.of("s", 1, 1, 1)
    assert probability(one, asg) == pytest.approx(s * s)


def test_amplitude_homomorphism_random():
    rng = random.Random(21)
    labels = (1, 2, 3, 4)
    for _ in range(1000):
        n = rng.randint(3, 6)
        tables = tuple(full_table(rng, labels, labels) for _ in range(n - 1))
        asg = AmplitudeAssignment(tables)
        slot = rng.randint(1, n - 2)
        base = [rng.choice(labels) for _ in range(n)]
        la, lb = rng.sample(labels, 2)

        def seq_with(label):
            outs = list(base)
            outs[slot] = label
            return Sequence.of("s", *outs)

        a, b = seq_with(la), seq_with(lb)
        merged = parallel(a, b)
        got = amplitude(merged, asg)
        want = pair_add(amplitude(a, asg), amplitude(b, asg))
        assert abs(got.c1 - want.c1) < 1e-12 and abs(got.c2 - want.c2) < 1e-12

        # series homomorphism across an atomic junction
        m = rng.randint(2, 3)
        tail_tables = tuple(full_table(rng, labels, labels) for _ in range(m - 1))
        tail = Sequence.of("t", base[-1], *[rng.choice(labels) for _ in range(m - 1)])
        joined = series(a, tail)
        asg_joined = AmplitudeAssignment(tables + tail_tables)
        got = amplitude(joined, asg_joined)
        want = complex_mul(amplitude(a, asg), amplitude(tail, AmplitudeAssignment(tail_tables)))
        assert abs(got.c1 - want.c1) < 1e-12 and abs(got.c2 - want.c2) < 1e-12


def test_expansion_order_invariance():
    rng = random.Random(3)
    labels = (1, 2, 3)
    tables = tuple(full_table(rng, labels, labels) for _ in range(2))
    asg = AmplitudeAssignment(tables)
    singles = [Sequence.of("s", 1, k, 2) for k in labels]
    # merge in every order; the coarse sequence is identical each time
    import itertools

    results = set()
    for perm in itertools.permutations(singles):
        merged = parallel(parallel(perm[0], perm[1]), perm[2])
        amp = amplitude(merged, asg)
        results.add((round(amp.c1, 15), round(amp.c2, 15)))
    assert len(results) == 1


def unitary_table(rng, labels):
    n = len(labels)
    z = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)] for _ in range(n)])
    q, _ = np.linalg.qr(z)
    ls = sorted(labels)
    return {
        (s, d): Pair(q[i, j].real, q[i, j].imag)
        for j, s in enumerate(ls)
        for i, d in enumerate(ls)
    }


def test_normalization_with_unitary_tables():
    rng = random.Random(8)
    for _ in range(20):
        n_labels = rng.randint(2, 4)
        length = rng.randint(2, 6)
        labels = frozenset(range(1, n_labels + 1))
        tables = tuple(unitary_table(rng, labels) for _ in range(length - 1))
        setup = SetupSpec(tuple([labels] * length), tables)
        report = normalization_check(setup)
        assert all(report.unitary_intervals)
        assert report.qualifies
        assert report.max_total_deviation < 1e-12
        assert report.max_interleave_deviation < 1e-12


def test_normalization_rotation_table():
    c, s = math.cos(0.4), math.sin(0.4)
    table = {
        (1, 1): Pair(c, 0),
        (1, 2): Pair(s, 0),
        (2, 1): Pair(-s, 0),
        (2, 2): Pair(c, 0),
    }
    setup = SetupSpec((frozenset({1, 2}), frozenset({1, 2})), (table,))
    report = normalization_check(setup)
    assert report.qualifies
    assert report.totals[1] == pytest.approx(1.0, abs=1e-12)
    assert report.totals[2] == pytest.approx(1.0, abs=1e-12)


def test_normalization_flags_non_unitary():
    table = {
        (1, 1): Pair(1, 0),
        (1, 2): Pair(1, 0),
        (2, 1): Pair(0, 0),
        (2, 2): Pair(0, 0),
    }
    setup = SetupSpec((frozenset({1, 2}), frozenset({1, 2})), (table,))
    report = normalization_check(setup)
    assert not report.qualifies


def test_identity_table_is_complete():
    t = identity_table([1, 2, 3])
    assert len(t) == 9
    assert t[(2, 2)] == Pair(1.0, 0.0)
    assert t[(1, 3)] == Pair(0.0, 0.0)


def test_setup_json_round_trip():
    data = {
        "slots": [[1, 2], [1, 2]],
        "tables": [[[1, 1, 1.0, 0.0], [1, 2, 0.0, 0.0], [2, 1, 0.0, 0.0], [2, 2, 1.0, 0.0]]],
        "setup_id": "demo",
    }
    setup = setup_from_json(data)
    assert setup.setup_id == "demo"
    seqs = sequences_from_json([[1, 1], [[1], [2]]], setup)
    assert len(seqs) == 2
    with pytest.raises(SequenceError):
        sequences_from_json([[1, 5]], setup)
    with pytest.raises(SequenceError):
        sequences_from_json({"not": "a list"}, setup)
    with pytest.raises(SequenceError):
        setup_from_json({"slots": [[1]]})


def uncached_sequences_from_json(data, setup):
    """The parse that builds every outcome anew, row by row: the reference."""
    if not isinstance(data, list):
        raise SequenceError("sequences file must hold an array of sequences")
    out = []
    for raw in data:
        if not isinstance(raw, list):
            raise SequenceError("each sequence must be an array of outcomes")
        try:
            seq = Sequence.of(setup.setup_id, *raw)
        except TypeError as exc:
            raise SequenceError(f"malformed sequence {raw}: {exc}") from exc
        setup.validate_sequence(seq)
        out.append(seq)
    return out


# Rows that parse, mixed with rows that hold values equal to a valid label
# (True, 1.0, 2.0), nested and duplicate lists: a parse that reuses the
# outcomes of earlier rows by value gets the chance to merge them.
_labels_1_3 = st.integers(1, 3)
_atomic = st.one_of(_labels_1_3, st.lists(_labels_1_3, min_size=1, max_size=1))
_valid_rows = st.tuples(
    _atomic, st.one_of(_labels_1_3, st.lists(_labels_1_3, min_size=1, max_size=4)), _atomic
).map(list)
_raw_labels = st.one_of(
    st.integers(-1, 4), st.sampled_from([True, False, 1.0, 2.0, 2.5, None, "1"])
)
_raw_outcomes = st.one_of(
    _raw_labels,
    st.lists(_raw_labels, max_size=4),
    st.lists(st.lists(_labels_1_3, max_size=2), max_size=2),
)


def _with_outcome(row, i, o):
    return row[:i] + [o] + row[i + 1:]


_odd_rows = st.one_of(
    st.builds(_with_outcome, _valid_rows, st.integers(0, 2), _raw_outcomes),
    st.lists(_raw_outcomes, max_size=4),
    _raw_outcomes,
)
_raw_rows = st.builds(
    lambda head, odd, tail: head + odd + tail,
    st.lists(_valid_rows, max_size=5),
    st.lists(_odd_rows, max_size=1),
    st.lists(_valid_rows, max_size=2),
)
_SLOTS_3x3 = setup_from_json({
    "slots": [[1, 2, 3]] * 3,
    "tables": [[[s, d, 0.5, 0.0] for s in (1, 2, 3) for d in (1, 2, 3)]] * 2,
    "setup_id": "s",
})


@given(_raw_rows)
def test_sequences_from_json_matches_uncached_parse(rows):
    try:
        expected = uncached_sequences_from_json(rows, _SLOTS_3x3)
    except SequenceError as exc:
        with pytest.raises(SequenceError) as got:
            sequences_from_json(rows, _SLOTS_3x3)
        assert str(got.value) == str(exc)
    else:
        assert sequences_from_json(rows, _SLOTS_3x3) == expected


def test_normalization_check_evaluates_each_base_amplitude_once(monkeypatch):
    # 2 initial x 3 final labels: one base and one spliced amplitude per pair.
    import pairrules.sequences as sequences

    setup = setup_from_json({
        "slots": [[1, 2], [1, 2], [1, 2, 3]],
        "tables": [
            [[1, 1, 0.6, 0.0], [1, 2, 0.8, 0.0], [2, 1, -0.8, 0.0], [2, 2, 0.6, 0.0]],
            [[s, d, 0.5, 0.25] for s in (1, 2) for d in (1, 2, 3)],
        ],
    })
    calls = []
    amplitude = sequences.amplitude

    def counted(s, asg):
        calls.append(s)
        return amplitude(s, asg)

    monkeypatch.setattr(sequences, "amplitude", counted)
    normalization_check(setup)
    assert len(calls) == 2 * 2 * 3


def path_sum(s, asg):
    """The paper's statement, literally: one product per atomic refinement."""
    total = Pair(0.0, 0.0)
    for path in itertools.product(*(sorted(o.labels) for o in s.outcomes)):
        w = Pair(1.0, 0.0)
        for k in range(len(path) - 1):
            w = complex_mul(w, asg.entry(k, path[k], path[k + 1]))
        total = pair_add(total, w)
    return total


def random_slots(rng, n):
    return [frozenset(rng.sample(range(1, 5), rng.randint(1, 4))) for _ in range(n)]


def random_sequence(rng, slots):
    first, last = rng.choice(sorted(slots[0])), rng.choice(sorted(slots[-1]))
    interior = [rng.sample(sorted(s), rng.randint(1, len(s))) for s in slots[1:-1]]
    return Sequence.of("s", first, *interior, last)


def test_amplitude_matches_path_sum():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(2, 6)
        slots = random_slots(rng, n)
        asg = AmplitudeAssignment(
            tuple(full_table(rng, slots[k], slots[k + 1]) for k in range(n - 1))
        )
        s = random_sequence(rng, slots)
        got, want = amplitude(s, asg), path_sum(s, asg)
        if n <= 3:
            assert got == want
        else:
            assert abs(got.c1 - want.c1) < 1e-12 and abs(got.c2 - want.c2) < 1e-12


def test_amplitude_raises_exactly_where_path_sum_does():
    rng = random.Random(11)
    raised = 0
    for _ in range(300):
        n = rng.randint(2, 5)
        slots = random_slots(rng, n)
        tables = []
        for k in range(n - 1):
            table = full_table(rng, slots[k], slots[k + 1])
            for key in sorted(table):
                if rng.random() < 0.1:
                    del table[key]
            tables.append(table)
        asg = AmplitudeAssignment(tuple(tables[: rng.choice((n - 1, n - 1, n - 2))]))
        s = random_sequence(rng, slots)
        try:
            want = path_sum(s, asg)
        except MissingAmplitudeError:
            raised += 1
            with pytest.raises(MissingAmplitudeError):
                amplitude(s, asg)
        else:
            got = amplitude(s, asg)
            assert abs(got.c1 - want.c1) < 1e-12 and abs(got.c2 - want.c2) < 1e-12
    assert 0 < raised < 300


def test_normalization_check_at_thirty_slots():
    # Enumerating the paths would take 6**28 products per (i, j) pair.
    rng = random.Random(30)
    labels = frozenset(range(1, 7))
    setup = SetupSpec(
        tuple([labels] * 30), tuple(unitary_table(rng, labels) for _ in range(29))
    )
    report = normalization_check(setup)
    assert report.qualifies
    assert all(abs(t - 1.0) < 1e-12 for t in report.totals.values())
    assert report.max_interleave_deviation < 1e-12


def test_normalization_check_at_fifty_slots_sixteen_labels():
    rng = random.Random(50)
    labels = frozenset(range(1, 17))
    setup = SetupSpec(
        tuple([labels] * 50), tuple(unitary_table(rng, labels) for _ in range(49))
    )
    report = normalization_check(setup)
    assert report.qualifies
    assert all(abs(t - 1.0) < 1e-12 for t in report.totals.values())
    assert report.max_interleave_deviation == 0.0


def test_entry_returns_the_input_pair_bit_for_bit():
    values = (0.0, -0.0, 0.1, -0.7, 5e-324, -1.7976931348623157e308, 2.0 / 3.0)
    rng = random.Random(9)
    tables = tuple(
        {(s, d): Pair(rng.choice(values), rng.choice(values)) for s in (1, 2) for d in (1, 2)}
        for _ in range(3)
    )
    tables[0][1, 1] = Pair(-0.0, -0.0)
    asg = AmplitudeAssignment(tables)
    for k, table in enumerate(tables):
        for (x, d), p in table.items():
            got = asg.entry(k, x, d)
            assert type(got) is Pair
            assert (got.c1.hex(), got.c2.hex()) == (p.c1.hex(), p.c2.hex())


def test_missing_amplitude_messages_name_the_first_missing_transition():
    # A hole in a row: slot 2 is evaluated for d = 2 before d = 3, and for
    # each d over x = 1, 2, 3, so (3, 2) is met before (1, 3).
    labels = (1, 2, 3)
    full = {(s, d): Pair(0.5, 0.0) for s in labels for d in labels}
    holed = {key: p for key, p in full.items() if key not in ((3, 2), (1, 3))}
    asg = AmplitudeAssignment((full, holed, full))
    seq = Sequence.of("s", 1, (1, 2, 3), (2, 3), 1)
    with pytest.raises(MissingAmplitudeError) as exc:
        amplitude(seq, asg)
    assert str(exc.value) == "no amplitude for transition 3 -> 2 on interval 1"
    with pytest.raises(MissingAmplitudeError) as exc:
        asg.entry(1, 1, 3)
    assert str(exc.value) == "no amplitude for transition 1 -> 3 on interval 1"

    # A missing table: too few tables, or an empty one.
    short = AmplitudeAssignment((full,))
    with pytest.raises(MissingAmplitudeError) as exc:
        amplitude(Sequence.of("s", 1, 2, 3), short)
    assert str(exc.value) == "sequence spans 2 intervals but only 1 tables given"
    with pytest.raises(MissingAmplitudeError) as exc:
        short.entry(1, 2, 3)
    assert str(exc.value) == "no table for interval 1"
    with pytest.raises(MissingAmplitudeError) as exc:
        amplitude(Sequence.of("s", 1, (2, 3), 3), AmplitudeAssignment((full, {})))
    assert str(exc.value) == "no amplitude for transition 2 -> 3 on interval 1"
