"""Self-tests of the benchmark's oracles: each must accept a correct output
and flag a wrong one.

    python3 -m pytest perfbench/test_oracles.py
"""

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402
from pairrules import reciprocity, sequences  # noqa: E402
from pairrules.pairs import Pair  # noqa: E402


def test_sequence_oracle_agrees_with_amplitude():
    rng = np.random.default_rng(5)
    setup_json = workloads.make_setup(rng, slots=4, labels=2)
    setup = sequences.setup_from_json(setup_json)
    asg = setup.assignment()
    mats = oracles.interval_matrices(setup_json)
    for raw in ([1, 2, 1, 2], [2, [1, 2], 1, 1], [1, [1, 2], [1, 2], 2]):
        seq = sequences.sequences_from_json([raw], setup)[0]
        got = sequences.amplitude(seq, asg)
        want = oracles.sequence_amplitude(mats, raw)
        assert abs(complex(got.c1, got.c2) - want) < 1e-12


def test_simulate_checker_flags_a_wrong_probability():
    rng = np.random.default_rng(6)
    setup = workloads.make_setup(rng, slots=3, labels=2)
    seqs = [[1, 2, 1], [2, [1, 2], 2]]
    mats = oracles.interval_matrices(setup)
    results = []
    for raw in seqs:
        amp = oracles.sequence_amplitude(mats, raw)
        results.append({"amplitude": [amp.real, amp.imag], "probability": abs(amp) ** 2})
    norm = {"qualifies": True, "totals_per_initial_label": {"1": 1.0, "2": 1.0}}
    good = json.dumps({"results": results, "normalization": norm})
    assert oracles.check_simulate(0, good, setup, seqs) == []
    results[1]["probability"] += 1e-6
    bad = json.dumps({"results": results, "normalization": norm})
    assert oracles.check_simulate(0, bad, setup, seqs)


def test_classify_checker_flags_a_wrong_reduction_map():
    inputs = workloads.classify_inputs(seed=3, blocks=1)
    checked = 0
    for gamma, expect in inputs:
        family, reduction = workloads.classify_once(gamma)
        assert oracles.check_classify(expect, gamma, family, reduction) == []
        if reduction is None or "inadmissible" in reduction:
            continue
        wrong = copy.deepcopy(reduction)
        wrong["map"][0][1] += 1e-3 * max(1.0, abs(wrong["map"][0][1]))
        assert oracles.check_classify(expect, gamma, family, wrong)
        checked += 1
    assert checked > 50


def test_classify_checker_flags_a_wrong_verdict():
    gamma, expect = workloads.classify_inputs(seed=4, blocks=1)[0]
    flipped = dict(expect, associative=not expect["associative"])
    family, reduction = workloads.classify_once(gamma)
    assert oracles.check_classify(flipped, gamma, family, reduction)


def _c1_identity_cell() -> dict:
    verdict = reciprocity.eliminate(reciprocity.StandardForm.C1, reciprocity.IDENTITY)
    return {
        "form": "C1",
        "operator_name": "identity",
        "operator": reciprocity.IDENTITY.to_json(),
        "verdict": verdict.to_json(),
    }


def test_derive_checker_flags_a_mutated_certificate():
    cell = _c1_identity_cell()
    assert cell["verdict"]["verdict"] == "rejected-counterexample"
    assert oracles.check_certificate(cell) == []

    # A hand-made C3/swap certificate: h(a) = h(b) = 1/2 and c = (0, 0).
    swap = {
        "form": "C3",
        "operator_name": "swap",
        "operator": {"matrix": [[0.0, 1.0], [1.0, 0.0]]},
        "verdict": {
            "verdict": "rejected-counterexample",
            "a": [1.0, 0.5],
            "b": [1.0, -0.5],
            "lhs": 1.0,
            "rhs": 0.0,
            "h": {"form": "C3", "alpha": 1.0, "beta": 1.0},
        },
    }
    cells = [
        {"form": form, "operator_name": op, "operator": None, "verdict": {"verdict": v, "alpha": 2.0}}
        for (form, op), v in oracles.EXPECTED_VERDICTS.items()
        if v != "rejected-counterexample"
    ] + [swap, cell]
    report = {"report": {"cells": cells, "alpha": 2.0, "matches_expected": True}}
    assert oracles.check_derive(0, json.dumps(report)) == []

    for key, change in (("a", lambda v: [v[0] * 1.01, v[1]]), ("rhs", lambda v: v + 0.5)):
        mutated = copy.deepcopy(report)
        cert = mutated["report"]["cells"][-1]["verdict"]
        cert[key] = change(cert[key])
        assert oracles.check_derive(0, json.dumps(mutated)), key


def test_derive_checker_flags_a_wrong_table_and_alpha():
    cell = _c1_identity_cell()
    report = {"cells": [cell], "alpha": 2.0, "matches_expected": True}
    assert oracles.check_derive(0, json.dumps({"report": report}))
    assert oracles.check_derive(3, "{}")
    full = {"cells": [], "alpha": 1.5, "matches_expected": True}
    assert any("alpha" in p for p in oracles.check_derive(0, json.dumps({"report": full})))


def test_certificate_premise_is_checked():
    cell = _c1_identity_cell()
    a = Pair.from_json(cell["verdict"]["a"])
    cell["verdict"]["a"] = [a.c1 * 2.0, a.c2 * 2.0]
    assert any("premise" in p for p in oracles.check_certificate(cell))
