import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pairrules import cli
from pairrules.cli import (
    EXIT_DERIVE_DEVIATION,
    EXIT_MALFORMED,
    EXIT_MISSING_AMPLITUDE,
    EXIT_NOT_ASSOCIATIVE,
    EXIT_OK,
    main,
)
from pairrules.sequences import SymmetryReport

C1 = ["1", "0", "0", "-1", "0", "1", "1", "0"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_standard_constant(capsys):
    code, out, _ = run(capsys, "classify", *C1)
    assert code == EXIT_OK
    assert "commutative" in out
    assert "standard form: C1" in out


def test_classify_not_associative_exit_code(capsys):
    code, out, _ = run(capsys, "classify", "1", "1", "0", "0", "0", "0", "0", "0")
    assert code == EXIT_NOT_ASSOCIATIVE
    assert "not_associative" in out


def test_classify_malformed_gamma(capsys):
    code, _, err = run(capsys, "classify", "1", "2", "3")
    assert code == EXIT_MALFORMED
    assert "expected 8" in err

    code, _, err = run(capsys, "classify", "1", "x", "0", "0", "0", "0", "0", "0")
    assert code == EXIT_MALFORMED


def test_reduce_alias(capsys):
    code, out, _ = run(capsys, "reduce", *C1)
    assert code == EXIT_OK
    assert "standard form: C1" in out


def test_solve_h(capsys):
    code, out, _ = run(capsys, "solve-h", "c2")
    assert code == EXIT_OK
    assert "power-exponential-ratio" in out

    code, _, err = run(capsys, "solve-h", "C7")
    assert code == EXIT_MALFORMED


def test_solve_reciprocity(capsys):
    code, out, _ = run(capsys, "solve-reciprocity", "C3")
    assert code == EXIT_OK
    assert "identity" in out and "swap" in out

    code, _, err = run(capsys, "solve-reciprocity", "N1")
    assert code == EXIT_MALFORMED


def test_eliminate_cell(capsys):
    code, out, _ = run(capsys, "eliminate", "C2", "projection")
    assert code == EXIT_OK
    assert "rejected-non-invertible" in out

    code, _, err = run(capsys, "eliminate", "C1", "transpose")
    assert code == EXIT_MALFORMED


def test_eliminate_c2_identity_rejects_at_every_seed(capsys):
    code, out, _ = run(capsys, "eliminate", "C2", "identity", "--seed", "1")
    assert code == EXIT_OK
    assert out == "C2 / identity -> rejected-inadmissible-exponents\n"


def test_derive(capsys):
    code, out, _ = run(capsys, "derive")
    assert code == EXIT_OK
    assert "accepted (alpha = 2)" in out
    assert "Surviving calculus" in out


def test_json_output_is_deterministic(capsys):
    code, out1, _ = run(capsys, "classify", "--format", "json", *C1)
    assert code == EXIT_OK
    code, out2, _ = run(capsys, "classify", "--format", "json", *C1)
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["version"]
    assert payload["config"]["tolerance"] == 1e-9
    assert payload["reduction"]["form"] == "C1"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "classify", "--format", "json", "--out", str(target), *C1)
    assert code == EXIT_OK
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["classification"]["family"] == "commutative_a"


def _argv_per_subcommand(tmp_path):
    sp, qp = write_inputs(tmp_path)
    return {
        "classify": ["classify", *C1],
        "reduce": ["reduce", *C1],
        "solve-h": ["solve-h", "C1"],
        "solve-reciprocity": ["solve-reciprocity", "C1"],
        "eliminate": ["eliminate", "C2", "projection"],
        "derive": ["derive"],
        "simulate": ["simulate", sp, qp],
        "check-symmetries": ["check-symmetries", "--samples", "5"],
    }


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "command",
    [
        "classify", "reduce", "solve-h", "solve-reciprocity",
        "eliminate", "derive", "simulate", "check-symmetries",
    ],
)
def test_unwritable_out_exits_64_without_traceback(tmp_path, capsys, command, fmt):
    argv = _argv_per_subcommand(tmp_path)[command]
    for target in (tmp_path / "absent" / "report.out", tmp_path):  # missing dir, a directory
        code, out, err = run(capsys, *argv, "--format", fmt, "--out", str(target))
        assert code == EXIT_MALFORMED
        assert out == ""
        assert err.startswith("error: cannot write report ")
        assert err.count("\n") == 1 and "Traceback" not in err


SETUP = {
    "slots": [[1, 2], [1, 2]],
    "tables": [
        [[1, 1, 0.6, 0.0], [1, 2, 0.8, 0.0], [2, 1, -0.8, 0.0], [2, 2, 0.6, 0.0]]
    ],
}


def write_inputs(tmp_path, setup=SETUP, seqs=None):
    if seqs is None:
        seqs = [[1, 1], [1, 2]]
    sp = tmp_path / "setup.json"
    qp = tmp_path / "seqs.json"
    sp.write_text(json.dumps(setup))
    qp.write_text(json.dumps(seqs))
    return str(sp), str(qp)


def test_simulate(tmp_path, capsys):
    sp, qp = write_inputs(tmp_path)
    code, out, _ = run(capsys, "simulate", sp, qp)
    assert code == EXIT_OK
    assert "probability 0.36" in out
    assert "unitary" in out


def test_simulate_malformed_input(tmp_path, capsys):
    sp = tmp_path / "setup.json"
    sp.write_text("{not json")
    qp = tmp_path / "seqs.json"
    qp.write_text("[]")
    code, _, err = run(capsys, "simulate", str(sp), str(qp))
    assert code == EXIT_MALFORMED

    code, _, err = run(capsys, "simulate", str(tmp_path / "absent.json"), str(qp))
    assert code == EXIT_MALFORMED


def test_simulate_missing_amplitude(tmp_path, capsys):
    setup = {
        "slots": [[1, 2], [1, 2]],
        "tables": [[[1, 1, 1.0, 0.0]]],
    }
    sp, qp = write_inputs(tmp_path, setup=setup, seqs=[[1, 2]])
    code, _, err = run(capsys, "simulate", sp, qp)
    assert code == EXIT_MISSING_AMPLITUDE


def test_check_symmetries(capsys):
    code, out, _ = run(capsys, "check-symmetries", "--samples", "50")
    assert code == EXIT_OK
    assert "all laws hold" in out


def test_bad_config_rejected(capsys):
    code, _, err = run(capsys, "classify", "--tol", "-1", *C1)
    assert code == EXIT_MALFORMED


@pytest.mark.parametrize(
    "argv, target",
    [
        (("eliminate", "C1", "identity"), "pairrules.cli.eliminate"),
        (("derive",), "pairrules.reciprocity.eliminate"),
    ],
)
def test_elimination_failure_exits_3_without_traceback(capsys, monkeypatch, argv, target):
    def no_certificate(*args, **kwargs):
        raise RuntimeError("no counterexample certificate was found")

    monkeypatch.setattr(target, no_certificate)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == "error: no counterexample certificate was found\n"


def test_derive_tolerance_below_float_rounding_still_accepts(capsys):
    # The accepted exponents have residuals of 4e-16 to 9e-16: a --tol below
    # float rounding must not discard them.
    code, out, err = run(capsys, "derive", "--tol", "1e-16")
    assert code == EXIT_OK, err
    assert "accepted (alpha = 2)" in out

    code, out, err = run(capsys, "eliminate", "C1", "conjugation", "--tol", "1e-300")
    assert code == EXIT_OK, err
    assert out == "C1 / conjugation -> accepted\n"


def test_simulate_evaluates_each_amplitude_once(tmp_path, capsys, monkeypatch):
    sp, qp = write_inputs(tmp_path, seqs=[[1, 1], [1, 2], [2, 1], [2, 2]])
    # normalization_check's own amplitude calls are counted in test_sequences.
    norm = cli.normalization_check(cli.setup_from_json(SETUP))
    calls = []
    amplitude = cli.amplitude

    def counted(s, asg):
        calls.append(s)
        return amplitude(s, asg)

    monkeypatch.setattr(cli, "normalization_check", lambda setup: norm)
    monkeypatch.setattr(cli, "amplitude", counted)
    monkeypatch.setattr("pairrules.sequences.amplitude", counted)
    code, out, _ = run(capsys, "simulate", sp, qp)
    assert code == EXIT_OK
    assert len(calls) == 4
    assert "probability 0.36" in out


def test_check_symmetries_failure_exits_3(capsys, monkeypatch):
    report = SymmetryReport({"pll-comm": 1}, ("pll-comm: [1; 2] ; [1; 3]",))
    monkeypatch.setattr(cli, "check_symmetries", lambda cases, seed: report)
    code, out, _ = run(capsys, "check-symmetries")
    assert code == EXIT_DERIVE_DEVIATION
    assert "FAILURES:" in out


UNIT = [[1, 1, 0.6, 0.0], [1, 2, 0.8, 0.0], [2, 1, -0.8, 0.0], [2, 2, 0.6, 0.0]]


@pytest.mark.parametrize(
    "setup, seqs",
    [
        # label 0 in the slots and the table
        ({"slots": [[0, 1], [0, 1]],
          "tables": [[[0, 0, 1.0, 0.0], [0, 1, 0.0, 0.0], [1, 0, 0.0, 0.0], [1, 1, 1.0, 0.0]]]},
         [[1, 1]]),
        # an empty interior slot, with no sequence to use it
        ({"slots": [[1, 2], [], [1, 2]], "tables": [[], []]}, []),
        # JSON true as a label, in a slot, in a table and in a sequence
        ({"slots": [[True, 2], [1, 2]], "tables": [UNIT]}, [[1, 1]]),
        ({"slots": [[1, 2], [1, 2]], "tables": [UNIT[:3] + [[2, True, 0.6, 0.0]]]}, [[1, 1]]),
        (SETUP, [[True, 1]]),
        (SETUP, [[[True], 1]]),
        # ... and next to the 1 it would merge with in a set
        ({"slots": [[1, True, 2], [1, 2]], "tables": [UNIT]}, [[1, 1]]),
        (SETUP, [[[1, True], 1]]),
        # a float label, in a slot, in a table's from and to and in a sequence
        ({"slots": [[1.7, 2], [1, 2]], "tables": [UNIT]}, [[1, 1]]),
        ({"slots": [[1, 2], [1, 2]], "tables": [UNIT[:3] + [[2.0, 2, 0.6, 0.0]]]}, [[1, 1]]),
        ({"slots": [[1, 2], [1, 2]], "tables": [UNIT[:3] + [[2, 1.7, 0.6, 0.0]]]}, [[1, 1]]),
        (SETUP, [[1.7, 1]]),
        # a negative label and a slot that is no array
        ({"slots": [[-1, 2], [1, 2]], "tables": [UNIT]}, [[2, 2]]),
        ({"slots": [3, [1, 2]], "tables": [UNIT]}, [[1, 1]]),
        # a repeated (from, to) row, and rows whose labels lie outside the slots
        ({"slots": [[1, 2], [1, 2]], "tables": [UNIT + [[1, 1, 5.0, 0.0]]]}, [[1, 1]]),
        ({"slots": [[1, 2], [1, 2]], "tables": [UNIT + [[1, 1, 0.6, 0.0]]]}, [[1, 1]]),
        ({"slots": [[1, 2], [1, 2]], "tables": [UNIT + [[3, 1, 1.0, 0.0]]]}, [[1, 1]]),
        ({"slots": [[1, 2], [1, 2]], "tables": [UNIT + [[2, 7, 1.0, 0.0]]]}, [[1, 1]]),
        ({"slots": [[1, 2], [1, 2]], "tables": [UNIT + [[1, 1, 5.0, 0.0], [2, 7, 1.0, 0.0]]]},
         [[1, 1]]),
        ({"slots": [[1, 2], [1, 2], [1, 2]], "tables": [UNIT, UNIT + [[3, 3, 1.0, 0.0]]]},
         [[1, 1, 1]]),
        # a valid label in an earlier sequence, then a value equal to it: a
        # parse that reuses outcomes by value would accept the second
        (SETUP, [[1, 1], [True, 1]]),
        (SETUP, [[1, 1], [[1, True], 1]]),
        (SETUP, [[2, 1], [2.0, 1]]),
    ],
)
def test_simulate_malformed_labels_exit_64(tmp_path, capsys, setup, seqs):
    sp, qp = write_inputs(tmp_path, setup=setup, seqs=seqs)
    code, out, err = run(capsys, "simulate", sp, qp)
    assert code == EXIT_MALFORMED
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _overflow_setup(entry):
    # Every amplitude of [1; 1; 1] is entry ** 2 and its probability entry ** 4.
    row = [[1, 1, entry, 0.0]]
    return {"slots": [[1], [1], [1]], "tables": [row, row]}


# The second final label doubles a total of 1e308 past the largest float.
TOTAL_OVERFLOW = {
    "slots": [[1], [1], [1, 2]],
    "tables": [[[1, 1, 1e77, 0.0]], [[1, 1, 1e77, 0.0], [1, 2, 1e77, 0.0]]],
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "setup, seqs",
    [
        # the amplitude overflows, in a sequence and in normalization_check alone
        (_overflow_setup(1e200), [[1, 1, 1]]),
        (_overflow_setup(1e200), []),
        # the amplitude is finite, its probability is not
        (_overflow_setup(1e100), [[1, 1, 1]]),
        (_overflow_setup(1e100), []),
        # every probability is finite, a total is not
        (TOTAL_OVERFLOW, [[1, 1, 1], [1, 1, 2]]),
    ],
)
def test_simulate_non_finite_output_exits_64(tmp_path, capsys, setup, seqs, fmt):
    sp, qp = write_inputs(tmp_path, setup=setup, seqs=seqs)
    code, out, err = run(capsys, "simulate", sp, qp, "--format", fmt)
    assert code == EXIT_MALFORMED
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not finite" in err


@pytest.mark.parametrize("column", [2, 3])
@pytest.mark.parametrize(
    "component",
    ["1" + "0" * 400, "1" + "0" * 5000, '"0.6"', "true", "null", "[0.6]", "1e400", "NaN"],
    ids=["int-1e400", "int-5001-digits", "string", "true", "null", "array", "float-1e400", "nan"],
)
def test_simulate_component_must_be_finite_number(tmp_path, capsys, component, column):
    # Written as JSON text: json.dumps refuses an int of more than 4300 digits.
    row = ["2", "2", "0.6", "0.0"]
    row[column] = component
    rows = [json.dumps(r) for r in UNIT[:3]] + ["[" + ", ".join(row) + "]"]
    sp, qp = write_inputs(tmp_path)
    with open(sp, "w") as fh:
        fh.write('{"slots": [[1, 2], [1, 2]], "tables": [[' + ", ".join(rows) + "]]}")
    code, out, err = run(capsys, "simulate", sp, qp)
    assert code == EXIT_MALFORMED
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_simulate_integer_components_read_as_floats(tmp_path, capsys):
    setup = {"slots": [[1], [1]], "tables": [[[1, 1, 1, 0]]]}
    sp, qp = write_inputs(tmp_path, setup=setup, seqs=[[1, 1]])
    code, out, _ = run(capsys, "simulate", sp, qp, "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["results"][0]["amplitude"] == [1.0, 0.0]


# Strings and keys with non-ASCII, control, quote and backslash characters,
# beside whatever hypothesis draws.
_texts = st.one_of(st.text(), st.sampled_from(["", "\x00\x1f", '"\\', "\u2028é", "\U0001f600"]))
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**63, -(2**64) - 1, 10**40]),
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e16, 1e22, math.nan, math.inf, -math.inf]),
    _texts,
)
_json_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_texts, inner, max_size=4),
    ),
    max_leaves=20,
)


@given(_json_values)
def test_render_matches_stdlib_json(value):
    assert cli._render(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "value", [{1: 2}, {"a": [{None: 1}]}, {"a": 1, 2.0: 3}, [object()], {"a": {1, 2}}]
)
def test_render_rejects_what_json_cannot_hold(value):
    with pytest.raises(TypeError):
        cli._render(value)
