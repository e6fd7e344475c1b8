import json

import pytest

from pairrules.cli import (
    EXIT_MALFORMED,
    EXIT_MISSING_AMPLITUDE,
    EXIT_NOT_ASSOCIATIVE,
    EXIT_OK,
    main,
)

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
