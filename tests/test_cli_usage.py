"""Argument handling of the CLI: usage errors, negative numbers, per-subcommand options."""

import json

import pytest

from pairrules.cli import (
    EXIT_DERIVE_DEVIATION,
    EXIT_MALFORMED,
    EXIT_OK,
    main,
)

C1 = ["1", "0", "0", "-1", "0", "1", "1", "0"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usage_error(capsys, *argv):
    """The exit code and stderr of an invocation argparse refuses."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code, capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("classify", "--bogus", *C1),
        ("transmogrify",),
        ("eliminate", "C1"),
        ("derive", "--format", "xml"),
        ("derive", "--tol", "small"),
    ],
)
def test_usage_error_exits_64_with_usage_line(capsys, argv):
    code, err = usage_error(capsys, *argv)
    assert code == EXIT_MALFORMED
    assert err.startswith("usage: pairrules")
    assert "error:" in err


@pytest.mark.parametrize(
    "value",
    [repr(x) for x in (-1e-05, -2.5e-10, -1.5e-300, -5e-324, -3e-17)] + ["-1e-0", "-.5e1", "-2."],
)
def test_negative_gamma_in_any_float_notation_is_a_component(capsys, value):
    gamma = ["1", "0", "0", "-1", "0", "1", "1", value]
    code, out, err = run(capsys, "classify", "--format", "json", *gamma)
    assert err == ""
    assert (code, out) == run(capsys, "classify", "--format", "json", "--", *gamma)[:2]


def test_exponent_notation_c1_constant(capsys):
    code, out, _ = run(capsys, "classify", "1", "0", "0", "-1e-0", "0", "1", "1", "0")
    assert code == EXIT_OK
    assert "standard form: C1" in out


def test_negative_tolerance_in_exponent_notation_is_a_value(capsys):
    code, _, err = run(capsys, "classify", "--tol", "-1e-9", *C1)
    assert code == EXIT_MALFORMED
    assert "tolerance must be positive" in err


READS = {
    "classify": {"--tol"},
    "reduce": {"--tol"},
    "solve-h": set(),
    "solve-reciprocity": set(),
    "eliminate": {"--tol", "--seed"},
    "derive": {"--tol", "--seed"},
    "simulate": set(),
    "check-symmetries": {"--seed", "--samples"},
}
POSITIONAL = {
    "classify": C1,
    "reduce": C1,
    "solve-h": ["C1"],
    "solve-reciprocity": ["C1"],
    "eliminate": ["C1", "conjugation"],
    "derive": [],
    "simulate": ["setup.json", "sequences.json"],
    "check-symmetries": [],
}


@pytest.mark.parametrize(
    "command, option",
    [
        (command, option)
        for command, reads in READS.items()
        for option in ("--tol", "--seed", "--samples")
        if option not in reads
    ],
)
def test_unread_option_is_a_usage_error(capsys, command, option):
    code, err = usage_error(capsys, command, option, "1", *POSITIONAL[command])
    assert code == EXIT_MALFORMED
    assert f"unrecognized arguments: {option}" in err


@pytest.mark.parametrize("command", sorted(READS))
def test_help_lists_exactly_the_options_read(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for option in ("--tol", "--seed", "--samples"):
        assert (option in out) == (option in READS[command])
    assert "--format" in out and "--out" in out


def test_config_block_keeps_defaults_of_options_not_taken(capsys):
    code, out, _ = run(capsys, "classify", "--format", "json", "--tol", "1e-8", *C1)
    assert code == EXIT_OK
    assert json.loads(out)["config"] == {
        "tolerance": 1e-8,
        "rng_seed": 0,
        "sample_count": 10_000,
        "output_format": "json",
    }


def test_tiny_tolerance_classifies_without_error(capsys):
    code, out, err = run(capsys, "classify", "--tol", "1e-300", *C1)
    assert code == EXIT_OK
    assert "standard form: C1" in out
    assert err == ""


def test_reduction_failure_exits_3_without_traceback(capsys, monkeypatch):
    def failing(*args, **kwargs):
        raise RuntimeError("reduction map failed verification")

    monkeypatch.setattr("pairrules.cli.reduce_to_standard", failing)
    code, out, err = run(capsys, "classify", *C1)
    assert code == EXIT_DERIVE_DEVIATION
    assert out == ""
    assert err == "error: reduction map failed verification\n"
