"""CLI stdout and exit codes, byte for byte, against recorded goldens.

The goldens in tests/golden/ pin the observable behaviour of every
subcommand that does not read files: a refactor must leave them unchanged.
tests/golden/make_goldens.py documents how they were made.
"""

import json
from pathlib import Path

import pytest

from pairrules.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = json.loads((GOLDEN / "MANIFEST.json").read_text())


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_cli_output_matches_golden(capsys, name):
    case = MANIFEST[name]
    code = main(list(case["argv"]))
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.out").read_text()
    assert code == case["exit"]


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


JSON_GOLDENS = sorted(
    [f"{name}.out" for name, case in MANIFEST.items() if "json" in case["argv"]]
    + [f"simulate/{p.name}" for p in (GOLDEN / "simulate").glob("*_json.out")]
)


@pytest.mark.parametrize("name", JSON_GOLDENS)
def test_json_golden_is_valid_json(name):
    # NaN and Infinity are not JSON (RFC 8259), though json.dumps writes them.
    json.loads((GOLDEN / name).read_text(), parse_constant=_no_constant)
