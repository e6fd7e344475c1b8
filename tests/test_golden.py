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
