"""`pairrules simulate` stdout and exit codes, byte for byte, against recorded goldens.

Each case reads a set-up and a sequences file from tests/golden/simulate/ and
compares stdout with <name>.out there.  Regenerate the outputs only when a
change of output is intended, and say so in the change log:

    PYTHONPATH=src python tests/test_simulate_golden.py
"""

import contextlib
import io
from pathlib import Path

import pytest

from pairrules.cli import main

HERE = Path(__file__).resolve().parent / "golden" / "simulate"

# name -> (set-up file stem, output format, exit code)
CASES = {
    "unitary_text": ("unitary", "text", 0),
    "unitary_json": ("unitary", "json", 0),
    "nonunitary_text": ("nonunitary", "text", 0),
    "nonunitary_json": ("nonunitary", "json", 0),
}


def _argv(stem: str, fmt: str) -> list[str]:
    return [
        "simulate",
        str(HERE / f"{stem}_setup.json"),
        str(HERE / f"{stem}_sequences.json"),
        "--format",
        fmt,
    ]


@pytest.mark.parametrize("name", sorted(CASES))
def test_simulate_output_matches_golden(capsys, name):
    stem, fmt, exit_code = CASES[name]
    code = main(_argv(stem, fmt))
    assert capsys.readouterr().out == (HERE / f"{name}.out").read_text()
    assert code == exit_code


if __name__ == "__main__":
    for name, (stem, fmt, _) in CASES.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(_argv(stem, fmt))
        (HERE / f"{name}.out").write_text(buf.getvalue())
        print(f"{name}: exit {code}")
