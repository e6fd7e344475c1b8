#!/usr/bin/env python3
"""Write the CLI golden outputs that tests/test_golden.py replays.

Each case is one `pairrules` invocation.  MANIFEST.json maps the case name to
its argv and exit code; <name>.out holds its stdout byte for byte.  Regenerate
only when a change of output is intended, and say so in the change log:

    PYTHONPATH=src python tests/golden/make_goldens.py
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

from pairrules.cli import main

HERE = Path(__file__).resolve().parent


def _commutative(t: float, f: float, p: float, e: float) -> list[float]:
    return [t - p * e, f * e, f * e, f, t * e, t, t, p + f * e]


def _gammas() -> list[list[float]]:
    """Fixed inputs from every family, associative or not."""
    rng = random.Random(20261017)

    def u(lo: float, hi: float) -> float:
        return round(rng.uniform(lo, hi), 4)

    def signed(lo: float = 0.5, hi: float = 2.0) -> float:
        return u(lo, hi) * rng.choice((-1.0, 1.0))

    out = [
        [1.0, 0.0, 0.0, -1.0, 0.0, 1.0, 1.0, 0.0],  # C1
        [1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0],  # C2
        [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],  # C3
        [1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0],  # N1
        [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0],  # N2
        [0.0] * 8,
        [1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0],  # the mu = +1 commutative form
        _commutative(1.0, 1.0, 0.0, 1.0),  # on the singular surface: inadmissible
        _commutative(2.0, -0.5, 0.0, 0.0),
        _commutative(0.0, 1.5, 0.25, 0.5),  # theta = 0 branch
        _commutative(0.25, -1.0, 1.0, 0.0),  # mu = 0
        [2.0, 5e-9, 5e-9, 0.0, 0.0, 0.0, 0.0, 2.0],  # borderline zero tests
        [1.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -0.75],  # componentwise, independent scales
        [0.5, -1.25, -1.25, 0.0, 0.0, 0.0, 0.0, -1.25],  # unital, splits into C3
        [0.0, 0.75, 0.75, 0.0, 0.0, 0.0, 0.0, 0.75],  # unital with a nilpotent: C2
        [1.25, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],  # products on a line
        [1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],  # not associative
        [1.0, 0.0, 0.0, -1.0, 0.0, 1.0, 1.0, 0.5],  # C1 with one entry moved
    ]
    for same in (True, False, True, False, True, False, True, False):
        t = signed()
        f = u(0.5, 2.0) * (1.0 if (t > 0) == same else -1.0)
        out.append(_commutative(t, f, u(-1.0, 1.0), u(-2.0, 2.0)))
    for _ in range(4):
        a, b = signed(), signed()
        out.append(_commutative(a * a, -b * b, 2.0 * a * b, u(-2.0, 2.0)))
    for _ in range(4):
        g1, g2 = signed(), signed()
        out.append([g1, g2, 0.0, 0.0, 0.0, 0.0, g1, g2])
    for _ in range(4):
        g1, g3 = signed(), signed()
        out.append([g1, 0.0, g3, 0.0, 0.0, g1, 0.0, g3])
    for scale in (1e-3, 1e3):
        out.append([scale * x for x in _commutative(1.5, -0.75, 0.5, 0.25)])
        out.append([scale * x for x in (0.5, 2.0, 0.0, 0.0, 0.0, 0.0, 0.5, 2.0)])
    for _ in range(8):
        out.append([signed(0.0, 2.0) for _ in range(8)])
    return out


def cases() -> dict[str, list[str]]:
    out: dict[str, list[str]] = {
        "derive_text": ["derive"],
        "derive_json_seed0": ["derive", "--format", "json"],
        "derive_json_seed7": ["derive", "--format", "json", "--seed", "7"],
    }
    for seed in (1, 2, 3, 42):
        out[f"derive_json_seed{seed}"] = ["derive", "--format", "json", "--seed", str(seed)]
    for fmt in ("text", "json"):
        for form in ("C1", "C2", "C3"):
            out[f"solve_reciprocity_{form}_{fmt}"] = ["solve-reciprocity", form, "--format", fmt]
        # Every (form, operator) cell, not only the five the derivation visits.
        for form in ("C1", "C2", "C3", "N1", "N2"):
            for op in ("identity", "conjugation", "swap", "projection"):
                out[f"eliminate_{form}_{op}_{fmt}"] = ["eliminate", form, op, "--format", fmt]
        for form in ("C1", "C2", "C3", "N1", "N2"):
            out[f"solve_h_{form}_{fmt}"] = ["solve-h", form, "--format", fmt]
    for i, g in enumerate(_gammas()):
        # "--" keeps a component such as -1e-05 from being read as an option.
        out[f"classify_{i:02d}_json"] = ["classify", "--format", "json", "--", *map(repr, g)]
    out["classify_00_text"] = ["classify", *map(repr, _gammas()[0])]
    out["classify_16_text"] = ["classify", *map(repr, _gammas()[16])]
    out["reduce_01_text"] = ["reduce", *map(repr, _gammas()[1])]
    out["classify_wrong_length"] = ["classify", "1", "2", "3"]
    out["classify_non_numeric"] = ["classify", "1", "x", "0", "0", "0", "0", "0", "0"]
    return out


def run(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, buf.getvalue()


def write() -> None:
    manifest = {}
    for name, argv in cases().items():
        code, out = run(argv)
        (HERE / f"{name}.out").write_text(out)
        manifest[name] = {"argv": argv, "exit": code}
    (HERE / "MANIFEST.json").write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"wrote {len(manifest)} cases to {HERE}", file=sys.stderr)


if __name__ == "__main__":
    write()
