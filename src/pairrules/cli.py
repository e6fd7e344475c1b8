"""Command-line front end for the verification pipeline.

Exit codes: 0 success, 2 non-associative input to classify/reduce, 3 derivation
table deviates from the expected verdicts or reaches none, 64 malformed input,
65 missing amplitude entry.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

from . import __version__
from .associativity import NotAssociative, classification_to_json, classify
from .born import solution_family_for
from .config import RunConfig
from .pairs import GammaVector, StandardForm
from .reciprocity import (
    CONJUGATION,
    IDENTITY,
    PROJECTION,
    SWAP,
    ReciprocityOp,
    eliminate,
    name_of,
    run_full_elimination,
    solve_reciprocity,
)
from .regrading import Inadmissible, reduce_to_standard
from .sequences import (
    MissingAmplitudeError,
    SequenceError,
    amplitude,
    normalization_check,
    check_symmetries,
    probability,
    sequences_from_json,
    setup_from_json,
)

EXIT_OK = 0
EXIT_NOT_ASSOCIATIVE = 2
EXIT_DERIVE_DEVIATION = 3
EXIT_MALFORMED = 64
EXIT_MISSING_AMPLITUDE = 65

_NAMED_OPS = {
    "identity": IDENTITY,
    "conjugation": CONJUGATION,
    "swap": SWAP,
    "projection": PROJECTION,
}


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_MALFORMED):
        super().__init__(message)
        self.code = code


def _parse_gamma(values: list[str]) -> GammaVector:
    if len(values) != 8:
        raise CliError(f"expected 8 gamma components, got {len(values)}")
    try:
        floats = [float(v) for v in values]
    except ValueError as exc:
        raise CliError(f"non-numeric gamma component: {exc}") from None
    if not all(math.isfinite(v) for v in floats):
        raise CliError("gamma components must be finite")
    return GammaVector.from_sequence(floats)


def _parse_form(value: str) -> StandardForm:
    try:
        return StandardForm(value.upper())
    except ValueError:
        raise CliError(
            f"unknown standard form {value!r}; expected one of C1, C2, C3, N1, N2"
        ) from None


def _parse_operator(value: str) -> ReciprocityOp:
    op = _NAMED_OPS.get(value.lower())
    if op is None:
        raise CliError(
            f"unknown operator {value!r}; expected identity, conjugation, swap or projection"
        )
    return op


def _emit(payload: dict, text: str, cfg: RunConfig, out: Optional[str]) -> None:
    if cfg.output_format == "json":
        body = {
            "version": __version__,
            "config": cfg.to_json(),
            **payload,
        }
        rendered = json.dumps(body, sort_keys=True, indent=2) + "\n"
    else:
        rendered = text if text.endswith("\n") else text + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)


def _cmd_classify(args, cfg: RunConfig) -> int:
    g = _parse_gamma(args.gamma)
    c = classify(g, tol=cfg.tolerance)
    payload: dict = {"gamma": g.to_json(), "classification": classification_to_json(c)}
    lines = [f"gamma: {g.to_json()}", f"family: {c.family}"]
    if isinstance(c, NotAssociative):
        lines.append(f"residuals: {c.residuals.to_json()}")
        _emit(payload, "\n".join(lines), cfg, args.out)
        return EXIT_NOT_ASSOCIATIVE
    lines.append(f"params: {c.params()}")
    r = reduce_to_standard(c, tol=cfg.tolerance)
    if isinstance(r, Inadmissible):
        payload["reduction"] = r.to_json()
        lines.append(f"reduction: inadmissible ({r.reason})")
    else:
        payload["reduction"] = r.to_json()
        lines.append(f"standard form: {r.form.value}")
        if r.mu is not None:
            lines.append(f"mu: {r.mu}")
        lines.append(f"map: {r.map.to_json()}")
    _emit(payload, "\n".join(lines), cfg, args.out)
    return EXIT_OK


def _cmd_solve_h(args, cfg: RunConfig) -> int:
    form = _parse_form(args.form)
    fam = solution_family_for(form)
    text = (
        f"form {form.value}: formula {fam.formula_id}; "
        f"alpha free: {fam.alpha_free}; beta free: {fam.beta_free}"
    )
    _emit({"family": fam.to_json()}, text, cfg, args.out)
    return EXIT_OK


def _cmd_solve_reciprocity(args, cfg: RunConfig) -> int:
    form = _parse_form(args.form)
    if form not in (StandardForm.C1, StandardForm.C2, StandardForm.C3):
        raise CliError("reciprocity analysis applies to C1, C2 and C3 only")
    sols = solve_reciprocity(form)
    lines = [f"form {form.value}:"]
    for op in sols.operators:
        inv = "invertible" if op.invertible else "non-invertible"
        lines.append(f"  {name_of(op)}: {op.as_tuple()} ({inv})")
    for extra in sols.extras:
        lines.append(f"  note: {extra}")
    _emit({"solutions": sols.to_json()}, "\n".join(lines), cfg, args.out)
    return EXIT_OK


def _cmd_eliminate(args, cfg: RunConfig) -> int:
    form = _parse_form(args.form)
    op = _parse_operator(args.operator)
    try:
        verdict = eliminate(form, op, tol=cfg.tolerance, seed=cfg.rng_seed)
    except RuntimeError as exc:
        raise CliError(str(exc), EXIT_DERIVE_DEVIATION) from exc
    text = f"{form.value} / {name_of(op)} -> {verdict.verdict}"
    _emit({"verdict": verdict.to_json()}, text, cfg, args.out)
    return EXIT_OK


def _cmd_derive(args, cfg: RunConfig) -> int:
    try:
        report = run_full_elimination(tol=cfg.tolerance, seed=cfg.rng_seed)
    except RuntimeError as exc:
        raise CliError(str(exc), EXIT_DERIVE_DEVIATION) from exc
    _emit({"report": report.to_json()}, report.render_text(), cfg, args.out)
    return EXIT_OK if report.matches_expected else EXIT_DERIVE_DEVIATION


def _cmd_simulate(args, cfg: RunConfig) -> int:
    try:
        with open(args.setup) as fh:
            setup = setup_from_json(json.load(fh))
        with open(args.sequences) as fh:
            seqs = sequences_from_json(json.load(fh), setup)
    except (OSError, json.JSONDecodeError, SequenceError) as exc:
        raise CliError(f"cannot load input files: {exc}") from exc

    asg = setup.assignment()
    results = []
    lines = []
    try:
        for s in seqs:
            a = amplitude(s, asg)
            p = probability(s, asg)
            results.append({"sequence": s.to_json(), "amplitude": a.to_json(), "probability": p})
            lines.append(f"{s}  amplitude {a.to_json()}  probability {p:.12g}")
        norm = normalization_check(setup)
    except MissingAmplitudeError as exc:
        raise CliError(str(exc), EXIT_MISSING_AMPLITUDE) from exc
    if norm.qualifies:
        lines.append(
            "normalization: tables are unitary; "
            f"max total-probability deviation {norm.max_total_deviation:.3g}"
        )
    else:
        lines.append("normalization: tables do not preserve modulus squares; no check")
    _emit(
        {"results": results, "normalization": norm.to_json()},
        "\n".join(lines),
        cfg,
        args.out,
    )
    return EXIT_OK


def _cmd_check_symmetries(args, cfg: RunConfig) -> int:
    rep = check_symmetries(cases=cfg.sample_count, seed=cfg.rng_seed)
    lines = [f"{law}: {n} cases" for law, n in rep.cases.items()]
    lines.append("all laws hold" if rep.passed else "FAILURES:")
    lines.extend(rep.failures)
    _emit({"symmetries": rep.to_json()}, "\n".join(lines), cfg, args.out)
    return EXIT_OK if rep.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairrules",
        description=(
            "Verification engine for the derivation of Feynman's rules from "
            "pair-valued sequence weights."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=1e-9, help="numerical tolerance")
    common.add_argument("--seed", type=int, default=0, help="random seed")
    common.add_argument("--samples", type=int, default=10_000, help="sample count")
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--out", metavar="FILE", default=None, help="write report to FILE")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common], help="classify a gamma vector")
    p.add_argument("gamma", nargs="*", help="eight gamma components")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("reduce", parents=[common], help="reduce a gamma vector to standard form")
    p.add_argument("gamma", nargs="*")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("solve-h", parents=[common], help="probability solution family for a form")
    p.add_argument("form")
    p.set_defaults(func=_cmd_solve_h)

    p = sub.add_parser(
        "solve-reciprocity", parents=[common], help="reciprocity operators for a form"
    )
    p.add_argument("form")
    p.set_defaults(func=_cmd_solve_reciprocity)

    p = sub.add_parser("eliminate", parents=[common], help="eliminate one (form, operator) cell")
    p.add_argument("form")
    p.add_argument("operator")
    p.set_defaults(func=_cmd_eliminate)

    p = sub.add_parser("derive", parents=[common], help="run the full elimination")
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("simulate", parents=[common], help="evaluate sequences from files")
    p.add_argument("setup", help="set-up description JSON file")
    p.add_argument("sequences", help="sequences JSON file")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "check-symmetries", parents=[common], help="verify the sequence combination laws"
    )
    p.set_defaults(func=_cmd_check_symmetries)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig(
            tolerance=args.tol,
            rng_seed=args.seed,
            sample_count=args.samples,
            output_format=args.format,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    try:
        return args.func(args, cfg)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
