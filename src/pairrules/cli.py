"""Command-line front end for the verification pipeline.

Exit codes: 0 success, 2 non-associative input to classify/reduce, 3 derivation
table deviates from the expected verdicts or reaches none, or an internal
consistency check fails (a combination law in check-symmetries included), 64
malformed input or a usage error (a simulate amplitude, probability or total
probability that overflows to a non-finite value included, and an --out path
that cannot be written), 65 missing amplitude entry.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import fields
from json.encoder import encode_basestring_ascii
from typing import Optional

from . import __version__
from .associativity import NotAssociative, classification_to_json, classify
from .born import h_eval, solution_family_for
from .config import RunConfig
from .pairs import DEFAULT_TOL, GammaVector, NonFiniteError, StandardForm
from .reciprocity import (
    OPERATOR_NAMES,
    ReciprocityOp,
    eliminate,
    name_of,
    run_full_elimination,
    solve_reciprocity,
)
from .regrading import Inadmissible, reduce_to_standard
from .sequences import (
    BORN,
    MissingAmplitudeError,
    SequenceError,
    amplitude,
    normalization_check,
    check_symmetries,
    sequences_from_json,
    setup_from_json,
)

EXIT_OK = 0
EXIT_NOT_ASSOCIATIVE = 2
EXIT_DERIVE_DEVIATION = 3
EXIT_MALFORMED = 64
EXIT_MISSING_AMPLITUDE = 65

_NAMED_OPS = {name: op for op, name in OPERATOR_NAMES.items()}


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


def _render(x, pad: str = "\n") -> str:
    """x as JSON text, exactly as json.dumps(x, sort_keys=True, indent=2) writes it.

    With indent set, json.dumps leaves its C encoder for a pure-Python one
    that passes every chunk up through a generator per nesting level; on a
    simulate batch of 5000 sequences that was over half the run.  This builds
    each container with one join instead.  Types are tested in json's order,
    keys are sorted and must be str, and stdlib json is the test oracle.
    pad is the newline and indent that precede x's closing bracket.
    """
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        if x != x:
            return "NaN"
        if x in (math.inf, -math.inf):
            return "Infinity" if x > 0 else "-Infinity"
        return float.__repr__(x)
    inner = pad + "  "
    if isinstance(x, (list, tuple)):
        brackets, items = "[]", [_render(v, inner) for v in x]
    elif isinstance(x, dict):
        for k in x:
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
        brackets = "{}"
        items = [encode_basestring_ascii(k) + ": " + _render(x[k], inner) for k in sorted(x)]
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1]


def _emit(payload: dict, text: str, cfg: RunConfig, out: Optional[str]) -> None:
    if cfg.output_format == "json":
        body = {
            "version": __version__,
            "config": cfg.to_json(),
            **payload,
        }
        rendered = _render(body) + "\n"
    else:
        rendered = text if text.endswith("\n") else text + "\n"
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(rendered)
        except OSError as exc:
            raise CliError(f"cannot write report to {out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(rendered)


def _cmd_classify(args, cfg: RunConfig) -> int:
    g = _parse_gamma(args.gamma)
    try:
        c = classify(g, tol=cfg.tolerance)
        r = None if isinstance(c, NotAssociative) else reduce_to_standard(c, tol=cfg.tolerance)
    except RuntimeError as exc:
        raise CliError(str(exc), EXIT_DERIVE_DEVIATION) from exc
    payload: dict = {"gamma": g.to_json(), "classification": classification_to_json(c)}
    lines = [f"gamma: {g.to_json()}", f"family: {c.family}"]
    if isinstance(c, NotAssociative):
        lines.append(f"residuals: {c.residuals.to_json()}")
        _emit(payload, "\n".join(lines), cfg, args.out)
        return EXIT_NOT_ASSOCIATIVE
    lines.append(f"params: {c.params()}")
    payload["reduction"] = r.to_json()
    if isinstance(r, Inadmissible):
        lines.append(f"reduction: inadmissible ({r.reason})")
    else:
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
    # ValueError covers JSONDecodeError, SequenceError and the int of more
    # than 4300 digits that json.load refuses.
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot load input files: {exc}") from exc

    asg = setup.assignment()
    results = []
    try:
        for s in seqs:
            a = amplitude(s, asg)
            p = h_eval(BORN, a)
            if not math.isfinite(p):
                raise CliError(f"probability of {s} is not finite: {p}")
            results.append({"sequence": s.to_json(), "amplitude": a.to_json(), "probability": p})
        norm = normalization_check(setup)
    except MissingAmplitudeError as exc:
        raise CliError(str(exc), EXIT_MISSING_AMPLITUDE) from exc
    except NonFiniteError as exc:
        raise CliError(str(exc)) from exc
    for i, total in norm.totals.items():
        if not math.isfinite(total):
            raise CliError(f"total probability from initial label {i} is not finite: {total}")
    text = ""
    if cfg.output_format == "text":
        lines = [
            f"{s}  amplitude {r['amplitude']}  probability {r['probability']:.12g}"
            for s, r in zip(seqs, results)
        ]
        if norm.qualifies:
            lines.append(
                "normalization: tables are unitary; "
                f"max total-probability deviation {norm.max_total_deviation:.3g}"
            )
        else:
            lines.append("normalization: tables do not preserve modulus squares; no check")
        text = "\n".join(lines)
    _emit({"results": results, "normalization": norm.to_json()}, text, cfg, args.out)
    return EXIT_OK


def _cmd_check_symmetries(args, cfg: RunConfig) -> int:
    rep = check_symmetries(cases=cfg.sample_count, seed=cfg.rng_seed)
    lines = [f"{law}: {n} cases" for law, n in rep.cases.items()]
    lines.append("all laws hold" if rep.passed else "FAILURES:")
    lines.extend(rep.failures)
    _emit({"symmetries": rep.to_json()}, "\n".join(lines), cfg, args.out)
    return EXIT_OK if rep.passed else EXIT_DERIVE_DEVIATION


def _is_number(arg: str) -> bool:
    try:
        float(arg)
    except ValueError:
        return False
    return True


class _Parser(argparse.ArgumentParser):
    """argparse with two changes: a usage error exits EXIT_MALFORMED, since
    argparse's own code 2 is EXIT_NOT_ASSOCIATIVE here, and a negative number
    in any form float() reads, such as -1e-05, is an argument, not an option."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_MALFORMED, f"{self.prog}: error: {message}\n")

    def _parse_optional(self, arg_string: str):
        if re.match(r"-[0-9.]", arg_string) and _is_number(arg_string):
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pairrules",
        description=(
            "Verification engine for the derivation of Feynman's rules from "
            "pair-valued sequence weights."
        ),
    )
    # Every subcommand takes --format and --out, and only those of the others
    # it reads.  Options named after RunConfig fields (dest) configure the run.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", dest="output_format", choices=("text", "json"), default="text")
    common.add_argument("--out", metavar="FILE", default=None, help="write report to FILE")
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument(
        "--tol", dest="tolerance", metavar="TOL", type=float, default=DEFAULT_TOL,
        help="numerical tolerance",
    )
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument(
        "--seed", dest="rng_seed", metavar="SEED", type=int, default=0, help="random seed"
    )
    samples = argparse.ArgumentParser(add_help=False)
    samples.add_argument(
        "--samples", dest="sample_count", metavar="SAMPLES", type=int, default=10_000,
        help="sample count",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "classify",
        aliases=["reduce"],
        parents=[common, tol],
        help="classify a gamma vector and reduce it to standard form",
    )
    p.add_argument("gamma", nargs="*", help="eight gamma components")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("solve-h", parents=[common], help="probability solution family for a form")
    p.add_argument("form")
    p.set_defaults(func=_cmd_solve_h)

    p = sub.add_parser(
        "solve-reciprocity", parents=[common], help="reciprocity operators for a form"
    )
    p.add_argument("form")
    p.set_defaults(func=_cmd_solve_reciprocity)

    p = sub.add_parser(
        "eliminate", parents=[common, tol, seed], help="eliminate one (form, operator) cell"
    )
    p.add_argument("form")
    p.add_argument("operator")
    p.set_defaults(func=_cmd_eliminate)

    p = sub.add_parser("derive", parents=[common, tol, seed], help="run the full elimination")
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("simulate", parents=[common], help="evaluate sequences from files")
    p.add_argument("setup", help="set-up description JSON file")
    p.add_argument("sequences", help="sequences JSON file")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "check-symmetries",
        parents=[common, seed, samples],
        help="verify the sequence combination laws",
    )
    p.set_defaults(func=_cmd_check_symmetries)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    given = {f.name for f in fields(RunConfig)} & vars(args).keys()
    try:
        cfg = RunConfig(**{name: getattr(args, name) for name in given})
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
