"""Command-line front end.

Each subcommand maps to one library operation, and its handler returns one
payload.  `--json` prints it, plus the arguments the subcommand echoes, with
a stable schema (field tables are in README.md); all numbers in it are exact
decimal strings, never rounded.  Text mode prints the payload's scalar fields
in order as `key = value` lines, booleans as `true`/`false`.  Handlers write
text by hand only for bare answers, tables and violation lines.  Exit codes:
0 success, 1 domain error (bad expression, invalid parameters, violated
precondition, a degree-like flag above its bound), 2 usage error (including a
negative count or degree bound).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from typing import NamedTuple

from .exprs import MAX_DEGREE, parse_poly
from .presets import SpecConfig, load_config, load_spec
from .valgroup import ValuePair
from .valuation import ValuationSpec, cancel_lambda, check_axioms, lead_term, spec_violations, value
from .witness import (
    CorpusSpec,
    increasing_value_sequence,
    quotient_census,
    random_xy_poly,
    sample_image,
    structure_checks,
    witness_for_value,
)
from .ypoly import w_expand, ypower_table


class _Output(NamedTuple):
    """A handler's payload, its hand-written text (None renders the payload) and exit code."""

    payload: dict
    text: list[str] | None = None
    code: int = 0


def _fields(payload: dict) -> list[str]:
    """`key = value` lines of the payload's scalar fields, in payload order."""
    return [
        f"{k} = {str(v).lower() if isinstance(v, bool) else v}"
        for k, v in payload.items()
        if not isinstance(v, (list, dict))
    ]


def _count(text: str) -> int:
    """argparse type of the count and degree-bound flags: a nonnegative integer."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"invalid nonnegative int value: {text!r}")
    return n


# argparse names the type in its message for a non-integer ("invalid int value").
_count.__name__ = "int"


class DegreeBoundError(ValueError):
    """A degree-like flag asks for more than MAX_DEGREE; refused before any algebra."""


def _check_degree(flag: str, value: int, bound: int = MAX_DEGREE) -> None:
    """Refuse a flag above its bound, the largest value whose degrees stay within MAX_DEGREE."""
    if value > bound:
        raise DegreeBoundError(f"{flag} = {value} exceeds its bound {bound} (degree limit {MAX_DEGREE})")


def _add_corpus_flags(p: argparse.ArgumentParser, random_count: int) -> None:
    p.add_argument("--max-deg-x", type=_count, default=6)
    p.add_argument("--max-deg-y", type=_count, default=6)
    p.add_argument("--random-count", type=_count, default=random_count)


def _corpus(args) -> CorpusSpec:
    _check_degree("--max-deg-x", args.max_deg_x)
    _check_degree("--max-deg-y", args.max_deg_y)
    return CorpusSpec(args.max_deg_x, args.max_deg_y, args.random_count, args.seed)


def _cmd_expand(spec: ValuationSpec, args) -> _Output:
    exp = w_expand(parse_poly(args.input), spec.w)
    payload = {"m": str(exp.m), "rows": [[str(c) for c in row] for row in exp.rows]}
    cells = [f"f[{i}][{j}] = {c}" for i, row in enumerate(payload["rows"]) for j, c in enumerate(row)]
    return _Output(payload, _fields(payload) + [f"rows = {len(exp.rows)}"] + cells)


def _cmd_value(spec: ValuationSpec, args) -> _Output:
    v = str(value(spec, parse_poly(args.input)))
    return _Output({"value": v}, [v])


def _cmd_lead(spec: ValuationSpec, args) -> _Output:
    t = lead_term(spec, parse_poly(args.input))
    return _Output({"i": str(t.i), "j": str(t.j), "coeff": str(t.coeff), "value": str(t.value)})


def _cmd_lambda(spec: ValuationSpec, args) -> _Output:
    lam = str(cancel_lambda(spec, parse_poly(args.f), parse_poly(args.g)))
    return _Output({"lambda": lam}, [lam])


def _cmd_axioms(spec: ValuationSpec, args) -> _Output:
    _check_degree("--max-deg", args.max_deg)
    rng = random.Random(args.seed)
    corpus = [random_xy_poly(rng, args.max_deg) for _ in range(args.count)]
    report = check_axioms(spec, corpus, args.pairs, seed=args.seed)
    payload = {
        "pairs_checked": str(report.pairs_checked),
        "x_pairs_checked": str(report.x_pairs_checked),
        "violations": {k: str(v) for k, v in report.counts().items()},
        "ok": report.ok,
    }
    text = _fields(payload)
    text.insert(-1, f"violations = {report.total_violations}")
    return _Output(payload, text + [f"violations[{k}] = {v}" for k, v in payload["violations"].items()])


def _cmd_witness(spec: ValuationSpec, args) -> _Output:
    # The sequence builds y-degrees up to (dmax + 1) * m.
    _check_degree("--dmax", args.dmax, MAX_DEGREE // spec.m - 1)
    seq = [
        {"d": str(d), "deg_y": str(f.deg_y), "value": str(v), "poly": str(f)}
        for d, (f, v) in enumerate(increasing_value_sequence(spec, args.dmax))
    ]
    return _Output({"sequence": seq}, [f"d={e['d']} deg_y={e['deg_y']} value={e['value']}" for e in seq])


def _cmd_image(spec: ValuationSpec, args) -> _Output:
    report = sample_image(spec, _corpus(args), args.mode)
    payload = {
        "mode": args.mode,
        "attained": sorted(str(v) for v in report.attained),
        "attained_count": str(len(report.attained)),
        "violation_count": str(len(report.violations)),
        "violations": [{"poly": str(f), "value": str(v)} for f, v in report.violations[:20]],
        "class_count": str(report.class_count),
        "minus_one_zero_attained": ValuePair(-1, 0) in report.attained,
        "ok": report.ok,
    }
    lines = [f"violation: value={e['value']} poly={e['poly']}" for e in payload["violations"]]
    return _Output(payload, _fields(payload) + lines)


def _cmd_census(spec: ValuationSpec, args) -> _Output:
    _check_degree("--ell", args.ell)
    return _Output({"classes": str(quotient_census(spec, args.ell, family=args.family, seed=args.seed))})


def _cmd_spec_check(config: SpecConfig, args) -> _Output:
    bundle = config.bundle()
    violations = spec_violations(**bundle)
    if violations:
        payload = {"valid": False, "violations": violations}
        return _Output(payload, _fields(payload) + [f"violation: {v}" for v in violations], code=1)
    return _Output({"valid": True, "violations": [], **{k: str(v) for k, v in bundle.items()}})


def _cmd_ypower(spec: ValuationSpec, args) -> _Output:
    _check_degree("--emax", args.emax)
    table = ypower_table(spec.w, args.emax)
    entries = [
        {"e": str(e), "t": str(t), "coeff": str(table.entry(e, t))}
        for e in range(args.emax + 1)
        for t in range(e + 1)
    ]
    payload = {"m": str(table.m), "e_max": str(table.e_max), "entries": entries}
    return _Output(payload, _fields(payload) + [f"y[{x['e']}][{x['t']}] = {x['coeff']}" for x in entries])


def _cmd_structure(spec: ValuationSpec, args) -> _Output:
    report = structure_checks(spec, _corpus(args))
    return _Output({
        "low_degree_checked": str(report.low_degree_checked),
        "low_degree_violations": str(len(report.low_degree_violations)),
        "divisor_value": str(report.divisor_value),
        "divisor_escapes": report.divisor_escapes,
        "rational_checked": str(report.rational_checked),
        "rational_violations": str(len(report.rational_violations)),
        "ok": report.ok,
    })


def _cmd_target(spec: ValuationSpec, args) -> _Output:
    # The witness has y-degree (i + j) * m.
    _check_degree("--i + --j", args.i + args.j, MAX_DEGREE // spec.m)
    f = witness_for_value(spec, args.i, args.j)
    return _Output({"value": str(value(spec, f)), "poly": str(f)})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexval",
        description="Exact valuations on Q(x)[y] with values in lexicographic Z+Z.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--spec",
        default="ex55",
        help="preset name (ex55, ex52) or config file path (default: ex55)",
    )
    common.add_argument("--json", action="store_true", help="emit JSON instead of text")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized corpora")
    # `echo` names the arguments the JSON payload repeats.
    common.set_defaults(echo=())

    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, what in (
        ("expand", _cmd_expand, "w-expansion table"),
        ("value", _cmd_value, "value"),
        ("lead", _cmd_lead, "lead term"),
    ):
        p = sub.add_parser(name, parents=[common], help=f"{what} of an expression")
        p.add_argument("input", metavar="expr")
        p.set_defaults(func=func, echo=("input",))

    p = sub.add_parser("lambda", parents=[common], help="cancellation scalar of two expressions")
    p.add_argument("f")
    p.add_argument("g")
    p.set_defaults(func=_cmd_lambda, echo=("f", "g"))

    p = sub.add_parser("axioms", parents=[common], help="audit valuation axioms on a random corpus")
    p.add_argument("--count", type=_count, default=200, help="corpus size")
    p.add_argument("--pairs", type=_count, default=500, help="sampled pair budget")
    p.add_argument("--max-deg", type=_count, default=5, help="total degree bound for corpus elements")
    p.set_defaults(func=_cmd_axioms)

    p = sub.add_parser("witness", parents=[common], help="strictly increasing value sequence")
    p.add_argument("--dmax", type=_count, default=5)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("image", parents=[common], help="sample attained values and test membership")
    p.add_argument("--mode", choices=("ex55", "cone"), default="ex55")
    _add_corpus_flags(p, random_count=1000)
    p.set_defaults(func=_cmd_image)

    p = sub.add_parser("census", parents=[common], help="count quotient classes up to a y-degree")
    p.add_argument("--ell", type=_count, required=True)
    p.add_argument("--family", choices=("h_family", "corpus"), default="h_family")
    p.set_defaults(func=_cmd_census, echo=("ell", "family"))

    p = sub.add_parser("spec-check", parents=[common], help="validate valuation parameters")
    p.set_defaults(func=_cmd_spec_check)

    p = sub.add_parser("ypower", parents=[common], help="expansion table of pure y-powers")
    p.add_argument("--emax", type=_count, required=True)
    p.set_defaults(func=_cmd_ypower)

    p = sub.add_parser("structure", parents=[common], help="structural containment checks")
    _add_corpus_flags(p, random_count=200)
    p.set_defaults(func=_cmd_structure)

    p = sub.add_parser("target", parents=[common], help="witness polynomial for a prescribed value")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.set_defaults(func=_cmd_target, echo=("i", "j"))

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process, built on first use; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # --spec becomes the handler's first argument.  The loader is named here,
    # not stored in the cached parser, so a rebinding of it is seen.
    load = load_config if args.command == "spec-check" else load_spec
    try:
        out = args.func(load(args.spec), args)
    except (ValueError, RuntimeError, ZeroDivisionError, OSError) as exc:
        # ValueError covers ExprError, ConfigError and InvalidSpecError.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.json:
            echoed = {k: str(getattr(args, k)) for k in args.echo}
            print(json.dumps({**echoed, **out.payload}, indent=2, sort_keys=True))
        else:
            for line in out.text if out.text is not None else _fields(out.payload):
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early.  Python flushes stdout once more at
        # exit; with stdout on the null device that flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return out.code


if __name__ == "__main__":
    sys.exit(main())
