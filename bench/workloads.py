"""The four benchmark workloads: seeded lexval command lines and their output checks.

Each workload turns a seed into one pass: a fixed list of argv lists for
`lexval.cli.main`.  The same seed gives the same pass.  The program sees
only these strings.  `check` verifies one pass's stdout, command by command,
by a route that does not trust the command's own answer; it returns one
error message or None per command.

The per-pass sizes are chosen so that a pass takes a few seconds at the
seed commit: long enough to hold the expensive commands a workload is about,
short enough that a run repeats the pass several times and has at least 40
timed commands (see README.md).
"""

from __future__ import annotations

import json
import random
import re

from lexval import parse_poly
from lexval.ratfunc import v_inf
from lexval.ypoly import YPoly

# Parameter bundles, restated here so that the checks do not read them from
# the package under test: (m, n, w, alpha, beta).
BUNDLES = {
    "ex55": (2, 3, "y^2 + y/x + x^3", (-1, -1), (0, 1)),
    "ex52": (2, 3, "y^2 + x^3", (-1, -1), (0, -1)),
}


def _lines(out: str) -> dict[str, str]:
    """`key = value` lines of a text payload."""
    return dict(line.split(" = ", 1) for line in out.splitlines() if " = " in line)


def _pair(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"\((-?\d+),(-?\d+)\)", text.strip())
    if m is None:
        raise ValueError(f"not a value pair: {text!r}")
    return int(m.group(1)), int(m.group(2))


def _cell_value(bundle, i: int, j: int, coeff) -> tuple[int, int]:
    m, n, _, alpha, beta = bundle
    k = -v_inf(coeff) * m + j * n
    return (k * alpha[0] + i * beta[0], k * alpha[1] + i * beta[1])


def _in_rational_image(bundle, v: tuple[int, int]) -> bool:
    """v = s*alpha + t*beta with integers s and t >= 0: every cell value has this form."""
    _, _, _, (a0, a1), (b0, b1) = bundle
    det = a0 * b1 - a1 * b0
    s_num = v[0] * b1 - v[1] * b0
    t_num = a0 * v[1] - a1 * v[0]
    return s_num % det == 0 and t_num % det == 0 and t_num // det >= 0


def _argv_value(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _xpoly(rng: random.Random, max_deg: int, exact: bool = False) -> str:
    """Random nonzero polynomial in x with small integer coefficients, as text.

    Its degree is `max_deg` if `exact`, else a random degree up to it.
    """
    deg = max_deg if exact else rng.randint(0, max_deg)
    coeffs = [rng.randint(-3, 3) for _ in range(deg)] + [rng.choice((-3, -2, -1, 1, 2, 3))]
    return " + ".join(f"{c}*x^{e}" for e, c in enumerate(coeffs) if c)


class Workload:
    name = ""
    # The percentile item_tail_ms reports: the highest of p75, p90, p95 and
    # p99 that, in ten runs on ten seeds at the seed commit, left at least
    # ten timed commands beyond it in every run and spread by less than a
    # third of the metric's bound.  It is fixed per workload so that two
    # commits report the same percentile even when one of them completes
    # more passes.
    tail_percentile = 75

    def commands(self, seed: int) -> list[list[str]]:
        raise NotImplementedError

    def check(self, commands: list[list[str]], outputs: list[str]) -> list[str | None]:
        raise NotImplementedError

    def predictions(self, metrics: dict[str, float], layers: dict[str, dict]) -> list[tuple[str, bool]]:
        """Which layers dominate this workload, as checked in a traced run.

        `metrics` are the per-layer metrics of the run; `layers` has the
        calls, self_s and total_s of every traced layer.
        """
        return [("ypoly.ypower_table.calls == 0", metrics["ypoly.ypower_table.calls"] == 0)]


class DeepEx55(Workload):
    name = "deep_ex55"

    # Pure powers of y (exponent, commands).  Their costs climb in steps of
    # at most 15%, so that p50 and p75 fall between two commands of nearly
    # the same cost and not on a jump, where a few samples changing places
    # would move them.
    POWERS = (
        (14, ("value", "lead", "expand")),
        (15, ("value",)),
        (16, ("value", "lead", "expand")),
        (17, ("value",)),
        (18, ("value", "expand")),
        (19, ("value",)),
        (20, ("value", "expand")),
        (21, ("value",)),
        (22, ("value", "expand")),
        (18, ("lead",)),
    )
    # Seeded dense elements (y-degree, commands), the costliest commands of
    # the pass, above p75.  Every coefficient has x-degree exactly 6, so that
    # their cost, which the seed decides, varies as little as it can.  A
    # `value` is checked against the `expand` of the same element.
    DENSE = ((16, ("value", "expand")),)
    tail_percentile = 75

    def commands(self, seed):
        rng = random.Random(seed)
        cmds = []
        for e, kinds in self.POWERS:
            cmds += [[kind, "--spec", "ex55", f"y^{e}"] for kind in kinds]
        for deg_y, kinds in self.DENSE:
            expr = " + ".join(f"({_xpoly(rng, 6, exact=True)})*y^{j}" for j in range(deg_y + 1))
            cmds += [[kind, "--spec", "ex55", expr] for kind in kinds]
        return cmds

    def check(self, commands, outputs):
        bundle = BUNDLES["ex55"]
        m = bundle[0]
        w = parse_poly(bundle[2])
        expansions = {}
        errors: list[str | None] = [None] * len(commands)
        for k, (argv, out) in enumerate(zip(commands, outputs)):
            if argv[0] != "expand":
                continue
            fields = _lines(out)
            rows = int(fields["rows"])
            if int(fields["m"]) != m:
                errors[k] = "expand: wrong m"
                continue
            grid = [[parse_poly(fields[f"f[{i}][{j}]"]).coeff(0) for j in range(m)] for i in range(rows)]
            total = YPoly.zero()
            for row in reversed(grid):
                total = total * w + YPoly(dict(enumerate(row)))
            if total != parse_poly(argv[-1]):
                errors[k] = "expand: sum of c*y^j*w^i differs from the input"
            elif all(c.is_zero() for c in grid[-1]):
                errors[k] = "expand: top row is zero"
            else:
                cells = [(i, j, c) for i, row in enumerate(grid) for j, c in enumerate(row) if not c.is_zero()]
                expansions[argv[-1]] = min(cells, key=lambda cell: _cell_value(bundle, *cell))
        for k, (argv, out) in enumerate(zip(commands, outputs)):
            kind, expr = argv[0], argv[-1]
            if kind == "expand":
                continue
            if expr in expansions:
                i, j, c = expansions[expr]
                expected = _cell_value(bundle, i, j, c)
            elif re.fullmatch(r"y\^\d+", expr):
                # value is multiplicative and value(y) = n*alpha
                e = int(expr[2:])
                expected = (e * bundle[1] * bundle[3][0], e * bundle[1] * bundle[3][1])
                i = j = c = None
            else:
                errors[k] = f"{kind}: no expansion of the same input to check against"
                continue
            if kind == "value":
                got = _pair(out)
            else:
                fields = _lines(out)
                got = _pair(fields["value"])
                if c is not None and (
                    (int(fields["i"]), int(fields["j"])) != (i, j) or parse_poly(fields["coeff"]).coeff(0) != c
                ):
                    errors[k] = "lead: not the minimizing expansion cell"
                    continue
            if got != expected:
                errors[k] = f"{kind}: value {got} but the expansion gives {expected}"
        return errors

    def predictions(self, metrics, layers):
        # poly_gcd's remainders run in uni_divmod, which is traced as a layer
        # of its own, so the gcd is counted with its children here.
        traced = sum(layer["self_s"] for layer in layers.values())
        gcd = layers["ratfunc.poly_gcd"]["total_s"] + layers["ratfunc.ratfunc_ops"]["self_s"]
        return super().predictions(metrics, layers) + [
            ("ratfunc.poly_gcd (with its uni_divmod calls) + ratfunc.ratfunc_ops take over half of the traced time",
             gcd > traced / 2),
        ]


class WitnessEx55(Workload):
    name = "witness_ex55"

    DMAX = 5
    # target (i, j) for these (j, i's).  A target's cost roughly doubles with
    # each step of j, and grows by 10-20% with each step of i.  The grid puts
    # p50 inside the four j = 2 targets and p90 inside the three j = 4
    # targets, not on a jump between two steps of j.
    TARGETS = ((0, (1, 2, 3, 4)), (1, (1, 2, 3, 4)), (2, (1, 2, 3, 4)), (3, (1, 2, 3)), (4, (1, 2, 3)))
    tail_percentile = 90

    def commands(self, seed):
        # The witness constructions take no random input, so every seed does
        # the same algebra; the seed orders the commands and picks text or
        # JSON output for each.
        rng = random.Random(seed)
        cmds = [["witness", "--spec", "ex55", "--dmax", str(self.DMAX)]]
        for j, i_values in self.TARGETS:
            for i in i_values:
                cmds.append(["target", "--spec", "ex55", "--i", str(i), "--j", str(j)])
        rng.shuffle(cmds)
        return [argv + ["--json"] if rng.random() < 0.5 else argv for argv in cmds]

    def check(self, commands, outputs):
        errors: list[str | None] = []
        for argv, out in zip(commands, outputs):
            as_json = "--json" in argv
            if argv[0] == "witness":
                dmax = int(_argv_value(argv, "--dmax"))
                if as_json:
                    got = [(int(e["d"]), int(e["deg_y"]), e["value"]) for e in json.loads(out)["sequence"]]
                else:
                    got = [tuple(int(v) if k < 2 else v for k, v in enumerate(re.findall(r"=(\S+)", line)))
                           for line in out.splitlines()]
                expected = [(d, 2 * (d + 1), f"(-1,{d - 1})") for d in range(dmax + 1)]
                errors.append(None if got == expected else "witness: not the ex55 closed form")
                continue
            i, j = int(_argv_value(argv, "--i")), int(_argv_value(argv, "--j"))
            fields = json.loads(out) if as_json else _lines(out)
            if _pair(fields["value"]) != (-i, j - i):
                errors.append(f"target: value {fields['value']} is not (-{i},{j - i})")
            elif parse_poly(fields["poly"]).deg_y != 2 * (i + j):
                errors.append("target: witness has the wrong y-degree")
            else:
                errors.append(None)
        return errors

    def predictions(self, metrics, layers):
        return [("ypoly.ypower_table.calls > 0", metrics["ypoly.ypower_table.calls"] > 0)]


class AuditEx52(Workload):
    name = "audit_ex52"

    # An axiom audit costs 150-350 ms, depending on its seeded corpus; an
    # image audit costs 30-45 ms.  Image audits are more than 80% of the
    # commands, so that p50 falls well inside them, whose costs are close
    # together, and not among the few costly axiom audits, where the seed
    # would move it.
    AXIOMS = 12
    IMAGES = 56
    tail_percentile = 95

    def commands(self, seed):
        rng = random.Random(seed)
        cmds = [["axioms", "--spec", "ex52", "--seed", str(rng.randrange(10**6)),
                 "--count", "40", "--pairs", "60", "--max-deg", "5"] for _ in range(self.AXIOMS)]
        cmds += [["image", "--spec", "ex52", "--mode", "cone", "--seed", str(rng.randrange(10**6)),
                  "--random-count", "80", "--max-deg-x", "4", "--max-deg-y", "4"] for _ in range(self.IMAGES)]
        rng.shuffle(cmds)
        return cmds

    def check(self, commands, outputs):
        errors: list[str | None] = []
        for argv, out in zip(commands, outputs):
            fields = _lines(out)
            if fields.get("ok") != "true":
                errors.append(f"{argv[0]}: ok is not true")
            elif argv[0] == "axioms" and fields.get("pairs_checked") != _argv_value(argv, "--pairs"):
                errors.append("axioms: pair budget not used")
            elif argv[0] == "image" and fields.get("minus_one_zero_attained") != "false":
                errors.append("image: (-1,0) attained under ex52")
            else:
                errors.append(None)
        return errors

    def predictions(self, metrics, layers):
        return super().predictions(metrics, layers) + [
            ("ratfunc.poly_gcd.calls == 0", metrics["ratfunc.poly_gcd.calls"] == 0),
        ]


class RationalQ(Workload):
    name = "rational_q"

    # A value costs about 30 ms under ex52 and 80-180 ms under ex55; a
    # structure audit 60-90 ms under ex52 and 250-450 ms under ex55.  Values
    # under ex55 are the middle 60% of the commands by cost, so that p50 and
    # p90 both fall among them and not on a jump between two kinds of command.
    VALUES = {"ex55": 32, "ex52": 16}
    tail_percentile = 90
    STRUCTURES_PER_SPEC = 3

    @staticmethod
    def _denominator(rng: random.Random) -> str:
        # a nonzero constant term keeps it from being a power of x
        coeffs = [rng.choice((-5, -3, -2, -1, 1, 2, 3, 5)), rng.randint(-3, 3), rng.choice((1, 1, 2, 3))]
        return " + ".join(f"{c}*x^{e}" for e, c in enumerate(coeffs) if c)

    def _element(self, rng: random.Random) -> str:
        # every element has the same y- and x-degrees, so that elements cost about the same
        return " + ".join(f"({_xpoly(rng, 3, exact=True)})/({self._denominator(rng)})*y^{e}" for e in (8, 5, 3, 1))

    def commands(self, seed):
        rng = random.Random(seed)
        cmds = []
        for spec, count in self.VALUES.items():
            cmds += [["value", "--spec", spec, self._element(rng)] for _ in range(count)]
            cmds += [["structure", "--spec", spec, "--seed", str(rng.randrange(10**6)), "--random-count", "20"]
                     for _ in range(self.STRUCTURES_PER_SPEC)]
        return cmds

    def check(self, commands, outputs):
        errors: list[str | None] = []
        for argv, out in zip(commands, outputs):
            bundle = BUNDLES[_argv_value(argv, "--spec")]
            if argv[0] == "value":
                ok = _in_rational_image(bundle, _pair(out))
                errors.append(None if ok else f"value: {out.strip()} is not in Z*alpha + N*beta")
                continue
            fields = _lines(out)
            ok = fields.get("ok") == "true" and fields.get("divisor_escapes") == "true"
            errors.append(None if ok else "structure: ok is not true")
        return errors


WORKLOADS = {w.name: w for w in (DeepEx55(), WitnessEx55(), AuditEx52(), RationalQ())}
