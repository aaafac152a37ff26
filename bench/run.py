"""Benchmark of the lexval command line, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a lexval checkout.  The benchmark imports lexval from
that checkout's `src/` and refuses to run (exit 2, no result) when lexval
would come from anywhere else.  One caller issues the workload's commands
through `lexval.cli.main(argv)` in a closed loop, one process and one
thread, repeating whole passes of the workload for about S seconds.

With --trace 0 it reports the end-to-end metrics named in BENCHMARK.json.
The command latencies behind items_per_s, item_p50_ms and item_tail_ms
are scaled to a reference host speed, measured by a fixed task run around
every command (see hostspeed.py); the `#` lines also give them as measured.
With --trace 1 it alternates untraced and traced passes and reports the
per-layer metrics; the traced spans are written to `.bench_out/`.  Every
command's output is checked after the timed region.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import hostspeed
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
DIGESTS = BENCH_DIR / "digests.json"

DEFAULT_SEED = 0
SETUP_RUNS = 9
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import lexval; "
    "lexval.load_spec('ex55'); lexval.load_spec('ex52'); print(lexval.__file__)"
)


class Refused(Exception):
    """The benchmark cannot measure this checkout."""


def import_lexval():
    """Import lexval from this checkout's src/, or refuse."""
    sys.path.insert(0, str(SRC))
    try:
        import lexval
        import lexval.cli
    except ImportError as exc:
        raise Refused(f"cannot import lexval from {SRC}: {exc}") from None
    if not _inside_src(lexval.__file__):
        raise Refused(f"lexval resolves to {lexval.__file__}, outside the checkout under test {SRC}")
    return lexval


def _inside_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "lexval").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(lexval) -> dict:
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "lexval_file": lexval.__file__,
    }


def measure_setup() -> float:
    """Wall time of one fresh interpreter that imports lexval and loads both presets."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC)],
        capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise Refused(f"set-up interpreter failed: {proc.stderr.strip()}")
    if not _inside_src(proc.stdout.strip()):
        raise Refused(f"set-up interpreter imported lexval from {proc.stdout.strip()}")
    return elapsed


class Result:
    """One command execution; `cal` is the host speed around it (see run_pass)."""

    __slots__ = ("ns", "rc", "out", "error", "cal")

    def __init__(self, ns, rc, out, error, cal=None):
        self.ns, self.rc, self.out, self.error, self.cal = ns, rc, out, error, cal


def run_command(cli, argv: list[str]) -> Result:
    out, err = io.StringIO(), io.StringIO()
    error = None
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter_ns()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a raising command is a failed item, not a crash
            rc, error = None, f"raised {exc!r}"
        ns = time.perf_counter_ns() - t0
    if rc != 0 and error is None:
        error = f"exit code {rc}: {err.getvalue().strip()}"
    return Result(ns, rc, out.getvalue(), error)


def run_pass(cli, commands) -> tuple[list[Result], float]:
    """One pass and its wall time.

    A host-speed sample is taken before the first command and after every
    command, so that each command lies between two samples; their mean is
    the command's `cal`.
    """
    gc.collect()
    t0 = time.perf_counter()
    results = []
    before = hostspeed.sample()
    for argv in commands:
        result = run_command(cli, argv)
        after = hostspeed.sample()
        result.cal = (before + after) / 2
        results.append(result)
        before = after
    return results, time.perf_counter() - t0


def speed_factor(results: list[Result]) -> float:
    """How much faster than measured the commands would have run at the reference speed, together."""
    return hostspeed.REFERENCE_S * sum(r.ns for r in results) / sum(r.ns * r.cal for r in results)


def adjusted_ms(results: list[Result]) -> list[float]:
    """The command latencies in ms, each scaled to the reference host speed by the samples around it."""
    return [r.ns / 1e6 * hostspeed.REFERENCE_S / r.cal for r in results]


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-13:
            break
    return h


def _beta_cdf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def percentile(samples: list[float], p: int) -> tuple[float, int]:
    """Harrell-Davis estimate of the p-th percentile, and how many samples lie above it.

    The estimate weights every order statistic by a beta density centred on
    the percentile.  A single order statistic would jump between commands
    of very different cost when a few samples change places.
    """
    ordered = sorted(samples)
    n = len(ordered)
    a, b = p / 100 * (n + 1), (1 - p / 100) * (n + 1)
    cdf = [_beta_cdf(a, b, i / n) for i in range(n + 1)]
    value = sum(x * (cdf[i + 1] - cdf[i]) for i, x in enumerate(ordered))
    return value, sum(1 for x in ordered if x > value)


def check_outputs(workload, seed, commands, passes) -> list[str | None]:
    """Per-command verdicts from the first pass; later passes must repeat it byte for byte."""
    first = [r.out for r in passes[0]]
    try:
        verdicts = workload.check(commands, first)
    except (ValueError, KeyError, IndexError) as exc:
        verdicts = [f"output check raised {exc!r}"] * len(commands)
    if seed == DEFAULT_SEED:
        recorded = json.loads(DIGESTS.read_text()).get(workload.name, []) if DIGESTS.is_file() else []
        for k, out in enumerate(first):
            digest = hashlib.sha256(out.encode()).hexdigest()
            if k >= len(recorded) or recorded[k] != digest:
                verdicts[k] = verdicts[k] or "stdout differs from the digest recorded for the default seed"
    return verdicts


def count_failures(passes, verdicts, reference=None) -> tuple[int, int, list[str]]:
    """Attempted and failed executions; `reference` outputs must be matched exactly."""
    reference = reference or [r.out for r in passes[0]]
    attempted = failed = 0
    messages = []
    for results in passes:
        for k, r in enumerate(results):
            attempted += 1
            why = r.error or verdicts[k] or (None if r.out == reference[k] else "stdout changed between passes")
            if why:
                failed += 1
                messages.append(f"command {k}: {why}")
    return attempted, failed, messages


def untraced_run(cli, workload, args, commands) -> tuple[dict, dict, list[str]]:
    hostspeed.sample()
    run_command(cli, commands[0])  # warm-up: first-call costs are not part of an item
    setup, passes, walls = [], [], []
    started = time.perf_counter()
    while True:
        # set-up samples are taken between passes, so that they meet the same
        # machine conditions as the passes do
        if len(setup) < SETUP_RUNS:
            setup.append(measure_setup())
        results, wall = run_pass(cli, commands)
        passes.append(results)
        walls.append(wall)
        if time.perf_counter() - started + wall > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup += [measure_setup() for _ in range(SETUP_RUNS - len(setup))]

    raw_ms = [r.ns / 1e6 for results in passes for r in results]
    latencies_ms = [ms for results in passes for ms in adjusted_ms(results)]
    tail_p = workload.tail_percentile
    tail_ms, beyond = percentile(latencies_ms, tail_p)
    verdicts = check_outputs(workload, args.seed, commands, passes)
    attempted, failed, messages = count_failures(passes, verdicts)
    metrics = {
        "setup_s": statistics.median(setup),
        # a mean over the whole run: the host switches between a fast and a
        # slow speed every few seconds, and a median over passes picks one
        "items_per_s": len(latencies_ms) / (sum(latencies_ms) / 1e3),
        "item_p50_ms": percentile(latencies_ms, 50)[0],
        "item_tail_ms": tail_ms,
        "peak_rss_mb": peak_rss_mb,
    }
    details = {
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "passes": len(passes),
        "commands_per_pass": len(commands),
        "pass_wall_s": walls,
        "pass_speed_factor": [speed_factor(results) for results in passes],
        "host_samples_s": [[r.cal for r in results] for results in passes],
        "raw": {
            "items_per_s": len(raw_ms) / (sum(raw_ms) / 1e3),
            "item_p50_ms": percentile(raw_ms, 50)[0],
            "item_tail_ms": percentile(raw_ms, tail_p)[0],
        },
        "item_tail_percentile": tail_p,
        "item_samples": len(latencies_ms),
        "setup_runs_s": setup,
        "latencies_ms": [[r.ns / 1e6 for r in results] for results in passes],
    }
    raw = details["raw"]
    factors = details["pass_speed_factor"]
    notes = [
        f"setup_s = {metrics['setup_s']:.4f} s (median of {len(setup)} fresh interpreters)",
        f"items_per_s, item_p50_ms and item_tail_ms are at the reference host speed; the passes' speed factors"
        f" were {min(factors):.3f}-{max(factors):.3f} (see bench/hostspeed.py)",
        f"items_per_s = {metrics['items_per_s']:.4f} 1/s (over {len(passes)} passes of {len(commands)} commands;"
        f" {raw['items_per_s']:.4f} as measured)",
        f"item_p50_ms = {metrics['item_p50_ms']:.3f} ms (of {len(latencies_ms)} samples;"
        f" {raw['item_p50_ms']:.3f} as measured)",
        f"item_tail_ms = {tail_ms:.3f} ms (p{tail_p} of {len(latencies_ms)} samples, {beyond} beyond it"
        + ("" if beyond >= 10 else "; fewer than ten: too few passes for this percentile")
        + f"; {raw['item_tail_ms']:.3f} as measured)",
        f"peak_rss_mb = {peak_rss_mb:.2f} MB",
        f"fail_frac = {failed / attempted:.4f} ({failed} of {attempted} commands)",
    ] + messages[:20]
    return metrics, details, notes


def layer_metrics(summary: dict, stdout_bytes: int) -> dict:
    """The per-layer metrics of one traced pass, named as in BENCHMARK.json."""
    layers = summary["layers"]

    def calls(layer):
        return layers.get(layer, {}).get("calls", 0)

    def self_s(layer):
        return layers.get(layer, {}).get("self_s", 0.0)

    m = {}
    for layer in (
        "ratfunc.poly_gcd", "ratfunc.ratfunc_ops", "ratfunc.uni_divmod", "ypoly.w_expand", "ypoly.divmod_w",
        "ypoly.ypower_table", "witness.build_bounded_monic", "witness.reduce_past_chain", "valgroup",
        "exprs.parse_poly", "presets.load_spec", "cli.main",
    ):
        m[f"{layer}.calls"] = calls(layer)
        m[f"{layer}.self_s"] = self_s(layer)
    for name in ("value", "lead_term", "cancel_lambda"):
        m[f"valuation.{name}.calls"] = calls(f"valuation.{name}")
    m["valuation.value.self_s"] = self_s("valuation.value")
    m["valuation.check_axioms.self_s"] = self_s("valuation.check_axioms")
    m["witness.corpus.self_s"] = self_s("witness.corpus")
    gcds = calls("ratfunc.poly_gcd")
    m["ratfunc.poly_gcd.useful_frac"] = summary["gcd_useful"] / gcds if gcds else 0.0
    m["ratfunc.max_coeff_bits"] = summary["max_coeff_bits"]
    m["ypoly.w_expand.cells"] = summary["cells"]
    built = summary["rows_built"]
    m["ypoly.ypower_table.useful_frac"] = summary["rows_needed"] / built if built else 0.0
    questions = summary["questions"]
    m["valuation.expansions_per_question"] = summary["question_expansions"] / questions if questions else 0.0
    m["witness.reduce_past_chain.steps"] = summary["reduce_steps"]
    m["cli.stdout_bytes"] = stdout_bytes
    return m


def is_count(name: str) -> bool:
    """Every per-layer metric except the times is a count that must repeat exactly."""
    return not name.endswith(".self_s")


def traced_run(lexval, workload, args, commands) -> tuple[dict, dict, list[str]]:
    cli = lexval.cli
    hostspeed.sample()
    run_command(cli, commands[0])
    plain, traced, tracers = [], [], []
    started = time.perf_counter()
    while True:
        plain.append(run_pass(cli, commands))
        tracer = Tracer(lexval)
        tracer.install()
        try:
            traced.append(run_pass(cli, commands))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
        if time.perf_counter() - started + plain[-1][1] + traced[-1][1] > args.seconds:
            break

    plain_passes = [results for results, _ in plain]
    traced_passes = [results for results, _ in traced]
    verdicts = check_outputs(workload, args.seed, commands, plain_passes)
    reference = [r.out for r in plain_passes[0]]
    attempted, failed, messages = count_failures(plain_passes + traced_passes, verdicts, reference)

    summaries = [tracer.summary() for tracer in tracers]
    per_pass = [
        layer_metrics(summary, sum(len(r.out.encode()) for r in results))
        for summary, results in zip(summaries, traced_passes)
    ]
    metrics = {}
    repeat = True
    for name in per_pass[0]:
        values = [p[name] for p in per_pass]
        if is_count(name):
            repeat &= len(set(values)) == 1
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    plain_s = statistics.median(sum(adjusted_ms(results)) for results in plain_passes)
    traced_s = statistics.median(sum(adjusted_ms(results)) for results in traced_passes)
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{workload.name}-seed{args.seed}.spans.tsv.gz"
    tracers[0].write_spans(spans_path)

    first = summaries[0]
    predictions = workload.predictions(metrics, first["layers"])
    details = {
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "traced_passes": len(traced),
        "counts_repeat": repeat,
        "predictions": [{"claim": text, "held": held} for text, held in predictions],
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans": first["spans"],
        "layers": first["layers"],
    }
    notes = [f"{name} = {value}" for name, value in metrics.items()]
    notes.append(f"traced passes = {len(traced)}; counts repeat across them: {str(repeat).lower()}")
    notes += [f"prediction {'held' if held else 'NOT held'}: {text}" for text, held in predictions]
    notes.append(f"fail_frac = {failed / attempted:.4f} ({failed} of {attempted} commands, traced and untraced)")
    notes.append(f"spans written to {details['spans_file']}")
    return metrics, details, notes + messages[:20]


def main(argv=None) -> int:
    lexval = import_lexval()
    from workloads import WORKLOADS  # imports lexval, so only after the guard

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    commands = workload.commands(args.seed)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    if args.trace:
        metrics, details, notes = traced_run(lexval, workload, args, commands)
    else:
        metrics, details, notes = untraced_run(lexval.cli, workload, args, commands)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise Refused(f"benchmark does not produce {missing}")

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(lexval),
        "metrics": metrics,
        **details,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2))

    print(f"# lexval benchmark: workload={workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# provenance: {json.dumps(record['provenance'])}")
    for line in notes:
        print(f"# {line}")
    correct = details["failed"] == 0 and details.get("counts_repeat", True)
    result = {
        "correct": correct,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Refused as exc:
        print(f"bench: refused: {exc}", file=sys.stderr)
        sys.exit(2)
