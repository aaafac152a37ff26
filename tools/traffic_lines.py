"""Lines of src/lexval/ that the benchmark workloads never execute.

Runs the command lines of every workload in bench/workloads.py, for seeds
0 .. N-1, through `lexval.cli.main` (by bench/run.py's `run_command`), under
the stdlib `trace` line counter, and prints for each module the executable
lines that never ran, consecutive ones as one span.  Executable lines are
those of the module's compiled code.  No docstring is listed: a function's
compiles to no code, and a module's or a class's runs with its body.
Importing lexval is counted too, so module-level lines count as run.

    python3 tools/traffic_lines.py --seeds 2

Run it from anywhere in a checkout.  It reads bench/ and writes no file:
bytecode caching is switched off before bench/ is imported.  The exit
status is 0 whatever it finds.
"""

from __future__ import annotations

import argparse
import sys
import trace
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "lexval"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]


def executable_lines(path: Path) -> list[int]:
    """The lines that carry bytecode in the compiled module, nested code included."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return sorted(lines)


def run_workloads(seeds: int) -> int:
    """Import lexval, run every workload's commands for seeds 0 .. seeds-1 and
    return how many of them failed."""
    import lexval.cli
    from run import run_command
    from workloads import WORKLOADS

    failed = 0
    for name in sorted(WORKLOADS):
        for seed in range(seeds):
            for cmd in WORKLOADS[name].commands(seed):
                failed += run_command(lexval.cli, cmd).error is not None
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=1, help="run seeds 0 .. SEEDS-1 (default 1)")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")

    # Counting starts before lexval is imported, so its module-level lines count.
    # No ignoredirs: `trace` caches what it ignores by module base name, so an
    # ignored stdlib __init__ would hide lexval/__init__.py as well.
    tracer = trace.Trace(count=1, trace=0)
    failed = tracer.runfunc(run_workloads, args.seeds)
    import lexval

    if not str(Path(lexval.__file__).resolve()).startswith(str(PKG)):
        raise SystemExit(f"lexval was imported from {lexval.__file__}, not from {PKG}")
    ran: dict[Path, set[int]] = {}
    for path, line in tracer.results().counts:
        ran.setdefault(Path(path), set()).add(line)

    print(f"# workloads: all in bench/workloads.py; seeds 0..{args.seeds - 1}; {failed} commands failed")
    total = never = 0
    for path in sorted(PKG.glob("*.py")):
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        hit = ran.get(path, set())
        missed = [line for line in lines if line not in hit]
        total += len(lines)
        never += len(missed)
        print(f"{path.relative_to(ROOT)}: {len(missed)} of {len(lines)} lines never ran")
        # Missed lines with no executable line between them make one span.
        spans, index = [], {line: k for k, line in enumerate(lines)}
        for line in missed:
            if spans and index[line] == index[spans[-1][1]] + 1:
                spans[-1][1] = line
            else:
                spans.append([line, line])
        for a, b in spans:
            span = f"{a}" if a == b else f"{a}-{b}"
            print(f"  {span:>9}  {source[a - 1].strip()}")
    print(f"# total: {never} of {total} lines never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
