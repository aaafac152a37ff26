"""Record the stdout digests that runs at the default seed are checked against.

    python3 bench/record_digests.py

Runs one pass of every workload at the default seed, refuses to record a
pass whose outputs fail the workload's own checks, and writes one sha256 per
command to bench/digests.json.  Run it only at a commit whose outputs are
known good; a later change that alters any output then shows as failed
commands at the default seed.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run


def main() -> int:
    lexval = run.import_lexval()
    from workloads import WORKLOADS

    digests = {}
    for name, workload in sorted(WORKLOADS.items()):
        commands = workload.commands(run.DEFAULT_SEED)
        results, _ = run.run_pass(lexval.cli, commands)
        problems = [r.error for r in results if r.error]
        problems += [v for v in workload.check(commands, [r.out for r in results]) if v]
        if problems:
            print(f"{name}: not recording, outputs fail their checks: {problems[:5]}", file=sys.stderr)
            return 1
        digests[name] = [hashlib.sha256(r.out.encode()).hexdigest() for r in results]
        print(f"{name}: {len(commands)} digests")
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
