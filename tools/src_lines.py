"""All lines and code lines of each module of src/lexval/, and in total.

Code lines leave out blank lines, comment lines and docstrings (those of
the module, its classes and its functions), so a change that only deletes
docstrings shows no fall in code lines.  Given a git ref, each count is
followed by its difference from the same file at that ref; a module that
exists on one side only counts 0 on the other.

    python3 tools/src_lines.py            # the working tree
    python3 tools/src_lines.py main       # and the difference from main

Run it from anywhere in a checkout.  It writes no file, and its exit status
is 0 unless git fails to read the ref.
"""

from __future__ import annotations

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = "src/lexval"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def counts(text: str) -> tuple[int, int]:
    """(all lines, code lines) of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            doc = isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
            if doc and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstrings)


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True).stdout


def at_ref(ref: str) -> dict[str, tuple[int, int]]:
    """Counts per module of src/lexval/ as committed at ref."""
    names = git("ls-tree", "--name-only", f"{ref}:{PKG}").split()
    return {name: counts(git("show", f"{ref}:{PKG}/{name}")) for name in names if name.endswith(".py")}


def main(argv: list[str]) -> int:
    now = {p.name: counts(p.read_text()) for p in sorted((ROOT / PKG).glob("*.py"))}
    then = at_ref(argv[0]) if argv else None
    rows = sorted(set(now) | set(then or {}))
    header = f"{'module':<16}{'lines':>8}{'code':>8}"
    print(header + (f"{'d_lines':>10}{'d_code':>10}   against {argv[0]}" if argv else ""))
    total_now, total_then = [0, 0], [0, 0]
    for name in rows + ["total"]:
        if name == "total":
            cur, old = total_now, total_then
        else:
            cur, old = now.get(name, (0, 0)), (then or {}).get(name, (0, 0))
            total_now = [a + b for a, b in zip(total_now, cur)]
            total_then = [a + b for a, b in zip(total_then, old)]
        line = f"{name:<16}{cur[0]:>8}{cur[1]:>8}"
        if argv:
            line += f"{cur[0] - old[0]:>+10}{cur[1] - old[1]:>+10}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
