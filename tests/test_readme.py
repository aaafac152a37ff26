"""README.md's examples run as written and give the results they state."""

import re
import shlex
from pathlib import Path

from lexval import ValuePair
from lexval.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang: str) -> list[list[str]]:
    """The lines of each of the README's fenced blocks in `lang`."""
    return [block.splitlines() for block in re.findall(rf"^```{lang}\n(.*?)^```$", README, re.S | re.M)]


def test_readme_python_example(capsys):
    (lines,) = _blocks("python")
    ns = {}
    exec("\n".join(lines), ns)
    printed = capsys.readouterr().out.splitlines()
    results = {}
    for line in lines:
        code, _, comment = line.partition("#")
        if comment and not line.startswith(" "):
            results[code.strip()] = (eval(code, ns), comment.strip())
    assert len(results) == 3

    got, stated = results["value(spec, f)"]
    assert got == eval(stated, {"ValuePair": ValuePair}) == ValuePair(-1, -1)
    got, stated = results['lead_term(spec, parse_poly("y^2"))']
    shown, coeff = stated.split("; .coeff is ")
    fields = eval(shown, {"LeadTerm": dict, "ValuePair": ValuePair})
    assert fields == {"i": got.i, "j": got.j, "value": got.value} == {"i": 0, "j": 0, "value": ValuePair(-6, -6)}
    assert str(got.coeff) == coeff == "-x^3"
    got, stated = results['w_expand(parse_poly("y^4"), spec.w)']
    assert stated == "the five-cell coefficient grid"
    assert len(list(got.nonzero_cells())) == 5

    # The loop prints d, deg 2(d+1) and value (-1, d-1).
    assert printed == [f"{d} {2 * (d + 1)} (-1,{d - 1})" for d in range(6)]


def test_readme_shell_examples(capsys):
    # The Command line section's block; the other sh block installs and tests.
    (block,) = [b for b in _blocks("sh") if b[0].startswith("lexval ")]
    commands = [shlex.split(line, comments=True) for line in block]
    assert len(commands) == 12
    for argv in commands:
        if argv[1:] == ["spec-check", "--spec", "my.toml"]:
            continue  # names a file the reader writes
        assert main(argv[1:]) == 0, argv
        capsys.readouterr()
