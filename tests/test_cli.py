"""CLI subcommands: golden text output, JSON parity, exit codes, determinism."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import zipfile

import pytest

from lexval import InvalidSpecError, ValuePair, bundled_config_path, load_config, load_spec, parse_poly
from lexval import cli
from lexval.cli import main
from lexval.presets import PRESETS, ConfigError, parse_config_text
from lexval.ypoly import Divisor


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, command, *argv):
    code, out, err = run_cli(capsys, command, "--json", *argv)
    assert code == 0, err
    return json.loads(out)


def test_value_golden(capsys):
    code, out, _ = run_cli(capsys, "value", "--spec", "ex55", "y^2+x^3")
    assert code == 0
    assert out == "(-1,-1)\n"


def test_value_json_parity(capsys):
    payload = run_json(capsys, "value", "--spec", "ex55", "y^2+x^3")
    assert payload == {"input": "y^2+x^3", "value": "(-1,-1)"}


def test_expand_golden(capsys):
    code, out, _ = run_cli(capsys, "expand", "--spec", "ex55", "y^4")
    assert code == 0
    assert out.splitlines() == [
        "m = 2",
        "rows = 3",
        "f[0][0] = x^6 - x",
        "f[0][1] = (2*x^5 - 1)/x^3",
        "f[1][0] = (-2*x^5 + 1)/x^2",
        "f[1][1] = -2/x",
        "f[2][0] = 1",
        "f[2][1] = 0",
    ]


def test_expand_json_parity(capsys):
    payload = run_json(capsys, "expand", "--spec", "ex55", "y^4")
    assert payload["m"] == "2"
    assert payload["rows"] == [
        ["x^6 - x", "(2*x^5 - 1)/x^3"],
        ["(-2*x^5 + 1)/x^2", "-2/x"],
        ["1", "0"],
    ]


def test_witness_golden(capsys):
    code, out, _ = run_cli(capsys, "witness", "--spec", "ex55", "--dmax", "5")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[0] == "d=0 deg_y=2 value=(-1,-1)"
    assert lines[-1] == "d=5 deg_y=12 value=(-1,4)"


def test_witness_json_parity(capsys):
    payload = run_json(capsys, "witness", "--spec", "ex55", "--dmax", "2")
    assert [e["value"] for e in payload["sequence"]] == ["(-1,-1)", "(-1,0)", "(-1,1)"]
    assert [e["deg_y"] for e in payload["sequence"]] == ["2", "4", "6"]
    # printed polynomials re-parse to actual polynomials
    for entry in payload["sequence"]:
        parse_poly(entry["poly"])


# sha256 of the stdout of `witness --spec ex55 --dmax 20 --json`, recorded
# when every element of the sequence was valued by division by w.
WITNESS_DMAX20_JSON = "994eb7d91fb09403d86a038aacc4850d2e6ea6718a59191233df8933b1cf35e0"


def test_witness_dmax20_json_digest(capsys):
    code, out, _ = run_cli(capsys, "witness", "--spec", "ex55", "--dmax", "20", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == WITNESS_DMAX20_JSON


def test_lead_and_lambda(capsys):
    code, out, _ = run_cli(capsys, "lead", "y^2")
    assert code == 0
    assert out == "i = 0\nj = 0\ncoeff = -x^3\nvalue = (-6,-6)\n"
    code, out, _ = run_cli(capsys, "lead", "y^5 + x^2 y")
    assert code == 0
    assert out == "i = 0\nj = 1\ncoeff = (x^10 + x^6 - 3*x^5 + 1)/x^4\nvalue = (-15,-15)\n"
    code, out, _ = run_cli(capsys, "lambda", "y^2", "--", "-x^3")
    assert code == 0
    assert out == "-1\n"


def test_census_golden(capsys):
    for ell in range(5):
        code, out, _ = run_cli(capsys, "census", "--spec", "ex55", "--ell", str(ell))
        assert code == 0
        assert out == f"classes = {ell + 1}\n"


# sha256 of the stdout of `ypower --emax 6`, text and --json, recorded when
# every table cell was reduced as the table was built.
YPOWER_EMAX6 = {
    "ex55": ("ab66880f11daab96d3f226721dd878abf4cbf420dddb242705ff8610fe052787",
             "3ec94231c990f0a4a797e6ae5a6a28fc0f23b44f12518689733aadb31227ab40"),
    "ex52": ("9b93e6257ecec6bfa76a96b86125c3e27c797f162a6ba6f72c4d10abd20ab1d7",
             "94677530bef69b6bf3fdb0aaf4fa778e6fa8e5a26114ac3eb58eec632b1843ef"),
}


def test_ypower_golden(capsys):
    code, out, _ = run_cli(capsys, "ypower", "--emax", "2")
    assert code == 0
    assert out.splitlines()[-3:] == [
        "y[2][0] = -x^3",
        "y[2][1] = -1/x",
        "y[2][2] = 1",
    ]
    for spec, digests in YPOWER_EMAX6.items():
        outs = [run_cli(capsys, "ypower", "--spec", spec, "--emax", "6", *flag) for flag in ((), ("--json",))]
        assert [code for code, _, _ in outs] == [0, 0]
        assert tuple(hashlib.sha256(out.encode()).hexdigest() for _, out, _ in outs) == digests


def test_ypower_warm_store_prints_what_a_cold_store_prints(capsys, monkeypatch):
    # ypower reads its grids from the spec's store, which lives as long as the
    # spec.  A fresh preset spec starts with an empty store; after witness has
    # grown that store, ypower prints the same bytes, and the recorded
    # digests still hold.
    for name, digests in YPOWER_EMAX6.items():
        monkeypatch.setitem(PRESETS, name, parse_config_text(bundled_config_path(name).read_text()))
        divisor = load_spec(name).divisor
        assert len(divisor._ypow) == 1 and not divisor._monic
        runs = [("ypower", "--spec", name, "--emax", "40", *flag) for flag in ((), ("--json",))]
        cold = [run_cli(capsys, *argv) for argv in runs]
        assert [code for code, _, _ in cold] == [0, 0]
        held = len(divisor._ypow) + len(divisor._monic)
        run_cli(capsys, "witness", "--spec", name, "--dmax", "25")
        assert len(divisor._ypow) + len(divisor._monic) > held
        assert [run_cli(capsys, *argv) for argv in runs] == cold
        outs = [run_cli(capsys, "ypower", "--spec", name, "--emax", "6", *flag)[1] for flag in ((), ("--json",))]
        assert tuple(hashlib.sha256(out.encode()).hexdigest() for out in outs) == digests


def test_image_golden(capsys):
    code, out, _ = run_cli(capsys, "image", "--spec", "ex52", "--mode", "cone")
    assert code == 0
    assert out == (
        "mode = cone\nattained_count = 31\nviolation_count = 0\nclass_count = 4\n"
        "minus_one_zero_attained = false\nok = true\n"
    )
    # value(w) = beta = (0,-1) under ex52; the ex55-shaped monoid needs s >= 1 in s*alpha + t*beta.
    code, out, _ = run_cli(
        capsys, "image", "--spec", "ex52", "--mode", "ex55", "--seed", "18",
        "--random-count", "60", "--max-deg-x", "3", "--max-deg-y", "3",
    )
    assert code == 0
    assert out == (
        "mode = ex55\nattained_count = 15\nviolation_count = 1\nclass_count = 3\n"
        "minus_one_zero_attained = false\nok = false\n"
        "violation: value=(0,-1) poly=-2*y^2 - 2*x^3\n"
    )


def test_image_json(capsys):
    payload = run_json(
        capsys, "image", "--spec", "ex52", "--mode", "cone",
        "--max-deg-x", "4", "--max-deg-y", "4", "--random-count", "100",
    )
    assert payload["ok"] is True
    assert payload["violation_count"] == "0"
    assert payload["minus_one_zero_attained"] is False
    assert int(payload["attained_count"]) == len(payload["attained"])


def test_axioms_deterministic_under_seed(capsys):
    args = ("axioms", "--count", "30", "--pairs", "40", "--seed", "7")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2 == "pairs_checked = 40\nx_pairs_checked = 40\nviolations = 0\nok = true\n"
    _, out3, _ = run_cli(capsys, *args[:-1], "8")
    assert out1.splitlines()[-1] == out3.splitlines()[-1] == "ok = true"


def test_image_deterministic_under_seed(capsys):
    args = ("image", "--random-count", "60", "--seed", "5", "--json")
    code, out1, _ = run_cli(capsys, *args)
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_structure_command(capsys):
    payload = run_json(capsys, "structure", "--spec", "ex55", "--random-count", "40")
    assert payload["ok"] is True
    assert payload["divisor_value"] == "(0,1)"
    code, out, _ = run_cli(capsys, "structure", "--spec", "ex55", "--random-count", "40")
    assert code == 0
    assert out == (
        "low_degree_checked = 54\nlow_degree_violations = 0\ndivisor_value = (0,1)\n"
        "divisor_escapes = true\nrational_checked = 40\nrational_violations = 0\nok = true\n"
    )


def test_target_command(capsys):
    code, out, _ = run_cli(capsys, "target", "--i", "3", "--j", "2")
    assert code == 0
    assert out == (
        "value = (-3,-1)\n"
        "poly = y^10 + 5*x^3*y^8 + (10*x^6 + 3*x)*y^6 + 2*y^5 + (10*x^9 + 9*x^4)*y^4"
        " + 4*x^3*y^3 + (5*x^12 + 9*x^7)*y^2 + 2*x^6*y + x^15 + 3*x^10\n"
    )


def test_cli_binds_no_private_name_of_another_module():
    # Each handler calls the library's public functions: cli imports no
    # underscore name from another lexval module.
    import ast
    import inspect

    tree = ast.parse(inspect.getsource(cli))
    private = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("lexval"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_spec_check_valid(capsys):
    payload = run_json(capsys, "spec-check", "--spec", "ex52")
    assert payload == {
        "valid": True, "violations": [], "m": "2", "n": "3",
        "w": "y^2 + x^3", "alpha": "(-1,-1)", "beta": "(0,-1)",
    }
    code, out, _ = run_cli(capsys, "spec-check", "--spec", "ex52")
    assert code == 0
    assert out == "valid = true\nm = 2\nn = 3\nw = y^2 + x^3\nalpha = (-1,-1)\nbeta = (0,-1)\n"


def test_lead_lambda_census_ypower_json_parity(capsys):
    payload = run_json(capsys, "lead", "y^2")
    assert payload == {"input": "y^2", "i": "0", "j": "0", "coeff": "-x^3", "value": "(-6,-6)"}
    payload = run_json(capsys, "lambda", "y^2", "--", "-x^3")
    assert payload == {"f": "y^2", "g": "-x^3", "lambda": "-1"}
    payload = run_json(capsys, "census", "--ell", "3")
    assert payload == {"ell": "3", "family": "h_family", "classes": "4"}
    payload = run_json(capsys, "ypower", "--emax", "1")
    assert payload["entries"] == [
        {"e": "0", "t": "0", "coeff": "1"},
        {"e": "1", "t": "0", "coeff": "0"},
        {"e": "1", "t": "1", "coeff": "1"},
    ]


def test_axioms_json_shape(capsys):
    payload = run_json(capsys, "axioms", "--count", "25", "--pairs", "30", "--seed", "3")
    assert payload["ok"] is True
    assert payload["pairs_checked"] == "30"
    assert payload["violations"] == {}


def test_spec_check_invalid_config(tmp_path, capsys):
    bad = bundled_config_path("ex55").read_text().replace("[0, 1]", "[0, 2]")
    path = tmp_path / "bad.toml"
    path.write_text(bad)
    code, out, err = run_cli(capsys, "spec-check", "--spec", str(path))
    assert code == 1
    assert out == "valid = false\nviolation: beta_divisible\n"
    assert err == ""
    code, out, err = run_cli(capsys, "spec-check", "--json", "--spec", str(path))
    assert code == 1
    assert json.loads(out) == {"valid": False, "violations": ["beta_divisible"]}
    assert err == ""


def test_domain_error_exit_codes(capsys):
    code, _, err = run_cli(capsys, "value", "1/y")
    assert code == 1
    assert "denominator contains y" in err
    for source in ("nosuch", "", "/"):
        code, _, err = run_cli(capsys, "value", "--spec", source, "x")
        assert code == 1
        assert err == f"error: no preset or config file named {source!r}\n"
    code, _, err = run_cli(capsys, "value", "--", "-" * 3000 + "x")
    assert code == 1
    assert err == "error: expression nested too deeply at offset 100\n"
    code, _, err = run_cli(capsys, "value", "y^3000")
    assert code == 1
    assert err == "error: degree too large at offset 2\n"
    code, _, err = run_cli(capsys, "value", "2^99999999999")
    assert code == 1
    assert err == "error: number too large at offset 2\n"
    code, _, err = run_cli(capsys, "value", "x + " + "7" * 5000)
    assert code == 1
    assert err == "error: number too large at offset 4\n"
    # Only ASCII digits make an integer.
    code, _, err = run_cli(capsys, "value", "--spec", "ex55", "x²")
    assert code == 1
    assert err == "error: unexpected '²' at offset 1\n"
    code, _, err = run_cli(capsys, "value", "٣*y")
    assert code == 1
    assert err == "error: unexpected '٣' at offset 0\n"


# Inputs whose lead-cell reduction or parser sum took 7-23 s before gcds were
# taken over Z[x].  The lead digests are of the output of that older code.
REDUCTION_BOUND = [
    ("y^80/(x^2+x+1)^20 + y^79/(x+2)^24", "(-189,-189)",
     "771f99aaebccfb3c76de9ead3f20517d73c384f90931f874a451faea6f79db47"),
    ("1/(x^2+x+1)^50 + 1/(x+2)^60", "(120,120)",
     "441353f2f027b060791b737cb8f35b518b736f964a54fbd1094263f1cce732c6"),
]


@pytest.mark.parametrize("expr,val,lead_sha256", REDUCTION_BOUND, ids=["ex55_lead_cell", "parser_sum"])
def test_reduction_bound_inputs(capsys, expr, val, lead_sha256):
    assert run_cli(capsys, "value", expr) == (0, val + "\n", "")
    code, out, _ = run_cli(capsys, "lead", expr)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == lead_sha256


# Neighbours in this sequence differ in what the parser sets: spec-check's
# `load`, --json, echoed arguments, help and usage errors.
SEQUENCE = [
    ["spec-check", "--spec", "ex52"],
    ["value", "y^2+x^3"],
    ["value", "--json", "y^2"],
    ["value", "y^2"],
    ["lambda", "--spec", "ex52", "y^2", "--", "-x^3"],
    ["spec-check", "--json"],
    ["census", "--ell", "3", "--json"],
    ["census"],
    ["lead", "y^3/(x^2+1) + x*y"],
    ["-h"],
    ["value", "-h"],
    ["census", "--ell", "3"],
    ["bogus"],
    ["witness", "--dmax", "-1"],
    ["axioms", "--count", "5", "--pairs", "5"],
]


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_consecutive_main_calls_match_fresh_calls(capsys):
    # main builds its parser once per process; a command run after others
    # prints what it prints with a newly built parser.
    fresh = []
    for argv in SEQUENCE:
        cli._parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
    for order in (SEQUENCE, SEQUENCE[::-1]):
        cli._parser.cache_clear()
        outcomes = {tuple(argv): _outcome(capsys, argv) for argv in order}
        assert [outcomes[tuple(argv)] for argv in SEQUENCE] == fresh
        assert cli._parser.cache_info().misses == 1


def test_main_looks_up_spec_loader_on_each_call(capsys, monkeypatch):
    # The cached parser holds no loader, so a rebinding of cli.load_spec (or
    # cli.load_config) after the parser is built is the one main calls.
    cli._parser()
    loaded = []

    def counted(load):
        def wrapper(source):
            loaded.append((load.__name__, source))
            return load(source)

        return wrapper

    monkeypatch.setattr(cli, "load_spec", counted(load_spec))
    monkeypatch.setattr(cli, "load_config", counted(load_config))
    assert run_cli(capsys, "value", "--spec", "ex52", "y")[:2] == (0, "(-3,-3)\n")
    assert run_cli(capsys, "spec-check", "--spec", "ex55")[0] == 0
    assert loaded == [("load_spec", "ex52"), ("load_config", "ex55")]


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["census"])  # missing required --ell
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["value", "--seed", "1", "y"],
        ["expand", "--seed", "1", "y"],
        ["lead", "--seed", "1", "y"],
        ["lambda", "--seed", "1", "y", "y"],
        ["witness", "--seed", "1"],
        ["spec-check", "--seed", "1"],
        ["ypower", "--seed", "1", "--emax", "2"],
        ["target", "--seed", "1", "--i", "1", "--j", "1"],
    ],
)
def test_seed_is_refused_where_nothing_is_drawn(capsys, argv):
    # Only axioms, image, structure and census draw a random corpus, so only
    # they take --seed; any other subcommand refuses it as a usage error.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --seed" in captured.err


def test_seed_is_taken_where_a_corpus_is_drawn(capsys):
    for argv in (
        ["axioms", "--count", "5", "--pairs", "5"],
        ["image", "--random-count", "5"],
        ["structure", "--random-count", "5"],
        ["census", "--ell", "3", "--family", "corpus"],
    ):
        assert main([*argv, "--seed", "1"]) == 0, argv
        assert capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["axioms", "--count", "-1"],
        ["axioms", "--pairs", "-1"],
        ["axioms", "--max-deg", "-1"],
        ["image", "--max-deg-x", "-1"],
        ["image", "--max-deg-y", "-1"],
        ["image", "--random-count", "-3"],
        ["structure", "--max-deg-x", "-1"],
        ["structure", "--max-deg-y", "-1"],
        ["structure", "--random-count", "-1"],
        ["census", "--ell", "-1"],
        ["witness", "--dmax", "-1"],
        ["ypower", "--emax", "-1"],
    ],
)
def test_negative_counts_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {argv[1]}: invalid nonnegative int value: '{argv[2]}'" in captured.err


def test_bundled_configs_match_presets():
    for name, cfg in PRESETS.items():
        path = bundled_config_path(name)
        assert path.exists()
        assert parse_config_text(path.read_text()) == cfg


def test_bundled_configs_read_from_a_zipped_install(tmp_path):
    # A zip of the package on PYTHONPATH: the presets and bundled_config_path
    # read the data files through the archive.
    package = pathlib.Path(cli.__file__).resolve().parent
    archive = tmp_path / "lexval.zip"
    with zipfile.ZipFile(archive, "w") as z:
        for path in sorted(package.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                z.write(path, path.relative_to(package.parent))
    script = (
        "import lexval\n"
        "from lexval.presets import parse_config_text\n"
        f"assert lexval.__file__.startswith({str(archive)!r}), lexval.__file__\n"
        "for name, cfg in sorted(lexval.PRESETS.items()):\n"
        "    path = lexval.bundled_config_path(name)\n"
        "    assert path.exists()\n"
        "    assert parse_config_text(path.read_text()) == cfg\n"
        "    print(name, lexval.load_spec(name).m)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(archive)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ex52 2\nex55 2\n"


def test_config_loading_from_file(tmp_path):
    path = tmp_path / "ex55.toml"
    path.write_text(bundled_config_path("ex55").read_text())
    assert load_config(str(path)) == PRESETS["ex55"]
    spec = load_spec(str(path))
    assert spec == load_spec("ex55")


def test_config_errors(tmp_path):
    text = bundled_config_path("ex55").read_text()
    assert parse_config_text("# a comment\n\n" + text) == PRESETS["ex55"]
    with pytest.raises(ConfigError, match="line 7: expected key = value"):
        parse_config_text(text + "m 2\n")
    with pytest.raises(ConfigError, match="missing keys"):
        parse_config_text("name = \"x\"\n")
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config_text(text + "extra = 3\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text(text + "m = 2\n")
    with pytest.raises(ConfigError, match="integer pair"):
        parse_config_text(text.replace("[0, 1]", "[a, b]"))
    with pytest.raises(ConfigError, match="m has the wrong type"):
        parse_config_text(text.replace("m = 2", 'm = "2"'))
    with pytest.raises(ConfigError, match="exactly two integers"):
        parse_config_text(text.replace("[-1, -1]", "[1, 2, 3]"))
    with pytest.raises(ConfigError, match="cannot parse value 'x' for n"):
        parse_config_text(text.replace("n = 3", "n = x"))
    # The empty string names the working directory; neither is a file.
    for source in ("", str(tmp_path)):
        with pytest.raises(ConfigError, match="no preset or config file named"):
            load_config(source)


def test_presets_are_the_bundled_files():
    # test_bundled_configs_match_presets passes on an empty PRESETS.
    assert sorted(PRESETS) == ["ex52", "ex55"]
    for name, cfg in PRESETS.items():
        assert cfg.name == name
        assert load_config(name) is cfg


def test_preset_spec_is_built_once(capsys, cleared):
    assert load_spec("ex55") is load_spec("ex55")
    w = load_spec("ex55").w
    for _ in range(2):
        assert main(["value", "--spec", "ex55", "y^3/(x+2) + x"]) == 0
    assert capsys.readouterr().out == "(-7,-7)\n" * 2
    assert sum(f == w for f in cleared) <= 1


def test_edited_config_file_is_read_again(tmp_path):
    path = tmp_path / "spec.toml"
    path.write_text(bundled_config_path("ex55").read_text())
    assert load_spec(str(path)).beta == ValuePair(0, 1)
    path.write_text(bundled_config_path("ex52").read_text())
    assert load_spec(str(path)).beta == ValuePair(0, -1)


def test_invalid_config_lists_every_violation_on_every_use(tmp_path, capsys):
    path = tmp_path / "bad.toml"
    path.write_text('name = "bad"\nm = 2\nn = 4\nw = "2y^2 + x^3"\nalpha = [-2, -2]\nbeta = [0, 2]\n')
    names = ["m_n_not_coprime", "w_not_monic_in_y", "alpha_divisible", "beta_divisible"]
    for _ in range(2):
        assert run_cli(capsys, "spec-check", "--spec", str(path)) == (
            1, "valid = false\n" + "".join(f"violation: {v}\n" for v in names), ""
        )
    cfg = load_config(str(path))
    for _ in range(2):
        with pytest.raises(InvalidSpecError) as err:
            cfg.spec
        assert list(err.value.violations) == names


class _Reached(Exception):
    """Raised in place of the algebra a command would start."""


# (command, flag, bound).  ex55 has m = 2 and witness builds y-degree
# (dmax + 1) * m.
DEGREE_FLAGS = [
    ("ypower", "--emax", 200),
    ("witness", "--dmax", 99),
    ("census", "--ell", 200),
    ("axioms", "--max-deg", 200),
    ("image", "--max-deg-x", 200),
    ("image", "--max-deg-y", 200),
    ("structure", "--max-deg-x", 200),
    ("structure", "--max-deg-y", 200),
]


def _refuse_algebra(monkeypatch):
    def reached(*args, **kwargs):
        raise _Reached

    for name in ("increasing_value_sequence", "quotient_census", "witness_for_value",
                 "random_xy_poly", "sample_image", "structure_checks"):
        monkeypatch.setattr(cli, name, reached)
    # ypower's algebra starts when it reads the first grid from the store.
    monkeypatch.setattr(Divisor, "ypower", reached)


def _check_bound(capsys, at, above, refusal):
    # At the bound the command starts its algebra; above it, it does not.
    with pytest.raises(_Reached):
        main(at)
    capsys.readouterr()
    assert run_cli(capsys, *above) == (1, "", f"error: {refusal} (degree limit 200)\n")


@pytest.mark.parametrize("command,flag,bound", DEGREE_FLAGS, ids=[f"{c} {f}" for c, f, _ in DEGREE_FLAGS])
def test_degree_flags_above_bound_refused_before_algebra(capsys, monkeypatch, command, flag, bound):
    _refuse_algebra(monkeypatch)
    at, above = [command, flag, str(bound)], [command, flag, str(bound + 1)]
    _check_bound(capsys, at, above, f"{flag} = {bound + 1} exceeds its bound {bound}")


def test_target_degree_bound(capsys, monkeypatch):
    # The witness has y-degree (i + j) * m.
    _refuse_algebra(monkeypatch)
    for at, above in (((1, 99), (1, 100)), ((100, 0), (101, 0))):
        at, above = (["target", "--i", str(i), "--j", str(j)] for i, j in (at, above))
        _check_bound(capsys, at, above, "--i + --j = 101 exceeds its bound 100")


def test_degree_bounds_follow_m(tmp_path, capsys, monkeypatch):
    # With m = 3 the witness builds y-degree (dmax + 1) * 3, the target (i + j) * 3.
    cfg = tmp_path / "m3.toml"
    cfg.write_text(
        'name = "m3"\nm = 3\nn = 2\nw = "y^3 + x*y/(2*x^2 + 2) + 3*x^2/2"\nalpha = [-1, -1]\nbeta = [0, 1]\n'
    )
    _refuse_algebra(monkeypatch)
    spec = ["--spec", str(cfg)]
    _check_bound(capsys, ["witness", "--dmax", "65", *spec], ["witness", "--dmax", "66", *spec],
                 "--dmax = 66 exceeds its bound 65")
    _check_bound(capsys, ["target", "--i", "1", "--j", "65", *spec],
                 ["target", "--i", "2", "--j", "65", *spec], "--i + --j = 67 exceeds its bound 66")


def test_closed_stdout_ends_without_traceback():
    # The JSON table (about 140 kB) outgrows a pipe's buffer, so the command
    # is still writing when the reader closes the pipe after 50 bytes.
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "lexval.cli", "ypower", "--spec", "ex55", "--emax", "40", "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    head = proc.stdout.read(50)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 1
    assert head.startswith(b"{")
    assert err == b""
