import argparse
import ast
import functools
import hashlib
import importlib
import inspect
import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from hadamard_bvp import __version__, cli, coefficient, load_table, parse_expr, pretty, validate
from hadamard_bvp.errors import DomainInvalid, ExpressionSyntaxError, NonFiniteResult
from hadamard_bvp.expression import Num
from hadamard_bvp.cli import GRID_MAX_N, _build_parser, _to_json, main
from hadamard_bvp.grid import _green_xy
from hadamard_bvp.selftest import EX_A_REF

E_STR = "2.718281828459045"
PP_A = ["--sigma", "1.75", "--kappa", "0.5", "--t1", "1", "--t2", E_STR]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_human(capsys):
    code, out, err = run(["bound", *PP_A], capsys)
    assert code == 0
    assert err == ""
    assert "command: bound" in out
    # Prefix match: the final digits vary by an ulp across libm builds.
    assert "bound = 2.354902713549" in out
    assert "eigen_bound = 4.046386540481" in out


def test_bound_json_round_trip(capsys):
    code, out, _ = run(["bound", *PP_A, "--json"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["command"] == "bound"
    assert obj["version"] == __version__
    assert obj["params"]["sigma"] == 1.75
    assert obj["payload"]["bound"] == pytest.approx(EX_A_REF["bound"], rel=1e-13)
    assert obj["payload"]["gamma_sk"] == pytest.approx(EX_A_REF["gamma_sk"], rel=1e-13)
    # Serialization is canonical: parsing and re-emitting reproduces the bytes.
    assert _to_json(obj) == out.strip()


def test_check_expression(capsys):
    code, out, _ = run(["check", *PP_A, "--q-expr", "ln(t)", "--json"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["payload"]["verdict"] == "NoNontrivialSolution"
    assert obj["payload"]["q_integral"] == pytest.approx(1.0, abs=1e-9)


def test_check_constant(capsys):
    code, out, _ = run(["check", *PP_A, "--q-const", "10"], capsys)
    assert code == 0
    assert "verdict = Inconclusive" in out
    code, out, _ = run(["check", *PP_A, "--q-const", "10", "--json"], capsys)
    obj = json.loads(out)
    assert obj["payload"]["q_integral"] == pytest.approx(10.0 * (math.e - 1.0), rel=1e-9)


def test_check_table(tmp_path, capsys):
    path = tmp_path / "q.csv"
    path.write_text("t,q\n1.0,0.5\n3.0,0.5\n")
    code, out, _ = run(["check", *PP_A, "--q-table", str(path), "--json"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["payload"]["verdict"] == "NoNontrivialSolution"
    assert obj["payload"]["q_integral"] == pytest.approx(0.5 * (math.e - 1.0), rel=1e-9)


def test_green_eval(capsys):
    code, out, _ = run(["green", "eval", *PP_A, "--t", "1", "--s", "2"], capsys)
    assert code == 0
    assert "value = 0" in out
    root_e = str(math.sqrt(math.e))
    code, out, _ = run(
        ["green", "eval", *PP_A, "--t", root_e, "--s", root_e, "--json"], capsys
    )
    obj = json.loads(out)
    assert obj["payload"]["value"] == pytest.approx(EX_A_REF["diag_value"], rel=1e-12)


def test_green_max(capsys):
    code, out, _ = run(["green", "max", *PP_A, "--json"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["payload"]["branch"] == "LeftEdge"
    assert obj["payload"]["max_abs_g"] == pytest.approx(EX_A_REF["max_abs_g"], rel=1e-12)
    assert obj["payload"]["x2"] == pytest.approx(EX_A_REF["x2"], rel=1e-12)


def test_green_grid(tmp_path, capsys):
    out_path = tmp_path / "grid.csv"
    code, out, _ = run(
        ["green", "grid", *PP_A, "--n", "12", "--out", str(out_path)], capsys
    )
    assert code == 0
    assert f"rows = {12 * 12}" in out
    raw = out_path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode("ascii").split("\n")
    assert lines[0] == "t,s,G"
    assert lines[-1] == ""  # trailing newline
    rows = [line.split(",") for line in lines[1:-1]]
    assert len(rows) == 144
    values = [(float(t), float(s), float(g)) for t, s, g in rows]
    assert values[0] == (1.0, 1.0, 0.0)
    # Boundary rows vanish, interior values are positive.
    for t, s, g in values:
        if t == 1.0 or s == values[-1][1]:
            assert g == 0.0
    assert max(g for _, _, g in values) > 0.3


# SHA-256 of `green grid --n 64` for the paper's example; any change to a
# digit of G shows here.  It is what the numpy evaluation wrote with numpy's
# AVX-512 kernels switched off (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
# AVX512_SPR"); the grid is now evaluated on floats, so it no longer depends
# on the CPU's SIMD features.
GRID_64_SHA256 = "ef6922068e9beb4a6110a882e6c59ba3f9018d81a00f11f7decbeb8ceab22811"


def test_green_grid_bytes_are_frozen(tmp_path, capsys):
    out_path = tmp_path / "grid.csv"
    code, _, _ = run(["green", "grid", *PP_A, "--n", "64", "--out", str(out_path)], capsys)
    assert code == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == GRID_64_SHA256


@pytest.mark.parametrize("seed, width", [(0, 1e-9), (1, 50.0), (2, 0.3), (3, 4.0)])
def test_green_grid_rows_match_the_array_evaluation(tmp_path, capsys, seed, width):
    # The CSV (floats) and the brute-force zoom (grid._green_xy, arrays)
    # evaluate G by separate code; on one grid they agree to rounding.
    # width = ln(t2/t1): 1e-9 and 50 are the narrow and the wide interval.
    rng = random.Random(seed)
    sigma = rng.uniform(1.02, 2.0)
    kappa = (sigma - 1.0) * rng.uniform(0.02, 0.98)
    t1 = 10.0 ** rng.uniform(-3.0, 3.0)
    p = validate(sigma, kappa, t1, t1 * math.exp(width))
    n = 40
    out_path = tmp_path / "grid.csv"
    argv = ["green", "grid", "--sigma", repr(p.sigma), "--kappa", repr(p.kappa),
            "--t1", repr(p.t1), "--t2", repr(p.t2), "--n", str(n), "--out", str(out_path)]
    code, _, _ = run(argv, capsys)
    assert code == 0
    lines = out_path.read_text().splitlines()[1:]
    written = np.array([float(line.split(",")[2]) for line in lines]).reshape(n, n)
    us = np.linspace(0.0, p.L, n)
    expected = _green_xy(p, us[:, None], us[None, :])
    scale = np.max(np.abs(expected))
    assert scale > 0.0
    assert np.max(np.abs(written - expected)) <= 1e-13 * scale


def test_green_grid_never_writes_a_non_finite_value(tmp_path, capsys):
    # On [1e-310, 2e-310] |G| exceeds the float range inside the square, as
    # `green max` and `green eval` there report with exit 3.
    out_path = tmp_path / "grid.csv"
    argv = ["green", "grid", "--sigma", "1.75", "--kappa", "0.5", "--t1", "1e-310",
            "--t2", "2e-310", "--n", "4", "--out", str(out_path)]
    code, out, err = run(argv, capsys)
    assert code == 3
    assert out == ""
    assert "G is not finite" in err
    values = [float(v) for line in out_path.read_text().splitlines()[1:] for v in line.split(",")]
    assert values and all(map(math.isfinite, values))


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize(
    "command, key",
    [(["green", "max"], "omega"), (["green", "eval", "--t", "1.5e-310", "--s", "1.2e-310"], "value")],
    ids=["max", "eval"],
)
def test_non_finite_payload_is_never_printed(command, key, as_json, capsys):
    # On [1e-310, 2e-310] omega and G(1.5e-310, 1.2e-310) exceed the float
    # range; `main` checks the payload before it prints anything.
    argv = [*command, "--sigma", "1.75", "--kappa", "0.5", "--t1", "1e-310", "--t2", "2e-310"]
    code, out, err = run(argv + ["--json"] * as_json, capsys)
    assert (code, out, err) == (3, "", f"error: {key} is not finite\n")


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize(
    "payload, key",
    [({"omega": 1.0, "rows": [[1.0, math.inf]]}, "rows"),
     ({"total": 1, "checks": [{"name": "x", "ok": True, "detail": math.nan}]}, "detail")],
    ids=["list", "dict"],
)
def test_nested_non_finite_value_is_never_printed(monkeypatch, payload, key, as_json, capsys):
    # The text report prints no list, yet it is rendered from the same JSON
    # report, so a value nested in one is caught too, named by its key.
    help_line, flag_groups, _ = cli._LEAVES[("bound",)]
    monkeypatch.setitem(cli._LEAVES, ("bound",), (help_line, flag_groups, lambda p, args: (payload, 0)))
    code, out, err = run(["bound", *PP_A] + ["--json"] * as_json, capsys)
    assert (code, out, err) == (3, "", f"error: {key} is not finite\n")


def test_green_grid_rejects_a_last_point_beyond_the_float_range(tmp_path, capsys):
    # t2 is the largest float and t1 e^L rounds above it, so the last t and
    # s would print as inf; nothing is written.
    out_path = tmp_path / "grid.csv"
    argv = ["green", "grid", "--sigma", "1.75", "--kappa", "0.5", "--t1", "6.864336754504866e+107",
            "--t2", "1.7976931348623157e+308", "--n", "3", "--out", str(out_path)]
    code, out, err = run(argv, capsys)
    assert code == 3
    assert out == ""
    assert "not finite" in err
    assert not out_path.exists()


# SHA-256 of `eigen --json --n 400` stdout for the paper's example.  The
# Nystrom matrix and the Arnoldi solve go through numpy's SIMD kernels and
# OpenBLAS, so the digest is recorded per dispatch key (the `dispatch_key`
# fixture); a machine whose key has none fails.
EIGEN_400_SHA256 = {
    "power=X86_V4 exp=X86_V4 blas=SkylakeX":
        "f657a9f524f668da84f3d64776ba906d81894af07568cf316a27f5770519b897",
    "power=X86_V4 exp=X86_V4 blas=Haswell":
        "9b87b29bf84da58886886a3ae96110703478e265f8b4cc990baa6c26e4e9f840",
    "power=baseline(X86_V2) exp=X86_V3 blas=SkylakeX":
        "83b97e42c1cc6ae478c21b0adc73e1c1970df96e3c6083773b93db7d9e7ef689",
    "power=baseline(X86_V2) exp=X86_V3 blas=Haswell":
        "302998d491802dd920c5f5ff789bef71cd1d3a0982de432bfae8b18f4762cde1",
}


def test_eigen_json_bytes_are_frozen(capsys, dispatch_key):
    code, out, _ = run(["eigen", *PP_A, "--n", "400", "--json"], capsys)
    assert code == 0
    got = hashlib.sha256(out.encode()).hexdigest()
    assert dispatch_key in EIGEN_400_SHA256, f"no digest recorded for {dispatch_key}: {got}"
    assert got == EIGEN_400_SHA256[dispatch_key]


@pytest.mark.parametrize("name", ["tab\there.csv", "new\nline.csv", 'quote"back\\slash.csv'])
def test_green_grid_json_escapes_path(tmp_path, capsys, name):
    out_path = tmp_path / name
    code, out, _ = run(
        ["green", "grid", *PP_A, "--n", "3", "--out", str(out_path), "--json"], capsys
    )
    assert code == 0
    assert out.count("\n") == 1  # one line of JSON, the newline is the terminator
    assert json.loads(out)["payload"]["path"] == str(out_path)


def test_green_grid_rejects_tiny_n(tmp_path, capsys):
    code, _, err = run(
        ["green", "grid", *PP_A, "--n", "1", "--out", str(tmp_path / "x.csv")], capsys
    )
    assert code == 2
    assert "error:" in err


def test_green_grid_rejects_n_above_cap(tmp_path, capsys):
    out_path = tmp_path / "big.csv"
    code, out, err = run(
        ["green", "grid", *PP_A, "--n", str(GRID_MAX_N + 1), "--out", str(out_path)], capsys
    )
    assert code == 2
    assert out == ""
    assert "exceeds cap" in err
    assert not out_path.exists()


def test_eigen(capsys):
    code, out, _ = run(["eigen", *PP_A, "--n", "64", "--json"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["payload"]["satisfied"] is True
    assert obj["payload"]["lambda_min"] > 4.0
    assert obj["payload"]["eigenvector_boundary_residual"] == 0.0


def test_eigen_unsatisfied_exit_code(capsys):
    # On a wide interval the analytic threshold grows with the width while
    # the spectrum does not, so the discrete check fails with exit code 4.
    argv = ["eigen", "--sigma", "1.8", "--kappa", "0.3", "--t1", "1", "--t2", "8",
            "--n", "64", "--json"]
    code, out, _ = run(argv, capsys)
    assert code == 4
    obj = json.loads(out)
    assert obj["payload"]["satisfied"] is False
    assert obj["payload"]["lambda_min"] < obj["payload"]["analytic_bound"]


# The JSON schema: envelope keys and, per command, payload keys, in order.
# A field added to a library record shows up here as a schema change.
ENVELOPE_KEYS = ["command", "params", "payload", "warnings", "version"]
PARAMS_KEYS = ["sigma", "kappa", "t1", "t2"]
PAYLOAD_KEYS = {
    "bound": ["gamma_sk", "bound", "eigen_bound", "omega", "mho", "x2", "delta"],
    "check": ["gamma_sk", "bound", "eigen_bound", "q_integral", "verdict"],
    "green-eval": ["t", "s", "value"],
    "green-max": ["delta", "x2", "t_star", "t_hat", "omega", "mho", "max_abs_g", "branch"],
    "green-grid": ["path", "rows"],
    "eigen": ["n", "dominant_mu", "lambda_min", "analytic_bound", "satisfied",
              "eigenvector_boundary_residual"],
    "selftest": ["total", "passed", "failed", "checks"],
}


PINNED_ARGV = {
    "bound": ["bound", *PP_A],
    "check": ["check", *PP_A, "--q-const", "1"],
    "green-eval": ["green", "eval", *PP_A, "--t", "1.5", "--s", "2"],
    "green-max": ["green", "max", *PP_A],
    "green-grid": ["green", "grid", *PP_A, "--n", "3", "--out", "GRID"],
    "eigen": ["eigen", *PP_A, "--n", "64"],
    "selftest": ["selftest", "--filter", "green.reference"],
}


@pytest.mark.parametrize("name", list(PAYLOAD_KEYS))
def test_json_keys_are_pinned(tmp_path, capsys, name):
    # Every leaf command is pinned, so a new one cannot skip the schema.
    leaves = {"-".join(words) for words in cli._LEAVES}
    assert set(PINNED_ARGV) == set(PAYLOAD_KEYS) == leaves
    argv = [str(tmp_path / "grid.csv") if a == "GRID" else a for a in PINNED_ARGV[name]]
    code, out, _ = run([*argv, "--json"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert list(obj) == ENVELOPE_KEYS
    assert obj["warnings"] == []
    if name == "selftest":
        assert obj["params"] is None
        assert [list(c) for c in obj["payload"]["checks"]] == [["name", "ok", "detail"]]
    else:
        assert list(obj["params"]) == PARAMS_KEYS
    assert list(obj["payload"]) == PAYLOAD_KEYS[name]


def test_main_names_no_command_and_no_payload_key():
    # Exit codes and per-command output belong to the commands and to
    # _render; main only dispatches, renders and prints.
    tree = ast.parse(inspect.getsource(cli.main))
    strings = {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)
               and isinstance(n.value, str)}
    keys = set().union(*cli._LEAVES, *PAYLOAD_KEYS.values(), ["ok", "name", "detail"])
    assert not strings & keys


def test_argparse_rejects_bad_reals(capsys):
    with pytest.raises(SystemExit) as info:
        main(["bound", "--sigma", "1.75", "--kappa", "0.5", "--t1", "1", "--t2", "e"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["bound", "--sigma", "1.75"])  # missing required flags
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["bound", *PP_A[:-1], "inf"])
    assert info.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["bound", *PP_A[:-1], "2_7"],
    ["bound", "--sigma", "1.75", "--kappa", "0.5", "--t1", "\u0661", "--t2", E_STR],
    ["eigen", *PP_A, "--n", "6_4"],
    ["green", "grid", *PP_A, "--n", "1_0", "--out", os.devnull],
    ["check", *PP_A, "--q-const", "1_0"],
])
def test_flags_take_only_ascii_decimal_literals(argv, capsys):
    # float() and int() would read these as 27, 1, 64, 10 and 10.
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "not a real number" in err or "not an integer" in err


def test_table_cells_take_only_ascii_decimal_literals(tmp_path, capsys):
    path = tmp_path / "q.csv"
    for cell in ("1_5", "\u0661", "nan"):
        path.write_text(f"t,q\n1,0.5\n2,{cell}\n")
        code, out, err = run(["check", *PP_A, "--q-table", str(path)], capsys)
        assert code == 2 and out == ""
        assert f"error: {path}:3: not a real number: {cell!r}" in err
    path.write_text("t,q\n 1 , 0.5\n2.718281828459045,1e-3\n")
    assert run(["check", *PP_A, "--q-table", str(path)], capsys)[0] == 0


def test_an_oversize_table_cell_or_file_exits_2(tmp_path, capsys, monkeypatch):
    # A cell past the csv module's field limit is named by its line; a file
    # past the cap is refused once the cap is read, line break or not.
    path = tmp_path / "q.csv"
    path.write_text("t,q\n" + "1" * 200_000 + ",0.5\n3,0.5\n")
    code, out, err = run(["check", *PP_A, "--q-table", str(path)], capsys)
    assert (code, out) == (2, "")
    assert f"error: {path}:2: field larger than field limit (131072)" in err
    monkeypatch.setattr(coefficient, "TABLE_MAX_CHARS", 16)
    path.write_text("t,q\n" + "0" * 16)
    code, out, err = run(["check", *PP_A, "--q-table", str(path)], capsys)
    assert (code, out) == (2, "")
    assert f"error: {path}: table exceeds cap 16 characters" in err


_PROBLEM_FLAGS = {"--sigma", "--kappa", "--t1", "--t2"}

# Each leaf command's options: exactly the flags the command reads.
COMMAND_OPTIONS = {
    "bound": {*_PROBLEM_FLAGS, "--json"},
    "check": {*_PROBLEM_FLAGS, "--json", "--tol", "--q-const", "--q-expr", "--q-table"},
    "green eval": {*_PROBLEM_FLAGS, "--json", "--t", "--s"},
    "green max": {*_PROBLEM_FLAGS, "--json"},
    "green grid": {*_PROBLEM_FLAGS, "--json", "--n", "--out"},
    "eigen": {*_PROBLEM_FLAGS, "--json", "--n"},
    "selftest": {"--json", "--filter"},
}


def _leaf_options(parser, command=()):
    """(command words, option strings but -h/--help) for each leaf parser."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        options = {s for a in parser._actions for s in a.option_strings}
        yield " ".join(command), options - {"-h", "--help"}
    for sub in subs:
        for name, child in sub.choices.items():
            yield from _leaf_options(child, (*command, name))


def test_each_command_takes_only_the_flags_it_reads(capsys):
    assert dict(_leaf_options(_build_parser())) == COMMAND_OPTIONS
    # The parser main builds alone for a leaf call holds the same options.
    alone = {c: next(_leaf_options(cli._leaf_parser(tuple(c.split()))))[1] for c in COMMAND_OPTIONS}
    assert alone == COMMAND_OPTIONS
    for argv in (["bound", *PP_A, "--tol", "1e-6"], ["selftest", "--seed", "1"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_a_leaf_call_builds_one_parser(monkeypatch, capsys):
    # main builds the invoked leaf's parser, not the 9-parser tree.
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for argv in (["bound", *PP_A], ["green", "eval", *PP_A, "--t", "1.5", "--s", "2"]):
        built.clear()
        assert main(argv) == 0
        assert len(built) == 1
    capsys.readouterr()


def _parse_outcome(parse, argv, capsys):
    """The Namespace ``parse(argv)`` returns, or its exit code; then stdout and stderr."""
    try:
        result = vars(parse(argv))
    except SystemExit as exc:
        result = exc.code
    return result, *capsys.readouterr()


def test_parsing_a_leaf_alone_matches_the_full_tree(capsys):
    # Help, successes and usage errors, byte for byte, against the tree.
    corpus = [
        ["--help"], ["green", "--help"], *([*c.split(), "--help"] for c in COMMAND_OPTIONS),
        *PROCESS_ARGV.values(),
        ["bound", "--sigma", "1.75"],
        ["check", *PP_A, "--q-c", "0.5"],
        ["check", *PP_A, "--q", "0.5"],
        ["bound", *PP_A[:-1], "e"],
        ["eigen", *PP_A, "--n", "6_4"],
        ["check", *PP_A, "--q-expr", "-ln(t)"],
        ["check", *PP_A, "--q-expr=-ln(t)"],
        ["check", *PP_A, "--q-const", "1", "--q-expr", "t"],
        ["bound", *PP_A, "--tol", "1"],
        ["bound", *PP_A, "stray"],
        ["bogus", *PP_A], [], ["green"], ["green", "bogus"],
    ]
    for argv in corpus:
        tree = _parse_outcome(lambda v: _build_parser().parse_args(v), argv, capsys)
        assert _parse_outcome(cli._parse_args, argv, capsys) == tree, argv


@pytest.mark.parametrize("argv", [
    ["bound", "--sigma", "1e999", "--kappa", "0.5", "--t1", "1", "--t2", "2"],
    # Two tokens: -1e999 is read as a value, not as an option name.
    ["check", *PP_A, "--q-const", "-1e999"],
    ["green", "eval", *PP_A, "--t", "1e999", "--s", "1.5"],
])
def test_flags_reject_literals_that_overflow(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "value must be finite" in captured.err


# One corpus for the three readers of a number the user types: a flag, a
# table cell and an expression literal.  Each reads the value given, or
# refuses the literal as one that overflows.
_READ_AS = {".5": 0.5, "2.": 2.0, "1E+3": 1000.0, "1.7976931348623157e308": sys.float_info.max,
            "1e-400": 0.0}
_OVERFLOWING = ("1e309", "1e999", "9" * 400)


@pytest.mark.parametrize("text", sorted(_READ_AS))
def test_flags_cells_and_expressions_read_a_literal_alike(text, tmp_path, capsys):
    value = _READ_AS[text]
    path = tmp_path / "q.csv"
    path.write_text(f"t,q\n1,{text}\n3,{text}\n")
    assert load_table(str(path)).points == ((1.0, value), (3.0, value))
    tree = parse_expr(text)
    assert tree == Num(value) and parse_expr(pretty(tree)) == tree
    # The same double makes the same report; the largest float's |q|
    # integral overflows (exit 3), after the flag has been read.
    flag = run(["check", *PP_A, "--q-const", text, "--json"], capsys)
    assert flag == run(["check", *PP_A, "--q-expr", text, "--json"], capsys)
    assert flag[0] == (3 if value == sys.float_info.max else 0)


@pytest.mark.parametrize("text", _OVERFLOWING, ids=["1e309", "1e999", "400 digits"])
def test_flags_cells_and_expressions_refuse_a_literal_that_overflows(text, tmp_path, capsys):
    message = f"value must be finite: {text!r}"
    with pytest.raises(SystemExit) as info:
        main(["check", *PP_A, "--q-const", text])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    path = tmp_path / "q.csv"
    path.write_text(f"t,q\n1,0.5\n3,{text}\n")
    with pytest.raises(DomainInvalid, match=re.escape(f"q.csv:3: {message}")):
        load_table(str(path))
    with pytest.raises(ExpressionSyntaxError, match=re.escape(f"{message} at offset 0")) as info:
        parse_expr(text)
    assert info.value.offset == 0


def test_an_overflowing_expression_literal_exits_2_from_the_entry_point():
    done = subprocess.run(
        [sys.executable, "-m", "hadamard_bvp", "check", *PP_A, "--q-expr", "1e400/1e400",
         "--json"],
        capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: value must be finite: '1e400' at offset 0\n"


@pytest.mark.parametrize("q", [["--q-const", "1e308"], ["--q-expr", "1e308*(t/t)"]],
                         ids=["const", "expr"])
def test_a_finite_integral_near_the_float_maximum_exits_0_from_the_entry_point(q):
    # |q| (t2 - t1) = 5e307: neither the constant's closed form nor a Gauss
    # panel's weighted sum may overflow on the way there.
    done = subprocess.run(
        [sys.executable, "-m", "hadamard_bvp", "check", "--sigma", "1.75", "--kappa", "0.5",
         "--t1", "1", "--t2", "1.5", *q, "--json"],
        capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert '"q_integral": 5.0000000000000001e+307' in done.stdout


# A 401-digit count: an int literal is exact at any size, and too large for
# a float.
_HUGE_N = "1" + "0" * 400


@pytest.mark.parametrize("command", [["eigen"], ["green", "grid", "--out", os.devnull]],
                         ids=["eigen", "grid"])
def test_an_oversize_count_is_a_resource_limit(command, capsys):
    code, out, err = run([*command, *PP_A, "--n", _HUGE_N], capsys)
    assert (code, out) == (2, "")
    assert "exceeds cap" in err and "Traceback" not in err


def test_an_oversize_count_exits_2_from_the_entry_point():
    done = subprocess.run(
        [sys.executable, "-m", "hadamard_bvp", "eigen", *PP_A, "--n", _HUGE_N],
        capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert "exceeds cap" in done.stderr and "Traceback" not in done.stderr


# More digits than the interpreter converts to an int (4300 by default).
_LONG_N = "1" + "0" * 5000


@pytest.mark.parametrize("command", [["eigen"], ["green", "grid", "--out", os.devnull]],
                         ids=["eigen", "grid"])
def test_a_count_past_the_digit_limit_is_a_usage_error(command, capsys):
    with pytest.raises(SystemExit) as info:
        main([*command, *PP_A, "--n", _LONG_N])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "integer literal of 5001 digits exceeds cap" in captured.err
    assert "set_int_max_str_digits" not in captured.err


def test_leading_zeros_do_not_count_toward_the_digit_limit(capsys):
    code, out, err = run(["eigen", *PP_A, "--n", "0" * 5000 + "5"], capsys)
    assert (code, out) == (2, "")
    assert "needs integer n >= 32, got 5" in err


def test_negative_values_in_exponent_form_take_two_tokens(capsys):
    spaced = run(["check", *PP_A, "--q-const", "-1e-3", "--json"], capsys)
    joined = run(["check", *PP_A, "--q-const=-1e-3", "--json"], capsys)
    assert spaced == joined and spaced[0] == 0
    code, out, err = run(["green", "eval", *PP_A, "--t", "1.5", "--s", "-2.5E+2"], capsys)
    assert code == 2 and out == "" and "outside" in err


def test_an_expression_that_starts_with_a_minus_needs_the_equals_form(capsys):
    # -ln(t) is not a number, so as its own token it reads as an option name.
    with pytest.raises(SystemExit) as info:
        main(["check", *PP_A, "--q-expr", "-ln(t)"])
    assert info.value.code == 2
    assert "argument --q-expr: expected one argument" in capsys.readouterr().err
    code, out, _ = run(["check", *PP_A, "--q-expr=-ln(t)", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["payload"]["q_integral"] == pytest.approx(1.0)


def test_usage_error_exit_codes(tmp_path, capsys):
    code, _, err = run(["bound", "--sigma", "3", "--kappa", "0.5", "--t1", "1", "--t2", "2"], capsys)
    assert code == 2 and "sigma" in err
    code, _, err = run(["eigen", *PP_A, "--n", "4"], capsys)
    assert code == 2 and "error:" in err
    code, _, err = run(["check", *PP_A, "--q-expr", "2*"], capsys)
    assert code == 2 and "error:" in err
    code, out, err = run(["check", *PP_A, "--q-expr", "t$"], capsys)
    assert code == 2 and out == "" and "unexpected character '$' at offset 1" in err
    code, _, err = run(["check", *PP_A, "--q-table", str(tmp_path / "missing.csv")], capsys)
    assert code == 2 and "error:" in err


def test_interval_beyond_float_range_exit_code(capsys):
    # ln(t2/t1) is not finite: a usage error naming the interval, not a
    # numerical failure further down.
    argv = ["bound", "--sigma", "1.5", "--kappa", "0.25", "--t1", "1e-300", "--t2", "1e10"]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert "t1=1e-300" in err and "t2=10000000000.0" in err


def test_numerical_error_exit_code(capsys):
    # ln(t - 3) is undefined on [1, e]; evaluation fails inside quadrature.
    code, _, err = run(["check", *PP_A, "--q-expr", "ln(t-3)"], capsys)
    assert code == 3
    assert "error:" in err


def test_non_finite_result_exit_code(capsys):
    # eigen_bound = bound * (t2 - t1) overflows; inf must not reach the JSON.
    argv = ["bound", "--sigma", "1.75", "--kappa", "0.5", "--t1", "1e300", "--t2", "1.7e308",
            "--json"]
    code, out, err = run(argv, capsys)
    assert code == 3
    assert out == ""
    assert "eigen_bound is not finite" in err


@pytest.mark.parametrize("command", ["bound", "check"])
def test_eigen_bound_underflow_exit_code(capsys, command):
    # bound ~2.4e-300 times width 1.7e-300 rounds to 0, which is not a threshold.
    argv = [command, "--sigma", "1.75", "--kappa", "0.5", "--t1", "1e-300", "--t2", "2.7e-300",
            "--json"]
    if command == "check":
        argv += ["--q-const", "1"]
    code, out, err = run(argv, capsys)
    assert code == 3
    assert out == ""
    assert "underflows" in err


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_to_json_rejects_non_finite(value):
    with pytest.raises(NonFiniteResult):
        _to_json({"payload": {"x": [1.0, value]}})


def test_to_json_escapes_strings():
    text = 'tab\tnew\nline "quoted" back\\slash \x01 é'
    out = _to_json({"key\n": text})
    assert json.loads(out) == {"key\n": text}
    assert "é" in out  # not escaped to \u00e9


def test_to_json_strings_match_json_dumps():
    samples = [chr(c) for c in range(0x80)] + [
        "é", "\x80\x9f\xa0", "中文", "\u2028\u2029", "\U0001f600", "\ud800",
        'tab\tquote"back\\slash\x00\x1f\x7f é',
    ]
    for text in samples:
        assert _to_json(text) == json.dumps(text, ensure_ascii=False), repr(text)


def test_division_by_zero_in_expression(capsys):
    # The scan grid hits t = 2 exactly; the evaluator sees a plain float zero.
    argv = ["check", "--sigma", "1.75", "--kappa", "0.5", "--t1", "1", "--t2", "3",
            "--q-expr", "1/(t-2)"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(argv, capsys)
    assert code == 3
    assert out == ""
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in err
    assert "np.float64" not in err
    assert "division by zero" in err


def test_deeply_nested_expression_is_a_usage_error(capsys):
    code, out, err = run(["check", *PP_A, "--q-expr", "(" * 600 + "t" + ")" * 600], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: expression nested deeper than")


def test_selftest_filter(capsys):
    code, out, _ = run(["selftest", "--filter", "green", "--json"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["payload"]["total"] >= 1
    assert obj["payload"]["failed"] == 0
    assert all("green" in c["name"] for c in obj["payload"]["checks"])


def test_selftest_filter_matching_nothing_is_a_usage_error(capsys):
    # A misspelt filter would otherwise run no check and pass.
    code, out, err = run(["selftest", "--filter", "nosuch"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "'nosuch'" in err


def test_failed_and_crashed_checks_exit_1(monkeypatch, capsys):
    def crash():
        raise ValueError("boom")

    checks = (("fake.fails", lambda: (False, "off by one")), ("fake.raises", crash))
    monkeypatch.setattr("hadamard_bvp.selftest._CHECKS", checks)
    code, out, err = run(["selftest"], capsys)
    assert (code, err) == (1, "")
    assert "FAIL  fake.fails  (off by one)\nFAIL  fake.raises  (raised ValueError: boom)\n" in out
    code, out, err = run(["selftest", "--json"], capsys)
    assert (code, err) == (1, "")
    payload = json.loads(out)["payload"]
    assert (payload["total"], payload["passed"], payload["failed"]) == (2, 0, 2)
    assert [c["detail"] for c in payload["checks"]] == ["off by one", "raised ValueError: boom"]


def test_output_is_deterministic(capsys):
    _, first, _ = run(["green", "max", *PP_A, "--json"], capsys)
    _, second, _ = run(["green", "max", *PP_A, "--json"], capsys)
    assert first == second
    _, first, _ = run(["bound", *PP_A], capsys)
    _, second, _ = run(["bound", *PP_A], capsys)
    assert first == second
    _, first, _ = run(["eigen", *PP_A, "--json"], capsys)
    _, second, _ = run(["eigen", *PP_A, "--json"], capsys)
    assert first == second


_LOADED_ARRAY_MODULES = (
    "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))"
)


def test_cli_import_loads_no_scipy():
    # numpy is imported at the top of the array modules (grid, operators,
    # fredholm, selftest), which the package and the CLI load only on first
    # use, and nothing imports scipy, so the scalar commands pay for neither.
    code = "import hadamard_bvp.cli, sys; " + _LOADED_ARRAY_MODULES
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_cli_import_defers_the_parser_and_csv():
    # The scalar records are namedtuples, so nothing loads dataclasses; the
    # expression parser and csv load only for the command that reads them.
    probe = (
        "print(sorted(m for m in ('dataclasses', 'csv', 'hadamard_bvp.expression')"
        " if m in sys.modules))"
    )
    code = "import hadamard_bvp.cli, sys; " + probe
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
    code = (
        "import contextlib, io, sys\n"
        "from hadamard_bvp.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({['check', '--q-expr', 'ln(t)', *PP_A]!r}) == 0\n"
        + probe
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "['hadamard_bvp.expression']"


def test_cli_import_defers_quadrature_modules():
    # The package loads grid, operators and fredholm on first use of one of
    # their names; every exported name resolves to its module's object.
    code = (
        "import hadamard_bvp.cli, sys\n"
        "print(sorted(m for m in ('hadamard_bvp.grid', 'hadamard_bvp.operators',"
        " 'hadamard_bvp.fredholm') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
    import hadamard_bvp

    assert hadamard_bvp.__all__ == ["__version__", *hadamard_bvp._LAZY_MODULE]
    for name, module in hadamard_bvp._LAZY_MODULE.items():
        assert getattr(hadamard_bvp, name) is getattr(getattr(hadamard_bvp, module), name), name
    with pytest.raises(AttributeError):
        hadamard_bvp.no_such_name


def test_sign_change_below_one_ulp_terminates():
    # The sign change of q is bracketed to 1e-12 * (t2 - t1), below one ulp
    # of t here, so the bisection has to stop at adjacent floats.  Run in a
    # child process so that a hang fails the test instead of stalling it.
    argv = ["check", "--sigma", "1.75", "--kappa", "0.5", "--t1", "5.76", "--t2", "5.760001",
            "--q-expr", "1000*(t-5.7600003)+0.0000000000001", "--json"]
    done = subprocess.run(
        [sys.executable, "-m", "hadamard_bvp", *argv], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0
    payload = json.loads(done.stdout)["payload"]
    # Exact: 500 ((t0 - t1)^2 + (t2 - t0)^2) with the root t0 = 5.7600003 - 1e-16.
    assert payload["q_integral"] == pytest.approx(2.9000000015659835e-10, rel=1e-8)
    assert payload["verdict"] == "NoNontrivialSolution"


def test_eigen_loads_no_scipy():
    # The Gauss-Jacobi rules of the Nystrom near field and the Arnoldi
    # eigensolver are built with numpy alone, and the Gauss-Legendre rules
    # of the Nystrom matrix and the operators are literals.
    code = (
        "import contextlib, io, sys\n"
        "from hadamard_bvp import hadamard_integral\n"
        "from hadamard_bvp.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({['eigen', *PP_A, '--n', '64', '--json']!r}) == 0\n"
        "hadamard_integral(0.6, lambda s: s, 1.0, 2.0)\n"
        "print(sorted(m for m in sys.modules if m.startswith(('scipy', 'numpy.polynomial'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ["bound"],
        ["check", "--q-expr", "ln(t)"],
        ["check", "--q-const", "0.5"],
        ["check", "--q-table", "{table}"],
        ["green", "eval", "--t", "1.5", "--s", "2"],
        ["green", "max"],
        ["green", "grid", "--n", "8", "--out", "{out}"],
    ],
    ids=[
        "bound", "check-expr", "check-const", "check-table", "green-eval", "green-max",
        "green-grid",
    ],
)
def test_scalar_commands_load_no_numpy(argv, tmp_path):
    # `green grid` evaluates G on floats; `grid._green_xy` is left to the
    # brute-force search, which only selftest runs.
    table = tmp_path / "q.csv"
    table.write_text(f"t,q\n1.0,-0.5\n{E_STR},1.5\n")
    grid_csv = tmp_path / "grid.csv"
    argv = [arg.format(table=table, out=grid_csv) for arg in argv]
    code = (
        "import contextlib, io, sys\n"
        "from hadamard_bvp.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({[*argv, *PP_A, '--json']!r}) == 0\n"
        + _LOADED_ARRAY_MODULES
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_an_invalid_problem_exits_2_before_eigen_loads_numpy():
    # main validates the problem flags before it runs a command, so eigen
    # refuses sigma = 3 without loading fredholm and numpy.
    argv = ["eigen", "--sigma", "3", "--kappa", "0.5", "--t1", "1", "--t2", "2", "--n", "64"]
    code = (
        "import contextlib, io, sys\n"
        "from hadamard_bvp.cli import main\n"
        "with contextlib.redirect_stderr(io.StringIO()):\n"
        f"    assert main({argv!r}) == 2\n"
        + _LOADED_ARRAY_MODULES
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def _table_100(tmp_path):
    # 100 knots on [1, e], the last one on t2 itself.
    path = tmp_path / "q100.csv"
    ts = [1.0 + (math.e - 1.0) * i / 99 for i in range(99)] + [math.e]
    path.write_text("t,q\n" + "".join(f"{t!r},{math.sin(3 * t) + 0.2!r}\n" for t in ts))
    return path


PROCESS_ARGV = {
    "bound": ["bound", *PP_A],
    "check-const": ["check", *PP_A, "--q-const", "0.5", "--json"],
    "check-expr": ["check", *PP_A, "--q-expr", "0.37*sin(4.1*t)+0.05*t"],
    "check-table": ["check", *PP_A, "--q-table", "TABLE", "--json"],
    "green-eval": ["green", "eval", *PP_A, "--t", "1.5", "--s", "2", "--json"],
    "green-max": ["green", "max", *PP_A],
    "green-grid": ["green", "grid", *PP_A, "--n", "64", "--out", "GRID", "--json"],
    "eigen": ["eigen", *PP_A, "--n", "64", "--json"],
    "eigen-400": ["eigen", *PP_A, "--n", "400", "--json"],
    "eigen-1024": ["eigen", *PP_A, "--n", "1024", "--json"],
    "selftest": ["selftest", "--filter", "green.reference"],
    "exit-2": ["bound", "--sigma", "3", "--kappa", "0.5", "--t1", "1", "--t2", "2"],
    "exit-3": ["check", *PP_A, "--q-expr", "ln(t-3)"],
    "exit-4": ["eigen", "--sigma", "1.8", "--kappa", "0.3", "--t1", "1", "--t2", "8",
               "--n", "64", "--json"],
    # Arguments the leaf leaves over: a usage error of the top level.
    "leftover": ["bound", *PP_A, "--tol", "1"],
}


@pytest.mark.parametrize("name", list(PROCESS_ARGV))
def test_process_entry_matches_main(tmp_path, capsys, dispatch_key, name):
    # `python -m hadamard_bvp` ends through cli.run; its stdout bytes, stderr
    # and exit code are those of main called in-process.  From n of about
    # 800 up, eigen's digits depend on OpenBLAS's thread count, so the
    # n = 1024 case holds the child to the thread count of this process.
    grid_csv = tmp_path / "grid.csv"
    paths = {"TABLE": str(_table_100(tmp_path)), "GRID": str(grid_csv)}
    argv = [paths.get(arg, arg) for arg in PROCESS_ARGV[name]]
    try:
        code, out, err = run(argv, capsys)
    except SystemExit as exc:  # argparse's usage error
        code, (out, err) = exc.code, capsys.readouterr()
    grid_csv.unlink(missing_ok=True)  # the child writes its own grid
    done = subprocess.run(
        [sys.executable, "-m", "hadamard_bvp", *argv], capture_output=True, timeout=120
    )
    assert (done.returncode, done.stdout, done.stderr) == (code, out.encode(), err.encode())
    if name == "green-grid":
        assert hashlib.sha256(grid_csv.read_bytes()).hexdigest() == GRID_64_SHA256
    if name == "eigen-400":
        assert hashlib.sha256(done.stdout).hexdigest() == EIGEN_400_SHA256[dispatch_key]
    if name == "leftover":
        assert err.startswith("usage: hbvp [-h]") and "unrecognized arguments: --tol 1" in err
    assert code == {"exit-2": 2, "exit-3": 3, "exit-4": 4, "leftover": 2}.get(name, 0)


def test_run_sets_the_openblas_thread_timeout_before_numpy_loads():
    # cli.run defaults OPENBLAS_THREAD_TIMEOUT to 4 before main, which is
    # where numpy would load; a value the process already has is kept.
    code = (
        "import os, sys\n"
        "from hadamard_bvp import cli\n"
        "def probe():\n"
        "    print(os.environ.get('OPENBLAS_THREAD_TIMEOUT'), 'numpy' in sys.modules)\n"
        "    return 0\n"
        "cli.main = probe\n"
        "cli.run()\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    for preset, shown in ((None, "4"), ("30", "30")):
        child_env = env if preset is None else {**env, "OPENBLAS_THREAD_TIMEOUT": preset}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=child_env, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, f"{shown} False\n", "")


def test_library_use_leaves_the_environment_alone():
    # Only cli.run writes os.environ: importing the package, loading every
    # module it exports and calling main in-process change nothing.
    code = (
        "import contextlib, io, os\n"
        "before = dict(os.environ)\n"
        "import hadamard_bvp\n"
        "from hadamard_bvp.cli import main\n"
        "for name in hadamard_bvp.__all__:\n"
        "    getattr(hadamard_bvp, name)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({['eigen', *PP_A, '--n', '64', '--json']!r}) == 0\n"
        f"    assert main({['bound', *PP_A]!r}) == 0\n"
        "print(dict(os.environ) == before)\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "True\n", "")


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [["bound", *PP_A], ["selftest", "--filter", "green.reference"]],
                         ids=["bound", "selftest"])
def test_closed_stdout_exits_1_quietly(argv, buffered):
    # A reader that is gone before the first write: print raises
    # BrokenPipeError on unbuffered stdout, the final flush on buffered.
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "hadamard_bvp", *argv], stdout=write_end,
            stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, b"")


def test_process_exit_skips_atexit_hooks(capsys):
    # The package run as __main__ ends through os._exit: a registered atexit
    # hook never runs, and stdout still carries the whole report.
    argv = ["bound", *PP_A, "--json"]
    code = (
        "import atexit, runpy, sys\n"
        "atexit.register(lambda: sys.stderr.write('atexit hook ran'))\n"
        f"sys.argv[1:] = {argv!r}\n"
        "runpy.run_module('hadamard_bvp', run_name='__main__', alter_sys=True)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=60)
    assert main(argv) == 0
    assert (done.returncode, done.stdout, done.stderr) == (0, capsys.readouterr().out.encode(), b"")


def test_console_script_is_the_module_entry_point():
    # `hbvp` and `python -m hadamard_bvp` start through the same function.
    tomllib = pytest.importorskip("tomllib")
    import hadamard_bvp.__main__ as entry

    root = pathlib.Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["hbvp"]
    module_name, _, attr = target.partition(":")
    script = getattr(importlib.import_module(module_name), attr)
    [guard] = [node for node in ast.parse(inspect.getsource(entry)).body
               if isinstance(node, ast.If)]
    [stmt] = guard.body
    head, *rest = ast.unparse(stmt.value.func).split(".")
    assert script is functools.reduce(getattr, rest, vars(entry)[head])
