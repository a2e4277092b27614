import argparse
import hashlib
import json
import math
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest

from hadamard_bvp import __version__, validate
from hadamard_bvp.errors import NonFiniteResult
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
# Nystrom matrix and the Arnoldi solve go through numpy's SIMD kernels, so
# this digest holds only where numpy dispatches the same ones: with its
# AVX-512 kernels switched off (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
# AVX512_SPR") the output differs and the test fails.
EIGEN_400_SHA256 = "f657a9f524f668da84f3d64776ba906d81894af07568cf316a27f5770519b897"


def test_eigen_json_bytes_are_frozen(capsys):
    code, out, _ = run(["eigen", *PP_A, "--n", "400", "--json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EIGEN_400_SHA256


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
    for argv in (["bound", *PP_A, "--tol", "1e-6"], ["selftest", "--seed", "1"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_usage_error_exit_codes(tmp_path, capsys):
    code, _, err = run(["bound", "--sigma", "3", "--kappa", "0.5", "--t1", "1", "--t2", "2"], capsys)
    assert code == 2 and "sigma" in err
    code, _, err = run(["eigen", *PP_A, "--n", "4"], capsys)
    assert code == 2 and "error:" in err
    code, _, err = run(["check", *PP_A, "--q-expr", "2*"], capsys)
    assert code == 2 and "error:" in err
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
    # their names; every exported name still resolves.
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

    for name in hadamard_bvp.__all__:
        assert getattr(hadamard_bvp, name) is not None, name
    assert hadamard_bvp.hadamard_integral is hadamard_bvp.operators.hadamard_integral
    assert hadamard_bvp.nystrom_matrix is hadamard_bvp.fredholm.nystrom_matrix
    assert hadamard_bvp.green_max_bruteforce is hadamard_bvp.grid.green_max_bruteforce
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
