"""Command-line contract: parsing, exit codes, stable JSON."""

import argparse
import contextlib
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nilcone
import nilcone.characters as characters
import nilcone.cli as cli
import nilcone.oracle as oracle
import nilcone.sl2 as sl2
import nilcone.solver as solver
from nilcone.cli import main, parse_poly

CLI_GOLDEN = Path(__file__).parent / "golden" / "cli_reports.json"
README = Path(__file__).resolve().parents[1] / "README.md"
CI_WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"
BENCH = Path(__file__).resolve().parents[1] / "bench"


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _captured_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


# -- polynomial parser --------------------------------------------------------


def test_parse_poly_examples():
    p = parse_poly("t^2-3/2*t+1")
    assert p.degree == 2
    assert p.lower_coeffs == (Fraction(1), Fraction(-3, 2))
    assert parse_poly("t").degree == 1
    assert parse_poly("t^3+t").lower_coeffs == (Fraction(0), Fraction(1), Fraction(0))
    assert parse_poly(" t^2 + 1/3 ").lower_coeffs == (Fraction(1, 3), Fraction(0))
    assert parse_poly("-t+t^2").lower_coeffs == (Fraction(0), Fraction(-1))


@pytest.mark.parametrize("bad", ["2*t^2", "5", "q+1", "t^", "t^x", "", "t^2++1", "3/",
                                 "t+3*", "t^2-1/2*", "t+1/0", "0/0*t"])
def test_parse_poly_rejects(bad):
    with pytest.raises(ValueError, match="polynomial"):
        parse_poly(bad)


@pytest.mark.parametrize("text", ["t^65", "t^65+t^2", "t^99999999999"])
def test_parse_poly_rejects_degree_over_cap(text):
    with pytest.raises(ValueError, match="at most 64"):
        parse_poly(text)


# The --poly language, pinned string by string: an accepted string maps to
# its lower coefficients a_0 a_1 ..., a rejected one to the semantic rule it
# breaks, or to SYNTAX.
SYNTAX = "syntax"
_SEMANTIC = ("at most 64", "at least 1", "monic")
_POLY_LANGUAGE = {
    "t": "0",
    "t^2": "0 0",
    "t^3": "0 0 0",
    "t^2+t": "0 1",
    "t-1": "-1",
    "t^3+t": "0 1 0",
    "t^2-3/2*t+1": "1 -3/2",
    "t^3-3/2*t+1": "1 -3/2 0",
    " t^2 + 1/3 ": "1/3 0",
    "-t+t^2": "0 -1",
    "2t^2-t^2+t": "0 1",
    "t ^ 3": "0 0 0",
    "+t^2": "0 0",
    "t^0+t": "1",
    "t^1": "0",
    "t^2 - 0": "0 0",
    "0 + t": "0",
    "t^2 + 0*t": "0 0",
    "3 + t^2": "3 0",
    "t^2 + 2 * t": "0 2",
    "1/2t + t^2": "0 1/2",
    "t^2+1/02": "1/2 0",
    "t^007 + 007": "7 0 0 0 0 0 0",
    "t\t^\t2\n+\n1": "1 0",
    "t^2-t-t": "0 -2",
    "t^2+3t^1": "0 3",
    "-3/2*t^2 + t^3 + t": "0 1 -3/2",
    "1/2*t^2 + 1/2*t^2 - t": "0 -1",
    "t^64": "0 " * 64,
    "t^64 - 5/7*t^63 + t": "0 1 " + "0 " * 61 + "-5/7",
    "\u0663 + t": "3",   # ARABIC-INDIC DIGIT THREE is a decimal digit
    "2*t^2": "monic",
    "-t": "monic",
    "t^2 - t^2 + t": "monic",
    "t^2 + t^2": "monic",
    "5": "at least 1",
    "t^0": "at least 1",
    "t^65": "at most 64",
    "t^65+t^2": "at most 64",
    "t^65 - t^65 + t": "at most 64",
    "t^99999999999": "at most 64",
    "q+1": SYNTAX,
    "t^": SYNTAX,
    "t^x": SYNTAX,
    "": SYNTAX,
    " ": SYNTAX,
    "+": SYNTAX,
    "t^2++1": SYNTAX,
    "t^2-+1": SYNTAX,
    "--t": SYNTAX,
    "*t": SYNTAX,
    "3/": SYNTAX,
    "t+3*": SYNTAX,
    "t^2-1/2*": SYNTAX,
    "t+1/0": SYNTAX,
    "t+1/00": SYNTAX,
    "0/0*t": SYNTAX,
    "1/2/3*t": SYNTAX,
    "1 /2 + t": SYNTAX,
    "1/ 2 + t": SYNTAX,
    "t*2": SYNTAX,
    "tt": SYNTAX,
    "t^2t": SYNTAX,
    "t 2": SYNTAX,
    "t^2 1": SYNTAX,
    "2^3": SYNTAX,
    "t^3^2": SYNTAX,
    "t^-1": SYNTAX,
    "t^1/2": SYNTAX,
    "t^2+1.5": SYNTAX,
    "t^2+1_000": SYNTAX,
    "T": SYNTAX,
    "t^2 -": SYNTAX,
}


@pytest.mark.parametrize("text, expected", _POLY_LANGUAGE.items())
def test_poly_language_is_frozen(text, expected):
    if expected == SYNTAX:
        with pytest.raises(ValueError, match="polynomial") as info:
            parse_poly(text)
        assert not any(rule in str(info.value) for rule in _SEMANTIC)
    elif expected in _SEMANTIC:
        with pytest.raises(ValueError, match=expected):
            parse_poly(text)
    else:
        assert parse_poly(text).lower_coeffs == tuple(map(Fraction, expected.split()))


@pytest.mark.parametrize("text, pos", [("", 0), ("t+3*", 1), ("t^2 1", 4), ("t+1/\u0660", 1)])
def test_syntax_errors_name_the_text_and_the_position(text, pos):
    with pytest.raises(ValueError, match=re.escape(f"position {pos} of polynomial {text!r}")):
        parse_poly(text)


_COEFF = st.one_of(st.just(Fraction(0)), st.integers(-9, 9).map(Fraction), st.fractions())


@settings(max_examples=100, deadline=None)
@given(st.lists(_COEFF, min_size=1, max_size=cli.SIZE_CAP))
def test_printed_polynomial_parses_back(lower):
    p = solver.CasimirPolynomial(tuple(lower))
    assert parse_poly(str(p)) == p


def test_size_validators_reject_values_over_cap():
    assert cli._natural("64") == cli.SIZE_CAP == 64
    assert cli._grid_size("512") == cli.GRID_CAP == 512
    for text in ("65", "99999999999"):
        with pytest.raises(argparse.ArgumentTypeError):
            cli._natural(text)
    for text in ("513", "99999999999"):
        with pytest.raises(argparse.ArgumentTypeError):
            cli._grid_size(text)


# -- exit codes ---------------------------------------------------------------


def test_exit_zero_on_pass():
    assert run(["irrep", "--n", "0"]) == 0
    assert run(["kernel", "--n", "3", "--max-order", "6"]) == 0
    assert run(["orbit", "--n", "1", "--max-order", "4"]) == 0
    assert run(["solve", "--n", "2", "--poly", "t^3+t"]) == 0
    assert run(["supp0-dims", "--n", "1", "--max-degree", "6"]) == 0
    assert run(["classify", "--n", "3", "--no-origin"]) == 0


def test_exit_one_on_usage_errors():
    assert run(["kernel"]) == 1                               # missing required args
    assert run(["solve", "--n", "2", "--poly", "2*t"]) == 1   # non-monic
    assert run(["numcheck", "--n", "1", "--kind", "invariance", "--grid", "16"]) == 1
    assert run(["numcheck", "--n", "2", "--kind", "obstruction", "--grid", "16"]) == 1
    assert run(["nonsense"]) == 1


# a grid whose nodes all miss the Gaussian pairs it to 0 with a tail bound
# of 0: the advice is a finer grid, since a larger sigma only widens the miss
_ZERO_PAIRING = [
    ["numcheck", "--kind", "invariance", "--n", "2", "--sigma", "1000", "--grid", "16"],
    ["numcheck", "--kind", "pairing", "--sigma", "1000", "--grid", "16"],
    ["numcheck", "--kind", "invariance", "--n", "2", "--sigma", "300", "--grid", "8"],
]


@pytest.mark.parametrize("argv", [
    ["numcheck", "--kind", "invariance", "--n", "2", "--sigma", "-1", "--grid", "64"],
    ["classify", "--n", "2", "--max-degree", "-3"],
    ["kernel", "--n", "-1", "--max-order", "3"],
    ["orbit", "--n", "3", "--max-order", "-1"],
    ["solve", "--n", "3", "--poly", "t", "--max-order", "-2"],
    ["numcheck", "--kind", "obstruction", "--n", "1", "--grid", "1"],
    ["numcheck", "--kind", "pairing", "--sigma", "nan"],
    ["supp0-dims", "--n", "x"],
    ["kernel", "--n", "65", "--max-order", "3"],
    ["orbit", "--n", "3", "--max-order", "99999999999"],
    ["classify", "--n", "2", "--max-degree", "65"],
    ["solve", "--n", "3", "--poly", "t^99999999999"],
    ["numcheck", "--kind", "pairing", "--grid", "513"],
    ["solve", "--n", "3", "--poly", "t+1/0"],
    ["numcheck", "--kind", "obstruction", "--n", "1", "--grid", "8", "--sigma", "1e-200"],
    ["numcheck", "--kind", "obstruction", "--n", "1", "--grid", "8", "--sigma", "1e200"],
    ["numcheck", "--kind", "obstruction", "--n", "1", "--grid", "128", "--sigma", "0.001"],
    ["numcheck", "--kind", "obstruction", "--n", "1", "--grid", "128", "--sigma", "0.01"],
    ["numcheck", "--kind", "obstruction", "--n", "1", "--grid", "8", "--sigma", "1000"],
    ["numcheck", "--kind", "invariance", "--n", "2", "--grid", "128", "--sigma", "0.01"],
    ["numcheck", "--kind", "pairing", "--grid", "128", "--sigma", "0.05"],
    ["numcheck", "--kind", "pairing", "--grid", "128", "--sigma", "0.2"],
    ["numcheck", "--kind", "invariance", "--n", "2", "--grid", "4"],
    ["numcheck", "--kind", "invariance", "--n", "2", "--grid", "7"],
    ["numcheck", "--kind", "pairing", "--grid", "16", "--sigma", "100"],
    ["numcheck", "--kind", "pairing", "--grid", "48", "--sigma", "1000"],
    ["numcheck", "--kind", "pairing", "--grid", "64"],
    ["numcheck", "--kind", "invariance", "--n", "2", "--grid", "128", "--sigma", "0.3"],
    ["numcheck", "--kind", "invariance", "--n", "2", "--grid", "128", "--sigma", "0.4"],
    ["numcheck", "--kind", "invariance", "--n", "2", "--grid", "128", "--sigma", "0.5"],
    ["numcheck", "--kind", "invariance", "--n", "2", "--grid", "128", "--sigma", "0.52"],
    ["solve", "--n", "3", "--poly", "t+1/\u0660"],   # a zero denominator in another script
    ["numcheck", "--kind", "pairing", "--n", "7", "--grid", "128", "--sigma", "1.0"],
    *_ZERO_PAIRING,
])
def test_bad_arguments_exit_one_with_one_error_line(argv, capsys):
    line = _assert_exit_one_with_one_error_line(argv, capsys)
    if argv in _ZERO_PAIRING:
        assert "larger sigma" not in line


def _assert_exit_one_with_one_error_line(argv, capsys):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith("error: ")
    assert "Traceback" not in captured.err
    return lines[0]


# The cells where the midpoint and Gauss-Legendre pairings of the Casimir
# image differ by more than ROUTES_TOL, in a scan of sigma (17 values,
# geometric in [0.5, 1000], to two decimals) by grid (16 to 496 in steps of
# 32), plus three cells found before.  On each, the Gauss-Legendre pairing
# itself moves by about that gap when its grid is refined by a quarter: the
# grid is too coarse, not the prediction wrong.
@pytest.mark.parametrize("grid, sigma", [
    ("112", "2.08"), ("144", "3.34"), ("176", "5.38"), ("304", "13.9"), ("368", "22.36"),
    ("384", "22.36"), ("432", "35.96"), ("64", "0.6"), ("256", "10"),
])
def test_pairing_grid_too_coarse_for_the_casimir_image_exits_one(grid, sigma, capsys):
    error = _assert_exit_one_with_one_error_line(
        ["numcheck", "--kind", "pairing", "--grid", grid, "--sigma", sigma], capsys)
    assert "too coarse" in error and "Casimir image" in error


@pytest.mark.parametrize("argv", [
    ["numcheck", "--kind", "invariance", "--n", "64", "--grid", "512"],
    ["numcheck", "--kind", "obstruction", "--n", "63", "--grid", "512"],
])
def test_numcheck_passes_at_the_n_cap(argv, capsys):
    assert run(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("PASS")


# Sizes stay cheap to run (n, --max-order <= 8, degree <= 12, --grid <= 32); the
# other values are over the caps or malformed, so the validator rejects them
# before any command runs.
def _option(flag, values):
    return st.tuples(st.just(flag), values)


def _size(bound, bad):
    return st.one_of(st.integers(0, bound).map(str), st.sampled_from(bad))


_N = _option("--n", _size(8, ["-1", "65", "99999999999", "x", "2.5", ""]))
_FORMAT = _option("--format", st.sampled_from(["table", "json", "xml"]))
_MAX_DEGREE = _option("--max-degree", _size(12, ["-3", "65", "99999999999", "t^2"]))
_MAX_ORDER = _option("--max-order", _size(8, ["-1", "65", "99999999999", "x"]))
_POLY = _option("--poly", st.sampled_from(["t", "t^2", "t^2+t", "t-1", "t^3-3/2*t+1",
                                           "2*t", "t+3*", "t^65", "", "q+1"]))
_KIND = _option("--kind", st.sampled_from(["invariance", "obstruction", "pairing", "bogus"]))
_GRID = _option("--grid", st.one_of(st.integers(2, 32).map(str),
                                    st.sampled_from(["1", "513", "99999999999", "x"])))
_SIGMA = _option("--sigma", st.sampled_from(["0.6", "0.75", "1.0", "-1", "0", "nan", "x"]))
_FLAGS = [st.sampled_from([f"--{flag}", f"--no-{flag}"]).map(lambda token: (token,))
          for flag in ("origin", "nplus", "nminus")]
_JUNK = st.sampled_from(["--bogus", "junk", "--n", "--max-degree", "--origin", "-1", "t^2"])
# (options always drawn, options drawn at random) per command
_OPTIONS = {
    "irrep": ([_N], [_FORMAT]),
    "supp0-dims": ([_N], [_FORMAT, _MAX_DEGREE]),
    "classify": ([_N], [_FORMAT, _MAX_DEGREE] + _FLAGS),
    "kernel": ([_N, _MAX_ORDER], [_FORMAT]),
    "orbit": ([_N, _MAX_ORDER], [_FORMAT]),
    "solve": ([_N, _POLY], [_FORMAT, _MAX_ORDER]),
    "numcheck": ([_KIND], [_FORMAT, _N, _GRID, _SIGMA]),
}


@st.composite
def _generated_argv(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    required, optional = _OPTIONS[command]
    groups = [draw(option) for option in required]
    groups += draw(st.lists(st.one_of(required + optional), max_size=4))
    tokens = [token for group in groups for token in group]
    for junk in draw(st.lists(_JUNK, max_size=2)):
        tokens.insert(draw(st.integers(0, len(tokens))), junk)
    return [command] + tokens


@settings(max_examples=400, deadline=None)
@given(_generated_argv())
def test_generated_arguments_exit_cleanly(argv):
    code, _, err = _captured_run(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv
    if code == 1:
        assert len(err.splitlines()) == 1, (argv, err)


# Each class of argv the full parser treats on its own: no command, help,
# an unknown command, extras after a command, abbreviated options, --opt=value,
# '--', an option before the command, and bad values.
_DISPATCH_CORPUS = [
    [], ["--help"], ["-h"], ["-h", "irrep"], ["--he"], ["irrep", "--help"], ["classify", "-h"],
    ["numcheck", "--help"], ["kernel", "--n", "2", "--help"], ["irrep", "--n", "2", "-hx"],
    ["nonsense"], ["nonsense", "--n", "3"], ["", "irrep"],
    ["irrep", "--n", "2", "junk"], ["irrep", "--n", "2", "--bogus"], ["irrep", "-n", "1"],
    ["classify", "--n", "2", "--bogus", "x", "y"], ["irrep", "--n", "1", "-x=3"],
    ["supp0-dims", "--n", "2", "--max-deg", "6"], ["classify", "--n", "3", "--no-orig"],
    ["classify", "--n", "3", "--no-n"], ["kernel", "--n", "2", "--max", "3"],
    ["irrep", "--n", "1", "--form", "json"], ["irrep", "--n", "1", "--fo=json"],
    ["irrep", "--n=3"], ["kernel", "--n=2", "--max-order=3", "--format=json"],
    ["irrep", "--", "--n", "2"], ["irrep", "--n", "2", "--"], ["classify", "--n", "2", "--", "x"],
    ["irrep", "--n", "1", "--format", "json", "--", "--format", "table"], ["--", "irrep"],
    ["--n", "3", "irrep"], ["--format", "json", "irrep", "--n", "1"],
    ["irrep"], ["irrep", "--n"], ["irrep", "--n", "65"], ["irrep", "--n", "x"],
    ["irrep", "--n", "-1"], ["irrep", "--n", "1", "--n", "2"], ["kernel", "--n", "2"],
    ["numcheck", "--kind", "bogus"], ["irrep", "--n", "1", "--format", "xml"],
    ["solve", "--n", "2", "--poly", "2*t"],
    ["solve", "--n", "3", "--poly", "t^2", "--max-order", "4"],
    ["numcheck", "--kind", "pairing", "--grid", "32", "--format", "json"],
]


@pytest.mark.parametrize("argv", _DISPATCH_CORPUS, ids=" ".join)
def test_dispatch_to_the_command_parser_matches_one_full_parser_pass(argv, monkeypatch):
    dispatched = _captured_run(argv)
    # with no command parser to dispatch to, main takes the single
    # parse_args pass of the full parser over the whole argv
    full = cli._parsers()[0]
    monkeypatch.setattr(cli, "_parsers", lambda: (full, {}))
    assert dispatched == _captured_run(argv)


def test_reused_parser_keeps_no_state_between_calls(capsys):
    assert cli._parsers()[0] is cli._parsers()[0]
    assert run(["classify", "--n", "2", "--no-origin", "--max-degree", "4"]) == 0
    assert run(["classify", "--n", "2", "--max-degree", "65"]) == 1
    capsys.readouterr()
    assert run(["classify", "--n", "2", "--format", "json"]) == 0
    answer = json.loads(capsys.readouterr().out)["answer"]
    assert answer["flags"]["origin"] is True
    assert len(answer["supp0_graded_dims"]) == 13


_WITHOUT_NUMPY = """
import contextlib, io, sys
sys.modules["numpy"] = None           # any import of numpy now raises ImportError
import nilcone, nilcone.cli, nilcone.solver
codes = []
for argv in (["classify", "--n", "4", "--format", "json"], ["supp0-dims", "--n", "4"],
             ["irrep", "--n", "3"], ["kernel", "--n", "2", "--max-order", "3"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(nilcone.cli.main(argv))
print(codes)
"""


def test_symbolic_commands_run_without_numpy():
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0, 0]"


# the exact side of the oracle: building, hashing and differentiating a test
# function, its float form included, touches no numpy
_ORACLE_WITHOUT_NUMPY = (
    'import sys; sys.modules["numpy"] = None; from nilcone import oracle; '
    'f = oracle.TestFunction.gaussian(center=(0, 3, 0), sigma=0.75, poly={(1, 0, 0): 2}); '
    'hash(f); f.casimir(); [oracle.lie_derivative(z, f) for z in "HXY"]; '
    'assert sys.modules["numpy"] is None and not any(m.startswith("numpy.") for m in sys.modules)')


def test_exact_oracle_side_runs_without_numpy():
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", _ORACLE_WITHOUT_NUMPY], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr


_LOADED_SUBMODULES = """
import sys
import {module}
print(sorted(name for name in sys.modules if name.startswith("nilcone.")))
"""


@pytest.mark.parametrize("module, loaded", [
    ("nilcone", []),
    ("nilcone.oracle", ["nilcone.oracle"]),
    ("nilcone.solver", ["nilcone.characters", "nilcone.solver", "nilcone.transversal"]),
])
def test_each_import_loads_only_what_it_uses(module, loaded):
    # the package root re-exports nothing, so importing the oracle does not
    # load the exact engine (solver, sl2, transversal, characters, cli), and
    # the local theory takes _exact from the root, not the matrices of sl2
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", _LOADED_SUBMODULES.format(module=module)],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(loaded)


@pytest.mark.parametrize("module", ["nilcone.solver", "nilcone.cli", "nilcone.oracle"])
def test_entry_modules_do_not_load_dataclasses(module):
    # the value classes are written out by hand: dataclasses would pull in
    # inspect, ast and tokenize at every start of the engine
    src = Path(cli.__file__).resolve().parents[1]
    code = f"import sys; import {module}; print('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_library_value_errors_exit_one(monkeypatch, capsys):
    def refuse(n, K):
        raise ValueError("refused")

    monkeypatch.setattr(cli.solver, "kernel_basis", refuse)
    assert run(["kernel", "--n", "2", "--max-order", "3"]) == 1
    assert capsys.readouterr().err == "error: refused\n"


def test_exit_two_on_prediction_mismatch(monkeypatch):
    original = solver.kernel_basis

    def truncated(n, K):
        return original(n, K)[:-1]

    monkeypatch.setattr(cli.solver, "kernel_basis", truncated)
    assert run(["kernel", "--n", "2", "--max-order", "3"]) == 2


def test_exit_two_on_a_corrupted_brute_force_table(monkeypatch, capsys):
    monkeypatch.setattr(characters, "_brute_adjoint_pieces", lambda m: MappingProxyType({}))
    assert run(["supp0-dims", "--n", "0", "--max-degree", "4"]) == 2
    assert capsys.readouterr().out.splitlines()[-1].startswith("FAIL")


# -- per-process memos ----------------------------------------------------------


def _package_memos():
    """Every functools memo defined in the package."""
    memos = []
    for info in pkgutil.iter_modules(nilcone.__path__):
        if info.name != "__main__":         # importing it runs the command line
            module = importlib.import_module(f"nilcone.{info.name}")
            memos += [obj for _, obj in sorted(vars(module).items())
                      if hasattr(obj, "cache_info") and obj.__module__ == module.__name__]
    return memos


def test_memos_hold_every_n_and_degree_the_cli_accepts():
    # classify is keyed on n and the three open-set flags: 8 queries per n
    for memo, queries in ((sl2.make_irrep, cli.SIZE_CAP + 1),
                          (sl2._module_checks, cli.SIZE_CAP + 1),
                          (characters._brute_adjoint_pieces, cli.SIZE_CAP + 1),
                          (solver.classify_square_finite_supported, (cli.SIZE_CAP + 1) * 8)):
        maxsize = memo.cache_info().maxsize
        assert maxsize is not None and maxsize >= queries, memo


_CAP_BATTERIES = [["numcheck", "--kind", kind, *n, "--grid", str(grid)]
                  for grid in (cli.GRID_CAP, cli.GRID_CAP - 1)
                  for kind, n in (("invariance", ["--n", str(cli.SIZE_CAP)]),
                                  ("obstruction", ["--n", str(cli.SIZE_CAP - 1)]),
                                  ("pairing", []))]


@pytest.mark.parametrize("traffic", [["local_fresh"], ["global_cli"], ["quadrature"],
                                     *_CAP_BATTERIES],
                         ids=lambda argv: "-".join(argv[2:3] + argv[-1:]))
def test_every_memo_builds_each_entry_once(traffic, monkeypatch, capsys):
    # one round of a benchmark workload, or one numcheck battery at its --n
    # and --grid caps, from every memo cleared: a memo whose bound is below
    # the distinct keys the traffic reads evicts one and builds it again, and
    # its misses then exceed its size
    memos = _package_memos()
    assert {sl2.make_irrep, characters._brute_adjoint_pieces, oracle._node_envelope} <= set(memos)
    for memo in memos:
        memo.cache_clear()
    if traffic[0] == "numcheck":
        assert run(traffic) == 0
    else:
        monkeypatch.syspath_prepend(str(BENCH))
        workloads = importlib.import_module("workloads")
        rnd = next(workloads.WORKLOADS[traffic[0]]().rounds(seed=1))
        for query in rnd.queries:
            query.check(query.call())
        rnd.close()
    for memo in memos:
        info = memo.cache_info()
        assert info.misses == info.currsize, (memo.__name__, info)
        # unbounded only when it takes no argument, and so holds one entry
        assert info.maxsize is not None or not inspect.signature(memo).parameters, memo.__name__
    capsys.readouterr()


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_cold_and_warm_runs_print_the_same_bytes(fmt, capsys):
    for memo in (sl2._module_checks, characters._brute_adjoint_pieces,
                 solver.classify_square_finite_supported):
        memo.cache_clear()
    for argv in (["irrep", "--n", "12"], ["supp0-dims", "--n", "4", "--max-degree", "12"],
                 ["classify", "--n", "4", "--no-nminus"]):
        outputs = []
        for _ in range(2):
            assert run(argv + ["--format", fmt]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1], argv


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_cold_and_warm_numcheck_runs_print_the_same_bytes(fmt, capsys):
    # the envelope memo holds every distinct (Gaussian, grid) pair of one
    # battery, and every oracle memo each of its keys: the warm run misses
    # none of them, so it evaluates no envelope, moment table or monomial
    # weights again
    memos = _package_memos()
    for argv, pairs in ((["numcheck", "--kind", "invariance", "--n", "2"], 3),
                        (["numcheck", "--kind", "obstruction", "--n", "3"], 1),
                        (["numcheck", "--kind", "pairing"], 4)):
        for memo in memos:
            memo.cache_clear()
        outputs, misses = [], []
        for _ in range(2):
            assert run(argv + ["--format", fmt]) == 0
            outputs.append(capsys.readouterr().out)
            misses.append({memo.__name__: memo.cache_info().misses for memo in memos})
            info = oracle._node_envelope.cache_info()
            assert (info.misses, info.currsize) == (pairs, pairs), argv
        assert outputs[0] == outputs[1], argv
        assert misses[0] == misses[1], argv
        assert all(misses[0][name] for name in ("_plane_moments", "_weighted_monomials")), argv


@pytest.mark.parametrize("argv", [
    ["--kind", "invariance", "--n", "2", "--grid", "64"],
    ["--kind", "invariance", "--n", "4", "--grid", "33"],
    ["--kind", "obstruction", "--n", "3", "--grid", "33"],
    ["--kind", "obstruction", "--n", "5", "--grid", "16"],
    ["--kind", "pairing", "--grid", "96"],
    ["--kind", "pairing", "--grid", "97"]])
def test_numcheck_reads_nothing_from_its_memos_but_what_it_would_compute(argv, capsys,
                                                                          monkeypatch):
    # every oracle memo cleared before each public oracle call, so that no
    # call reads what an earlier call left, against a warm run: the same
    # exit code and the same JSON bytes
    argv = ["numcheck", *argv, "--format", "json"]
    run(argv)
    capsys.readouterr()
    warm = run(argv), capsys.readouterr().out
    memos = _package_memos()

    def cold(fn):
        def call(*args, **kwargs):
            for memo in memos:
                memo.cache_clear()
            return fn(*args, **kwargs)
        return call

    for name, obj in vars(oracle).copy().items():
        if (callable(obj) and not name.startswith("_") and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == oracle.__name__):
            monkeypatch.setattr(oracle, name, cold(obj))
    assert (run(argv), capsys.readouterr().out) == warm
    assert warm[0] in (0, 2) and warm[1]


# -- reports ------------------------------------------------------------------


def test_json_reports_are_byte_identical(capsys):
    argv = ["kernel", "--n", "4", "--max-order", "3", "--format", "json"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["verdict"] == "PASS"
    assert payload["dimension"] == 4


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2 ** 300, 2 ** 300),
    st.floats(), st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2e-308]),
    st.text(), st.text(st.characters(max_codepoint=0x20)),
    st.text(st.characters(min_codepoint=0x7f)))
_JSON_TREES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=200, deadline=None)
@given(_JSON_TREES)
@example([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300, 2 ** 300, -(2 ** 300),
          True, False, None, "\x00\x1f\"\\\x7f\u00e9\U0001f600\ud800", (), [], {},
          {"b": ({},), "": [[]], "a": (1, (2.5,))}])
def test_json_renderer_matches_json_dumps(value):
    assert cli._render_json(value) == json.dumps(value, sort_keys=True, indent=2)


def test_json_renderer_matches_json_dumps_on_every_frozen_report(capsys):
    golden = json.loads(CLI_GOLDEN.read_text())
    for entry in golden["reports"] + golden["numcheck"]:
        run(entry["argv"] + ["--format", "json"])
        out = capsys.readouterr().out
        record = json.loads(out)
        assert out == cli._render_json(record) + "\n", entry["argv"]
        assert out == json.dumps(record, sort_keys=True, indent=2) + "\n", entry["argv"]


@pytest.mark.parametrize("value", [{1, 2}, Fraction(1, 2), {1: "a"}, {"a": [1, {None: 2}]},
                                   {"a": 1, 2: 3}, [True, {(1,): 0}]], ids=repr)
def test_json_renderer_refuses_what_is_not_a_json_tree(value):
    with pytest.raises(TypeError):
        cli._render_json(value)


def test_irrep_json_contains_matrices(capsys):
    assert run(["irrep", "--n", "1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rho_h"] == [["-1", "0"], ["0", "1"]]
    assert payload["casimir_scalar"] == "3/2"
    assert all(payload["checks"].values())


def test_classify_json_all_flags(capsys):
    assert run(["classify", "--n", "2", "--no-origin", "--nplus", "--no-nminus",
                "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    answer = payload["answer"]
    assert answer["flags"] == {"origin": False, "n_plus": True, "n_minus": False}
    assert answer["half_cone_generators"] == {"plus": "countably-infinite", "minus": "zero"}
    assert all(d == 0 for d in answer["supp0_graded_dims"])
    assert payload["square_finite_supported_only_zero"] is True


def test_supp0_json(capsys):
    assert run(["supp0-dims", "--n", "0", "--max-degree", "8", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["graded_dims"] == [1, 0, 1, 0, 1, 0, 1, 0, 1]
    assert payload["graded_dims"] == payload["brute_force_dims"]


def test_numcheck_obstruction_report(capsys):
    assert run(["numcheck", "--n", "1", "--kind", "obstruction", "--grid", "64",
                "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == oracle.obstruction_report(1, 64, 0.75)


def test_numcheck_n_defaults_by_kind(capsys):
    # 1 for obstruction, which needs odd n, and 2 for invariance
    assert run(["numcheck", "--kind", "obstruction", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == oracle.obstruction_report(1, 128, 0.75)
    assert run(["numcheck", "--kind", "invariance", "--grid", "64", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == oracle.invariance_report(2, 64, 0.75)


def test_numcheck_pairing_report(capsys):
    assert run(["numcheck", "--kind", "pairing", "--grid", "96", "--sigma", "1.0",
                "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == oracle.pairing_report(96, 1.0)


def test_numcheck_invariance_report(capsys):
    assert run(["numcheck", "--n", "2", "--kind", "invariance", "--grid", "64",
                "--sigma", "0.6", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == oracle.invariance_report(2, 64, 0.6)


# -- frozen output --------------------------------------------------------------


def test_reports_match_the_frozen_output(capsys):
    """Stdout and exit code, in both formats, of the symbolic README examples
    and a few more commands, as frozen in tests/golden/cli_reports.json."""
    for entry in json.loads(CLI_GOLDEN.read_text())["reports"]:
        argv = entry["argv"] + ["--format", entry["format"]]
        assert run(argv) == entry["exit_code"], argv
        assert capsys.readouterr().out == entry["stdout"], argv


def test_numcheck_examples_keep_their_keys_and_verdict(capsys):
    """Floats may differ by platform, so only the key set and verdict are frozen."""
    for entry in json.loads(CLI_GOLDEN.read_text())["numcheck"]:
        assert run(entry["argv"] + ["--format", "json"]) == entry["exit_code"], entry["argv"]
        record = json.loads(capsys.readouterr().out)
        assert (sorted(record), record["verdict"]) == (entry["keys"], entry["verdict"])


def test_frozen_output_covers_every_readme_example():
    golden = json.loads(CLI_GOLDEN.read_text())
    frozen = [entry["argv"] for entry in golden["reports"] + golden["numcheck"]]
    for line in README.read_text().splitlines():
        if line.startswith("nilcone "):
            argv = shlex.split(line)[1:]
            if "--format" in argv:
                del argv[argv.index("--format"):argv.index("--format") + 2]
            assert argv in frozen, line


# A line that runs the CLI: an optional `run:` key, VAR=value assignments and
# a timeout, then `python -m nilcone` and its arguments, up to the first shell
# operator.
_CI_COMMAND = re.compile(r"^\s*(?:run:\s+)?(?:\w+=\S*\s+)*(?:timeout \d+\s+)?"
                         r"python -m nilcone\s+(.*)$")


def _ci_commands():
    for line in CI_WORKFLOW.read_text().splitlines():
        match = _CI_COMMAND.match(line)
        if match:
            lexer = shlex.shlex(match.group(1), posix=True, punctuation_chars=True)
            lexer.whitespace_split = True
            tokens = list(lexer)
            operator = next((k for k, t in enumerate(tokens) if set(t) <= set("|&;<>")), None)
            yield line, tokens[:operator]


def test_ci_commands_name_real_commands_and_options():
    # a renamed command or flag fails here instead of in CI; a line whose
    # command is a shell variable (the JSON renderer step's $argv) is skipped
    commands = cli._parsers()[1]
    checked = set()
    for line, argv in _ci_commands():
        if argv[0].startswith("$"):
            continue
        assert argv[0] in commands, line
        options = commands[argv[0]]._option_string_actions
        assert all(t in options for t in argv if t.startswith("--")), line
        checked.add(argv[0])
    assert checked == set(commands)
