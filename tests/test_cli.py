"""Command-line contract: parsing, exit codes, stable JSON."""

import argparse
import json
from fractions import Fraction

import pytest

import nilcone.cli as cli
import nilcone.solver as solver
from nilcone.cli import UsageError, main, parse_poly


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# -- polynomial parser --------------------------------------------------------


def test_parse_poly_examples():
    p = parse_poly("t^2-3/2*t+1")
    assert p.degree == 2
    assert p.lower_coeffs == (Fraction(1), Fraction(-3, 2))
    assert parse_poly("t").degree == 1
    assert parse_poly("t^3+t").lower_coeffs == (Fraction(0), Fraction(1), Fraction(0))
    assert parse_poly(" t^2 + 1/3 ").lower_coeffs == (Fraction(1, 3), Fraction(0))
    assert parse_poly("-t+t^2").lower_coeffs == (Fraction(0), Fraction(-1))


@pytest.mark.parametrize("bad", ["2*t^2", "5", "q+1", "t^", "t^x", "", "t^2++1", "3/"])
def test_parse_poly_rejects(bad):
    with pytest.raises(UsageError):
        parse_poly(bad)


@pytest.mark.parametrize("text", ["t^65", "t^65+t^2", "t^99999999999"])
def test_parse_poly_rejects_degree_over_cap(text):
    with pytest.raises(UsageError, match="at most 64"):
        parse_poly(text)


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
])
def test_bad_arguments_exit_one_with_one_error_line(argv, capsys):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith("error: ")
    assert "Traceback" not in captured.err


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
    payload = json.loads(capsys.readouterr().out)
    assert payload["relative_obstruction"] < 1e-12
    assert payload["relative_negative_control"] > 1e-3


def test_numcheck_pairing_report(capsys):
    assert run(["numcheck", "--kind", "pairing", "--grid", "96", "--sigma", "1.0",
                "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["two_route_agreement"] < 1e-9
    assert payload["positive_pairing"] > 0
