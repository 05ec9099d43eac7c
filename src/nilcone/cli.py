"""Batch command-line front end.

Every command prints the record of one module function, as a human table
or as stable JSON, ending in that record's PASS/FAIL verdict:

    irrep       sl2.irrep_report
    kernel      solver.kernel_report
    orbit       solver.orbit_report
    solve       solver.solve_report
    supp0-dims  characters.graded_dims_report
    classify    solver.classify_report
    numcheck    oracle.invariance_report, obstruction_report, pairing_report

This module parses arguments and renders records; it decides no verdict.
Each command's arguments are parsed once, by that command's own parser;
an argv that does not start with a command name goes to the full parser,
which reports it.  `--format json` prints exactly
json.dumps(record, sort_keys=True, indent=2) and a newline.
`solve --poly` reads a monic polynomial in t as a sum of terms
[sign] [coefficient ['*']] ['t' ['^' integer]], where a coefficient is an
integer or integer/integer, every term after the first is signed, and
blanks may separate tokens: "t^2-3/2*t+1", "-3/2*t^2 + t^3 + t".
Exit codes: 0 verdict PASS, 1 bad arguments (one "error: ..." line on
stderr), 2 verdict FAIL (a prediction mismatch is treated as a
build-breaking defect).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str

from . import characters, oracle, sl2, solver
from .solver import CasimirPolynomial, GlobalQuery


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        sys.stderr.write(f"error: {message} (see '{self.prog} --help')\n")
        raise SystemExit(1)


def _ranged(convert, accept, requirement: str):
    """argparse type: convert the text, then require accept(value)."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value
    return parse


# Upper caps bound the work a single command may ask for: --n, --max-order,
# --max-degree and the degree of --poly are at most SIZE_CAP, --grid (nodes
# per axis of an m x m quadrature grid) at most GRID_CAP.
SIZE_CAP = 64
GRID_CAP = 512

_natural = _ranged(int, lambda v: 0 <= v <= SIZE_CAP, f"an integer in [0, {SIZE_CAP}]")
_grid_size = _ranged(int, lambda v: 2 <= v <= GRID_CAP, f"an integer in [2, {GRID_CAP}]")
_width = _ranged(float, lambda v: oracle.SIGMA_WINDOW[0] <= v <= oracle.SIGMA_WINDOW[1],
                 "a number in [{:g}, {:g}]".format(*oracle.SIGMA_WINDOW))


# ---------------------------------------------------------------------------
# --poly: one match of _TERM per term of the grammar in the module docstring

_TERM = re.compile(r"\s*([-+]?)\s*(?:(\d+)(?:/(\d+))?\s*(\*?))?"   # [sign] [coefficient ['*']]
                   r"\s*(?:(t)\s*(?:\^\s*(\d+))?)?\s*")              # ['t' ['^' integer]]


def parse_poly(text: str) -> CasimirPolynomial:
    """Parse a monic polynomial in t with rational coefficients, of degree
    at most SIZE_CAP."""
    coeffs: dict[int, Fraction] = {}
    pos = 0
    while not coeffs or pos < len(text):
        term = _TERM.match(text, pos)
        sign, num, den, star, t, exponent = term.groups()
        if not (num or t) or (star and not t) or (pos and not sign) or (den and not int(den)):
            raise ValueError(f"malformed term at position {pos} of polynomial {text!r}")
        degree = int(exponent or 1) if t else 0
        coeff = Fraction(int(num), int(den or 1)) if num else Fraction(1)
        coeffs[degree] = coeffs.get(degree, 0) + (-coeff if sign == "-" else coeff)
        pos = term.end()
    degree = max(coeffs)
    if degree > SIZE_CAP:
        raise ValueError(f"the polynomial degree must be at most {SIZE_CAP}, got {degree}")
    if degree < 1:
        raise ValueError("the polynomial must have degree at least 1")
    if coeffs[degree] != 1:
        raise ValueError(f"the polynomial must be monic, got leading coefficient {coeffs[degree]}")
    return CasimirPolynomial(tuple(coeffs.get(k, Fraction(0)) for k in range(degree)))


# ---------------------------------------------------------------------------
# JSON rendering

_INF = float("inf")


def _render_json(value, indent: str = "\n") -> str:
    """json.dumps(value, sort_keys=True, indent=2), byte for byte, for a tree
    of str, int, bool, None, float, list, tuple and dict with str keys, each
    of exactly that type; any other type raises TypeError.  With an indent
    the standard encoder runs in pure Python, one generator step per token;
    this joins each list and dict in one call."""
    kind = type(value)
    if kind is str:
        return _json_str(value)
    if kind is dict or kind is list or kind is tuple:
        if not value:
            return "{}" if kind is dict else "[]"
        inner = indent + "  "
        if kind is dict:    # a key that is not a str raises TypeError in _json_str
            body = [_json_str(k) + ": " + _render_json(v, inner) for k, v in sorted(value.items())]
            return "{" + inner + ("," + inner).join(body) + indent + "}"
        body = [_render_json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(body) + indent + "]"
    if kind is int:
        return repr(value)
    if kind is bool or value is None:
        return "true" if value is True else "false" if value is False else "null"
    if kind is float:
        if value != value:
            return "NaN"
        return "Infinity" if value == _INF else "-Infinity" if value == -_INF else repr(value)
    raise TypeError(f"cannot render a {kind.__name__} as JSON")


# ---------------------------------------------------------------------------
# table rendering: the lines above a record's verdict line


def _matrix_lines(name: str, rows: list[list[str]]) -> list[str]:
    width = max((len(v) for row in rows for v in row), default=1)
    return [f"{name} ="] + ["  [" + " ".join(v.rjust(width) for v in row) + "]" for row in rows]


def _dist_lines(label: str, records: list[dict]) -> list[str]:
    return [f"  {label}[{j}] = {json.dumps(rec, sort_keys=True)}" for j, rec in enumerate(records)]


def _irrep_lines(r: dict) -> list[str]:
    return (_matrix_lines("rho(H)", r["rho_h"]) + _matrix_lines("rho(X)", r["rho_x"])
            + _matrix_lines("rho(Y)", r["rho_y"])
            + [f"casimir scalar = {r['casimir_scalar']} "
               f"(expected {sl2.expected_casimir(r['n'])})"])


def _kernel_lines(r: dict) -> list[str]:
    return [f"invariant kernel for n={r['n']}, delta order <= {r['max_order']}",
            f"dimension = {r['dimension']} (predicted {r['predicted_dimension']})",
            *_dist_lines("basis", r["basis"])]


def _orbit_lines(r: dict) -> list[str]:
    return [f"Casimir orbit of the delta seed for n={r['n']}",
            f"length = {r['length']} (predicted {r['predicted_length']})",
            *_dist_lines("orbit", r["elements"])]


def _solve_lines(r: dict) -> list[str]:
    return [f"invariant solutions of p(casimir) = 0, p = {r['poly']}, n={r['n']}, "
            f"order <= {r['max_order']}",
            f"dimension = {r['dimension']} (predicted {r['predicted_dimension']})",
            *_dist_lines("basis", r["basis"])]


def _supp0_lines(r: dict) -> list[str]:
    return [f"origin-supported invariant dimensions for n={r['n']} by degree:",
            "  " + " ".join(f"{m}:{d}" for m, d in enumerate(r["graded_dims"]))]


def _classify_lines(r: dict) -> list[str]:
    answer, flags = r["answer"], r["answer"]["flags"]
    return [f"classification for n={answer['n']}, origin={flags['origin']}, "
            f"n_plus={flags['n_plus']}, n_minus={flags['n_minus']}:",
            *(f"  {case}" for case in answer["cases"]),
            f"  origin graded dims: {answer['supp0_graded_dims']}",
            f"  realizable as an invariant open set: {answer['realizable']}",
            "  Casimir-finite cone-supported space is zero: "
            f"{r['square_finite_supported_only_zero']}"]


def _numcheck_lines(r: dict) -> list[str]:
    if r["kind"] == "invariance":
        return ["relative invariance residuals (rows: grid size)"] + [
            f"  m={row['m']}: " + "  ".join(f"{z}={row[z]:.3e}" for z in "HXY")
            for row in r["table"]]
    if r["kind"] == "obstruction":
        return [f"odd-section obstruction for n={r['n']}: relative value "
                f"{r['relative_obstruction']:.3e}",
                f"negative control (parity broken): {r['relative_negative_control']:.3e}"]
    return [f"pairing of Casimir-image: midpoint {r['casimir_pairing_midpoint']:.12g}, "
            f"gauss {r['casimir_pairing_gauss']:.12g} "
            f"(relative gap {r['two_route_agreement']:.3e})",
            f"positivity witness: {r['positive_pairing']:.6g} (> 0 expected)",
            f"far-off-cone Gaussian: {r['far_gaussian_pairing']:.3e} (~ 0 expected)",
            f"cone-annihilating polynomial factor: {r['cone_annihilator_pairing']:.3e} "
            "(~ 0 expected)",
            f"reported tail bound: {r['tail_bound']:.3e}"]


def _numcheck(args) -> dict:
    if args.kind == "pairing":
        if args.n is not None:
            raise ValueError("numcheck --kind pairing takes no --n")
        return oracle.pairing_report(args.grid, args.sigma)
    if args.kind == "invariance":
        return oracle.invariance_report(2 if args.n is None else args.n, args.grid, args.sigma)
    return oracle.obstruction_report(1 if args.n is None else args.n, args.grid, args.sigma)


# ---------------------------------------------------------------------------


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The full parser and, by command name, the subparser it hands the
    arguments after that name to, built once per process: parsing keeps no
    state in them, since every parse_args call fills a fresh namespace."""
    parser = _Parser(prog="nilcone",
                     description="Exact classification of invariant distributions "
                                 "supported on the nilpotent cone of sl(2,R), with "
                                 "numeric cross-checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("irrep", help="module matrices and Casimir scalar")
    p.add_argument("--n", type=_natural, required=True)
    p.set_defaults(report=lambda a: sl2.irrep_report(a.n), lines=_irrep_lines)

    p = sub.add_parser("kernel", help="order-bounded invariant kernel on the transversal")
    p.add_argument("--n", type=_natural, required=True)
    p.add_argument("--max-order", type=_natural, required=True)
    p.set_defaults(report=lambda a: solver.kernel_report(a.n, a.max_order),
                   lines=_kernel_lines)

    p = sub.add_parser("orbit", help="Casimir iterates of the delta seed")
    p.add_argument("--n", type=_natural, required=True)
    p.add_argument("--max-order", type=_natural, required=True)
    p.set_defaults(report=lambda a: solver.orbit_report(a.n, a.max_order),
                   lines=_orbit_lines)

    p = sub.add_parser("solve", help="invariant solutions of a monic polynomial in the Casimir")
    p.add_argument("--n", type=_natural, required=True)
    p.add_argument("--poly", type=str, required=True,
                   help="monic polynomial in t, e.g. 't^2-3/2*t+1'")
    p.add_argument("--max-order", type=_natural, default=8)
    p.set_defaults(report=lambda a: solver.solve_report(a.n, parse_poly(a.poly), a.max_order),
                   lines=_solve_lines)

    p = sub.add_parser("supp0-dims", help="graded dimensions of origin-supported invariants")
    p.add_argument("--n", type=_natural, required=True)
    p.add_argument("--max-degree", type=_natural, default=12)
    p.set_defaults(report=lambda a: characters.graded_dims_report(a.n, a.max_degree),
                   lines=_supp0_lines)

    p = sub.add_parser("classify", help="decision table over an invariant open set")
    p.add_argument("--n", type=_natural, required=True)
    p.add_argument("--origin", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--nplus", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--nminus", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--max-degree", type=_natural, default=12)
    p.set_defaults(report=lambda a: solver.classify_report(
                       GlobalQuery(a.n, a.origin, a.nplus, a.nminus), a.max_degree),
                   lines=_classify_lines)

    p = sub.add_parser("numcheck", help="floating-point cross-checks")
    p.add_argument("--n", type=_natural, default=None,
                   help="default 2 for --kind invariance (even n) and 1 for obstruction "
                        "(odd n); pairing takes no n")
    p.add_argument("--kind", choices=("invariance", "obstruction", "pairing"),
                   required=True)
    p.add_argument("--grid", type=_grid_size, default=128)
    p.add_argument("--sigma", type=_width, default=0.75)
    p.set_defaults(report=_numcheck, lines=_numcheck_lines)

    for p in sub.choices.values():
        p.add_argument("--format", choices=("table", "json"), default="table")
    return parser, sub.choices


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is None:     # no command name first: the full parser reports it
        args = parser.parse_args(argv)
    else:   # the one pass the full parser would make, without its scan for the name
        args, extras = command.parse_known_args(argv[1:])
        if extras:
            parser.error("unrecognized arguments: " + " ".join(extras))
    try:
        report = args.report(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except ArithmeticError as exc:
        sys.stderr.write(f"internal contradiction: {exc}\n")
        return 2
    if args.format == "json":
        print(_render_json(report))
    else:
        print("\n".join(args.lines(report) + [f"{report['verdict']}: {report['verdict_detail']}"]))
    return 0 if report["verdict"] == "PASS" else 2
