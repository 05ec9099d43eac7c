"""Batch command-line front end.

Every command prints a report (human table or stable JSON) ending in a
PASS/FAIL verdict computed from module outputs, never re-derived here.
Exit codes: 0 verdict PASS, 1 bad arguments (one "error: ..." line on
stderr), 2 verdict FAIL (a prediction mismatch is treated as a
build-breaking defect).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

from . import characters, oracle, sl2, solver
from .solver import CasimirPolynomial, GlobalQuery


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        sys.stderr.write(f"error: {message} (see '{self.prog} --help')\n")
        raise SystemExit(1)


class UsageError(ValueError):
    pass


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
_width = _ranged(float, lambda v: math.isfinite(v) and v > 0, "a finite number > 0")


# ---------------------------------------------------------------------------
# polynomial argument syntax: monic in t, rational coefficients,
# e.g. "t^3", "t^2-3/2*t+1".  Tiny recursive-descent parser.


def _tokenize_poly(text: str) -> list[str]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*^t":
            tokens.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "/":
                j += 1
                if j >= n or not text[j].isdigit():
                    raise UsageError(f"bad rational literal in {text!r}")
                while j < n and text[j].isdigit():
                    j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise UsageError(f"unexpected character {ch!r} in polynomial {text!r}")
    return tokens


class _PolyReader:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def term(self) -> tuple[int, Fraction]:
        """One monomial: [coeff ['*']] ['t' ['^' int]]; returns (degree, coeff)."""
        coeff = Fraction(1)
        have_coeff = False
        tok = self.peek()
        if tok is not None and tok[0].isdigit():
            coeff = Fraction(self.take())
            have_coeff = True
            if self.peek() == "*":
                self.take()
        if self.peek() == "t":
            self.take()
            degree = 1
            if self.peek() == "^":
                self.take()
                tok = self.take()
                if tok is None or not tok.isdigit():
                    raise UsageError("expected an integer exponent after '^'")
                degree = int(tok)
            return degree, coeff
        if not have_coeff:
            raise UsageError("expected a coefficient or 't'")
        return 0, coeff


def parse_poly(text: str) -> CasimirPolynomial:
    """Parse a monic polynomial in t with rational coefficients, of degree
    at most SIZE_CAP."""
    reader = _PolyReader(_tokenize_poly(text))
    coeffs: dict[int, Fraction] = {}
    sign = Fraction(1)
    if reader.peek() in ("+", "-"):
        sign = Fraction(-1) if reader.take() == "-" else Fraction(1)
    while True:
        degree, coeff = reader.term()
        coeffs[degree] = coeffs.get(degree, Fraction(0)) + sign * coeff
        tok = reader.peek()
        if tok is None:
            break
        if tok not in ("+", "-"):
            raise UsageError(f"expected '+' or '-' between terms, got {tok!r}")
        sign = Fraction(-1) if reader.take() == "-" else Fraction(1)
    degree = max(coeffs)
    if degree > SIZE_CAP:
        raise UsageError(f"the polynomial degree must be at most {SIZE_CAP}, got {degree}")
    if degree < 1:
        raise UsageError("the polynomial must have degree at least 1")
    if coeffs[degree] != 1:
        raise UsageError(f"the polynomial must be monic, got leading coefficient {coeffs[degree]}")
    return CasimirPolynomial(tuple(coeffs.get(k, Fraction(0)) for k in range(degree)))


# ---------------------------------------------------------------------------
# report plumbing


def _emit(report: dict, fmt: str, lines) -> None:
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)
        print(("PASS" if report["verdict"] == "PASS" else "FAIL") + ": " + report["verdict_detail"])


def _matrix_lines(name: str, mat: sl2.EndMatrix) -> list[str]:
    width = max((len(str(v)) for row in mat.rows for v in row), default=1)
    out = [f"{name} ="]
    for row in mat.rows:
        out.append("  [" + " ".join(str(v).rjust(width) for v in row) + "]")
    return out


def _matrix_record(mat: sl2.EndMatrix) -> list[list[str]]:
    return [[str(v) for v in row] for row in mat.rows]


# ---------------------------------------------------------------------------
# commands


def _cmd_irrep(args) -> int:
    rep = sl2.make_irrep(args.n)
    checks = {
        "commutator_hx": sl2.commutator(rep.rho_h, rep.rho_x) == 2 * rep.rho_x,
        "commutator_hy": sl2.commutator(rep.rho_h, rep.rho_y) == (-2) * rep.rho_y,
        "commutator_xy": sl2.commutator(rep.rho_x, rep.rho_y) == rep.rho_h,
        "raising_nilpotent": (rep.rho_x ** (args.n + 1)).is_zero(),
        "lowering_nilpotent": (rep.rho_y ** (args.n + 1)).is_zero(),
    }
    try:
        scalar = sl2.casimir_scalar(rep)
        checks["casimir_scalar"] = scalar == sl2.expected_casimir(args.n)
    except ValueError:
        scalar = None
        checks["casimir_scalar"] = False
    passed = all(checks.values())
    report = {
        "command": "irrep",
        "n": args.n,
        "rho_h": _matrix_record(rep.rho_h),
        "rho_x": _matrix_record(rep.rho_x),
        "rho_y": _matrix_record(rep.rho_y),
        "casimir_scalar": str(scalar) if scalar is not None else None,
        "checks": checks,
        "verdict": "PASS" if passed else "FAIL",
        "verdict_detail": f"module invariants for n={args.n}",
    }
    lines = (_matrix_lines("rho(H)", rep.rho_h) + _matrix_lines("rho(X)", rep.rho_x)
             + _matrix_lines("rho(Y)", rep.rho_y)
             + [f"casimir scalar = {scalar} (expected {sl2.expected_casimir(args.n)})"])
    _emit(report, args.format, lines)
    return 0 if passed else 2


def _cmd_kernel(args) -> int:
    basis = solver.kernel_basis(args.n, args.max_order)
    predicted = solver.predicted_kernel_dim(args.n, args.max_order)
    passed = len(basis) == predicted
    report = {
        "command": "kernel",
        "n": args.n,
        "max_order": args.max_order,
        "dimension": len(basis),
        "predicted_dimension": predicted,
        "basis": [dist.to_record() for dist in basis],
        "verdict": "PASS" if passed else "FAIL",
        "verdict_detail": f"kernel dimension {len(basis)} vs predicted {predicted}",
    }
    lines = [f"invariant kernel for n={args.n}, delta order <= {args.max_order}",
             f"dimension = {len(basis)} (predicted {predicted})"]
    lines += [f"  basis[{j}] = {dist.to_json()}" for j, dist in enumerate(basis)]
    _emit(report, args.format, lines)
    return 0 if passed else 2


def _cmd_orbit(args) -> int:
    try:
        orbit = solver.casimir_orbit(args.n, args.max_order)
    except ArithmeticError as exc:
        report = {"command": "orbit", "n": args.n, "max_order": args.max_order,
                  "verdict": "FAIL", "verdict_detail": str(exc)}
        _emit(report, args.format, [str(exc)])
        return 2
    predicted = solver.predicted_orbit_length(args.n, args.max_order)
    passed = len(orbit) == predicted
    report = {
        "command": "orbit",
        "n": args.n,
        "max_order": args.max_order,
        "length": len(orbit),
        "predicted_length": predicted,
        "elements": [dist.to_record() for dist in orbit],
        "verdict": "PASS" if passed else "FAIL",
        "verdict_detail": f"orbit length {len(orbit)} vs predicted {predicted}",
    }
    lines = [f"Casimir orbit of the delta seed for n={args.n}",
             f"length = {len(orbit)} (predicted {predicted})"]
    lines += [f"  orbit[{k}] = {dist.to_json()}" for k, dist in enumerate(orbit)]
    _emit(report, args.format, lines)
    return 0 if passed else 2


def _cmd_solve(args) -> int:
    poly = parse_poly(args.poly)
    sols = solver.solve_polynomial(args.n, poly, args.max_order)
    predicted = solver.predicted_solve_dim(args.n, poly, args.max_order)
    passed = len(sols) == predicted
    report = {
        "command": "solve",
        "n": args.n,
        "max_order": args.max_order,
        "poly": str(poly),
        "dimension": len(sols),
        "predicted_dimension": predicted,
        "basis": [dist.to_record() for dist in sols],
        "verdict": "PASS" if passed else "FAIL",
        "verdict_detail": f"solution dimension {len(sols)} vs predicted {predicted}",
    }
    lines = [f"invariant solutions of p(casimir) = 0, p = {poly}, n={args.n}, order <= {args.max_order}",
             f"dimension = {len(sols)} (predicted {predicted})"]
    lines += [f"  basis[{j}] = {dist.to_json()}" for j, dist in enumerate(sols)]
    _emit(report, args.format, lines)
    return 0 if passed else 2


def _cmd_supp0(args) -> int:
    dims = [characters.invariant_dim(args.n, m) for m in range(args.max_degree + 1)]
    brute = []
    for m in range(args.max_degree + 1):
        pieces = characters.decompose_into_irreducibles(
            characters.sym_power_brute(m, characters.adjoint_character()))
        brute.append(pieces.get(args.n, 0))
    parity_ok = args.n % 2 == 0 or all(d == 0 for d in dims)
    passed = dims == brute and parity_ok
    report = {
        "command": "supp0-dims",
        "n": args.n,
        "max_degree": args.max_degree,
        "graded_dims": dims,
        "brute_force_dims": brute,
        "verdict": "PASS" if passed else "FAIL",
        "verdict_detail": "graded dimensions agree with brute-force enumeration",
    }
    lines = [f"origin-supported invariant dimensions for n={args.n} by degree:",
             "  " + " ".join(f"{m}:{d}" for m, d in enumerate(dims))]
    _emit(report, args.format, lines)
    return 0 if passed else 2


def _cmd_classify(args) -> int:
    query = GlobalQuery(args.n, args.origin, args.nplus, args.nminus)
    answer = solver.classify_global(query, max_degree=args.max_degree)
    finite = solver.classify_square_finite_supported(args.n, query)
    consistent = True
    if args.n % 2 == 1:
        consistent &= (answer.half_cone_plus_generators == "zero"
                       and answer.half_cone_minus_generators == "zero")
    if not args.origin:
        consistent &= all(d == 0 for d in answer.dim_supp0_graded)
    passed = consistent and finite
    report = {
        "command": "classify",
        "answer": answer.to_record(),
        "square_finite_supported_only_zero": finite,
        "verdict": "PASS" if passed else "FAIL",
        "verdict_detail": "decision table consistent; Casimir-finite cone-supported space is zero",
    }
    lines = [f"classification for n={args.n}, origin={args.origin}, "
             f"n_plus={args.nplus}, n_minus={args.nminus}:"]
    lines += [f"  {s}" for s in answer.statement]
    lines.append(f"  origin graded dims: {list(answer.dim_supp0_graded)}")
    lines.append(f"  realizable as an invariant open set: {answer.realizable}")
    lines.append(f"  Casimir-finite cone-supported space is zero: {finite}")
    _emit(report, args.format, lines)
    return 0 if passed else 2


def _cmd_numcheck(args) -> int:
    sigma = args.sigma
    if args.kind == "invariance":
        if args.n % 2:
            raise UsageError("invariance checks need even n")
        center = (0, 3, 0)
        func = oracle.TestFunction.gaussian(center=center, sigma=sigma)
        radius = 6.0 * sigma
        table = []
        for m in (max(args.grid // 4, 8), max(args.grid // 2, 8), args.grid):
            grid = oracle.QuadratureGrid(radius, m)
            row = {"m": m}
            pairing = oracle.seed_pairing(args.n, func, grid)
            scale = math.sqrt(float(sum(v * v for v in pairing)))
            for z in ("H", "X", "Y"):
                resid = oracle.invariance_residual(args.n, z, func, grid)
                row[z] = resid / scale if scale else float("inf")
            table.append(row)
        worst = max(table[-1][z] for z in ("H", "X", "Y"))
        passed = worst < 1e-6
        report = {
            "command": "numcheck", "kind": "invariance", "n": args.n,
            "sigma": sigma, "radius": radius, "table": table,
            "worst_relative_residual": worst,
            "verdict": "PASS" if passed else "FAIL",
            "verdict_detail": f"worst relative residual {worst:.3e} at m={args.grid}",
        }
        lines = ["relative invariance residuals (rows: grid size)"]
        lines += [f"  m={row['m']}: " + "  ".join(f"{z}={row[z]:.3e}" for z in "HXY")
                  for row in table]
        _emit(report, args.format, lines)
        return 0 if passed else 2

    if args.kind == "obstruction":
        if args.n % 2 == 0:
            raise UsageError("obstruction checks need odd n")
        func = oracle.TestFunction.gaussian(center=(0, 1, 0), sigma=sigma)
        grid = oracle.QuadratureGrid(6.0 * sigma, args.grid)
        scale = oracle.odd_section_scale(args.n, func, grid)
        value = oracle.odd_section_obstruction(args.n, func, grid)
        control = oracle.odd_section_obstruction(args.n, func, grid, negative_control=True)
        rel = value / scale if scale else float("inf")
        rel_control = control / scale if scale else 0.0
        passed = rel < 1e-12 and rel_control > 1e-3
        report = {
            "command": "numcheck", "kind": "obstruction", "n": args.n,
            "sigma": sigma, "grid": args.grid,
            "relative_obstruction": rel, "relative_negative_control": rel_control,
            "verdict": "PASS" if passed else "FAIL",
            "verdict_detail": f"obstruction {rel:.3e}, negative control {rel_control:.3e}",
        }
        lines = [f"odd-section obstruction for n={args.n}: relative value {rel:.3e}",
                 f"negative control (parity broken): {rel_control:.3e}"]
        _emit(report, args.format, lines)
        return 0 if passed else 2

    # pairing consistency battery
    func = oracle.TestFunction.gaussian(center=(0, 1, 0), sigma=sigma)
    grid_mid = oracle.QuadratureGrid(6.0 * sigma, args.grid, "midpoint")
    grid_gauss = oracle.QuadratureGrid(6.0 * sigma, max(args.grid * 3 // 4, 8), "gauss")
    casimired = func.casimir()
    route_a = oracle.pair_delta_nplus(casimired, grid_mid)
    route_b = oracle.pair_delta_nplus(casimired, grid_gauss)
    denom = max(abs(route_a), abs(route_b), 1e-30)
    agreement = abs(route_a - route_b) / denom
    positive = oracle.pair_delta_nplus(
        oracle.TestFunction.gaussian(center=(0, 1, 0), sigma=sigma,
                                     poly={(0, 1, 0): 1, (0, 0, 1): -1}), grid_mid)
    far = oracle.pair_delta_nplus(
        oracle.TestFunction.gaussian(center=(0, -5, 5), sigma=0.5), grid_mid)
    support = oracle.pair_delta_nplus(
        oracle.TestFunction.gaussian(center=(0, 1, 0), sigma=sigma,
                                     poly={(2, 0, 0): 1, (0, 1, 1): 1}), grid_mid)
    base = abs(oracle.pair_delta_nplus(func, grid_mid))
    tail = oracle.tail_bound(func, grid_mid)
    passed = (agreement < 1e-9 and positive > 0
              and abs(far) < 1e-12 * max(base, 1.0) and abs(support) < 1e-12 * max(base, 1.0))
    report = {
        "command": "numcheck", "kind": "pairing", "sigma": sigma, "grid": args.grid,
        "two_route_agreement": agreement,
        "casimir_pairing_midpoint": route_a,
        "casimir_pairing_gauss": route_b,
        "positive_pairing": positive,
        "far_gaussian_pairing": far,
        "cone_annihilator_pairing": support,
        "tail_bound": tail,
        "verdict": "PASS" if passed else "FAIL",
        "verdict_detail": f"two-route agreement {agreement:.3e}; support and decay checks",
    }
    lines = [f"pairing of Casimir-image: midpoint {route_a:.12g}, gauss {route_b:.12g} "
             f"(relative gap {agreement:.3e})",
             f"positivity witness: {positive:.6g} (> 0 expected)",
             f"far-off-cone Gaussian: {far:.3e} (~ 0 expected)",
             f"cone-annihilating polynomial factor: {support:.3e} (~ 0 expected)",
             f"reported tail bound: {tail:.3e}"]
    _emit(report, args.format, lines)
    return 0 if passed else 2


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no
    state in it, since every parse_args call fills a fresh namespace."""
    parser = _Parser(prog="nilcone",
                     description="Exact classification of invariant distributions "
                                 "supported on the nilpotent cone of sl(2,R), with "
                                 "numeric cross-checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("irrep", help="module matrices and Casimir scalar")
    p.add_argument("--n", type=_natural, required=True)
    common(p)
    p.set_defaults(func=_cmd_irrep)

    p = sub.add_parser("kernel", help="order-bounded invariant kernel on the transversal")
    p.add_argument("--n", type=_natural, required=True)
    p.add_argument("--max-order", type=_natural, required=True)
    common(p)
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("orbit", help="Casimir iterates of the delta seed")
    p.add_argument("--n", type=_natural, required=True)
    p.add_argument("--max-order", type=_natural, required=True)
    common(p)
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("solve", help="invariant solutions of a monic polynomial in the Casimir")
    p.add_argument("--n", type=_natural, required=True)
    p.add_argument("--poly", type=str, required=True,
                   help="monic polynomial in t, e.g. 't^2-3/2*t+1'")
    p.add_argument("--max-order", type=_natural, default=8)
    common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("supp0-dims", help="graded dimensions of origin-supported invariants")
    p.add_argument("--n", type=_natural, required=True)
    p.add_argument("--max-degree", type=_natural, default=12)
    common(p)
    p.set_defaults(func=_cmd_supp0)

    p = sub.add_parser("classify", help="decision table over an invariant open set")
    p.add_argument("--n", type=_natural, required=True)
    p.add_argument("--origin", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--nplus", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--nminus", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--max-degree", type=_natural, default=12)
    common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("numcheck", help="floating-point cross-checks")
    p.add_argument("--n", type=_natural, default=2)
    p.add_argument("--kind", choices=("invariance", "obstruction", "pairing"),
                   required=True)
    p.add_argument("--grid", type=_grid_size, default=128)
    p.add_argument("--sigma", type=_width, default=0.75)
    common(p)
    p.set_defaults(func=_cmd_numcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except ArithmeticError as exc:
        sys.stderr.write(f"internal contradiction: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
