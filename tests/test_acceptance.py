"""Acceptance suite: one test per stated guarantee, with its runtime budget.

Each test prints a single PASS/FAIL line (visible under ``pytest -s``).
Symbolic criteria are exact.  The numeric criteria assert the verdicts of
the oracle's reports, whose thresholds are the named constants of
nilcone.oracle; test_oracle_thresholds_are_the_stated_ones pins each to
its stated value.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

from nilcone import sl2
from nilcone.characters import (adjoint_character, decompose_into_irreducibles,
                                invariant_dim, irrep_character, sym_power)
from nilcone.oracle import (CONTROL_MIN, INVARIANCE_TOL, ROUNDOFF, ROUTES_TOL,
                            invariance_report, obstruction_report)
from nilcone.solver import (CasimirPolynomial, GlobalQuery, change_of_basis,
                            classify_global, classify_square_finite_supported,
                            kernel_basis, predicted_kernel_dim, solve_polynomial)
from nilcone.transversal import TransversalDist, delta_seed, equivariance_defect, radial_casimir

from test_transversal import radial_mn

GOLDEN = Path(__file__).parent / "golden" / "classify_global.json"


def _finish(num: int, desc: str, started: float, budget: float, violations: list):
    elapsed = time.perf_counter() - started
    verdict = "PASS" if not violations and elapsed < budget else "FAIL"
    print(f"{verdict} criterion {num}: {desc} [{elapsed:.2f}s / budget {budget:.0f}s]")
    assert not violations, violations[:5]
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget: {elapsed:.2f}s"


def _random_invariant(n, K, rng):
    acc = TransversalDist(n, {})
    for b in kernel_basis(n, K):
        acc = acc + Fraction(rng.randint(-9, 9), rng.randint(1, 9)) * b
    return acc


def _random_monic(rng, degree, nonzero_constant=False):
    lower = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(degree)]
    if nonzero_constant and lower[0] == 0:
        lower[0] = Fraction(rng.randint(1, 6))
    return CasimirPolynomial(tuple(lower))


def test_criterion_01_representation_exactness():
    # certify cold: the per-module checks are memoised, and earlier tests
    # may have filled the memo
    sl2._module_checks.cache_clear()
    started = time.perf_counter()
    violations = []
    for n in range(17):
        report = sl2.irrep_report(n)
        if report["verdict"] != "PASS":
            violations.append((n, [name for name, ok in report["checks"].items() if not ok]))
    _finish(1, "structure relations, nilpotency and Casimir scalar, n <= 16, exact",
            started, 1.0, violations)


def test_criterion_02_kernel_dimensions():
    started = time.perf_counter()
    violations = []
    for n in list(range(0, 9, 2)) + list(range(1, 10, 2)):
        for K in range(13):
            got = len(kernel_basis(n, K))
            want = predicted_kernel_dim(n, K)
            if got != want:
                violations.append((n, K, got, want))
    _finish(2, "kernel dimension K+1 (even) / min(K+1,(n+1)/2) (odd), K <= 12",
            started, 10.0, violations)


def test_criterion_03_orbit_bases():
    started = time.perf_counter()
    violations = []
    for n in range(10):
        kmax = 8 if n % 2 == 0 else (n - 1) // 2
        matrix = change_of_basis(n, kmax)
        expected = Fraction(1)
        for k in range(len(matrix)):
            for j in range(len(matrix)):
                if j != k and matrix[j][k] != 0:
                    violations.append(("off-diagonal", n, j, k))
            if matrix[k][k] != expected:
                violations.append(("diagonal", n, k, matrix[k][k], expected))
            expected *= n - 2 * (k + 1) + 1
    for n in range(1, 16, 2):
        cur = delta_seed(n)
        for _ in range((n + 1) // 2):
            cur = radial_casimir(cur)
        if cur:
            violations.append(("odd-vanishing", n))
    _finish(3, "orbit matrix diagonal with entries the products d_k; odd orbits die exactly",
            started, 5.0, violations)


def test_criterion_04_proof_recurrences():
    started = time.perf_counter()
    violations = []
    rng = random.Random(20260808)
    for n in range(9):
        for _ in range(4):
            psi = _random_invariant(n, 10, rng)
            for i in range(1, n):
                for k in range(12):
                    lhs = psi.coefficient(i - 1, k)
                    rhs = (k + 1) * (i + 1) * (n - i) * psi.coefficient(i + 1, k + 1)
                    if lhs != rhs:
                        violations.append(("recurrence", n, i, k))
            for i in range(n // 2 + n % 2):
                if 2 * i + 1 <= n:
                    for k in range(12):
                        if psi.coefficient(n - (2 * i + 1), k) != 0:
                            violations.append(("odd-line", n, i, k))
    _finish(4, "ladder recurrence and odd-line vanishing on random invariants, exact",
            started, 30.0, violations)


def test_criterion_05_polynomial_equations():
    started = time.perf_counter()
    violations = []
    rng = random.Random(433494437)
    for n in (0, 2, 4, 6, 8):
        for _ in range(20):
            p = _random_monic(rng, rng.randint(1, 3))
            if solve_polynomial(n, p, 10) != []:
                violations.append(("even", n, str(p)))
    for n in (1, 3, 5, 7, 9):
        for _ in range(20):
            p = _random_monic(rng, rng.randint(1, 3), nonzero_constant=True)
            if solve_polynomial(n, p, 10) != []:
                violations.append(("odd-constant", n, str(p)))
    for n in (1, 3, 5, 7, 9):
        for r in ((n + 1) // 2, (n + 1) // 2 + 2):
            sols = solve_polynomial(n, CasimirPolynomial((0,) * r), (n + 1) // 2 + 1)
            if len(sols) != (n + 1) // 2:
                violations.append(("odd-power", n, r, len(sols)))
    _finish(5, "polynomial-in-Casimir equations: zero except odd pure powers, exact",
            started, 30.0, violations)


def test_criterion_06_graded_dimensions():
    started = time.perf_counter()
    violations = []
    adj = adjoint_character()
    pieces = []
    for m in range(21):
        power = sym_power(m, adj)
        acc = None
        for j in range(m // 2 + 1):
            piece = irrep_character(2 * m - 4 * j)
            acc = piece if acc is None else acc + piece
        if power != acc:
            violations.append(("ladder-sum", m))
        pieces.append(decompose_into_irreducibles(power))
    for n in range(11):
        for m in range(21):
            via_table = invariant_dim(n, m)
            via_brute = pieces[m].get(n, 0)
            if via_table != via_brute:
                violations.append(("dim", n, m, via_table, via_brute))
    _finish(6, "symmetric-power decomposition and graded multiplicities vs brute force",
            started, 5.0, violations)


def test_criterion_07_mixed_operator_radial_part():
    started = time.perf_counter()
    violations = []
    rng = random.Random(514229)
    for n in range(9):
        for psi in kernel_basis(n, 10):
            if equivariance_defect(radial_mn(psi)):
                violations.append(("basis", n))
        for _ in range(3):
            psi = _random_invariant(n, 10, rng)
            if equivariance_defect(radial_mn(psi)):
                violations.append(("random", n))
    _finish(7, "derived radial part of the mixed operator preserves invariance, exact",
            started, 30.0, violations)


def test_criterion_08_numeric_invariance():
    started = time.perf_counter()
    violations = []
    for n in (0, 2):
        report = invariance_report(n, 256, 0.6)
        if report["verdict"] != "PASS":
            violations.append(("tolerance", n, report["worst_relative_residual"]))
        if [row["m"] for row in report["table"]] != [64, 128, 256]:
            violations.append(("grids", n, report["table"]))
        for z in ("H", "X", "Y"):
            rels = [row[z] for row in report["table"]]
            if rels[1] > max(rels[0], ROUNDOFF) or rels[2] > max(rels[1], ROUNDOFF):
                violations.append(("not-decreasing", n, z, rels))
    _finish(8, "invariance residual below INVARIANCE_TOL at m=256 and shrinking to the "
            "roundoff floor", started, 60.0, violations)


def test_criterion_09_odd_obstruction():
    started = time.perf_counter()
    violations = []
    for n in (1, 3):
        report = obstruction_report(n, 128, 1.0)
        if report["verdict"] != "PASS":
            violations.append((n, report["relative_obstruction"],
                               report["relative_negative_control"]))
    _finish(9, "odd-section obstruction below ROUNDOFF relative, negative control above "
            "CONTROL_MIN", started, 10.0, violations)


def test_oracle_thresholds_are_the_stated_ones():
    """Each numeric criterion states its threshold; loosening one fails here."""
    assert INVARIANCE_TOL == 1e-6      # criterion 8: relative residual at m = 256
    assert ROUNDOFF == 1e-12           # criterion 9: relative obstruction; criterion 8 floor
    assert CONTROL_MIN == 1e-3         # criterion 9: negative control
    assert ROUTES_TOL == 1e-9          # numcheck pairing: midpoint against Gauss-Legendre


def test_criterion_10_decision_tables_golden():
    started = time.perf_counter()
    violations = []
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    entries = []
    for n in range(6):
        for origin in (False, True):
            for plus in (False, True):
                for minus in (False, True):
                    query = GlobalQuery(n, origin, plus, minus)
                    entries.append({
                        "query": {"n": n, "origin": origin, "n_plus": plus,
                                  "n_minus": minus},
                        "answer": classify_global(query, max_degree=golden["max_degree"]),
                        "square_finite_supported_only_zero":
                            classify_square_finite_supported(query),
                    })
    generated = json.dumps({"max_degree": golden["max_degree"], "entries": entries},
                           sort_keys=True, indent=2)
    frozen = json.dumps(golden, sort_keys=True, indent=2)
    if generated != frozen:
        for got, want in zip(entries, golden["entries"]):
            if got != want:
                violations.append((got["query"], "drifted"))
    if len(entries) != 48:
        violations.append(("count", len(entries)))
    for entry in entries:
        if not entry["square_finite_supported_only_zero"]:
            violations.append(("square-finite", entry["query"]))
    _finish(10, "global decision tables match the frozen golden file, 48 queries",
            started, 30.0, violations)
