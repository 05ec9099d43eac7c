"""Correctness checks the benchmark applies to the program's outputs.

Every expected value is recomputed here, apart from the program: from the
ladder formulas of the weight-n module (rho(H) v_i = (2i-n) v_i,
rho(X) v_i = v_{i+1}, rho(Y) v_i = (n-i+1) i v_{i-1}), from the delta
calculus on the transversal line (y delta^(k) = -k delta^(k-1)), from the
decomposition Sym^m(adj) = sum_j V_{2m-4j}, and from a closed form of the
half-cone Gaussian pairing.  Nothing is compared with a stored copy of an
earlier output.

A distribution is passed in as its term map {(i, k): Fraction}.  Each check
raises CheckError with a one-line reason on the first violation.
"""

from __future__ import annotations

import math
from fractions import Fraction


class CheckError(Exception):
    pass


def _require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckError(reason)


# ---------------------------------------------------------------------------
# the delta calculus, from the ladder formulas


def _accumulate(out: dict, key, value) -> None:
    total = out.get(key, 0) + value
    if total:
        out[key] = total
    else:
        out.pop(key, None)


def ladder_defect(n: int, terms: dict) -> dict:
    """(rho(X) + y rho(Y)) psi, term by term."""
    out: dict = {}
    for (i, k), c in terms.items():
        if i < n:
            _accumulate(out, (i + 1, k), c)
        if i >= 1 and k >= 1:
            _accumulate(out, (i - 1, k - 1), -k * (n - i + 1) * i * c)
    return out


def radial_casimir(n: int, terms: dict) -> dict:
    """(3 + rho(H) + 2y d/dy) d/dy psi + (1/2) rho(Y)^2 psi.

    The first part sends c delta^(k) v_i to (2i - n - 2k - 1) c delta^(k+1) v_i.
    """
    out: dict = {}
    for (i, k), c in terms.items():
        _accumulate(out, (i, k + 1), (2 * i - n - 2 * k - 1) * c)
        if i >= 2:
            lower = (n - i + 1) * i * (n - i + 2) * (i - 1)
            _accumulate(out, (i - 2, k), Fraction(lower, 2) * c)
    return out


def apply_polynomial(n: int, lower_coeffs, terms: dict) -> dict:
    """p(C) psi for the monic p(t) = t^r + sum_k a_k t^k, C the radial Casimir."""
    iterates = [dict(terms)]
    for _ in range(len(lower_coeffs)):
        iterates.append(radial_casimir(n, iterates[-1]))
    out = dict(iterates[-1])
    for k, a in enumerate(lower_coeffs):
        for key, c in iterates[k].items():
            _accumulate(out, key, a * c)
    return out


def top_coefficients(n: int, terms: dict) -> dict:
    """{k: a_{n,k}} read off the top ladder vector v_n."""
    return {k: c for (i, k), c in terms.items() if i == n and c}


def orbit_top(n: int, k: int) -> int:
    """Top coefficient a_{n,k} of the k-th orbit element: prod_{j=1..k} (n-2j+1)."""
    out = 1
    for j in range(1, k + 1):
        out *= n - 2 * j + 1
    return out


# ---------------------------------------------------------------------------
# closed-form counts


def kernel_dim(n: int, K: int) -> int:
    return K + 1 if n % 2 == 0 else min(K + 1, (n + 1) // 2)


def orbit_length(n: int, K: int) -> int:
    return K + 1 if n % 2 == 0 else (n + 1) // 2


def solve_dim(n: int, lower_coeffs, K: int) -> int:
    """Closed form of the solver docstring: zero for even n; for odd n the
    first (n-1)/2 - v + 1 of the min(K+1, (n+1)/2) orbit coordinates are
    forced to vanish, v the valuation of p (none when v > (n-1)/2)."""
    if n % 2 == 0:
        return 0
    half = (n - 1) // 2
    kmax = min(K, half)
    v = next((k for k, a in enumerate(lower_coeffs) if a), len(lower_coeffs))
    forced = 0 if v > half else min(half - v + 1, kmax + 1)
    return kmax + 1 - forced


def graded_dim(n: int, m: int, origin: bool) -> int:
    """Multiplicity of V_n in Sym^m(adj) = sum_j V_{2m-4j}, zero off the origin."""
    return int(origin and n % 2 == 0 and n <= 2 * m and (2 * m - n) % 4 == 0)


# ---------------------------------------------------------------------------
# local theorem: kernel, orbit, change of basis, polynomial equations


def _check_invariant(n: int, terms: dict, what: str, max_order: int) -> None:
    _require(bool(terms), f"{what}: zero element")
    _require(all(0 <= i <= n and 0 <= k <= max_order for i, k in terms),
             f"{what}: term out of range")
    _require(not ladder_defect(n, terms), f"{what}: nonzero equivariance defect")


def check_kernel(n: int, K: int, basis: list) -> None:
    want = kernel_dim(n, K)
    _require(len(basis) == want, f"kernel({n},{K}): {len(basis)} elements, expected {want}")
    for j, terms in enumerate(basis):
        _check_invariant(n, terms, f"kernel({n},{K})[{j}]", K)
        _require(top_coefficients(n, terms) == {j: 1},
                 f"kernel({n},{K})[{j}]: top coefficients are not row {j} of the identity")


def check_orbit(n: int, K: int, orbit: list) -> None:
    want = orbit_length(n, K)
    _require(len(orbit) == want, f"orbit({n},{K}): length {len(orbit)}, expected {want}")
    for k, terms in enumerate(orbit):
        _check_invariant(n, terms, f"orbit({n},{K})[{k}]", k)
        tops = top_coefficients(n, terms)
        _require(tops.get(k) == orbit_top(n, k) and max(tops) == k,
                 f"orbit({n},{K})[{k}]: top coefficient is not prod (n-2j+1) in place {k}")


def check_change_of_basis(n: int, K: int, matrix) -> None:
    dim = kernel_dim(n, K)
    _require(len(matrix) == dim and all(len(row) == dim for row in matrix),
             f"change_of_basis({n},{K}): not {dim}x{dim}")
    for j, row in enumerate(matrix):
        for k, entry in enumerate(row):
            if j > k:
                _require(entry == 0, f"change_of_basis({n},{K}): nonzero below the diagonal")
            elif j == k:
                _require(entry == orbit_top(n, k),
                         f"change_of_basis({n},{K}): diagonal entry {k} is {entry}")


def check_solutions(n: int, lower_coeffs, K: int, sols: list) -> None:
    want = solve_dim(n, lower_coeffs, K)
    _require(len(sols) == want, f"solve({n},K={K}): {len(sols)} solutions, expected {want}")
    for j, terms in enumerate(sols):
        _check_invariant(n, terms, f"solve({n},K={K})[{j}]", K)
        _require(not apply_polynomial(n, lower_coeffs, terms),
                 f"solve({n},K={K})[{j}]: p(Casimir) does not annihilate it")


# ---------------------------------------------------------------------------
# global theorem: the command-line reports


def _check_pass(rc: int, record: dict, what: str) -> None:
    _require(rc == 0, f"{what}: exit code {rc}")
    _require(record.get("verdict") == "PASS", f"{what}: verdict {record.get('verdict')}")


def check_classify(n: int, origin: bool, plus: bool, minus: bool, max_degree: int,
                   rc: int, record: dict) -> None:
    what = f"classify n={n} flags={origin:d}{plus:d}{minus:d} max_degree={max_degree}"
    _check_pass(rc, record, what)
    answer = record["answer"]
    _require(answer["n"] == n and answer["flags"] == {"origin": origin, "n_plus": plus,
                                                       "n_minus": minus},
             f"{what}: the report answers another query")
    want = [graded_dim(n, m, origin) for m in range(max_degree + 1)]
    _require(answer["supp0_graded_dims"] == want, f"{what}: graded dimensions differ")
    for side, flag in (("plus", plus), ("minus", minus)):
        expect = "countably-infinite" if n % 2 == 0 and flag else "zero"
        _require(answer["half_cone_generators"][side] == expect,
                 f"{what}: {side} half-cone reads {answer['half_cone_generators'][side]}")
    _require(answer["realizable"] == ((not origin) or (plus and minus)),
             f"{what}: realizability is wrong")


def check_supp0(n: int, max_degree: int, rc: int, record: dict) -> None:
    what = f"supp0-dims n={n} max_degree={max_degree}"
    _check_pass(rc, record, what)
    want = [graded_dim(n, m, True) for m in range(max_degree + 1)]
    _require(record["graded_dims"] == want, f"{what}: graded dimensions differ")


def ladder_matrices(n: int):
    """rho(H), rho(X), rho(Y) as row lists of ints (row = output index)."""
    dim = n + 1
    h = [[(2 * i - n) if i == j else 0 for j in range(dim)] for i in range(dim)]
    x = [[1 if i == j + 1 else 0 for j in range(dim)] for i in range(dim)]
    y = [[(n - j + 1) * j if i == j - 1 else 0 for j in range(dim)] for i in range(dim)]
    return h, x, y


def check_irrep(n: int, rc: int, record: dict) -> None:
    what = f"irrep n={n}"
    _check_pass(rc, record, what)
    for name, mat in zip(("rho_h", "rho_x", "rho_y"), ladder_matrices(n)):
        got = [[Fraction(v) for v in row] for row in record[name]]
        _require(got == mat, f"{what}: {name} differs from the ladder formulas")
    scalar = record["casimir_scalar"]
    _require(scalar is not None and Fraction(scalar) == Fraction(n * n, 2) + n,
             f"{what}: Casimir scalar {scalar}, expected n^2/2+n")


# ---------------------------------------------------------------------------
# quadrature oracle

PAIRING_TOL = 1e-11        # centred Gaussian against its closed form
INVARIANCE_TOL = 1e-6      # relative residual at the finest grid
RESIDUAL_FLOOR = 1e-12     # below this a residual may wander with m
OBSTRUCTION_TOL = 1e-12    # relative odd-section obstruction
CONTROL_MIN = 1e-3         # the parity-broken control must stay visible
ROUTES_TOL = 1e-9          # midpoint against Gauss-Legendre
TAIL_SHARE = 1e-12         # tail bound against the pairing it bounds


def agm(a: float, b: float) -> float:
    while abs(a - b) > 1e-15 * a:
        a, b = (a + b) / 2.0, math.sqrt(a * b)
    return a


def gaussian_pairing(sigma: float) -> float:
    """Half-cone pairing of exp(-|z|^2/sigma^2): 4 sqrt(pi) sigma K(1/2),
    with K(1/2) = pi / (2 AGM(1, sqrt(3)/2))."""
    k_half = math.pi / (2.0 * agm(1.0, math.sqrt(3.0) / 2.0))
    return 4.0 * math.sqrt(math.pi) * sigma * k_half


def check_gaussian_pairing(sigma: float, m: int, value: float) -> None:
    exact = gaussian_pairing(sigma)
    _require(abs(value - exact) <= PAIRING_TOL * exact,
             f"centred pairing sigma={sigma} m={m}: {value!r} vs closed form {exact!r}")


def check_invariance(n: int, z: str, residuals: list) -> None:
    """residuals: relative residuals on grids of increasing size."""
    what = f"invariance n={n} {z}"
    _require(residuals[-1] < INVARIANCE_TOL, f"{what}: {residuals[-1]:.3e} at the finest grid")
    for coarse, fine in zip(residuals, residuals[1:]):
        _require(fine <= max(coarse, RESIDUAL_FLOOR),
                 f"{what}: residual grew from {coarse:.3e} to {fine:.3e}")


def check_obstruction(n: int, m: int, value: float, control: float, scale: float) -> None:
    what = f"obstruction n={n} m={m}"
    _require(scale > 0, f"{what}: zero scale")
    _require(value / scale < OBSTRUCTION_TOL, f"{what}: relative value {value / scale:.3e}")
    _require(control / scale > CONTROL_MIN, f"{what}: negative control {control / scale:.3e}")


def check_routes(m: int, midpoint: float, gauss: float) -> None:
    gap = abs(midpoint - gauss) / max(abs(midpoint), abs(gauss), 1e-30)
    _require(gap < ROUTES_TOL, f"two routes m={m}: relative gap {gap:.3e}")


def check_tail(m: int, tail: float, pairing: float) -> None:
    _require(math.isfinite(tail) and 0.0 <= tail <= TAIL_SHARE * abs(pairing),
             f"tail bound m={m}: {tail!r} against pairing {pairing!r}")
