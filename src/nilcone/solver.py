"""Exact linear algebra realizing the cone-support classification.

kernel_basis computes, for a given delta-order bound K, the space of
transversal distributions annihilated by the equivariance operator; the
dimension comes out K+1 for even n and min(K+1, (n+1)/2) for odd n.
casimir_orbit iterates the radial Casimir on the delta seed, which spans
the same space (change_of_basis certifies that), and for odd n dies
exactly after (n+1)/2 steps.  solve_polynomial intersects the kernel with
a monic polynomial equation in the radial Casimir, with no truncation of
the image.  classify_global renders the invariant-open-set decision table.

Nullspace computation is exact Gauss-Jordan over Fractions with
deterministic pivoting: columns ordered by (i, k) lexicographically, the
pivot of each row being its lowest column.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .characters import invariant_dim
from .transversal import (TransversalDist, _defect_terms, delta_seed, equivariance_defect,
                          radial_casimir)


@dataclass(frozen=True)
class CasimirPolynomial:
    """Monic polynomial p(t) = t^r + sum_{k<r} a_k t^k, r >= 1."""

    lower_coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        coeffs = tuple(Fraction(a) for a in self.lower_coeffs)
        if not coeffs:
            raise ValueError("degree must be at least 1")
        object.__setattr__(self, "lower_coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.lower_coeffs)

    def valuation(self) -> int:
        """Index of the lowest nonzero coefficient (the degree itself for t^r)."""
        for k, a in enumerate(self.lower_coeffs):
            if a:
                return k
        return self.degree

    def apply(self, psi: TransversalDist) -> TransversalDist:
        """p evaluated on the radial Casimir, applied to psi, exactly."""
        iterates = [psi]
        for _ in range(self.degree):
            iterates.append(radial_casimir(iterates[-1]))
        out = iterates[self.degree]
        for k, a in enumerate(self.lower_coeffs):
            if a:
                out = out + a * iterates[k]
        return out

    def __str__(self) -> str:
        parts = [f"t^{self.degree}" if self.degree > 1 else "t"]
        for k in range(self.degree - 1, -1, -1):
            a = self.lower_coeffs[k]
            if not a:
                continue
            sign = "-" if a < 0 else "+"
            mag = abs(a)
            if k == 0:
                parts.append(f" {sign} {mag}")
            else:
                tpow = "t" if k == 1 else f"t^{k}"
                head = tpow if mag == 1 else f"{mag}*{tpow}"
                parts.append(f" {sign} {head}")
        return "".join(parts)


@dataclass(frozen=True)
class GlobalQuery:
    """An invariant open set, reduced to the orbit memberships that matter."""

    n: int
    contains_origin: bool
    contains_n_plus: bool
    contains_n_minus: bool


@dataclass(frozen=True)
class GlobalAnswer:
    """Decision-table answer for cone-supported invariant distributions."""

    n: int
    contains_origin: bool
    contains_n_plus: bool
    contains_n_minus: bool
    dim_supp0_graded: tuple[int, ...]
    half_cone_plus_generators: str   # "countably-infinite" | "zero"
    half_cone_minus_generators: str
    realizable: bool
    statement: tuple[str, ...]

    def to_record(self) -> dict:
        return {
            "n": self.n,
            "flags": {
                "origin": self.contains_origin,
                "n_plus": self.contains_n_plus,
                "n_minus": self.contains_n_minus,
            },
            "supp0_graded_dims": list(self.dim_supp0_graded),
            "half_cone_generators": {
                "plus": self.half_cone_plus_generators,
                "minus": self.half_cone_minus_generators,
            },
            "realizable": self.realizable,
            "cases": list(self.statement),
        }


# ---------------------------------------------------------------------------
# exact nullspace machinery


def _nullspace(rows, ncols: int) -> list[list[Fraction]]:
    """Exact nullspace basis from sparse rows ({col: Fraction} maps).

    Gauss-Jordan with unit pivots; each row pivots on its lowest surviving
    column, rows processed in the order given, so output is deterministic.
    Basis vectors are indexed by free columns in increasing order.
    """
    pivots: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        row = {c: Fraction(v) for c, v in row.items() if v}
        while row:
            lead = min(row)
            if lead in pivots:
                factor = row.pop(lead)
                for c, v in pivots[lead].items():
                    if c == lead:
                        continue
                    nv = row.get(c, Fraction(0)) - factor * v
                    if nv:
                        row[c] = nv
                    else:
                        row.pop(c, None)
                continue
            inv = Fraction(1) / row[lead]
            row = {c: v * inv for c, v in row.items()}
            for prow in pivots.values():
                if lead in prow:
                    factor = prow.pop(lead)
                    for c, v in row.items():
                        if c == lead:
                            continue
                        nv = prow.get(c, Fraction(0)) - factor * v
                        if nv:
                            prow[c] = nv
                        else:
                            prow.pop(c, None)
            pivots[lead] = row
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for pc, prow in pivots.items():
            if f in prow:
                vec[pc] = -prow[f]
        basis.append(vec)
    return basis


def _echelonize_top(dists: list[TransversalDist]) -> list[TransversalDist]:
    """Renormalize a linearly independent family so element j reads off
    a_{n,j} = 1 and a_{n,j'} = 0 on the top ladder coefficients.

    Valid because invariant distributions are determined by their top
    coefficients; a family on which that projection degenerates signals an
    internal contradiction and raises.
    """
    out: list[tuple[int, TransversalDist]] = []   # (pivot k, distribution)
    for dist in dists:
        cur = dist
        for k, piv in out:
            c = cur.coefficient(cur.n, k)
            if c:
                cur = cur - c * piv
        tops = {k: c for (i, k), c in cur.terms.items() if i == cur.n}
        if not tops:
            raise ArithmeticError("top-coefficient readout degenerated; "
                                  "the echelon normalization is impossible")
        lead = min(tops)
        cur = (Fraction(1) / tops[lead]) * cur
        out = [(k, piv - piv.coefficient(piv.n, lead) * cur) for k, piv in out]
        out.append((lead, cur))
    out.sort(key=lambda pair: pair[0])
    return [dist for _, dist in out]


# ---------------------------------------------------------------------------
# kernels, orbits, polynomial equations


def predicted_kernel_dim(n: int, K: int) -> int:
    """Closed-form dimension of the order-bounded invariant kernel."""
    if n % 2 == 0:
        return K + 1
    return min(K + 1, (n + 1) // 2)


def _equivariance_rows(n: int, coords: list[tuple[int, int]]) -> list[dict[int, int]]:
    """Sparse rows ({col: coefficient}) of the equivariance operator on the
    given coordinates, ordered by output key (i, k)."""
    rows: dict[tuple[int, int], dict[int, int]] = {}
    for pos, key in enumerate(coords):
        for out_key, coeff in _defect_terms(n, [(key, 1)]):
            rows.setdefault(out_key, {})[pos] = coeff
    return [rows[key] for key in sorted(rows)]


def kernel_basis(n: int, K: int) -> list[TransversalDist]:
    """Exact basis of {psi : delta order <= K, equivariance defect = 0},
    echelonized on the top ladder coefficients a_{n,0..K}."""
    if n < 0 or K < 0:
        raise ValueError("n and K must be natural numbers")
    coords = [(i, k) for i in range(n + 1) for k in range(K + 1)]
    vectors = _nullspace(_equivariance_rows(n, coords), len(coords))
    dists = [TransversalDist(n, {coords[p]: v for p, v in enumerate(vec) if v})
             for vec in vectors]
    return _echelonize_top(dists)


def casimir_orbit(n: int, K: int) -> list[TransversalDist]:
    """Iterates of the radial Casimir on the delta seed.

    Even n: the first K+1 iterates.  Odd n: all nonzero iterates, exactly
    (n+1)/2 of them, after which the next iterate must vanish identically.
    Each element is checked to have zero equivariance defect.
    """
    if n < 0 or K < 0:
        raise ValueError("n and K must be natural numbers")
    out = []
    cur = delta_seed(n)
    count = K + 1 if n % 2 == 0 else (n + 1) // 2
    for _ in range(count):
        if not cur:
            raise ArithmeticError(f"Casimir orbit died early for n={n}")
        if equivariance_defect(cur):
            raise ArithmeticError(f"Casimir orbit left the invariant kernel for n={n}")
        out.append(cur)
        cur = radial_casimir(cur)
    if n % 2 == 1 and cur:
        raise ArithmeticError(f"Casimir orbit failed to terminate for odd n={n}")
    return out


def change_of_basis(n: int, K: int) -> tuple[tuple[Fraction, ...], ...]:
    """Matrix of the Casimir orbit in kernel_basis coordinates (columns are
    orbit elements).  Comes out upper-triangular with diagonal entry k equal
    to the product (n-1)(n-3)...(n-2k+1); for odd n the bound K must not
    exceed (n-1)/2, where the orbit runs out."""
    if n % 2 == 1 and K > (n - 1) // 2:
        raise ValueError(f"for odd n={n} the orbit supports only K <= {(n - 1) // 2}")
    basis = kernel_basis(n, K)
    orbit = casimir_orbit(n, K)[:K + 1]
    dim = len(basis)
    if len(orbit) != dim:
        raise ArithmeticError("orbit and kernel sizes disagree")
    matrix = [[orbit[k].coefficient(n, j) for k in range(dim)] for j in range(dim)]
    for k in range(dim):
        recon = TransversalDist(n, {})
        for j in range(dim):
            if matrix[j][k]:
                recon = recon + matrix[j][k] * basis[j]
        if recon != orbit[k]:
            raise ArithmeticError("orbit element falls outside the kernel span")
        if not matrix[k][k]:
            raise ArithmeticError("singular change of basis: orbit does not span")
        for j in range(k + 1, dim):
            if matrix[j][k]:
                raise ArithmeticError("change of basis is not upper-triangular")
    return tuple(tuple(row) for row in matrix)


def solve_polynomial(n: int, p: CasimirPolynomial, K: int) -> list[TransversalDist]:
    """Exact basis of the order-bounded invariant solutions of p applied to
    the radial Casimir.  The polynomial image is computed in full (its order
    may exceed K); the equation must hold identically."""
    basis = kernel_basis(n, K)
    if not basis:
        return []
    images = [p.apply(b) for b in basis]
    rows: dict[tuple[int, int], dict[int, Fraction]] = {}
    for j, image in enumerate(images):
        for key, coeff in image.terms.items():
            rows.setdefault(key, {})[j] = coeff
    row_list = [rows[key] for key in sorted(rows)]
    vectors = _nullspace(row_list, len(basis))
    sols = []
    for vec in vectors:
        acc = TransversalDist(n, {})
        for j, c in enumerate(vec):
            if c:
                acc = acc + c * basis[j]
        sols.append(acc)
    return _echelonize_top(sols) if sols else []


def predicted_solve_dim(n: int, p: CasimirPolynomial, K: int) -> int:
    """Closed-form dimension of solve_polynomial's answer.

    Even n: zero.  Odd n: of the min(K+1, (n+1)/2) orbit coordinates, the
    equation forces the first (n-1)/2 - v + 1 to vanish, v being the
    valuation of p (none when v exceeds (n-1)/2).
    """
    if n % 2 == 0:
        return 0
    kmax = min(K, (n - 1) // 2)
    v = p.valuation()
    if v > (n - 1) // 2:
        forced = 0
    else:
        forced = min((n - 1) // 2 - v + 1, kmax + 1)
    return kmax + 1 - forced


# ---------------------------------------------------------------------------
# global decision tables


def classify_global(query: GlobalQuery, max_degree: int = 12) -> GlobalAnswer:
    """Decision table for cone-supported invariant distributions over an
    invariant open set, reduced to its orbit memberships.

    Origin part: zero when the origin is absent, otherwise the graded
    dimension series from the character computation.  Half-cone parts: for
    even n each half-cone inside the set contributes a countable ladder of
    Casimir iterates of the seeded cone measure; for odd n the two-fold
    covering of the half-cone admits no global section, so the half-cones
    contribute nothing at all.

    Three of the eight flag combinations cannot come from an actual
    invariant open set (a set containing the origin contains a ball, hence
    germs of both half-cones, hence the full cones); the table still answers
    them mechanically and flags realizability.
    """
    n = query.n
    even = n % 2 == 0
    if query.contains_origin:
        dims = tuple(invariant_dim(n, m) for m in range(max_degree + 1))
        case_i = ("(i) origin component: isomorphic to the invariant symmetric "
                  "tensors; graded dimensions by degree as listed")
    else:
        dims = (0,) * (max_degree + 1)
        case_i = "(i) origin component: zero (the open set omits the origin)"
    plus = "countably-infinite" if (even and query.contains_n_plus) else "zero"
    minus = "countably-infinite" if (even and query.contains_n_minus) else "zero"
    if even:
        case_parity = ("(ii) even weight: each half-cone inside the set carries one "
                       f"countable ladder of Casimir iterates of the seeded cone measure; "
                       f"plus: {plus}, minus: {minus}")
    else:
        case_parity = ("(iii) odd weight: no half-cone contributes; every cone-supported "
                       "solution already lives on the origin component")
    realizable = (not query.contains_origin) or (query.contains_n_plus and query.contains_n_minus)
    return GlobalAnswer(
        n=n,
        contains_origin=query.contains_origin,
        contains_n_plus=query.contains_n_plus,
        contains_n_minus=query.contains_n_minus,
        dim_supp0_graded=dims,
        half_cone_plus_generators=plus,
        half_cone_minus_generators=minus,
        realizable=realizable,
        statement=(case_i, case_parity),
    )


_DEFAULT_POLYS = (
    CasimirPolynomial((Fraction(-1),)),              # t - 1
    CasimirPolynomial((Fraction(0), Fraction(0))),   # t^2
    CasimirPolynomial((Fraction(0), Fraction(1))),   # t^2 + t
)


def classify_square_finite_supported(n: int, query: GlobalQuery,
                                     p: CasimirPolynomial | None = None,
                                     K: int = 6, max_degree: int = 16) -> bool:
    """True iff the only Casimir-finite invariant distribution supported on
    the cone over the given invariant open set is zero: always true, and
    this function earns the answer by running the certifying checks.

    Origin part: the graded dimensions must be nondecreasing two degrees
    apart, the computable shadow of the Casimir acting injectively on the
    origin tower.  Cone part, even n: the local polynomial equation must
    have no nonzero solution.  Cone part, odd n: either the constant term
    of p kills the local solutions, or the missing global section already
    reports zero half-cone generators in the decision table.
    """
    polys = (p,) if p is not None else _DEFAULT_POLYS
    answer = classify_global(query, max_degree=max_degree)
    ok = True
    if query.contains_origin:
        dims = answer.dim_supp0_graded
        ok &= all(dims[m] <= dims[m + 2] for m in range(len(dims) - 2))
    if query.contains_n_plus or query.contains_n_minus:
        for poly in polys:
            sols = solve_polynomial(n, poly, K)
            if n % 2 == 0 or poly.valuation() == 0:
                ok &= not sols
            else:
                ok &= (answer.half_cone_plus_generators == "zero"
                       and answer.half_cone_minus_generators == "zero")
    return bool(ok)
