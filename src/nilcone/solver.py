"""Exact linear algebra realizing the cone-support classification.

Both classification theorems follow one ladder: the radial Casimir sends
invariant kernel element b_k to (n-2k-1) b_{k+1}.  ladder_length is the one
place that decides where the ladder stops: after (n+1)/2 steps for odd n,
never for even n.  The predicted counts, the iterated orbit's termination
check and the decision table all read it from there.

kernel_basis computes, for a given delta-order bound K, the space of
transversal distributions annihilated by the equivariance operator; the
dimension comes out K+1 when the ladder never stops and min(K+1, L) when it
stops after L steps.  The equation is a weighted shift,
a_{i-2,k-1} = k*i*(n-i+1)*a_{i,k}, so element j is one chain walked in
closed form from its top coefficient a_{n,j} = 1 down to k = 0 or i = 0; a
chain that reaches i = 1 with k > 0 is forced to zero, and there the basis
ends.  The stop rule comes from the defect equation, not from ladder_length,
so kernel_report still counts against an independent closed form, and each
element must still have zero equivariance defect.  casimir_orbit is the
same chains scaled, iterate k being d_k b_k with d_k = (n-1)(n-3)...(n-2k+1),
and it ends where a top-line weight n-2k-1 vanishes, again without
ladder_length.  The iterated radial Casimir on the delta seed,
_orbit_by_iteration, is its reference, and change_of_basis certifies the
span with it: the change of basis from the chains to the iterated orbit is
diagonal, and one exact equality per orbit element, orbit[k] = d_k
kernel[k], proves it.  solve_polynomial intersects the kernel with a monic
polynomial equation in the radial Casimir, with no truncation of the image.
classify_global returns the invariant-open-set decision table as a record,
and classify_square_finite_supported certifies it.  The *_report functions
return the records of the kernel, orbit, solve and classify commands, each
with its PASS/FAIL verdict.

Nullspace computation is exact Gauss-Jordan over Fractions with
deterministic pivoting, the pivot of each row being its lowest column.  It
has two jobs: solve_polynomial's elimination over the polynomial images,
and _kernel_by_elimination, the reference the chains are tested against
and classify_square_finite_supported checks them with.  The column order is
what puts the bases in top-echelon form (element j reads a_{n,j} = 1 and 0
at the other elements' leads): _kernel_by_elimination orders the
coordinates (i < n, k) first and the top ones (n, K), ..., (n, 0) last,
solve_polynomial takes the kernel elements in decreasing j.  An invariant
distribution is determined by its top coefficients, so every free column
is a top coordinate, and the unique reduced echelon form is the
top-echelon basis with no second elimination.

No route here reads the route it certifies.  The certifier table of
tests/test_structure.py states which route certifies which, and its Tier-1
rule walks the package's references: kernel_basis and casimir_orbit reach
neither reference, _kernel_by_elimination and _orbit_by_iteration reach
neither closed form, and change_of_basis and classify_square_finite_supported
each reach both routes they compare.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from . import Value
from .characters import invariant_dim
from .transversal import (TransversalDist, _built, _collect, delta_seed, equivariance_defect,
                          radial_casimir)


class CasimirPolynomial(Value):
    """Monic polynomial p(t) = t^r + sum_{k<r} a_k t^k, r >= 1.  An immutable
    value: equal and hashed by its lower coefficients."""

    __slots__ = _FIELDS = ("lower_coeffs",)

    def __init__(self, lower_coeffs: tuple[Fraction, ...]):
        coeffs = tuple(Fraction(a) for a in lower_coeffs)
        if not coeffs:
            raise ValueError("degree must be at least 1")
        self._set(lower_coeffs=coeffs)

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


class GlobalQuery(Value):
    """An invariant open set, reduced to the orbit memberships that matter.
    An immutable value, equal and hashed by its four fields, so that it keys
    the memo of classify_square_finite_supported."""

    __slots__ = _FIELDS = ("n", "contains_origin", "contains_n_plus", "contains_n_minus")

    def __init__(self, n: int, contains_origin: bool, contains_n_plus: bool,
                 contains_n_minus: bool):
        self._set(n=n, contains_origin=contains_origin, contains_n_plus=contains_n_plus,
                  contains_n_minus=contains_n_minus)


# ---------------------------------------------------------------------------
# exact nullspace machinery


def _eliminate(row: dict, col: int, unit_row: dict) -> None:
    """row -= row[col] * unit_row in place, unit_row having 1 at col; zero
    entries are dropped."""
    factor = row.pop(col)
    for c, v in unit_row.items():
        if c != col:
            nv = row.get(c, 0) - factor * v
            if nv:
                row[c] = nv
            else:
                del row[c]


def _nullspace(rows, ncols: int) -> list[dict]:
    """Exact nullspace basis from sparse rows ({col: rational} maps with no
    zero values, the values ints or Fractions), as sparse vectors of the
    same kind.  The rows are consumed: they become the pivot rows.

    Gauss-Jordan with unit pivots, each row pivoting on its lowest surviving
    column: forward elimination row by row, then back substitution from the
    highest pivot down.  The reduced echelon form is unique, so the basis
    depends on the column order alone.  Vector f has 1 at free column f and
    0 at the other free columns; vectors come in increasing f.  Only a pivot
    row with entries besides its lead is divided, so an integer system whose
    other pivots already read 1, like the kernel's, stays in int arithmetic.
    """
    pivots: dict[int, dict] = {}
    for row in rows:
        while row:
            lead = min(row)
            if lead in pivots:
                _eliminate(row, lead, pivots[lead])
                continue
            scale = row.pop(lead)
            if scale != 1 and row:
                inv = Fraction(1) / scale
                row = {c: v * inv for c, v in row.items()}
            row[lead] = 1
            pivots[lead] = row
            break
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        for c in [c for c in row if c != lead and c in pivots]:
            _eliminate(row, c, pivots[c])
    basis = {f: {f: 1} for f in range(ncols) if f not in pivots}
    for lead, row in pivots.items():
        for c, v in row.items():
            if c != lead:
                basis[c][lead] = -v
    return list(basis.values())


# ---------------------------------------------------------------------------
# kernels, orbits, polynomial equations


def ladder_length(n: int) -> int | None:
    """Steps the radial Casimir takes from the delta seed before its weight
    first vanishes, or None when no weight ever does.  It sends b_k to
    (n-2k-1) b_{k+1}, so the ladder stops at the k where n-2k-1 = 0, which
    exists for odd n only."""
    return (n + 1) // 2 if n % 2 else None


def predicted_kernel_dim(n: int, K: int) -> int:
    """Closed-form dimension of the order-bounded invariant kernel."""
    steps = ladder_length(n)
    return K + 1 if steps is None else min(K + 1, steps)


def predicted_orbit_length(n: int, K: int) -> int:
    """Closed-form length of casimir_orbit(n, K)."""
    steps = ladder_length(n)
    return K + 1 if steps is None else steps


def _rows(images) -> list[dict]:
    """Sparse rows ({col: coefficient}) of the linear map sending column j
    to images[j], given as (key, coefficient) pairs; rows ordered by key."""
    rows: dict[tuple[int, int], dict] = {}
    for col, image in enumerate(images):
        for key, coeff in image:
            rows.setdefault(key, {})[col] = coeff
    return [rows[key] for key in sorted(rows)]


def _equivariance_rows(n: int, coords: list[tuple[int, int]]) -> list[dict]:
    """Sparse rows of the equivariance operator on the given coordinates."""
    return _rows(equivariance_defect(_built(n, {key: 1})).terms.items() for key in coords)


def kernel_basis(n: int, K: int) -> list[TransversalDist]:
    """Exact basis of {psi : delta order <= K, equivariance defect = 0} in
    top-echelon form: element j reads a_{n,j} = 1 and a_{n,j'} = 0 for the
    other j'.

    The defect (rho(X) + y*rho(Y)) psi reads, at (i-1, k-1),
    a_{i-2,k-1} - k*i*(n-i+1)*a_{i,k}, so the kernel is a weighted shift
    along the diagonals i - 2k = const.  Element j is the chain that starts
    from a_{n,j} = 1 and steps (i, k) -> (i-2, k-1) with factor
    k*i*(n-i+1), never zero for 1 <= i <= n, until k = 0 or i = 0.  Every
    other diagonal is zero, since the defect at (n, k) and at (i+1, K)
    forces its top, a_{n-1,k} or a_{i,K}, to zero.  At (0, k-1) the defect
    reads -k*n*a_{1,k}, so a chain that reaches i = 1 with k > 0 must
    vanish: element j does not exist, nor does any later one, whose chains
    reach i = 1 higher up (odd n).  The stop reads no ladder_length, so
    kernel_report's count against predicted_kernel_dim stays independent.
    Coefficients stay ints.  Each element must still have zero equivariance
    defect; _kernel_by_elimination is the reference the chain is tested
    against."""
    if n < 0 or K < 0:
        raise ValueError("n and K must be natural numbers")
    basis = []
    for j in range(K + 1):
        i, k, a = n, j, 1
        terms = {(i, k): a}
        while k and i > 1:
            a *= k * i * (n - i + 1)
            i, k = i - 2, k - 1
            terms[(i, k)] = a
        if k and i == 1:
            break
        basis.append(_built(n, terms))
    if any(equivariance_defect(psi) for psi in basis):
        raise ArithmeticError(f"kernel basis left the invariant kernel for n={n}")
    return basis


def _kernel_by_elimination(n: int, K: int) -> list[TransversalDist]:
    """kernel_basis by exact elimination, its reference: the nullspace of
    the equivariance operator on every coordinate of delta order <= K.  The
    top coordinates come last, in decreasing k, so the nullspace vectors,
    reversed, are the top-echelon basis."""
    coords = [(i, k) for i in range(n) for k in range(K + 1)]
    coords += [(n, k) for k in range(K, -1, -1)]
    vectors = _nullspace(_equivariance_rows(n, coords), len(coords))
    return [TransversalDist(n, {coords[p]: v for p, v in vec.items()})
            for vec in reversed(vectors)]


def casimir_orbit(n: int, K: int) -> list[TransversalDist]:
    """Iterates of the radial Casimir on the delta seed, in closed form.

    The radial Casimir sends kernel element b_k to (n-2k-1) b_{k+1}, so
    iterate k is d_k b_k, d_k = (n-1)(n-3)...(n-2k+1), built from the
    kernel_basis chains.  The length comes from those top-line weights
    n-2k-1: when one vanishes (odd n), the orbit is every iterate up to it,
    whatever K is; when none does (even n), the first K+1 iterates.  It
    reads neither ladder_length nor predicted_orbit_length, so orbit_report
    still counts against an independent closed form.  Each element has zero
    equivariance defect, through kernel_basis; _orbit_by_iteration is the
    reference it is tested against.
    """
    if n < 0 or K < 0:
        raise ValueError("n and K must be natural numbers")
    # the weights fall by 2 from n-1, so past k = n they are all negative
    stop = next((k for k in range(n) if n - 2 * k - 1 == 0), None)
    length = K + 1 if stop is None else stop + 1
    basis = kernel_basis(n, length - 1)
    if len(basis) < length:
        raise ArithmeticError(f"Casimir orbit died early for n={n}")
    out, d = [], 1
    for k, b in enumerate(basis):
        out.append(_built(n, {key: d * a for key, a in b.terms.items()}))
        d *= n - 2 * k - 1
    return out


def _orbit_by_iteration(n: int, K: int) -> list[TransversalDist]:
    """casimir_orbit by iterating the radial Casimir on the delta seed, its
    reference and the route change_of_basis compares the chains with.

    When the ladder never stops (even n): the first K+1 iterates.  When it
    stops after ladder_length(n) steps (odd n): all nonzero iterates, that
    many of them, after which the next iterate must vanish identically.
    Each element is checked to have zero equivariance defect.
    """
    if n < 0 or K < 0:
        raise ValueError("n and K must be natural numbers")
    out = []
    cur = delta_seed(n)
    for _ in range(predicted_orbit_length(n, K)):
        if not cur:
            raise ArithmeticError(f"Casimir orbit died early for n={n}")
        if equivariance_defect(cur):
            raise ArithmeticError(f"Casimir orbit left the invariant kernel for n={n}")
        out.append(cur)
        cur = radial_casimir(cur)
    if ladder_length(n) is not None and cur:
        raise ArithmeticError(f"Casimir orbit failed to terminate for n={n}")
    return out


def change_of_basis(n: int, K: int) -> tuple[tuple[Fraction, ...], ...]:
    """Matrix of the Casimir orbit in kernel_basis coordinates (columns are
    orbit elements): diagonal, entry k the product (n-1)(n-3)...(n-2k+1),
    since the radial Casimir sends kernel element k to (n-2k-1) times
    element k+1.  The orbit here is the iterated one, _orbit_by_iteration,
    so two independent routes meet, and the certifier rule of
    tests/test_structure.py keeps them apart: one exact equality per orbit
    element certifies the matrix, orbit[k] = d_k basis[k] with d_k, its top
    coefficient a_{n,k}, nonzero; in the top-echelon basis that places d_k
    on the diagonal and 0 off it.  Where the ladder stops after L steps,
    the bound K must be below L, where the orbit runs out."""
    steps = ladder_length(n)
    if steps is not None and K >= steps:
        raise ValueError(f"for n={n} the orbit supports only K <= {steps - 1}")
    basis = kernel_basis(n, K)
    orbit = _orbit_by_iteration(n, K)[:K + 1]
    if len(orbit) != len(basis):
        raise ArithmeticError("orbit and kernel sizes disagree")
    diagonal = [psi.coefficient(n, k) for k, psi in enumerate(orbit)]
    for k, d in enumerate(diagonal):
        if not d or orbit[k] != d * basis[k]:
            raise ArithmeticError(f"orbit element {k} is not a nonzero multiple "
                                  f"of kernel element {k}")
    zero = Fraction(0)
    return tuple(tuple(d if j == k else zero for k in range(len(diagonal)))
                 for j, d in enumerate(diagonal))


def solve_polynomial(n: int, p: CasimirPolynomial, K: int) -> list[TransversalDist]:
    """Exact basis of the order-bounded invariant solutions of p applied to
    the radial Casimir, in top-echelon form: each solution reads 1 at its
    lead (its lowest j with a_{n,j} != 0) and 0 at the other solutions'
    leads.  Kernel element j has top coefficients e_j, so taking the
    elements in decreasing j makes the reversed nullspace vectors that
    basis.  The polynomial image is computed in full (its order may exceed
    K); the equation must hold identically."""
    columns = kernel_basis(n, K)[::-1]
    vectors = _nullspace(_rows(p.apply(b).terms.items() for b in columns), len(columns))
    return [_collect(n, ((key, c * v) for col, c in vec.items()
                         for key, v in columns[col].terms.items()))
            for vec in reversed(vectors)]


def predicted_solve_dim(n: int, p: CasimirPolynomial, K: int) -> int:
    """Closed-form dimension of solve_polynomial's answer.

    Zero when the ladder never stops (even n).  When it stops after L steps,
    the kernel has min(K+1, L) orbit coordinates, and the equation forces
    the first L - v of them to vanish, v being the valuation of p.
    """
    steps = ladder_length(n)
    if steps is None:
        return 0
    return max(0, min(K + 1, steps) - max(0, steps - p.valuation()))


# ---------------------------------------------------------------------------
# global decision tables


def classify_global(query: GlobalQuery, max_degree: int = 12) -> dict:
    """Decision table for cone-supported invariant distributions over an
    invariant open set, reduced to its orbit memberships, as the record the
    classify command prints.

    Origin part: zero when the origin is absent, otherwise the graded
    dimension series from the character computation.  Half-cone parts: when
    the Casimir ladder never stops (even n) each half-cone inside the set
    contributes a countable ladder of Casimir iterates of the seeded cone
    measure; when it stops (odd n) the two-fold covering of the half-cone
    admits no global section, so the half-cones contribute nothing at all.

    Three of the eight flag combinations cannot come from an actual
    invariant open set (a set containing the origin contains a ball, hence
    germs of both half-cones, hence the full cones); the table still answers
    them mechanically and flags realizability.
    """
    n = query.n
    if query.contains_origin:
        dims = [invariant_dim(n, m) for m in range(max_degree + 1)]
        case_i = ("(i) origin component: isomorphic to the invariant symmetric "
                  "tensors; graded dimensions by degree as listed")
    else:
        dims = [0] * (max_degree + 1)
        case_i = "(i) origin component: zero (the open set omits the origin)"
    endless = ladder_length(n) is None
    plus = "countably-infinite" if (endless and query.contains_n_plus) else "zero"
    minus = "countably-infinite" if (endless and query.contains_n_minus) else "zero"
    if endless:
        case_ladder = ("(ii) even weight: each half-cone inside the set carries one "
                       f"countable ladder of Casimir iterates of the seeded cone measure; "
                       f"plus: {plus}, minus: {minus}")
    else:
        case_ladder = ("(iii) odd weight: no half-cone contributes; every cone-supported "
                       "solution already lives on the origin component")
    realizable = (not query.contains_origin) or (query.contains_n_plus and query.contains_n_minus)
    return {
        "n": n,
        "flags": {
            "origin": query.contains_origin,
            "n_plus": query.contains_n_plus,
            "n_minus": query.contains_n_minus,
        },
        "supp0_graded_dims": dims,
        "half_cone_generators": {"plus": plus, "minus": minus},
        "realizable": realizable,
        "cases": [case_i, case_ladder],
    }


# The certifying checks of classify_square_finite_supported: the local
# equations p(C) psi = 0 it solves, at delta order <= _CERTIFY_ORDER, and the
# degree of the origin tower it inspects.
_CERTIFY_POLYS = (
    CasimirPolynomial((Fraction(-1),)),              # t - 1
    CasimirPolynomial((Fraction(0), Fraction(0))),   # t^2
    CasimirPolynomial((Fraction(0), Fraction(1))),   # t^2 + t
)
_CERTIFY_ORDER = 6
_CERTIFY_DEGREE = 16


@functools.lru_cache(maxsize=1024)
def classify_square_finite_supported(query: GlobalQuery) -> bool:
    """True iff the only Casimir-finite invariant distribution supported on
    the cone over the given invariant open set is zero: always true, and
    this function earns the answer by running the certifying checks on the
    decision table and the local equations.  Memoised per query.

    Origin part: zero graded dimensions when the set omits the origin;
    otherwise they must be nondecreasing two degrees apart, the computable
    shadow of the Casimir acting injectively on the origin tower.  Odd n:
    the missing global section must show as zero generators on both
    half-cones; this check tests the parity itself, apart from
    ladder_length, so that a wrong ladder cannot certify its own table.
    Cone part: the chain kernel at delta order <= _CERTIFY_ORDER must equal
    the eliminated one, so that no verdict rests on the chain alone; then,
    where the ladder never stops (even n), and for each p with a nonzero
    constant term, the local polynomial equation must have no nonzero
    solution.
    """
    n = query.n
    answer = classify_global(query, max_degree=_CERTIFY_DEGREE)
    dims = answer["supp0_graded_dims"]
    if query.contains_origin:
        ok = all(dims[m] <= dims[m + 2] for m in range(len(dims) - 2))
    else:
        ok = not any(dims)
    if n % 2 == 1:
        ok &= answer["half_cone_generators"] == {"plus": "zero", "minus": "zero"}
    if query.contains_n_plus or query.contains_n_minus:
        ok &= kernel_basis(n, _CERTIFY_ORDER) == _kernel_by_elimination(n, _CERTIFY_ORDER)
        endless = ladder_length(n) is None
        for poly in _CERTIFY_POLYS:
            if endless or poly.valuation() == 0:
                ok &= not solve_polynomial(n, poly, _CERTIFY_ORDER)
    return ok


# ---------------------------------------------------------------------------
# command records: each ends in a PASS/FAIL verdict and its detail


def _count_report(command: str, n: int, K: int, dists: list, predicted: int, *,
                  count: str, listing: str, noun: str, **extra) -> dict:
    """A record that lists dists and passes when there are as many as the
    closed form predicts; count and listing name its keys."""
    return {
        "command": command,
        "n": n,
        "max_order": K,
        **extra,
        count: len(dists),
        f"predicted_{count}": predicted,
        listing: [dist.to_record() for dist in dists],
        "verdict": "PASS" if len(dists) == predicted else "FAIL",
        "verdict_detail": f"{noun} {len(dists)} vs predicted {predicted}",
    }


def kernel_report(n: int, K: int) -> dict:
    """The kernel command's record: kernel_basis(n, K) against
    predicted_kernel_dim(n, K)."""
    return _count_report("kernel", n, K, kernel_basis(n, K), predicted_kernel_dim(n, K),
                         count="dimension", listing="basis", noun="kernel dimension")


def orbit_report(n: int, K: int) -> dict:
    """The orbit command's record: casimir_orbit(n, K) against
    predicted_orbit_length(n, K)."""
    return _count_report("orbit", n, K, casimir_orbit(n, K), predicted_orbit_length(n, K),
                         count="length", listing="elements", noun="orbit length")


def solve_report(n: int, p: CasimirPolynomial, K: int) -> dict:
    """The solve command's record: solve_polynomial(n, p, K) against
    predicted_solve_dim(n, p, K)."""
    return _count_report("solve", n, K, solve_polynomial(n, p, K), predicted_solve_dim(n, p, K),
                         count="dimension", listing="basis", noun="solution dimension",
                         poly=str(p))


def classify_report(query: GlobalQuery, max_degree: int) -> dict:
    """The classify command's record: the decision table up to max_degree,
    with a PASS verdict when classify_square_finite_supported certifies it."""
    finite = classify_square_finite_supported(query)
    return {
        "command": "classify",
        "answer": classify_global(query, max_degree=max_degree),
        "square_finite_supported_only_zero": finite,
        "verdict": "PASS" if finite else "FAIL",
        "verdict_detail": "decision table consistent; Casimir-finite cone-supported space is zero",
    }
