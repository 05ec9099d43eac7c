"""Exact construction of the finite-dimensional irreducibles of sl(2,R).

The Lie algebra is presented on the basis (H, X, Y) with [H,X] = 2X,
[H,Y] = -2Y, [X,Y] = H.  The (n+1)-dimensional module is carried by the
ladder basis (v_0, ..., v_n), v_i of H-weight -n+2i, with v_i the i-th
raising image of the lowest weight vector.  Matrix entries are exact (ints
where integral, Fractions otherwise), so every identity asserted downstream
is exact; n stays small (tens, not thousands), so the matrices are stored
dense and multiplied sparsely.

make_irrep is cached per n, and irrep_report certifies each module once
per process: its structure checks and Casimir scalar are memoised
(_module_checks, bounded at 128 entries, above the 65 values of the CLI's
--n) on the Irrep object itself, which hashes by identity.  Keying on the
module rather than on n means a module that differs from the cached one
(a corrupted module of the same n, say) is checked afresh, never passed
on the strength of an earlier PASS.  The memo holds only immutable
values; each report gets a fresh checks dict.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import Value, _exact


class EndMatrix:
    """Square exact matrix acting on column coordinates in (v_0, ..., v_n);
    integral entries are stored as ints, the others as Fractions."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows):
        dim = n + 1
        rows = tuple(tuple(_exact(v) for v in row) for row in rows)
        if len(rows) != dim or any(len(row) != dim for row in rows):
            raise ValueError(f"expected a {dim}x{dim} matrix for n={n}")
        self.n = n
        self.rows = rows

    @classmethod
    def identity(cls, n: int) -> "EndMatrix":
        return cls(n, [[1 if i == j else 0 for j in range(n + 1)] for i in range(n + 1)])

    def __add__(self, other: "EndMatrix") -> "EndMatrix":
        self._check(other)
        return EndMatrix(self.n, [[a + b for a, b in zip(ra, rb)]
                                  for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other: "EndMatrix") -> "EndMatrix":
        self._check(other)
        return EndMatrix(self.n, [[a - b for a, b in zip(ra, rb)]
                                  for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self) -> "EndMatrix":
        return EndMatrix(self.n, [[-a for a in row] for row in self.rows])

    def __mul__(self, other):
        if isinstance(other, EndMatrix):
            # Skips zero entries: the module matrices are diagonal or
            # bidiagonal, so a product costs O(n) scalar products, not O(n^3).
            self._check(other)
            dim = self.n + 1
            other_nonzero = [[(c, b) for c, b in enumerate(row) if b] for row in other.rows]
            out = [[0] * dim for _ in range(dim)]
            for out_row, row in zip(out, self.rows):
                for j, a in enumerate(row):
                    if a:
                        for c, b in other_nonzero[j]:
                            out_row[c] += a * b
            return EndMatrix(self.n, out)
        scalar = _exact(other)
        return EndMatrix(self.n, [[a * scalar for a in row] for row in self.rows])

    def __rmul__(self, scalar) -> "EndMatrix":
        return self.__mul__(scalar)

    def __pow__(self, k: int) -> "EndMatrix":
        if k < 0:
            raise ValueError("negative matrix powers are not supported")
        if k == 0:
            return EndMatrix.identity(self.n)
        half = self ** (k // 2)
        return half * half * self if k % 2 else half * half

    def __eq__(self, other) -> bool:
        return isinstance(other, EndMatrix) and self.n == other.n and self.rows == other.rows

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(a) for a in row) for row in self.rows)
        return f"EndMatrix(n={self.n}, [{body}])"

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.rows for a in row)

    def scalar_value(self):
        """The scalar c with self == c*Id, or None if self is not scalar."""
        c = self.rows[0][0]
        for i, row in enumerate(self.rows):
            for j, a in enumerate(row):
                if a != (c if i == j else 0):
                    return None
        return c

    def _check(self, other: "EndMatrix") -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: n={self.n} vs n={other.n}")


class Irrep(Value):
    """The (n+1)-dimensional irreducible module as three exact matrices.
    Immutable, and equal and hashed by identity."""

    __slots__ = ("n", "rho_h", "rho_x", "rho_y")

    def __init__(self, n: int, rho_h: EndMatrix, rho_x: EndMatrix, rho_y: EndMatrix):
        self._set(n=n, rho_h=rho_h, rho_x=rho_x, rho_y=rho_y)

    def __repr__(self) -> str:
        return (f"Irrep(n={self.n!r}, rho_h={self.rho_h!r}, rho_x={self.rho_x!r}, "
                f"rho_y={self.rho_y!r})")


@lru_cache(maxsize=128)
def make_irrep(n: int) -> Irrep:
    """Build the irreducible of highest weight n on the ladder basis.

    rho_h is diagonal with entries -n+2i; rho_x shifts v_i -> v_{i+1}
    (killing v_n); rho_y sends v_i -> (n-i+1)*i*v_{i-1} (killing v_0).
    """
    if n < 0:
        raise ValueError("n must be a natural number")
    dim = n + 1
    h = [[0] * dim for _ in range(dim)]
    x = [[0] * dim for _ in range(dim)]
    y = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        h[i][i] = -n + 2 * i
    for i in range(n):
        x[i + 1][i] = 1
    for i in range(1, dim):
        y[i - 1][i] = (n - i + 1) * i
    return Irrep(n, EndMatrix(n, h), EndMatrix(n, x), EndMatrix(n, y))


def commutator(a: EndMatrix, b: EndMatrix) -> EndMatrix:
    """a*b - b*a, exactly.  Raises on a dimension mismatch."""
    return a * b - b * a


def casimir_scalar(rep: Irrep) -> Fraction:
    """Value of the Casimir matrix (1/2)rho_h^2 + rho_x*rho_y + rho_y*rho_x.

    The matrix must come out scalar; anything else means the module data
    is corrupted and raises.
    """
    mat = Fraction(1, 2) * (rep.rho_h * rep.rho_h) + rep.rho_x * rep.rho_y + rep.rho_y * rep.rho_x
    value = mat.scalar_value()
    if value is None:
        raise ValueError(f"Casimir matrix is not scalar for n={rep.n}")
    return value


def expected_casimir(n: int) -> Fraction:
    """The Casimir eigenvalue n^2/2 + n on the weight-n irreducible."""
    return Fraction(n * n, 2) + n


def _matrix_record(mat: EndMatrix) -> list[list[str]]:
    return [[str(v) for v in row] for row in mat.rows]


@lru_cache(maxsize=128)
def _module_checks(rep: Irrep) -> tuple[tuple[tuple[str, bool], ...], object]:
    """The structure checks of one module as (name, ok) pairs, in report
    order, and its Casimir scalar (None when the Casimir matrix is not
    scalar).  Memoised on the module object: Irrep hashes by identity."""
    n = rep.n
    checks = [
        ("commutator_hx", commutator(rep.rho_h, rep.rho_x) == 2 * rep.rho_x),
        ("commutator_hy", commutator(rep.rho_h, rep.rho_y) == (-2) * rep.rho_y),
        ("commutator_xy", commutator(rep.rho_x, rep.rho_y) == rep.rho_h),
        ("raising_nilpotent", (rep.rho_x ** (n + 1)).is_zero()),
        ("lowering_nilpotent", (rep.rho_y ** (n + 1)).is_zero()),
    ]
    try:
        scalar = casimir_scalar(rep)
        checks.append(("casimir_scalar", scalar == expected_casimir(n)))
    except ValueError:
        scalar = None
        checks.append(("casimir_scalar", False))
    return tuple(checks), scalar


def irrep_report(n: int) -> dict:
    """The irrep command's record: the module matrices, the Casimir scalar
    and the exact structure checks ([H,X] = 2X, [H,Y] = -2Y, [X,Y] = H,
    X and Y nilpotent of order n+1, Casimir scalar n^2/2 + n), with a PASS
    verdict exactly when every check holds."""
    rep = make_irrep(n)
    pairs, scalar = _module_checks(rep)
    checks = dict(pairs)
    return {
        "command": "irrep",
        "n": n,
        "rho_h": _matrix_record(rep.rho_h),
        "rho_x": _matrix_record(rep.rho_x),
        "rho_y": _matrix_record(rep.rho_y),
        "casimir_scalar": str(scalar) if scalar is not None else None,
        "checks": checks,
        "verdict": "PASS" if all(checks.values()) else "FAIL",
        "verdict_detail": f"module invariants for n={n}",
    }
