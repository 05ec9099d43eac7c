"""Exact delta calculus on the transversal line through the base cone point.

A distribution here is a finite sum  psi(y) = sum a_{i,k} delta^{(k)}(y) (x) v_i
supported at y = 0, with rational coefficients, v_i the ladder basis of the
weight-n module, and delta normalized so that pairing delta against g gives
g(0).  The whole local classification reduces to linear algebra on these
sums: psi is the restriction of a locally invariant distribution exactly
when (rho(X) + y*rho(Y)) psi = 0, and the ambient Casimir acts through its
radial form (3 + rho(H) + 2y d/dy) d/dy + (1/2) rho(Y)^2.

The module action is applied term by term through the ladder formulas:
rho(X) sends v_i to v_{i+1}, rho(Y) sends v_i to (n-i+1)i v_{i-1}, and
rho(H) scales v_i by 2i-n.  The tests check these formulas against the
sl2.EndMatrix matrices, applied by a dense reference operator of their own.

Operations never truncate in the delta order k; any cutoff is the caller's
search bound, not ours.  The public constructor checks outside input.  A
distribution the engine computes from others is built without those
checks, its terms being in range by construction: by _built when they are
also clean, by _from_sums when zeros and integral Fractions may remain.
"""

from __future__ import annotations

from fractions import Fraction

from . import _exact


_ZERO = Fraction(0)


class TransversalDist:
    """Sparse exact combination of delta derivatives tensor ladder vectors.

    terms maps (i, k) -> coefficient with 0 <= i <= n and k >= 0; zero
    coefficients are never stored.  A coefficient is stored as an int when
    it is integral and as a Fraction otherwise, so that the integer
    coefficients of the kernel and of the Casimir orbit take int arithmetic.
    Instances are treated as immutable values: every operation returns a
    fresh one.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        if n < 0:
            raise ValueError("n must be a natural number")
        clean: dict[tuple[int, int], Fraction] = {}
        for (i, k), coeff in (terms or {}).items():
            coeff = _exact(coeff)
            if not coeff:
                continue
            if not (0 <= i <= n) or k < 0:
                raise ValueError(f"term ({i},{k}) out of range for n={n}")
            clean[(i, k)] = coeff
        self.n = n
        self.terms = clean

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (isinstance(other, TransversalDist)
                and self.n == other.n and self.terms == other.terms)

    def __add__(self, other: "TransversalDist") -> "TransversalDist":
        self._check(other)
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, 0) + coeff
        return _from_sums(self.n, out)

    def __sub__(self, other: "TransversalDist") -> "TransversalDist":
        return self + (-other)

    def __neg__(self) -> "TransversalDist":
        return _built(self.n, {key: -c for key, c in self.terms.items()})

    def __rmul__(self, scalar) -> "TransversalDist":
        scalar = _exact(scalar)
        return _from_sums(self.n, {key: scalar * c for key, c in self.terms.items()})

    __mul__ = __rmul__

    def __repr__(self) -> str:
        inner = ", ".join(f"({i},{k}): {c}" for (i, k), c in sorted(self.terms.items()))
        return f"TransversalDist(n={self.n}, {{{inner}}})"

    def coefficient(self, i: int, k: int) -> Fraction:
        c = self.terms.get((i, k))
        return _ZERO if c is None else Fraction(c)

    def _check(self, other: "TransversalDist") -> None:
        if self.n != other.n:
            raise ValueError(f"mixing distributions for n={self.n} and n={other.n}")

    # -- serialization: structured record with "p/q" coefficient strings --

    def to_record(self) -> dict:
        return {
            "n": self.n,
            "terms": [{"i": i, "k": k, "coeff": str(c)}
                      for (i, k), c in sorted(self.terms.items())],
        }


def _built(n: int, terms: dict) -> TransversalDist:
    """The distribution of a term map the engine computed, clean by
    construction: keys in range, no zero value, integral values as ints.
    None of the constructor's checks is repeated."""
    psi = object.__new__(TransversalDist)
    psi.n = n
    psi.terms = terms
    return psi


def _from_sums(n: int, sums: dict) -> TransversalDist:
    """_built from summed terms, which may hold zeros and integral
    Fractions: the zeros are dropped and integral Fractions stored as ints."""
    return _built(n, {key: c if type(c) is int or c.denominator != 1 else c.numerator
                      for key, c in sums.items() if c})


def delta_seed(n: int) -> TransversalDist:
    """delta^0 tensor v_n: the transversal restriction of the cone measure
    weighted by the degree-n/2 equivariant seed function."""
    return TransversalDist(n, {(n, 0): 1})


def _collect(n: int, contributions) -> TransversalDist:
    """Sum (key, coefficient) contributions into a distribution."""
    out: dict[tuple[int, int], Fraction] = {}
    get = out.get
    for key, coeff in contributions:
        out[key] = get(key, 0) + coeff
    return _from_sums(n, out)


def equivariance_defect(psi: TransversalDist) -> TransversalDist:
    """(rho(X) + y*rho(Y)) psi.  Zero exactly when psi is the transversal
    restriction of a locally invariant distribution.  Term by term, rho(X)
    sends a*delta^k (x) v_i to a*delta^k (x) v_{i+1}, and y*rho(Y) sends it
    to -k(n-i+1)i*a*delta^{k-1} (x) v_{i-1}."""
    n = psi.n
    out: dict[tuple[int, int], Fraction] = {}
    get = out.get
    for (i, k), c in psi.terms.items():
        if i < n:
            key = (i + 1, k)
            out[key] = get(key, 0) + c
        if i and k:
            key = (i - 1, k - 1)
            out[key] = get(key, 0) - k * (n - i + 1) * i * c
    return _from_sums(n, out)


def radial_casimir(psi: TransversalDist) -> TransversalDist:
    """Radial form of the Casimir operator on the transversal:
    (3 + rho(H) + 2y d/dy) d/dy + (1/2) rho(Y)^2, computed exactly.

    The first part sends a*delta^k (x) v_i to (2i-n-2k-1)*a*delta^{k+1} (x) v_i;
    the second lowers it twice, to (1/2)(n-i+1)i(n-i+2)(i-1)*a*delta^k (x) v_{i-2}.
    On the v_n component the leading coefficient is (n-2k-1); it drives the
    whole classification.
    """
    n = psi.n
    out: dict[tuple[int, int], Fraction] = {}
    get = out.get
    for (i, k), c in psi.terms.items():
        key = (i, k + 1)
        out[key] = get(key, 0) + (2 * i - n - 2 * k - 1) * c
        if i >= 2:
            key = (i - 2, k)
            out[key] = get(key, 0) + (n - i + 1) * i * (n - i + 2) * (i - 1) // 2 * c
    return _from_sums(n, out)
