"""Integer character arithmetic on the sl(2) weight lattice.

A character is a finitely supported map weight -> multiplicity.  That is
all the structure needed to count occurrences of an irreducible inside
symmetric powers of the adjoint module, which in turn counts the graded
pieces of the space of invariant distributions supported at the origin.
Everything is integer-exact; decomposition into irreducibles is done by
peeling off highest weights.

invariant_dim serves those counts from their closed form (Sym^m(V_2) is
the sum of V_{2m-4j} over 0 <= j <= m/2).  One generic computation
certifies it: sym_power, which enumerates the degree-m weight multisets,
followed by decompose_into_irreducibles.  It does so in acceptance
criterion 6 (n <= 10, m <= 20), in test_invariant_dim_examples of
tests/test_characters.py (n <= 66, m <= 32) and in every supp0-dims record.

graded_dims_report certifies against the enumerated decomposition of
Sym^m(adj), which does not depend on n, so it is computed once per degree
m per process (_brute_adjoint_pieces, bounded at 128 entries, above the 65
degrees of the CLI's --max-degree) as a read-only mapping, and every n
reads the same table.  The closed form is evaluated afresh on each call,
so a wrong invariant_dim still meets an independent brute-force column.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement
from types import MappingProxyType


class Character:
    """Finitely supported integer multiplicity function on the weight lattice."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {int(w): int(m) for w, m in (coeffs or {}).items() if m}

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Character) and self.coeffs == other.coeffs

    def __add__(self, other: "Character") -> "Character":
        out = dict(self.coeffs)
        for w, m in other.coeffs.items():
            out[w] = out.get(w, 0) + m
        return Character(out)

    def __sub__(self, other: "Character") -> "Character":
        out = dict(self.coeffs)
        for w, m in other.coeffs.items():
            out[w] = out.get(w, 0) - m
        return Character(out)

    def __mul__(self, other: "Character") -> "Character":
        out: dict[int, int] = {}
        for w1, m1 in self.coeffs.items():
            for w2, m2 in other.coeffs.items():
                out[w1 + w2] = out.get(w1 + w2, 0) + m1 * m2
        return Character(out)

    def __repr__(self) -> str:
        inner = ", ".join(f"{w}: {m}" for w, m in sorted(self.coeffs.items()))
        return "Character({%s})" % inner

    def stretch(self, r: int) -> "Character":
        """Multiply every weight by r (the r-th power-sum substitution).
        Nothing in the package calls it; bench/tracing.py traces it by name."""
        return Character({w * r: m for w, m in self.coeffs.items()})

    def is_symmetric(self) -> bool:
        return all(self.coeffs.get(-w, 0) == m for w, m in self.coeffs.items())

    def is_genuine(self) -> bool:
        """Symmetric with nonnegative multiplicities: the character of an actual module."""
        return self.is_symmetric() and all(m >= 0 for m in self.coeffs.values())

    def max_weight(self) -> int:
        if not self.coeffs:
            raise ValueError("zero character has no weights")
        return max(self.coeffs)


def irrep_character(n: int) -> Character:
    """Character of the weight-n irreducible: one each at -n, -n+2, ..., n."""
    if n < 0:
        raise ValueError("n must be a natural number")
    return Character({-n + 2 * i: 1 for i in range(n + 1)})


def adjoint_character() -> Character:
    return irrep_character(2)


def decompose_into_irreducibles(c: Character) -> dict[int, int]:
    """Peel highest weights until nothing is left.

    Returns {highest weight: multiplicity}.  Raises if peeling ever drives
    a multiplicity negative, i.e. the input was not a genuine character.
    """
    work = Character(dict(c.coeffs))
    out: dict[int, int] = {}
    while work:
        w = work.max_weight()
        m = work.coeffs[w]
        if w < 0 or m < 0:
            raise ValueError("not a genuine character: peeling failed")
        out[w] = out.get(w, 0) + m
        work = work - Character({u: m for u in irrep_character(w).coeffs})
        if any(v < 0 for v in work.coeffs.values()):
            raise ValueError("not a genuine character: peeling failed")
    return out


def sym_power(m: int, c: Character) -> Character:
    """Character of the m-th symmetric power, by direct enumeration of the
    degree-m monomials in the basis slots of the genuine character c."""
    if m < 0:
        raise ValueError("m must be a natural number")
    if not c.is_genuine():
        raise ValueError("sym_power expects a genuine character")
    slots = [w for w, mult in sorted(c.coeffs.items()) for _ in range(mult)]
    out: dict[int, int] = {}
    for combo in combinations_with_replacement(range(len(slots)), m):
        w = sum(slots[i] for i in combo)
        out[w] = out.get(w, 0) + 1
    return Character(out)


def invariant_dim(n: int, m: int) -> int:
    """Multiplicity of the weight-n irreducible inside the m-th symmetric
    power of the adjoint module: the dimension of the degree-m graded piece
    of invariant distributions supported at the origin with values there.

    Closed form: Sym^m(V_2) is the sum of V_{2m-4j} over 0 <= j <= m/2,
    each once, so the multiplicity is 1 exactly when n <= 2m and 4 divides
    2m - n (which forces n even), and 0 otherwise.  Acceptance criterion 6
    and test_invariant_dim_examples check it against
    decompose_into_irreducibles(sym_power(m, adjoint_character())).
    """
    if n < 0 or m < 0:
        raise ValueError("n and m must be natural numbers")
    return 1 if n <= 2 * m and (2 * m - n) % 4 == 0 else 0


@lru_cache(maxsize=128)
def _brute_adjoint_pieces(m: int) -> MappingProxyType:
    """{highest weight: multiplicity} of Sym^m(adj), by brute-force
    enumeration and peeling, as a read-only mapping.  Memoised per degree:
    it does not depend on n."""
    return MappingProxyType(decompose_into_irreducibles(sym_power(m, adjoint_character())))


def graded_dims_report(n: int, max_degree: int) -> dict:
    """The supp0-dims command's record: invariant_dim(n, m) for m <= max_degree
    next to the brute-force multiplicity of V_n in Sym^m(adj), with a PASS
    verdict when the two agree and, for odd n, every dimension is zero."""
    degrees = range(max_degree + 1)
    dims = [invariant_dim(n, m) for m in degrees]
    brute = [_brute_adjoint_pieces(m).get(n, 0) for m in degrees]
    passed = dims == brute and (n % 2 == 0 or not any(dims))
    return {
        "command": "supp0-dims",
        "n": n,
        "max_degree": max_degree,
        "graded_dims": dims,
        "brute_force_dims": brute,
        "verdict": "PASS" if passed else "FAIL",
        "verdict_detail": "graded dimensions agree with brute-force enumeration",
    }
