"""Kernel bases, Casimir orbits and the classification tables, all exact."""

import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nilcone.solver as solver
from nilcone import cli
from nilcone.solver import (CasimirPolynomial, GlobalQuery, _kernel_by_elimination,
                            _nullspace, _orbit_by_iteration, casimir_orbit,
                            change_of_basis, classify_global,
                            classify_square_finite_supported, kernel_basis,
                            ladder_length, predicted_kernel_dim, predicted_solve_dim,
                            solve_polynomial)
from nilcone.transversal import (TransversalDist, delta_seed, equivariance_defect,
                                 radial_casimir)

LOCAL_GOLDEN = Path(__file__).parent / "golden" / "local_bases.json"


def diag_product(n: int, k: int) -> Fraction:
    out = Fraction(1)
    for j in range(1, k + 1):
        out *= n - 2 * j + 1
    return out


def random_invariant(n: int, K: int, rng: random.Random) -> TransversalDist:
    acc = TransversalDist(n, {})
    for b in kernel_basis(n, K):
        acc = acc + Fraction(rng.randint(-9, 9), rng.randint(1, 9)) * b
    return acc


def dense_rank(rows, ncols: int) -> int:
    """Rank by plain dense Gaussian elimination over Fractions."""
    mat = [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for r in range(rank + 1, len(mat)):
            factor = mat[r][col] / mat[rank][col]
            mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


# -- _nullspace ---------------------------------------------------------------


sparse_rows = st.integers(1, 7).flatmap(lambda ncols: st.tuples(
    st.just(ncols),
    st.lists(st.dictionaries(st.integers(0, ncols - 1),
                             st.one_of(st.integers(-3, 3),
                                       st.fractions(-4, 4, max_denominator=5))
                             .filter(bool),
                             max_size=3), max_size=7)))


@settings(max_examples=200, deadline=None)
@given(sparse_rows)
def test_nullspace_is_the_reduced_echelon_kernel(case):
    ncols, rows = case
    vectors = _nullspace([dict(row) for row in rows], ncols)
    assert len(vectors) == ncols - dense_rank(rows, ncols)
    # vector f is 1 at free column f, its highest entry, and 0 at the others
    free = [max(vec) for vec in vectors]
    assert free == sorted(set(free))
    for vec, f in zip(vectors, free):
        assert all(vec.values())
        assert [vec.get(g, 0) for g in free] == [int(g == f) for g in free]
        for row in rows:
            assert sum(Fraction(v) * vec.get(c, 0) for c, v in row.items()) == 0


# -- kernel_basis ------------------------------------------------------------


def product_formula(n: int, K: int) -> list[TransversalDist]:
    """kernel_basis in product form: element j has
    a_{n-2s, j-s} = j!/(j-s)! * prod_{t<s} (n-2t) * (2s-1)!! for s up to
    min(j, n // 2), where k = 0 or i <= 1, and does not exist, nor does any
    later one, when its chain ends at i = 1 with k > 0."""
    basis = []
    for j in range(K + 1):
        last = min(j, n // 2)
        if n - 2 * last == 1 and j > last:
            break
        basis.append(TransversalDist(n, {
            (n - 2 * s, j - s): math.perm(j, s) * math.prod(range(n, n - 2 * s, -2))
            * math.prod(range(1, 2 * s, 2))
            for s in range(last + 1)}))
    return basis


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 40), st.integers(0, 40))
@example(0, 64)
@example(1, 64)
@example(63, 64)
@example(64, 64)
def test_kernel_chains_are_the_eliminated_kernel(n, K):
    # three routes: the chain walk (production), the elimination and the
    # product formula
    chains = kernel_basis(n, K)
    assert chains == _kernel_by_elimination(n, K)
    assert chains == product_formula(n, K)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 40), st.integers(0, 40))
@example(0, 64)
@example(1, 64)
@example(63, 64)
@example(64, 64)
def test_closed_orbit_is_the_iterated_orbit(n, K):
    assert casimir_orbit(n, K) == _orbit_by_iteration(n, K)


def test_kernel_n0_is_delta_tower():
    for K in range(6):
        basis = kernel_basis(0, K)
        assert basis == [TransversalDist(0, {(0, k): 1}) for k in range(K + 1)]


def test_kernel_dims_match_prediction():
    for n in range(10):
        for K in range(9):
            assert len(kernel_basis(n, K)) == predicted_kernel_dim(n, K)


def test_kernel_n2_low_orders_frozen():
    assert kernel_basis(2, 0) == [TransversalDist(2, {(2, 0): 1})]
    assert kernel_basis(2, 1) == [TransversalDist(2, {(2, 0): 1}),
                                  TransversalDist(2, {(2, 1): 1, (0, 0): 2})]


def test_kernel_elements_are_invariant_and_echelonized():
    for n in (0, 1, 2, 3, 4, 5):
        basis = kernel_basis(n, 5)
        for j, psi in enumerate(basis):
            assert not equivariance_defect(psi)
            for jp in range(len(basis)):
                assert psi.coefficient(n, jp) == (1 if jp == j else 0)


def test_kernel_basis_rejects_a_chain_with_a_nonzero_defect(monkeypatch, capsys):
    # the zero-defect check is what stands between a wrong chain and a
    # reported kernel: a defect that reads nonzero is an internal
    # contradiction, exit code 2 with one line on stderr
    monkeypatch.setattr(solver, "equivariance_defect", lambda psi: psi)
    with pytest.raises(ArithmeticError, match="left the invariant kernel"):
        kernel_basis(4, 3)
    capsys.readouterr()
    assert cli.main(["kernel", "--n", "4", "--max-order", "3"]) == 2
    out, err = capsys.readouterr()
    assert not out and len(err.splitlines()) == 1
    assert err.startswith("internal contradiction: ")


def test_solutions_are_invariant_and_echelonized():
    # a solution's lead is its lowest j with a_{n,j} != 0; it reads 1 there,
    # the other solutions read 0 there, and the leads increase
    polys = [CasimirPolynomial((0,)), CasimirPolynomial((0, 0)),
             CasimirPolynomial((0, 1)), CasimirPolynomial((0, Fraction(-2, 3), 0))]
    for n, K, p in itertools.product(range(1, 12, 2), (2, 6), polys):
        sols = solve_polynomial(n, p, K)
        leads = [min(k for (i, k) in psi.terms if i == n) for psi in sols]
        assert leads == sorted(set(leads))
        for psi in sols:
            assert not equivariance_defect(psi)
            assert not p.apply(psi)
            for phi, other in zip(sols, leads):
                assert psi.coefficient(n, other) == (1 if phi is psi else 0)


def test_kernel_odd_vanishing_pattern():
    # every odd-n invariant has a_{2i-1,k} = 0 for k >= i >= 1
    for n in (3, 5, 7):
        for psi in kernel_basis(n, 6):
            for i in range(1, n // 2 + 1):
                for k in range(i, 9):
                    assert psi.coefficient(2 * i - 1, k) == 0


def test_kernel_recurrence_on_random_elements():
    rng = random.Random(7)
    for n in range(1, 7):
        for _ in range(3):
            psi = random_invariant(n, 6, rng)
            for i in range(1, n):
                for k in range(8):
                    assert psi.coefficient(i - 1, k) == \
                        (k + 1) * (i + 1) * (n - i) * psi.coefficient(i + 1, k + 1)


def local_bases_text() -> str:
    """The golden file's text: one JSON line per kernel_basis(n, K), n <= 9,
    K <= 6, then per solve_polynomial(n, p, 6), n <= 9, for p in t, t^2,
    t^2 + t, t + 1 and t^3."""
    entries = [{"query": "kernel_basis", "n": n, "K": K,
                "basis": [b.to_record() for b in kernel_basis(n, K)]}
               for n in range(10) for K in range(7)]
    for lower in ((0,), (0, 0), (0, 1), (1,), (0, 0, 0)):
        p = CasimirPolynomial(lower)
        entries += [{"query": "solve_polynomial", "n": n, "K": 6, "poly": str(p),
                     "basis": [b.to_record() for b in solve_polynomial(n, p, 6)]}
                    for n in range(10)]
    return "[\n" + ",\n".join(json.dumps(e, sort_keys=True) for e in entries) + "\n]\n"


def test_local_bases_match_golden_file():
    assert local_bases_text() == LOCAL_GOLDEN.read_text()


# -- ladder_length -------------------------------------------------------------


def test_ladder_length_is_where_the_casimir_iteration_dies():
    # the radial Casimir's own iterates, up to 2n+2 steps, say where the ladder stops
    for n in range(41):
        iterates = [delta_seed(n)]
        while iterates[-1] and len(iterates) <= 2 * n + 2:
            iterates.append(radial_casimir(iterates[-1]))
        first_zero = next((j for j, psi in enumerate(iterates) if not psi), None)
        if n % 2:
            assert ladder_length(n) == first_zero, n
        else:
            assert ladder_length(n) is None and first_zero is None, n


# -- casimir_orbit / change_of_basis ----------------------------------------


def test_orbit_lengths_and_invariance():
    assert casimir_orbit(1, 5) == [delta_seed(1)]
    for n in (1, 3, 5, 7):
        orbit = casimir_orbit(n, 8)
        assert len(orbit) == (n + 1) // 2
        assert not radial_casimir(orbit[-1])
    for n in (0, 2, 4):
        orbit = casimir_orbit(n, 5)
        assert len(orbit) == 6
        for psi in orbit:
            assert not equivariance_defect(psi)


def test_change_of_basis_diagonals():
    mat = change_of_basis(0, 3)
    assert [mat[k][k] for k in range(4)] == [1, -1, 3, -15]
    for n in (2, 4, 6, 8):
        mat = change_of_basis(n, 2)
        assert [mat[k][k] for k in range(3)] == [1, n - 1, (n - 3) * (n - 1)]
    assert change_of_basis(1, 0) == ((1,),)


def test_change_of_basis_diagonal_and_product_formula():
    for n in range(14):
        kmax = 6 if n % 2 == 0 else (n - 1) // 2
        mat = change_of_basis(n, kmax)
        dim = len(mat)
        for j in range(dim):
            for k in range(dim):
                if j != k:
                    assert mat[j][k] == 0
            assert mat[j][j] == diag_product(n, j)


def test_change_of_basis_rejects_overlong_odd_request():
    with pytest.raises(ValueError):
        change_of_basis(3, 2)


@pytest.mark.parametrize("n, K", [(0, 3), (4, 4), (7, 3)])
def test_change_of_basis_rejects_a_corrupted_orbit(monkeypatch, n, K):
    # an off-diagonal entry (orbit[k] + basis[k+1]), then a zero diagonal
    # entry (orbit[k] with its top coefficient a_{n,k} removed)
    basis, orbit = kernel_basis(n, K), _orbit_by_iteration(n, K)
    corruptions = [(k, orbit[k] + basis[k + 1]) for k in range(K)]
    corruptions += [(k, TransversalDist(n, {key: c for key, c in orbit[k].terms.items()
                                            if key != (n, k)}))
                    for k in range(K + 1)]
    for k, bad in corruptions:
        monkeypatch.setattr(solver, "_orbit_by_iteration",
                            lambda *_, k=k, bad=bad: orbit[:k] + [bad] + orbit[k + 1:])
        with pytest.raises(ArithmeticError):
            change_of_basis(n, K)


# -- solve_polynomial ---------------------------------------------------------


def test_solve_even_only_zero():
    p = CasimirPolynomial((Fraction(1), Fraction(-2), Fraction(0)))  # t^3 - 2t + 1
    for n in (0, 2, 4, 6):
        assert solve_polynomial(n, p, 8) == []


def test_solve_odd_nonzero_constant_term_only_zero():
    p = CasimirPolynomial((Fraction(5), Fraction(1)))  # t^2 + t + 5
    for n in (1, 3, 5, 7):
        assert solve_polynomial(n, p, 8) == []


def test_solve_odd_pure_power_recovers_seed_orbit():
    sols = solve_polynomial(3, CasimirPolynomial((0, 0)), 4)
    assert len(sols) == 2
    span = casimir_orbit(3, 4)
    # echelonized solutions coincide with the echelonized orbit span
    for psi in sols:
        assert not equivariance_defect(psi)
        residual = psi
        for k, orb in enumerate(span):
            residual = residual - psi.coefficient(3, k) * orb * \
                (Fraction(1) / orb.coefficient(3, k))
        assert not residual


def test_solve_matches_closed_form_dimension():
    # valuations 0 to 4, so both v > (n-1)/2 and K < (n+1)/2 - v occur
    polys = [CasimirPolynomial((0,)),                 # t
             CasimirPolynomial((0, 0)),               # t^2
             CasimirPolynomial((0, 1)),               # t^2 + t
             CasimirPolynomial((1,)),                 # t + 1
             CasimirPolynomial((0, 0, 0)),            # t^3
             CasimirPolynomial((0, Fraction(1, 2), 0)),  # t^3 + t/2
             CasimirPolynomial((0, 0, 0, -2)),        # t^4 - 2t^3
             CasimirPolynomial((0, 0, 0, 0, 3))]      # t^5 + 3t^4
    assert sorted({p.valuation() for p in polys}) == [0, 1, 2, 3, 4]
    for n in range(14):
        for K in range(13):
            for p in polys:
                assert len(solve_polynomial(n, p, K)) == predicted_solve_dim(n, p, K), \
                    (n, K, str(p))


def test_solve_equation_holds_identically():
    p = CasimirPolynomial((0, 0))
    for psi in solve_polynomial(5, p, 6):
        assert not p.apply(psi)
        assert not equivariance_defect(psi)


def test_solve_is_stable_in_the_order_bound():
    p = CasimirPolynomial((0, 0, 0))
    reference = solve_polynomial(5, p, 2)
    for K in (3, 5, 8):
        assert solve_polynomial(5, p, K) == reference
    for K in (2, 5, 9):
        assert solve_polynomial(4, p, K) == []


def test_casimir_polynomial_api():
    p = CasimirPolynomial((Fraction(1), Fraction(-3, 2)))
    assert p.degree == 2
    assert p.valuation() == 0
    assert str(p) == "t^2 - 3/2*t + 1"
    assert CasimirPolynomial((0, 0)).valuation() == 2
    assert str(CasimirPolynomial((0, 1))) == "t^2 + t"
    with pytest.raises(ValueError):
        CasimirPolynomial(())


def test_polynomials_and_queries_are_immutable_values():
    p = CasimirPolynomial((1, Fraction(-3, 2)))
    q = GlobalQuery(4, True, False, True)
    for value, same, other in ((p, CasimirPolynomial((Fraction(1), Fraction(-3, 2))),
                                CasimirPolynomial((1,))),
                               (q, GlobalQuery(4, True, False, True),
                                GlobalQuery(4, True, True, True))):
        assert value == same and hash(value) == hash(same) and value != other
        assert eval(repr(value)) == value
        name = type(value).__name__
        with pytest.raises(AttributeError, match=f"^{name} is immutable; cannot set 'n'$"):
            value.n = 5
        for field in value.__slots__:
            with pytest.raises(AttributeError,
                               match=f"^{name} is immutable; cannot delete '{field}'$"):
                delattr(value, field)
    assert repr(q) == ("GlobalQuery(n=4, contains_origin=True, contains_n_plus=False, "
                       "contains_n_minus=True)")
    # equal only to a value of the same type, never to a tuple of its fields
    assert q != (4, True, False, True) and p != p.lower_coeffs
    assert CasimirPolynomial((1,)) != GlobalQuery(1, True, True, True)
    assert hash(q) == hash((4, True, False, True)) and hash(p) == hash(p.lower_coeffs)


# -- global classification ----------------------------------------------------


def test_classify_global_examples():
    ans = classify_global(GlobalQuery(3, False, True, False))
    assert all(d == 0 for d in ans["supp0_graded_dims"])
    assert ans["half_cone_generators"]["plus"] == "zero"
    assert ans["half_cone_generators"]["minus"] == "zero"

    ans = classify_global(GlobalQuery(2, True, True, True))
    assert ans["half_cone_generators"]["plus"] == "countably-infinite"
    assert ans["half_cone_generators"]["minus"] == "countably-infinite"
    assert ans["supp0_graded_dims"][:4] == [0, 1, 0, 1]

    ans = classify_global(GlobalQuery(0, True, True, True))
    assert ans["supp0_graded_dims"][:5] == [1, 0, 1, 0, 1]
    assert ans["half_cone_generators"]["plus"] == "countably-infinite"


def test_classify_global_invariants():
    for n in range(6):
        for origin in (False, True):
            for plus in (False, True):
                for minus in (False, True):
                    ans = classify_global(GlobalQuery(n, origin, plus, minus))
                    if n % 2 == 1:
                        assert ans["half_cone_generators"]["plus"] == "zero"
                        assert ans["half_cone_generators"]["minus"] == "zero"
                    if not origin:
                        assert all(d == 0 for d in ans["supp0_graded_dims"])
                    assert ans["realizable"] == ((not origin) or (plus and minus))


def test_square_finite_supported_examples():
    assert classify_square_finite_supported(GlobalQuery(2, True, True, True))
    assert classify_square_finite_supported(GlobalQuery(3, True, True, True))
    assert classify_square_finite_supported(GlobalQuery(0, True, True, True))
    assert classify_square_finite_supported(GlobalQuery(5, False, True, False))


@pytest.mark.parametrize("query,corrupt", [
    (GlobalQuery(3, True, True, True),
     {"half_cone_generators": {"plus": "countably-infinite", "minus": "zero"}}),
    (GlobalQuery(5, False, False, True),
     {"half_cone_generators": {"plus": "zero", "minus": "countably-infinite"}}),
    (GlobalQuery(2, False, True, True), {"supp0_graded_dims": [0] * 16 + [1]}),
    (GlobalQuery(4, True, False, False), {"supp0_graded_dims": [1] * 16 + [0]}),
])
def test_square_finite_supported_rejects_a_corrupted_table(monkeypatch, query, corrupt):
    original = solver.classify_global
    monkeypatch.setattr(solver, "classify_global",
                        lambda q, max_degree: {**original(q, max_degree), **corrupt})
    assert not classify_square_finite_supported.__wrapped__(query)


def test_square_finite_supported_is_memoised_per_query():
    assert classify_square_finite_supported(GlobalQuery(4, True, True, False))
    hits = classify_square_finite_supported.cache_info().hits
    assert classify_square_finite_supported(GlobalQuery(4, True, True, False))
    assert classify_square_finite_supported.cache_info().hits == hits + 1


def test_square_finite_supported_rejects_a_local_solution(monkeypatch):
    monkeypatch.setattr(solver, "solve_polynomial", lambda n, p, K: [delta_seed(n)])
    assert not classify_square_finite_supported.__wrapped__(GlobalQuery(2, False, True, False))


def test_square_finite_supported_rejects_a_short_kernel(monkeypatch):
    # a chain kernel cut short from delta order `lowest` on is caught, also
    # when it goes wrong only from 6 on: the kernels are compared at
    # _CERTIFY_ORDER, 6, not at order 0 alone
    original = solver.kernel_basis
    for lowest in (0, 6):
        monkeypatch.setattr(solver, "kernel_basis", lambda n, K, lowest=lowest:
                            original(n, K)[:-1] if K >= lowest else original(n, K))
        assert not classify_square_finite_supported.__wrapped__(
            GlobalQuery(2, False, True, False)), lowest
