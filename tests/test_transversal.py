"""Delta calculus identities, all exact."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcone.sl2 import EndMatrix, make_irrep
from nilcone.transversal import TransversalDist, delta_seed, equivariance_defect, radial_casimir
from nilcone.solver import _equivariance_rows, kernel_basis


def dist_strategy(n: int, max_order: int = 6):
    coeffs = st.fractions(min_value=-50, max_value=50, max_denominator=40)
    keys = st.tuples(st.integers(0, n), st.integers(0, max_order))
    return st.dictionaries(keys, coeffs, max_size=8).map(lambda t: TransversalDist(n, t))


def test_delta_seed_examples():
    assert delta_seed(0) == TransversalDist(0, {(0, 0): 1})
    assert delta_seed(2) == TransversalDist(2, {(2, 0): 1})
    for n in range(9):
        assert not equivariance_defect(delta_seed(n))


def test_d_dy_examples():
    assert not d_dy(TransversalDist(2, {}))
    assert d_dy(TransversalDist(0, {(0, 0): 1})) == TransversalDist(0, {(0, 1): 1})
    psi = TransversalDist(1, {(1, 2): 5})
    assert d_dy(d_dy(d_dy(psi))) == TransversalDist(1, {(1, 5): 5})


def test_equivariance_defect_examples():
    assert equivariance_defect(TransversalDist(1, {(0, 0): 1})) == \
        TransversalDist(1, {(1, 0): 1})
    # a_{0,0} is forced to twice a_{2,1}
    assert not equivariance_defect(TransversalDist(2, {(2, 1): 1, (0, 0): 2}))
    assert equivariance_defect(TransversalDist(2, {(2, 1): 1, (0, 0): 1}))


@settings(max_examples=60, deadline=None)
@given(dist_strategy(3), dist_strategy(3), st.fractions(min_value=-9, max_value=9, max_denominator=12))
def test_equivariance_defect_is_linear(psi, phi, c):
    lhs = equivariance_defect(psi + c * phi)
    rhs = equivariance_defect(psi) + c * equivariance_defect(phi)
    assert lhs == rhs


def test_radial_casimir_base_case():
    # 3*delta^1 + 2*y*delta^2 = 3*delta^1 - 4*delta^1 = -delta^1
    assert radial_casimir(TransversalDist(0, {(0, 0): 1})) == \
        TransversalDist(0, {(0, 1): -1})


def test_radial_casimir_kills_weight_one_seed():
    assert not radial_casimir(delta_seed(1))


def test_radial_casimir_even_leading_coefficients():
    for n in range(0, 9, 2):
        cur = delta_seed(n)
        expected = Fraction(1)
        for k in range(9):
            assert cur.coefficient(n, k) == expected
            expected *= n - 2 * k - 1
            cur = radial_casimir(cur)


def test_radial_casimir_odd_orbit_terminates():
    for n in range(1, 16, 2):
        cur = delta_seed(n)
        for _ in range((n + 1) // 2):
            assert cur
            cur = radial_casimir(cur)
        assert not cur


def test_radial_casimir_preserves_invariance():
    for n in range(9):
        for psi in kernel_basis(n, 12):
            assert not equivariance_defect(radial_casimir(psi))


def test_radial_casimir_leading_term_shape():
    # on the top ladder line, a*delta^k goes to (n-2k-1)*a*delta^{k+1} + lower
    for n in (2, 4, 6):
        psi = TransversalDist(n, {(n, 3): 7})
        image = radial_casimir(psi)
        assert image.coefficient(n, 4) == (n - 7) * 7


def test_radial_mn_examples():
    assert not radial_mn(delta_seed(1))
    for psi in kernel_basis(0, 6):
        assert not radial_mn(psi)


def test_radial_mn_rejects_non_invariant():
    with pytest.raises(ValueError):
        radial_mn(TransversalDist(1, {(0, 0): 1}))


def test_radial_mn_preserves_invariance():
    for n in range(7):
        for psi in kernel_basis(n, 6):
            assert not equivariance_defect(radial_mn(psi))


def test_scalar_and_addition_algebra():
    psi = TransversalDist(1, {(0, 2): Fraction(1, 3)})
    assert 3 * psi == TransversalDist(1, {(0, 2): 1})
    assert psi - psi == TransversalDist(1, {})
    with pytest.raises(ValueError):
        psi + TransversalDist(2, {})


def test_term_validation():
    with pytest.raises(ValueError):
        TransversalDist(1, {(2, 0): 1})
    with pytest.raises(ValueError):
        TransversalDist(1, {(0, -1): 1})


@settings(max_examples=60, deadline=None)
@given(dist_strategy(4, max_order=9))
def test_serialization_round_trip_is_bit_exact(psi):
    rec = psi.to_record()
    assert rec["n"] == psi.n
    assert {(t["i"], t["k"]): Fraction(t["coeff"]) for t in rec["terms"]} == psi.terms
    assert rec["terms"] == sorted(rec["terms"], key=lambda t: (t["i"], t["k"]))


def test_integral_coefficients_are_stored_as_ints():
    psi = TransversalDist(2, {(0, 0): Fraction(6, 3), (1, 1): Fraction(1, 2), (2, 2): 3})
    assert [type(c) for _, c in sorted(psi.terms.items())] == [int, Fraction, int]
    assert type((2 * psi).terms[(1, 1)]) is int
    assert psi.coefficient(0, 0) == 2 and type(psi.coefficient(0, 0)) is Fraction
    assert psi == TransversalDist(2, {(0, 0): 2, (1, 1): Fraction(1, 2), (2, 2): Fraction(3)})


def test_serialization_renders_fraction_strings():
    psi = TransversalDist(2, {(1, 0): Fraction(-3, 7), (2, 4): 2})
    rec = psi.to_record()
    assert {"i": 1, "k": 0, "coeff": "-3/7"} in rec["terms"]
    assert {"i": 2, "k": 4, "coeff": "2"} in rec["terms"]


# -- the ladder formulas against their dense-matrix definitions ------------------
#
# transversal applies the module action through the ladder formulas; the
# references below apply it as sl2.make_irrep matrices through apply_endo,
# and multiply by y through mul_y and differentiate in y through d_dy.
# radial_mn, the radial part of the mixed operator, is built on d_dy for
# acceptance criterion 7.  All four are reference operators only.


def d_dy(psi: TransversalDist) -> TransversalDist:
    """Derivative in the transversal coordinate: shifts every k up by one."""
    return TransversalDist(psi.n, {(i, k + 1): c for (i, k), c in psi.terms.items()})


def radial_mn(psi: TransversalDist) -> TransversalDist:
    """Radial form of the mixed equivariant operator
    rho(X) (d/dY) + rho(Y) (d/dX) + (1/2) rho(H) (d/dH) on the transversal:

        (rho(X) + y*rho(Y)) d/dy + rho(Y).

    The reduction substitutes the invariance relations for the flow
    derivatives, so it is only valid on locally invariant input; anything
    with a nonzero equivariance defect is rejected.

    Since [d/dy, y] = 1,

        (rho(X) + y*rho(Y)) d/dy + rho(Y) = d/dy (rho(X) + y*rho(Y)),

    so the operator is d/dy of the equivariance defect.  On every input it
    accepts it returns zero, and acceptance criterion 7 (radial_mn
    preserves invariance) holds trivially.
    """
    defect = equivariance_defect(psi)
    if defect:
        raise ValueError("radial_mn requires a locally invariant distribution")
    return d_dy(defect)


def mul_y(psi: TransversalDist) -> TransversalDist:
    """Multiplication by y:  y*delta^0 = 0  and  y*delta^k = -k*delta^{k-1}."""
    out = {}
    for (i, k), c in psi.terms.items():
        if k:
            out[(i, k - 1)] = out.get((i, k - 1), 0) - k * c
    return TransversalDist(psi.n, out)


def apply_endo(endo: EndMatrix, psi: TransversalDist) -> TransversalDist:
    """Act on the module index by an endomorphism, leaving delta data alone."""
    if endo.n != psi.n:
        raise ValueError(f"dimension mismatch: matrix n={endo.n}, distribution n={psi.n}")
    out = {}
    for (i, k), c in psi.terms.items():
        for j in range(psi.n + 1):
            if endo.rows[j][i]:
                out[(j, k)] = out.get((j, k), 0) + endo.rows[j][i] * c
    return TransversalDist(psi.n, out)


def test_mul_y_examples():
    assert not mul_y(TransversalDist(0, {(0, 0): 1}))
    assert mul_y(TransversalDist(0, {(0, 1): 1})) == TransversalDist(0, {(0, 0): -1})
    assert mul_y(TransversalDist(2, {(2, 3): 2})) == TransversalDist(2, {(2, 2): -6})


def test_apply_endo_examples():
    psi = TransversalDist(2, {(2, 1): 3, (0, 0): -1})
    assert apply_endo(EndMatrix.identity(2), psi) == psi
    for n in range(1, 5):
        rep = make_irrep(n)
        assert not apply_endo(rep.rho_x, TransversalDist(n, {(n, 0): 1}))
    rep1 = make_irrep(1)
    assert apply_endo(rep1.rho_y, TransversalDist(1, {(1, 0): 1})) == \
        TransversalDist(1, {(0, 0): 1})


def test_apply_endo_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_endo(EndMatrix.identity(2), TransversalDist(1, {(1, 0): 1}))


@settings(max_examples=60, deadline=None)
@given(dist_strategy(2))
def test_mul_y_d_dy_commutator_is_minus_identity(psi):
    assert mul_y(d_dy(psi)) - d_dy(mul_y(psi)) == (-1) * psi


def dense_defect(psi):
    rep = make_irrep(psi.n)
    return apply_endo(rep.rho_x, psi) + mul_y(apply_endo(rep.rho_y, psi))


def dense_casimir(psi):
    rep = make_irrep(psi.n)
    d1 = d_dy(psi)
    return (3 * d1 + apply_endo(rep.rho_h, d1) + 2 * mul_y(d_dy(d1))
            + Fraction(1, 2) * apply_endo(rep.rho_y * rep.rho_y, psi))


def dense_mn(psi):
    rep = make_irrep(psi.n)
    d1 = d_dy(psi)
    return (apply_endo(rep.rho_x, d1) + mul_y(apply_endo(rep.rho_y, d1))
            + apply_endo(rep.rho_y, psi))


any_dist = st.integers(0, 13).flatmap(lambda n: dist_strategy(n, max_order=8))


@settings(max_examples=150, deadline=None)
@given(any_dist)
def test_ladder_operators_match_dense_definitions(psi):
    assert equivariance_defect(psi) == dense_defect(psi)
    assert radial_casimir(psi) == dense_casimir(psi)
    assert d_dy(dense_defect(psi)) == dense_mn(psi)


def test_radial_mn_matches_dense_definition():
    rng = random.Random(4181)
    for n in range(14):
        basis = kernel_basis(n, 8)
        for _ in range(4):
            psi = TransversalDist(n, {})
            for b in rng.sample(basis, rng.randint(1, len(basis))):
                psi = psi + Fraction(rng.randint(-9, 9), rng.randint(1, 9)) * b
            assert radial_mn(psi) == dense_mn(psi)


def test_kernel_rows_match_defect_on_unit_vectors():
    for n in range(14):
        for K in range(9):
            coords = [(i, k) for i in range(n + 1) for k in range(K + 1)]
            rows = {}
            for pos, key in enumerate(coords):
                for out_key, coeff in dense_defect(TransversalDist(n, {key: 1})).terms.items():
                    rows.setdefault(out_key, {})[pos] = coeff
            assert _equivariance_rows(n, coords) == [rows[key] for key in sorted(rows)]
