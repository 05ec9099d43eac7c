"""Exactness checks for the module matrices."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nilcone.sl2 as sl2
from nilcone.sl2 import (EndMatrix, casimir_scalar, commutator, expected_casimir,
                         make_irrep)


def test_n0_is_all_zero():
    rep = make_irrep(0)
    for mat in (rep.rho_h, rep.rho_x, rep.rho_y):
        assert mat.rows == ((Fraction(0),),)


def test_n1_matrices_match_weight_formulas():
    rep = make_irrep(1)
    assert rep.rho_h == EndMatrix(1, [[-1, 0], [0, 1]])
    assert rep.rho_x == EndMatrix(1, [[0, 0], [1, 0]])
    assert rep.rho_y == EndMatrix(1, [[0, 1], [0, 0]])


def test_n2_casimir_matrix_is_four_identity():
    # hand computation: (1/2)diag(4,0,4) + diag(0,2,2) + diag(2,2,0) = 4*Id
    rep = make_irrep(2)
    mat = (Fraction(1, 2) * (rep.rho_h * rep.rho_h)
           + rep.rho_x * rep.rho_y + rep.rho_y * rep.rho_x)
    assert mat == 4 * EndMatrix.identity(2)


def test_commutator_examples():
    rep1 = make_irrep(1)
    assert commutator(rep1.rho_h, rep1.rho_x) == 2 * rep1.rho_x
    assert commutator(rep1.rho_x, rep1.rho_x).is_zero()
    rep3 = make_irrep(3)
    expected_h = EndMatrix(3, [[-3 + 2 * i if i == j else 0 for i in range(4)]
                               for j in range(4)])
    assert commutator(rep3.rho_x, rep3.rho_y) == expected_h


def test_commutator_dimension_mismatch():
    with pytest.raises(ValueError):
        commutator(make_irrep(1).rho_x, make_irrep(2).rho_y)


@pytest.mark.parametrize("n,value", [(0, Fraction(0)), (1, Fraction(3, 2)), (2, Fraction(4))])
def test_casimir_scalar_small(n, value):
    assert casimir_scalar(make_irrep(n)) == value


def test_casimir_scalar_rejects_corrupted_module():
    rep = make_irrep(2)
    broken = type(rep)(2, rep.rho_h, rep.rho_x, rep.rho_x)  # lowering replaced by raising
    with pytest.raises(ValueError):
        casimir_scalar(broken)


def _broken_module(monkeypatch):
    """make_irrep patched to return the n = 2 module with its lowering
    operator replaced by the raising one."""
    rep = make_irrep(2)
    broken = type(rep)(2, rep.rho_h, rep.rho_x, rep.rho_x)
    monkeypatch.setattr(sl2, "make_irrep", lambda n: broken)


def _assert_fails_on_the_broken_module(report):
    assert report["verdict"] == "FAIL"
    assert report["casimir_scalar"] is None
    assert [name for name, ok in report["checks"].items() if not ok] == [
        "commutator_hy", "commutator_xy", "casimir_scalar"]


def test_irrep_report_fails_on_a_corrupted_module(monkeypatch):
    _broken_module(monkeypatch)
    _assert_fails_on_the_broken_module(sl2.irrep_report(2))


def test_corrupted_module_fails_after_the_genuine_one_passed(monkeypatch):
    # the checks are memoised on the module object, not on n, so a PASS
    # for n = 2 cannot certify a different module of the same n
    assert sl2.irrep_report(2)["verdict"] == "PASS"
    _broken_module(monkeypatch)
    _assert_fails_on_the_broken_module(sl2.irrep_report(2))


def test_module_is_immutable_and_keyed_by_identity():
    rep = make_irrep(2)
    twin = type(rep)(2, rep.rho_h, rep.rho_x, rep.rho_y)
    assert rep == rep and rep != twin and len({rep, twin}) == 2
    assert rep != (2, rep.rho_h, rep.rho_x, rep.rho_y)
    assert repr(twin) == repr(rep)
    with pytest.raises(AttributeError, match="^Irrep is immutable; cannot set 'rho_y'$"):
        rep.rho_y = rep.rho_x
    for field in ("n", "rho_h", "rho_x", "rho_y"):
        with pytest.raises(AttributeError, match=f"^Irrep is immutable; cannot delete '{field}'$"):
            delattr(rep, field)


def test_module_checks_are_memoised_per_module():
    sl2.irrep_report(5)
    hits = sl2._module_checks.cache_info().hits
    assert sl2.irrep_report(5)["verdict"] == "PASS"
    assert sl2._module_checks.cache_info().hits == hits + 1


def test_mutating_a_record_leaves_the_next_one_intact():
    first = sl2.irrep_report(3)
    first["checks"]["commutator_hx"] = False
    first["checks"]["bogus"] = False
    first["rho_h"][0][0] = "bogus"
    second = sl2.irrep_report(3)
    assert second["checks"] == dict.fromkeys(
        ["commutator_hx", "commutator_hy", "commutator_xy", "raising_nilpotent",
         "lowering_nilpotent", "casimir_scalar"], True)
    assert second["rho_h"][0][0] == "-3"
    assert second["verdict"] == "PASS"


@pytest.mark.parametrize("n", range(17))
def test_structure_relations_exact(n):
    rep = make_irrep(n)
    assert commutator(rep.rho_h, rep.rho_x) == 2 * rep.rho_x
    assert commutator(rep.rho_h, rep.rho_y) == (-2) * rep.rho_y
    assert commutator(rep.rho_x, rep.rho_y) == rep.rho_h
    assert casimir_scalar(rep) == expected_casimir(n)


@pytest.mark.parametrize("n", range(17))
def test_ladder_operators_nilpotent(n):
    rep = make_irrep(n)
    assert (rep.rho_x ** (n + 1)).is_zero()
    assert (rep.rho_y ** (n + 1)).is_zero()
    if n:
        assert not (rep.rho_x ** n).is_zero()
        assert not (rep.rho_y ** n).is_zero()


def test_matrix_arithmetic_basics():
    a = EndMatrix(1, [[1, 2], [3, 4]])
    b = EndMatrix(1, [[0, 1], [1, 0]])
    assert a + b - b == a
    assert ((-a) + a).is_zero()
    assert a * EndMatrix.identity(1) == a
    assert (Fraction(1, 2) * a).rows[0][1] == 1
    assert (a ** 0) == EndMatrix.identity(1)
    assert a.scalar_value() is None
    assert (3 * EndMatrix.identity(1)).scalar_value() == 3


def _mostly_zero_matrix(n: int):
    """At most 2(n+1) nonzero entries out of (n+1)^2."""
    index = st.integers(0, n)
    entries = st.dictionaries(st.tuples(index, index),
                              st.fractions(min_value=-20, max_value=20, max_denominator=12),
                              max_size=2 * (n + 1))

    def build(nonzero):
        return EndMatrix(n, [[nonzero.get((i, j), 0) for j in range(n + 1)]
                             for i in range(n + 1)])

    return entries.map(build)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 7).flatmap(lambda n: st.tuples(_mostly_zero_matrix(n),
                                                     _mostly_zero_matrix(n))))
def test_sparse_product_matches_triple_loop(pair):
    a, b = pair
    dim = a.n + 1
    dense = [[sum((a.rows[i][j] * b.rows[j][c] for j in range(dim)), Fraction(0))
              for c in range(dim)] for i in range(dim)]
    assert a * b == EndMatrix(a.n, dense)


def test_integral_entries_are_stored_as_ints():
    rep = make_irrep(3)
    assert {type(v) for mat in (rep.rho_h, rep.rho_x, rep.rho_y)
            for row in mat.rows for v in row} == {int}
    half = Fraction(1, 2) * rep.rho_h
    assert [type(v) for v in half.rows[0]] == [Fraction, int, int, int]
    assert [str(v) for v in half.rows[0]] == ["-3/2", "0", "0", "0"]
    assert [type(v) for v in (4 * half).rows[0]] == [int] * 4
    assert EndMatrix(0, [[Fraction(6, 3)]]).rows == ((2,),)
    assert type(EndMatrix(0, [[Fraction(6, 3)]]).rows[0][0]) is int
