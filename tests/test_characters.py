"""Character arithmetic against brute-force weight enumeration."""

import pytest

import nilcone.characters as characters
from nilcone.characters import (Character, adjoint_character,
                                decompose_into_irreducibles, graded_dims_report,
                                invariant_dim, irrep_character, sym_power)


def test_irrep_character_small():
    assert irrep_character(0) == Character({0: 1})
    assert irrep_character(1) == Character({-1: 1, 1: 1})
    assert irrep_character(2) == Character({-2: 1, 0: 1, 2: 1})


def test_characters_are_genuine():
    for n in range(10):
        assert irrep_character(n).is_genuine()
        assert sum(irrep_character(n).coeffs.values()) == n + 1


@pytest.mark.parametrize("a", range(13))
@pytest.mark.parametrize("b", range(13))
def test_tensor_dimension_sum(a, b):
    pieces = decompose_into_irreducibles(irrep_character(a) * irrep_character(b))
    assert sum((w + 1) * m for w, m in pieces.items()) == (a + 1) * (b + 1)


def test_sym_power_trivial_and_small():
    adj = adjoint_character()
    assert sym_power(0, adj) == Character({0: 1})
    assert sym_power(1, adj) == adj
    # degree-2 monomials in weights {-2,0,2}: {-4:1,-2:1,0:2,2:1,4:1}
    assert sym_power(2, adj) == Character({-4: 1, -2: 1, 0: 2, 2: 1, 4: 1})
    assert sym_power(2, adj) == irrep_character(4) + irrep_character(0)
    assert sym_power(3, adj) == irrep_character(6) + irrep_character(2)


def test_sym_power_of_standard_module():
    std = irrep_character(1)
    for m in range(9):
        assert sym_power(m, std) == irrep_character(m)


def test_sym_power_rejects_non_genuine():
    with pytest.raises(ValueError):
        sym_power(2, Character({1: 1}))
    with pytest.raises(ValueError):
        sym_power(2, Character({-1: -1, 1: -1}))


def test_adjoint_sym_power_decomposition_shape():
    for m in range(11):
        pieces = decompose_into_irreducibles(sym_power(m, adjoint_character()))
        expected = {}
        for j in range(m // 2 + 1):
            expected[2 * m - 4 * j] = expected.get(2 * m - 4 * j, 0) + 1
        assert pieces == expected


def test_invariant_dim_examples():
    for m in range(21):
        assert invariant_dim(0, m) == (1 if m % 2 == 0 else 0)
        assert invariant_dim(1, m) == 0
    assert invariant_dim(2, 1) == 1
    # the closed form against the generic decomposition, past the CLI's cap of 64 on n
    for m in range(33):
        pieces = decompose_into_irreducibles(sym_power(m, adjoint_character()))
        for n in range(67):
            assert invariant_dim(n, m) == pieces.get(n, 0), (n, m)


def test_invariant_dim_positive_needs_even_n():
    for n in range(11):
        for m in range(15):
            if invariant_dim(n, m) > 0:
                assert n % 2 == 0


def test_decompose_rejects_asymmetric():
    with pytest.raises(ValueError):
        decompose_into_irreducibles(Character({3: 1}))


@pytest.fixture
def corrupted_brute_table(monkeypatch):
    """The per-degree brute-force table re-filled with one extra V_2 in
    Sym^3(adj); the table is emptied before and after, so no corrupted
    entry outlives the test."""
    original = characters.sym_power

    def corrupted(m, c):
        return original(m, c) + (irrep_character(2) if m == 3 else Character())

    characters._brute_adjoint_pieces.cache_clear()
    monkeypatch.setattr(characters, "sym_power", corrupted)
    yield
    characters._brute_adjoint_pieces.cache_clear()


def test_graded_dims_report_fails_on_a_corrupted_brute_table(corrupted_brute_table):
    report = graded_dims_report(2, 12)
    assert report["verdict"] == "FAIL"
    assert report["brute_force_dims"][3] == 2
    assert report["graded_dims"][3] == 1
    # the extra V_2 leaves the multiplicities of every other V_n alone
    assert graded_dims_report(0, 12)["verdict"] == "PASS"


@pytest.mark.parametrize("n", (0, 1, 2, 63, 64))
def test_graded_dims_report_passes_at_the_degree_cap(n):
    report = graded_dims_report(n, 64)
    assert report["verdict"] == "PASS"
    assert report["graded_dims"] == report["brute_force_dims"]
    assert len(report["graded_dims"]) == 65


def test_brute_table_is_computed_once_per_degree():
    characters._brute_adjoint_pieces.cache_clear()
    reports = [graded_dims_report(n, 12) for n in range(6)]
    assert all(report["verdict"] == "PASS" for report in reports)
    info = characters._brute_adjoint_pieces.cache_info()
    assert (info.misses, info.hits) == (13, 5 * 13)


def test_brute_table_entries_are_read_only():
    pieces = characters._brute_adjoint_pieces(4)
    assert dict(pieces) == {8: 1, 4: 1, 0: 1}
    with pytest.raises(TypeError):
        pieces[2] = 1
