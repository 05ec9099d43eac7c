"""Floating-point oracle: closed forms, quadrature behavior, parity cancellation."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcone import oracle
from nilcone.oracle import (CONTROL_MIN, MAX_PAIRING_DEGREE, ROUNDOFF, QuadratureGrid,
                            TestFunction, _ad_matrix, _gauss_legendre, _mirror_pair_values,
                            _monomials, _multinomial, _pairwise_sum, invariance_report,
                            invariance_residual, lie_derivative, moment_map,
                            obstruction_report, odd_section_obstruction, odd_section_scale,
                            pair_delta_nplus, seed_pairing, tail_bound)


def test_moment_map_basis_images():
    assert moment_map(Fraction(1), Fraction(0)) == (0, Fraction(1, 2), 0)
    assert moment_map(Fraction(0), Fraction(1)) == (0, 0, Fraction(-1, 2))


def test_moment_map_against_trace_identity():
    # tr(M Z) must equal B(v, Zv)/2 for Z in {H, X, Y}; 2x2 arithmetic, exact.
    rng_pairs = [(Fraction(2), Fraction(3)), (Fraction(-1, 2), Fraction(5, 3)),
                 (Fraction(0), Fraction(-7)), (Fraction(11, 4), Fraction(-2, 9))]
    Hm = ((1, 0), (0, -1))
    Xm = ((0, 1), (0, 0))
    Ym = ((0, 0), (1, 0))

    def act(mat, v):
        return (mat[0][0] * v[0] + mat[0][1] * v[1], mat[1][0] * v[0] + mat[1][1] * v[1])

    def symplectic(u, v):
        return u[0] * v[1] - u[1] * v[0]

    for a, b in rng_pairs:
        h, x, y = moment_map(a, b)
        image = ((h, x), (y, -h))
        v = (a, b)
        for zmat in (Hm, Xm, Ym):
            prod = tuple(tuple(sum(image[i][k] * zmat[k][j] for k in range(2))
                               for j in range(2)) for i in range(2))
            trace = prod[0][0] + prod[1][1]
            assert trace == Fraction(1, 2) * symplectic(v, act(zmat, v))


def test_moment_map_lands_on_upper_cone_exactly():
    for a, b in [(Fraction(3), Fraction(-2)), (Fraction(-5, 7), Fraction(1, 3))]:
        h, x, y = moment_map(a, b)
        assert h * h + x * y == 0
        assert x - y > 0


@settings(max_examples=80, deadline=None)
@given(st.floats(-30, 30), st.floats(-30, 30))
def test_moment_map_cone_equation_floats(a, b):
    h, x, y = moment_map(a, b)
    assert abs(h * h + x * y) <= 1e-12 * max(1.0, h * h + x * x + y * y)
    assert x - y >= 0


def test_test_function_derivatives_match_finite_differences():
    f = TestFunction.gaussian(center=(Fraction(1, 4), 1, Fraction(-1, 2)), sigma=0.8,
                              poly={(1, 0, 0): 2, (0, 2, 1): Fraction(-1, 3)})
    point = (0.3, 0.9, -0.4)
    eps = 1e-6
    for axis in range(3):
        step = [0.0, 0.0, 0.0]
        step[axis] = eps
        plus = f.value(point[0] + step[0], point[1] + step[1], point[2] + step[2])
        minus = f.value(point[0] - step[0], point[1] - step[1], point[2] - step[2])
        numeric = (plus - minus) / (2 * eps)
        exact = f.diff(axis).value(*point)
        assert abs(numeric - exact) < 1e-6 * max(1.0, abs(exact))


def test_test_function_casimir_composition():
    f = TestFunction.gaussian(center=(0, 1, 0), sigma=1.0, poly={(0, 1, 0): 1})
    direct = f.casimir()
    manual = Fraction(1, 2) * f.diff(0).diff(0) + 2 * f.diff(1).diff(2)
    pt = (0.2, 1.1, -0.3)
    assert direct.value(*pt) == manual.value(*pt)


def test_test_function_algebra_guards():
    f = TestFunction.gaussian(sigma=1.0)
    g = TestFunction.gaussian(sigma=2.0)
    with pytest.raises(ValueError):
        f + g
    with pytest.raises(ValueError):
        TestFunction.gaussian(sigma=0)


def test_grid_nodes_are_negation_symmetric():
    for rule in ("midpoint", "gauss"):
        for m in (8, 9, 16):
            x, w = QuadratureGrid(2.5, m, rule).nodes1d()
            assert np.array_equal(x, -x[::-1])
            assert np.array_equal(w, w[::-1])


def test_grid_nodes_repeat_bit_for_bit():
    for rule in ("midpoint", "gauss"):
        grid = QuadratureGrid(2.5, 12, rule)
        x, w = grid.nodes1d()
        want = x.tobytes(), w.tobytes()
        x[:] = 0.0
        w[:] = 0.0
        again = grid.nodes1d()
        assert (again[0].tobytes(), again[1].tobytes()) == want, rule


def test_cached_rule_and_ad_matrices_are_read_only():
    for arr in (*_gauss_legendre(12), *(_ad_matrix(z, 2) for z in "HXY")):
        with pytest.raises(ValueError):
            arr[...] = 0.0


def _lie_derivative_by_three_partials(z_label, f):
    """The flow derivatives built from all three partials, kept as the reference."""
    fh, fx, fy = f.diff(0), f.diff(1), f.diff(2)
    return {
        "H": (-2) * fx.mul_poly({(0, 1, 0): 1}) + 2 * fy.mul_poly({(0, 0, 1): 1}),
        "X": 2 * fx.mul_poly({(1, 0, 0): 1}) + (-1) * fh.mul_poly({(0, 0, 1): 1}),
        "Y": fh.mul_poly({(0, 1, 0): 1}) + (-2) * fy.mul_poly({(1, 0, 0): 1}),
    }[z_label]


def test_lie_derivative_matches_the_three_partials_formula():
    for f in (TestFunction.gaussian(center=(0, 3, 0), sigma=0.6),
              TestFunction.gaussian(center=(Fraction(1, 3), 1, Fraction(-1, 2)), sigma=0.8,
                                    poly={(1, 0, 0): 2, (0, 1, 1): -1, (0, 0, 0): 1})):
        for z in "HXY":
            got, want = lie_derivative(z, f), _lie_derivative_by_three_partials(z, f)
            # item order too: TestFunction.value sums the terms in dict order
            assert list(got.poly.items()) == list(want.poly.items()), z
            assert (got.center, got.sigma2) == (want.center, want.sigma2)


def test_pairing_far_gaussian_vanishes():
    far = TestFunction.gaussian(center=(0, -5, 5), sigma=0.5)
    assert abs(pair_delta_nplus(far, QuadratureGrid(6.0, 96))) < 1e-40


def test_pairing_positive_on_cone_positive_integrand():
    f = TestFunction.gaussian(center=(0, 1, 0), sigma=1.0,
                              poly={(0, 1, 0): 1, (0, 0, 1): -1})   # x - y
    assert pair_delta_nplus(f, QuadratureGrid(6.0, 96)) > 1.0


def test_pairing_annihilates_cone_equation_factor():
    f = TestFunction.gaussian(center=(0, 1, 0), sigma=1.0,
                              poly={(2, 0, 0): 1, (0, 1, 1): 1})    # h^2 + xy
    base = pair_delta_nplus(TestFunction.gaussian(center=(0, 1, 0), sigma=1.0),
                            QuadratureGrid(6.0, 96))
    assert abs(pair_delta_nplus(f, QuadratureGrid(6.0, 96))) < ROUNDOFF * abs(base)


def test_pairing_is_linear():
    grid = QuadratureGrid(6.0, 64)
    f = TestFunction.gaussian(center=(0, 1, 0), sigma=1.0, poly={(0, 1, 0): 1})
    g = TestFunction.gaussian(center=(0, 1, 0), sigma=1.0, poly={(1, 0, 0): 2})
    combo = 3 * f + g
    lhs = pair_delta_nplus(combo, grid)
    rhs = 3 * pair_delta_nplus(f, grid) + pair_delta_nplus(g, grid)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_pairing_two_quadrature_routes_agree():
    f = TestFunction.gaussian(center=(0, 1, 0), sigma=1.0).casimir()
    mid = pair_delta_nplus(f, QuadratureGrid(6.0, 128, "midpoint"))
    gauss = pair_delta_nplus(f, QuadratureGrid(6.0, 96, "gauss"))
    assert abs(mid - gauss) < 1e-10 * max(1.0, abs(mid))


def test_pairing_stable_under_radius_growth():
    f = TestFunction.gaussian(center=(0, 1, 0), sigma=1.0)
    small = QuadratureGrid(6.0, 128)
    large = QuadratureGrid(7.5, 160)
    bound = tail_bound(f, small)
    assert bound >= 0.0
    assert abs(pair_delta_nplus(f, small) - pair_delta_nplus(f, large)) <= bound + 1e-12


def test_pairing_deterministic_bit_for_bit():
    f = TestFunction.gaussian(center=(0, 1, 0), sigma=1.0, poly={(0, 1, 1): 3})
    grid = QuadratureGrid(6.0, 64)
    assert pair_delta_nplus(f, grid) == pair_delta_nplus(f, grid)


def test_ad_matrices_satisfy_structure_relations():
    for degree in (0, 1, 2, 3):
        ah, ax, ay = (_ad_matrix(z, degree) for z in "HXY")
        assert np.array_equal(ah @ ax - ax @ ah, 2 * ax)
        assert np.array_equal(ah @ ay - ay @ ah, -2 * ay)
        assert np.array_equal(ax @ ay - ay @ ax, ah)


def test_seed_pairing_degree_zero_matches_plain_pairing():
    f = TestFunction.gaussian(center=(0, 1, 0), sigma=1.0)
    grid = QuadratureGrid(6.0, 64)
    assert seed_pairing(0, f, grid)[0] == pair_delta_nplus(f, grid)


def test_invariance_residual_vanishes_for_trivial_module():
    f = TestFunction.gaussian(center=(0, 1, 0), sigma=0.75)
    grid = QuadratureGrid(4.5, 96)
    for z in "HXY":
        assert invariance_residual(0, z, f, grid) < 1e-12


def test_invariance_residual_vanishes_for_adjoint_values():
    f = TestFunction.gaussian(center=(0, 3, 0), sigma=0.6)
    grid = QuadratureGrid(3.6, 96)
    scale = float(np.linalg.norm(seed_pairing(2, f, grid)))
    for z in "HXY":
        assert invariance_residual(2, z, f, grid) < 1e-10 * scale


def test_invariance_residual_rejects_odd():
    f = TestFunction.gaussian(sigma=1.0)
    with pytest.raises(ValueError):
        invariance_residual(1, "H", f, QuadratureGrid(6.0, 16))


def test_invariance_residual_negative_control_broken_sign():
    # flipping the sign of the x-part of the H flow must break the identity
    f = TestFunction.gaussian(center=(0, 1, 0), sigma=0.75)
    grid = QuadratureGrid(4.5, 96)
    broken = 2 * f.diff(1).mul_poly({(0, 1, 0): 1}) + 2 * f.diff(2).mul_poly({(0, 0, 1): 1})
    p_vec = seed_pairing(2, f, grid)
    q_vec = seed_pairing(2, broken, grid)
    residual = float(np.linalg.norm(_ad_matrix("H", 1) @ p_vec - q_vec))
    good = invariance_residual(2, "H", f, grid)
    scale = float(np.linalg.norm(p_vec))
    assert residual > 1e-3 * scale
    assert good < 1e-10 * scale


def test_lie_derivative_rejects_unknown_direction():
    with pytest.raises(ValueError):
        lie_derivative("Q", TestFunction.gaussian(sigma=1.0))


def test_obstruction_cancels_exactly_on_symmetric_grids():
    f = TestFunction.gaussian(center=(0, 1, 0), sigma=1.0)
    for n in (1, 3, 5):
        for m in (64, 65, 128):
            grid = QuadratureGrid(6.0, m)
            value = odd_section_obstruction(n, f, grid)
            scale = odd_section_scale(n, f, grid)
            assert scale > 0
            assert value <= 1e-14 * scale


def test_obstruction_negative_control_is_visible():
    f = TestFunction.gaussian(center=(0, 1, 0), sigma=1.0)
    grid = QuadratureGrid(6.0, 96)
    for n in (1, 3):
        control = odd_section_obstruction(n, f, grid, negative_control=True)
        assert control > CONTROL_MIN * odd_section_scale(n, f, grid)


def test_obstruction_rejects_even():
    with pytest.raises(ValueError):
        odd_section_obstruction(2, TestFunction.gaussian(sigma=1.0), QuadratureGrid(6.0, 16))
    with pytest.raises(ValueError):
        odd_section_scale(2, TestFunction.gaussian(sigma=1.0), QuadratureGrid(6.0, 16))


def test_invariance_verdict_fails_on_an_unconverged_grid():
    coarse, fine = invariance_report(2, 32, 0.6), invariance_report(2, 64, 0.6)
    assert [row["m"] for row in coarse["table"]] == [8, 16, 32]
    assert (coarse["verdict"], fine["verdict"]) == ("FAIL", "PASS")


def test_pairing_degree_above_the_cap_is_refused_before_any_pairing(monkeypatch):
    top = 2 * MAX_PAIRING_DEGREE
    assert invariance_report(top, 8, 1.0)["n"] == top
    assert obstruction_report(top + 1, 16, 1.0)["n"] == top + 1

    def refuse(*args, **kwargs):
        raise AssertionError("a pairing ran")

    monkeypatch.setattr(oracle, "_image_moments", refuse)
    for report, n in ((invariance_report, top + 2), (obstruction_report, top + 3)):
        with pytest.raises(ValueError, match="pairing degree"):
            report(n, 512, 1.0)


def _mirror_pair_values_by_index(values, m):
    """The index-array mirror pairing, kept as the reference for the reversal."""
    idx = np.arange(m * m)
    mirror = (m - 1 - idx // m) * m + (m - 1 - idx % m)
    first = idx[idx < mirror]
    out = values[first] + values[mirror[first]]
    center = idx[idx == mirror]
    if center.size:
        out = np.concatenate([out, values[center]])
    return out


def test_mirror_pairing_matches_the_index_reference():
    rng = np.random.default_rng(20261018)
    for m in range(1, 65):
        values = rng.standard_normal(m * m)
        got = _mirror_pair_values(values)
        assert got.tobytes() == _mirror_pair_values_by_index(values, m).tobytes(), m


def test_mirror_pairing_cancels_an_odd_integrand_exactly():
    f = TestFunction.gaussian(center=(Fraction(1, 3), 1, Fraction(-1, 2)), sigma=0.8,
                              poly={(1, 0, 0): 2, (0, 1, 1): -1, (0, 0, 0): 1})
    for rule in ("midpoint", "gauss"):
        for m in (7, 8, 33, 64):
            a, b, w = QuadratureGrid(4.8, m, rule).nodes()
            h, x, y = moment_map(a, b)
            base = f.value(h, x, y) * w
            for odd in (a, b, a * a * b + 3 * b * h):
                assert _pairwise_sum(_mirror_pair_values(odd * base)) == 0.0, (rule, m)
            assert _pairwise_sum(_mirror_pair_values(np.abs(a) * base)) > 0.0


def _flat_nodes(grid):
    """The flat node construction, kept as the reference for the broadcast
    factors: a, b and weight as m^2 vectors in row-major order, the
    Gauss-Legendre rule rebuilt on every call."""
    if grid.rule == "midpoint":
        step = 2.0 * grid.radius / grid.m
        x = (np.arange(grid.m) - (grid.m - 1) / 2.0) * step
        w = np.full(grid.m, step)
    else:
        x, w = np.polynomial.legendre.leggauss(grid.m)
        x = (x - x[::-1]) / 2.0 * grid.radius
        w = (w + w[::-1]) / 2.0 * grid.radius
    return np.repeat(x, grid.m), np.tile(x, grid.m), np.outer(w, w).ravel()


def _flat_value(f, h, x, y):
    """TestFunction.value with every factor h^i x^j y^k multiplied in, 0th powers too."""
    pv = 0.0
    for (i, j, k), c in f.poly.items():
        pv = pv + float(c) * h ** i * x ** j * y ** k
    ch, cx, cy = (float(t) for t in f.center)
    expo = ((h - ch) ** 2 + (x - cx) ** 2 + (y - cy) ** 2) / float(f.sigma2)
    return pv * np.exp(-expo)


def _flat_image_moments(degree, f, grid, lead=lambda a, b: (1.0,), absolute=False):
    """_image_moments on the flat nodes with the full monomial product."""
    a, b, w = _flat_nodes(grid)
    h, x, y = moment_map(a, b)
    fw = _flat_value(f, h, x, y)
    if absolute:
        a, b, h, y, fw = np.abs(a), np.abs(b), np.abs(h), np.abs(y), np.abs(fw)
    base = fw * w
    for factor in lead(a, b):
        for al, be, ga in _monomials(degree):
            coeff = float(_multinomial(degree, al, be, ga))
            yield coeff * factor * h ** al * x ** be * y ** ga * base


def _every_pairing_bytes(f, grid, degree):
    even, odd = 2 * degree, 2 * degree + 1
    values = [seed_pairing(even, f, grid),
              *(invariance_residual(even, z, f, grid) for z in "HXY"),
              odd_section_obstruction(odd, f, grid),
              odd_section_obstruction(odd, f, grid, negative_control=True),
              odd_section_scale(odd, f, grid),
              pair_delta_nplus(f, grid)]
    return [np.asarray(v, dtype=float).tobytes() for v in values]


def test_tensor_grid_pairings_match_the_flat_reference(monkeypatch):
    center, sigma = (Fraction(1, 3), 1, Fraction(-1, 2)), 0.8
    funcs = {"constant": TestFunction.gaussian(center=center, sigma=sigma),
             "pure power": TestFunction.gaussian(center=center, sigma=sigma,
                                                 poly={(0, 3, 0): Fraction(-2, 3)}),
             "mixed": TestFunction.gaussian(center=center, sigma=sigma,
                                            poly={(1, 0, 0): 2, (0, 1, 1): -1, (0, 0, 0): 1,
                                                  (2, 1, 0): Fraction(1, 3)})}
    cases = [(rule, m, degree, name) for rule in ("midpoint", "gauss")
             for m in (1, 2, 7, 8, 33, 64) for degree in range(4) for name in funcs]

    def run():
        return [_every_pairing_bytes(funcs[name], QuadratureGrid(4.8, m, rule), degree)
                for rule, m, degree, name in cases]

    got = run()
    monkeypatch.setattr(oracle, "_image_moments", _flat_image_moments)
    want = run()
    for case, g, w in zip(cases, got, want):
        assert g == w, case
