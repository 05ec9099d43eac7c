"""Floating-point oracle: closed forms, quadrature behavior, parity cancellation."""

import itertools
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcone import oracle
from nilcone.oracle import (CONTROL_MIN, ROUNDOFF, SIGMA_WINDOW, QuadratureGrid, TestFunction,
                            _FLOWS, _abs_upper_values, _ad_matrix, _components,
                            _gauss_legendre, _lie_flows, _monomials, _multinomial,
                            _node_envelope, _plane_moments, _power_table, _vandermonde,
                            _weighted_monomials, invariance_report,
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


@pytest.mark.parametrize("center, sigma", [
    ((0, 1, 0), 1e-200),          # sigma^2 underflows to 0.0
    ((0, 1, 0), 1e200),           # sigma^2 overflows a float
    ((10 ** 400, 0, 0), 1),       # the centre overflows a float
    ((0, 1, 0), 1e-160),          # sigma^2 is subnormal: 1 / sigma^2 overflows
    ((1e200, 0, 0), 1),           # the square of a centre coordinate overflows
    ((1e150, 0, 0), 1e-5)])       # |c|^2 / sigma^2 overflows
def test_test_function_rejects_a_float_form_it_cannot_evaluate(center, sigma):
    # refused when built, before the envelope would overflow in a pairing
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError):
            pair_delta_nplus(TestFunction.gaussian(center=center, sigma=sigma),
                             QuadratureGrid(4.0, 16))


def test_narrow_gaussian_pairs_to_zero_where_its_exponent_overflows():
    # accepted when built: the exponent is finite near the origin and the
    # centre, and overflows to -inf only at image points away from both,
    # where exp gives the envelope's 0.0 without a warning
    f = TestFunction.gaussian(center=(3, 0, 0), sigma=1e-153)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert pair_delta_nplus(f, QuadratureGrid(4.0, 16)) == 0.0


def test_grid_nodes_are_negation_symmetric():
    for rule in ("midpoint", "gauss"):
        for m in (8, 9, 16):
            grid = QuadratureGrid(2.5, m, rule)
            assert np.array_equal(grid.x, -grid.x[::-1])
            assert np.array_equal(grid.w, grid.w[::-1])


def test_grid_nodes_repeat_bit_for_bit():
    # the rule is built once and read-only: writing into it raises, and an
    # equal grid built again holds the same bytes
    for rule in ("midpoint", "gauss"):
        grid = QuadratureGrid(2.5, 12, rule)
        want = grid.x.tobytes(), grid.w.tobytes()
        for arr in (grid.x, grid.w, *grid.nodes()):
            with pytest.raises(ValueError):
                arr[...] = 0.0
        again = QuadratureGrid(2.5, 12, rule)
        assert (again.x.tobytes(), again.w.tobytes()) == want, rule


@pytest.mark.parametrize("radius, m, rule", [
    (2.5, 0, "midpoint"), (2.5, -3, "gauss"), (2.5, 12, "simpson"),
    (0.0, 12, "midpoint"), (-1.0, 12, "gauss"), (math.nan, 12, "midpoint"),
    (math.inf, 12, "gauss")])
def test_grid_is_checked_at_construction(radius, m, rule):
    with pytest.raises(ValueError):
        QuadratureGrid(radius, m, rule)


def test_grid_is_a_value_that_holds_its_rule_once():
    # x, w, k and upper are set at construction and are not fields: equal
    # grids compare and hash equal, as the memos keyed on grids need, and the
    # grid holds only O(m) data besides its fields
    for rule in ("midpoint", "gauss"):
        for radius, m in ((4.8, 7), (6.0, 64), (0.3, 1)):
            grid = QuadratureGrid(radius, m, rule)
            assert grid == QuadratureGrid(radius, m, rule)
            assert hash(grid) == hash(QuadratureGrid(radius, m, rule))
            assert grid != QuadratureGrid(radius, m + 1, rule)
            assert grid != (radius, m, rule) and hash(grid) == hash((radius, m, rule))
            assert repr(grid) == f"QuadratureGrid(radius={radius!r}, m={m!r}, rule={rule!r})"
            assert vars(grid).keys() == {"radius", "m", "rule", "x", "w", "k", "upper"}
            assert grid.x.shape == grid.w.shape == (m,)
            assert grid.k == math.frexp(radius)[1] and 2.0 ** grid.k > radius
            assert grid.upper == (m + 1) // 2
            with pytest.raises(AttributeError,
                               match="^QuadratureGrid is immutable; cannot set 'm'$"):
                grid.m = m + 1
            for name in vars(grid):
                with pytest.raises(AttributeError,
                                   match=f"^QuadratureGrid is immutable; cannot delete '{name}'$"):
                    delattr(grid, name)


def test_cached_rule_and_ad_matrices_are_read_only():
    f = TestFunction.gaussian(center=(0, 1, 0), sigma=0.5)
    grid = QuadratureGrid(2.5, 12, "gauss")
    for arr in (*_gauss_legendre(12), *(_ad_matrix(z, 2) for z in "HXY"),
                _node_envelope(f.key, grid), _abs_upper_values(f, grid), _power_table(grid, 16)):
        with pytest.raises(ValueError):
            arr[...] = 0.0
    for table in (_plane_moments(f.key, grid, 5)[0], _weighted_monomials(2)):
        with pytest.raises(TypeError):
            table[0] = table[1]
        with pytest.raises(TypeError):
            table[0][0] = 0.0


def test_node_envelope_is_the_envelope_at_the_node_images():
    # the stored upper ceil(m/2) rows, against TestFunction.envelope and
    # against the plain expression the in-place buffer replaces, bit for bit,
    # off h-centre 0 and at it, where the exp runs on a quarter and the other
    # columns are its mirror; the centre scales with the width so that E is
    # not 0.0 on every node
    for sigma, h_centre in itertools.product((SIGMA_WINDOW[0], 0.75, SIGMA_WINDOW[1]),
                                             (Fraction(1, 3), 0)):
        f = TestFunction.gaussian(
            center=[Fraction(sigma) * t for t in (h_centre, 2, Fraction(-1, 2))],
            sigma=sigma)
        ch, cx, cy = (float(t) for t in f.center)
        for rule in ("midpoint", "gauss"):
            for m in (11, 12):
                grid = QuadratureGrid(6.0 * sigma, m, rule)
                h, x, y = moment_map(*grid.nodes())
                _node_envelope.cache_clear()
                got = _node_envelope(f.key, grid)
                plain = np.exp(((h - ch) ** 2 + (x - cx) ** 2 + (y - cy) ** 2) / -float(f.sigma2))
                c = (m + 1) // 2
                assert got.shape == (c, m)
                assert np.array_equal(got, f.envelope(h, x, y)[:c]), (sigma, h_centre, rule, m)
                assert got.tobytes() == plain[:c].tobytes(), (sigma, h_centre, rule, m)


def test_vandermonde_slices_one_power_table_per_grid_and_block():
    # (half, V) against the direct np.vander formula, byte for byte, across
    # the block edges 15/16 and 63/64; V is a contiguous copy, as the matmul
    # that reads it needs.  A grid builds no table, and the tops of one block
    # share one
    for rule, m, radius in itertools.product(("midpoint", "gauss"), (7, 8, 33),
                                             (0.006, 4.5, 6000.0)):
        _power_table.cache_clear()
        grid = QuadratureGrid(radius, m, rule)
        assert _power_table.cache_info().currsize == 0
        for top in (0, 7, 8, 15, 16, 17, 63, 64):
            half, v = _vandermonde(grid, top)
            want = grid.w[:, None] * np.vander(np.ldexp(grid.x, -grid.k), top + 1,
                                               increasing=True)
            assert v.flags.c_contiguous and v.tobytes() == want.tobytes(), (rule, m, radius, top)
            want_half = want[:grid.upper].copy()
            if m % 2:
                want_half[-1] *= 0.5
            assert half.tobytes() == want_half.tobytes(), (rule, m, radius, top)
        assert _power_table.cache_info().currsize == 4      # widths 16, 32, 64 and 80


def test_a_battery_builds_each_power_table_once():
    # the quadrature benchmark's battery, shuffled: the flows of its
    # Gaussians have degree 2, so its invariance residuals at n = 4 read tops
    # up to 2 (2 + 2) = 8, one 16-column block serves each of its 7 grids,
    # and the bound keeps every table
    sigma = 0.8
    shifted = TestFunction.gaussian(center=(0, 3, 0), sigma=sigma)
    near = TestFunction.gaussian(center=(0, 1, 0), sigma=sigma)
    centred = TestFunction.gaussian(center=(0, 0, 0), sigma=sigma)
    calls = []
    for n, m in itertools.product((2, 4), (32, 64, 96, 128)):
        grid = QuadratureGrid(6 * sigma, m)
        calls.append(lambda n=n, g=grid: seed_pairing(n, shifted, g))
        calls += [lambda n=n, z=z, g=grid: invariance_residual(n, z, shifted, g) for z in "HXY"]
    for n, m in itertools.product((1, 3, 5), (64, 128)):
        grid = QuadratureGrid(6 * sigma, m)
        calls += [lambda n=n, g=grid: odd_section_scale(n, near, g),
                  lambda n=n, g=grid: odd_section_obstruction(n, near, g),
                  lambda n=n, g=grid: odd_section_obstruction(n, near, g, negative_control=True)]
    for m in (128, 192):
        mid = QuadratureGrid(6 * sigma, m, "midpoint")
        gauss = QuadratureGrid(6 * sigma, m * 3 // 4, "gauss")
        calls += [lambda g=mid: pair_delta_nplus(centred, g),
                  lambda g=mid: pair_delta_nplus(near.casimir(), g),
                  lambda g=gauss: pair_delta_nplus(near.casimir(), g),
                  lambda g=mid: tail_bound(centred, g)]
    random.Random(0).shuffle(calls)
    _plane_moments.cache_clear()
    _power_table.cache_clear()
    for call in calls:
        call()
    info = _power_table.cache_info()
    assert info.misses == info.currsize == 7


def _lie_derivative_by_three_partials(z_label, f):
    """The flow derivatives built from all three partials, kept as the reference."""
    fh, fx, fy = f.diff(0), f.diff(1), f.diff(2)
    return {
        "H": (-2) * fx.mul_poly({(0, 1, 0): 1}) + 2 * fy.mul_poly({(0, 0, 1): 1}),
        "X": 2 * fx.mul_poly({(1, 0, 0): 1}) + (-1) * fh.mul_poly({(0, 0, 1): 1}),
        "Y": fh.mul_poly({(0, 1, 0): 1}) + (-2) * fy.mul_poly({(1, 0, 0): 1}),
    }[z_label]


_MATRICES = {"H": ((1, 0), (0, -1)), "X": ((0, 1), (0, 0)), "Y": ((0, 0), (1, 0))}


def _bracket(u, v):
    return tuple(tuple(sum(u[r][k] * v[k][c] - v[r][k] * u[k][c] for k in range(2))
                       for c in range(2)) for r in range(2))


def test_flow_table_is_the_negated_matrix_bracket():
    # xi = (h, x, y) is the matrix [[h, x], [y, -h]], as in the trace identity
    # test; each table term (i, j, c) adds c xi_j to coordinate i of the field
    points = [(Fraction(2), Fraction(3), Fraction(-5)), (Fraction(-1, 2), Fraction(5, 3), 0),
              (Fraction(7, 4), Fraction(-2, 9), Fraction(1, 6))]
    for z, zmat in _MATRICES.items():
        for xi in points:
            field = [Fraction(0)] * 3
            for i, j, c in _FLOWS[z]:
                field[i] += c * xi[j]
            h, x, y = xi
            br = _bracket(zmat, ((h, x), (y, -h)))
            assert br[1][1] == -br[0][0], z
            assert tuple(field) == (-br[0][0], -br[0][1], -br[1][0]), (z, xi)


def test_lie_derivative_matches_the_three_partials_formula():
    for f in (TestFunction.gaussian(center=(0, 3, 0), sigma=0.6),
              TestFunction.gaussian(center=(Fraction(1, 3), 1, Fraction(-1, 2)), sigma=0.8,
                                    poly={(1, 0, 0): 2, (0, 1, 1): -1, (0, 0, 0): 1})):
        for z in "HXY":
            got, want = lie_derivative(z, f), _lie_derivative_by_three_partials(z, f)
            # item order too: TestFunction.value sums the terms in dict order
            assert list(got.poly.items()) == list(want.poly.items()), z
            assert (got.center, got.sigma2) == (want.center, want.sigma2)


def test_lie_derivative_memo_shares_one_read_only_flow_per_value():
    def build():
        return TestFunction.gaussian(center=(Fraction(1, 3), 1, Fraction(-1, 2)), sigma=0.8,
                                     poly={(1, 0, 0): 2, (0, 1, 1): -1, (0, 0, 0): 1})

    _lie_flows.cache_clear()
    first = lie_derivative("X", build())
    want = list(first.poly.items())
    for f in (first, build()):
        with pytest.raises(TypeError):
            f.poly[(0, 0, 0)] = Fraction(99)
        with pytest.raises(AttributeError):
            f.poly = {}
        with pytest.raises(AttributeError):
            del f.key
    hits = _lie_flows.cache_info().hits
    again = lie_derivative("X", build())          # value-equal, built separately
    assert _lie_flows.cache_info().hits == hits + 1
    assert again is first and list(again.poly.items()) == want
    with pytest.raises(ValueError, match="unknown direction 'Q'"):
        lie_derivative("Q", build())
    assert _lie_flows.cache_info().hits == hits + 1       # rejected before the memo


def test_a_lie_flows_miss_builds_only_the_three_flows(monkeypatch):
    # the partials enter as polynomials (_partial_poly), not as test functions
    f = TestFunction.gaussian(center=(Fraction(1, 3), 1, Fraction(-1, 2)), sigma=0.8,
                              poly={(1, 0, 0): 2, (0, 1, 1): -1, (0, 0, 0): 1})
    built = []
    init = TestFunction.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(TestFunction, "__init__", counting)
    _lie_flows.cache_clear()
    flows = _lie_flows(f)
    assert len(built) == 3 and all(t is flows[z] for t, z in zip(built, "HXY"))


_SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_POLYS = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), _SMALL.filter(bool),
                         min_size=1, max_size=3)


@settings(max_examples=50, deadline=None)
@given(poly=_POLYS, center=st.tuples(_SMALL, _SMALL, _SMALL),
       sigma=st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=16))
def test_float_form_is_the_exact_fields_in_floats_and_equality_is_by_value(poly, center, sigma):
    f = TestFunction.gaussian(center=center, sigma=sigma, poly=poly)
    assert f.key == (tuple(float(t) for t in f.center), float(f.sigma2))
    assert f.terms == tuple((i, j, l, float(c)) for (i, j, l), c in f.poly.items())
    assert f.degree == max(i + j + l for i, j, l in f.poly)
    twin = TestFunction(dict(poly), center, sigma * sigma)      # built separately
    assert twin is not f and twin == f and hash(twin) == hash(f)
    assert {f: 1}[twin] == 1
    assert f != TestFunction(poly, center, 2 * sigma * sigma)
    if len(f.poly) > 1:
        reordered = TestFunction(dict(reversed(list(f.poly.items()))), center, sigma * sigma)
        assert reordered != f


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


def _ad_matrix_by_loop(z_label, degree):
    """ad(Z) entry by entry over the monomials, kept as the reference."""
    monos = _monomials(degree)
    index = {mono: t for t, mono in enumerate(monos)}
    mat = np.zeros((len(monos), len(monos)))
    for col, mono in enumerate(monos):
        for i, j, c in _FLOWS[z_label]:
            if mono[j]:
                target = tuple(e - (axis == j) + (axis == i) for axis, e in enumerate(mono))
                mat[index[target], col] -= c * mono[j]
    return mat


def test_ad_matrix_matches_the_loop_at_every_degree_the_cli_accepts():
    for degree in range(33):              # --n up to 64: degree n/2 up to 32
        for z in "HXY":
            want = _ad_matrix_by_loop(z, degree)
            assert np.array_equal(_ad_matrix(z, degree), want), (z, degree)


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
            assert odd_section_scale(n, f, grid) > 0
            assert value == 0.0


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


@pytest.mark.parametrize("n", [-1, -2, -3])
def test_entry_points_reject_a_negative_n(n):
    f, grid = TestFunction.gaussian(center=(0, 1, 0), sigma=1.0), QuadratureGrid(6.0, 16)
    for call in (lambda: seed_pairing(n, f, grid),
                 lambda: invariance_residual(n, "H", f, grid),
                 lambda: odd_section_obstruction(n, f, grid),
                 lambda: odd_section_obstruction(n, f, grid, negative_control=True),
                 lambda: odd_section_scale(n, f, grid)):
        with pytest.raises(ValueError, match=f"n={n}"):
            call()


def test_invariance_verdict_fails_on_an_unconverged_grid():
    coarse, fine = invariance_report(2, 32, 0.6), invariance_report(2, 64, 0.6)
    assert [row["m"] for row in coarse["table"]] == [8, 16, 32]
    assert (coarse["verdict"], fine["verdict"]) == ("FAIL", "PASS")


@pytest.mark.parametrize("n", [2, 4])
def test_converged_invariance_residuals_stay_at_the_roundoff_floor(n):
    # on converged grids the residual is roundoff alone, about 1e-13 at
    # worst, far below INVARIANCE_TOL; a contraction that loses digits
    # shows here long before it moves a verdict
    for grid in (128, 256, 511):
        for sigma in (0.6, 0.75, 0.9):
            worst = invariance_report(n, grid, sigma)["worst_relative_residual"]
            assert worst < 1e-12, (n, grid, sigma, worst)


@pytest.mark.parametrize("sigma", SIGMA_WINDOW)
def test_top_degree_pairings_stay_finite_at_the_width_window_edges(sigma):
    """At --n 64 the moments reach a^p b^q with p + q = 68 on a square of
    radius 6 sigma; only the entries read are rescaled, so no power of the
    radius overflows, at either edge of the accepted widths."""
    grid = QuadratureGrid(6.0 * sigma, 128)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for center in ((0, 0, 0), (0, 1, 0)):
            f = TestFunction.gaussian(center=center, sigma=sigma)
            values = [*seed_pairing(64, f, grid),
                      *(invariance_residual(64, z, f, grid) for z in "HXY"),
                      odd_section_obstruction(63, f, grid),
                      odd_section_obstruction(63, f, grid, negative_control=True),
                      odd_section_scale(63, f, grid)]
            assert all(math.isfinite(v) for v in values), (sigma, center)
        for report, n in ((invariance_report, 64), (obstruction_report, 63)):
            try:
                record = report(n, 128, sigma)
            except ValueError:
                continue                # refused with one error line: exit 1
            assert record["verdict"] in ("PASS", "FAIL")


def test_mirror_pairing_cancels_an_odd_integrand_exactly(monkeypatch):
    # the moment of a^p b^q over the whole plane, read through _components at
    # degree 0 under the lead a^p b^q, is the half-plane contraction's entry
    # times 2 for even p + q and times 0 for odd: exactly 0.0, from a nonzero entry
    f = TestFunction.gaussian(center=(Fraction(1, 3), 1, Fraction(-1, 2)), sigma=0.8,
                              poly={(1, 0, 0): 2, (0, 1, 1): -1, (0, 0, 0): 1})
    one = ((0, 0, 0, 1.0),)          # the float terms of the polynomial 1
    for rule in ("midpoint", "gauss"):
        for m in (7, 8, 33, 64):
            grid = QuadratureGrid(4.8, m, rule)
            u, k = _plane_moments(f.key, grid, 7)
            for p in range(8):
                for q in range(8):
                    moment, = _components(u, k, 0, one, (p, q))
                    if (p + q) % 2:
                        assert moment == 0.0 and u[p][q] != 0.0, (rule, m, p, q)
                    else:
                        assert math.isfinite(moment), (rule, m, p, q)
            assert _components(u, k, 0, one, (2, 0))[0] > 0.0
    # the zeros are computed, not built: a NaN on one stored upper-row node
    # reaches both the obstruction and its control
    grid = QuadratureGrid(4.8, 7)
    poisoned = _node_envelope(f.key, grid).copy()
    poisoned[1, 2] = np.nan
    monkeypatch.setattr(oracle, "_node_envelope", lambda *key: poisoned)
    _plane_moments.cache_clear()
    try:
        assert math.isnan(odd_section_obstruction(3, f, grid))
        assert math.isnan(odd_section_obstruction(3, f, grid, negative_control=True))
    finally:
        _plane_moments.cache_clear()


def _weight(grid):
    """The (m, m) weight of the tensor-product rule, the outer product of the
    1-d weights; production reads the weights through the Vandermonde factor."""
    return grid.w[:, None] * grid.w[None, :]


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


def _flat_image_moments(degree, f, nodes, lead=lambda a, b: (1.0,), absolute=False):
    """The per-node integrands of every pairing component on the flat nodes
    (a, b, w): lead * multinomial * h^al x^be y^ga * f * w, with |.| of
    every factor if absolute."""
    a, b, w = nodes
    h, x, y = moment_map(a, b)
    fw = _flat_value(f, h, x, y)
    if absolute:
        a, b, h, y, fw = np.abs(a), np.abs(b), np.abs(h), np.abs(y), np.abs(fw)
    base = fw * w
    for factor in lead(a, b):
        for al, be, ga in _monomials(degree):
            coeff = float(_multinomial(degree, al, be, ga))
            yield coeff * factor * h ** al * x ** be * y ** ga * base


def _flat_termwise_scale(degree, f, nodes, lead):
    """The absolute-value scale of each component: 2 * multinomial * the sum
    over nodes of |lead * h^al x^be y^ga| * sum |c h^i x^j y^k| over the terms
    of f's polynomial, times its Gaussian factor and the weight.  The moment
    contraction sums exactly these magnitudes."""
    a, b, w = nodes
    h, x, y = moment_map(a, b)
    ah, ay = np.abs(h), np.abs(y)
    gauss = TestFunction({(0, 0, 0): 1}, f.center, f.sigma2)
    poly = sum(abs(float(c)) * ah ** i * x ** j * ay ** k for (i, j, k), c in f.poly.items())
    base = poly * _flat_value(gauss, h, x, y) * w
    return [2.0 * _multinomial(degree, al, be, ga) * float(np.sum(factor * ah ** al * x ** be
                                                                  * ay ** ga * base))
            for factor in lead(np.abs(a), np.abs(b)) for al, be, ga in _monomials(degree)]


# The contraction forms each moment by a dot product of ceil(m/2) <= 32
# upper rows and one of m <= 64 columns, from powers and products a few
# roundings deep, and doubles it exactly; the reference takes a handful of
# products per node and sums them pairwise, 12 levels deep at m = 64.  So
# each component agrees within about 120 roundings of 2^-53 of its
# absolute-value scale; the tolerance leaves a factor of about seven.
PAIRING_RTOL = 1e-13


def _every_pairing(f, grid, degree):
    even, odd = 2 * degree, 2 * degree + 1
    return [seed_pairing(even, f, grid),
            *(invariance_residual(even, z, f, grid) for z in "HXY"),
            odd_section_obstruction(odd, f, grid),
            odd_section_obstruction(odd, f, grid, negative_control=True),
            odd_section_scale(odd, f, grid),
            pair_delta_nplus(f, grid)]


def _flat_pairings(f, grid, degree):
    """(value, tolerance) for each entry of _every_pairing: the value from the
    flat integrands summed pairwise, the tolerance PAIRING_RTOL of each
    component's absolute-value scale, carried through the norms by the
    triangle inequality."""
    nodes = _flat_nodes(grid)

    def exact(deg, g, lead=lambda a, b: (1.0,), absolute=False):
        return np.array([2.0 * float(np.sum(v))
                         for v in _flat_image_moments(deg, g, nodes, lead, absolute)])

    def tol(deg, g, lead=lambda a, b: (1.0,)):
        return PAIRING_RTOL * np.array(_flat_termwise_scale(deg, g, nodes, lead))

    p_vec, p_tol = exact(degree, f), tol(degree, f)
    out = [(p_vec, p_tol)]
    for z in "HXY":
        flow, ad = lie_derivative(z, f), _ad_matrix(z, degree)
        out.append((np.linalg.norm(ad @ p_vec - exact(degree, flow)),
                    np.linalg.norm(ad, 2) * np.linalg.norm(p_tol)
                    + np.linalg.norm(tol(degree, flow))))
    both, first = (lambda a, b: (a, b)), (lambda a, b: (np.abs(a),))
    for lead in (both, first):
        out.append((np.linalg.norm(exact(degree, f, lead)), np.linalg.norm(tol(degree, f, lead))))
    scale = np.linalg.norm(exact(degree, f, both, absolute=True))
    out.append((scale, PAIRING_RTOL * scale))
    out.append((exact(0, f)[0], tol(0, f)[0]))
    return out


def _assert_pairings_match_the_flat_reference(f, grid, degree, case):
    for k, (got, (want, tol)) in enumerate(zip(_every_pairing(f, grid, degree),
                                               _flat_pairings(f, grid, degree))):
        assert np.all(np.abs(np.asarray(got) - want) <= tol), (case, k, got, want, tol)


def test_tensor_grid_pairings_match_the_flat_reference():
    center, sigma = (Fraction(1, 3), 1, Fraction(-1, 2)), 0.8
    funcs = {"constant": TestFunction.gaussian(center=center, sigma=sigma),
             "pure power": TestFunction.gaussian(center=center, sigma=sigma,
                                                 poly={(0, 3, 0): Fraction(-2, 3)}),
             "mixed": TestFunction.gaussian(center=center, sigma=sigma,
                                            poly={(1, 0, 0): 2, (0, 1, 1): -1, (0, 0, 0): 1,
                                                  (2, 1, 0): Fraction(1, 3)})}
    for rule in ("midpoint", "gauss"):
        for m in (1, 2, 7, 8, 33, 64):
            grid = QuadratureGrid(4.8, m, rule)
            for got, want in zip((*grid.nodes(), _weight(grid)), _flat_nodes(grid), strict=True):
                assert np.broadcast_to(got, (m, m)).tobytes() == want.tobytes(), (rule, m)
            for degree in range(4):
                for name, f in funcs.items():
                    _assert_pairings_match_the_flat_reference(f, grid, degree,
                                                              (rule, m, degree, name))


@settings(max_examples=30, deadline=None)
@given(degree=st.integers(0, 4), m=st.integers(1, 64), rule=st.sampled_from(["midpoint", "gauss"]),
       poly=_POLYS, center=st.tuples(_SMALL, _SMALL, _SMALL),
       sigma=st.sampled_from([0.5, 0.8, 1.25]))
def test_generated_pairings_match_the_flat_reference(degree, m, rule, poly, center, sigma):
    f = TestFunction.gaussian(center=center, sigma=sigma, poly=poly)
    _assert_pairings_match_the_flat_reference(f, QuadratureGrid(6.0 * sigma, m, rule), degree,
                                              (degree, m, rule))
