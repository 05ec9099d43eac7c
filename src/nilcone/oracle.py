"""Floating-point cross-checks of the exact engine.

Everything runs through the quadratic parametrization of the closed upper
half-cone by the plane,

    (a, b)  ->  (h, x, y) = (-a*b/2, a^2/2, -b^2/2),

under which pairings against the cone measure become plain double
integrals over the plane (with density factor 2), evaluated here by
deterministic tensor-product quadrature.  The grid's nodes come as
broadcastable factors, a column of a and a row of b, so x = a^2/2 and
y = -b^2/2 and their powers are computed on m values each; only h and the
products fill the m x m square, whose row-major order is the flat node
order that every summation follows.  Every pairing is one image-moment
integral, built by the shared routine _image_moments: lead factor times
multinomial times image monomial h^a x^b y^c times f, weighted at the
image of each node.  Test functions are polynomial times Gaussian, so every
derivative needed is available in closed form.  Floats are confined to
this module; nothing numeric flows back into the symbolic side.  The
*_report functions at the end are the numcheck batteries, judged against
the named thresholds defined beside them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction


class _Numpy:
    """Stands in for the numpy module until the first numeric call, so that
    importing this module, and with it the package and its symbolic
    commands, does not load numpy."""

    def __getattr__(self, name):
        global np
        import numpy
        np = numpy
        return getattr(numpy, name)


np = _Numpy()

def moment_map(a, b):
    """Image (h, x, y) = (-a*b/2, a*a/2, -b*b/2) of the plane point (a, b).

    The closed form comes from requiring tr(M Z) = B(v, Z v)/2 against the
    three basis directions, B the symplectic form; it satisfies h^2 + xy = 0
    and x - y >= 0 identically, with equality only at the origin.  Exact on
    Fractions, vectorized on numpy arrays.
    """
    return (-a * b / 2, a * a / 2, -b * b / 2)


def _times_powers(lead, axes, expo):
    """lead * h^i * x^j * y^k, multiplied left to right, with every factor
    axis^0 skipped: multiplying by 1.0 is exact, so skipping it changes no
    value and saves an array of ones and a multiplication."""
    for axis, e in zip(axes, expo):
        if e:
            lead = lead * axis ** e
    return lead


def _diff_poly(poly, axis):
    out = {}
    for expo, c in poly.items():
        if expo[axis]:
            dexpo = list(expo)
            dexpo[axis] -= 1
            key = tuple(dexpo)
            out[key] = out.get(key, Fraction(0)) + c * expo[axis]
    return out


def _mul_polys(p1, p2):
    out = {}
    for e1, c1 in p1.items():
        for e2, c2 in p2.items():
            key = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return out


class TestFunction:
    """Polynomial times centered Gaussian on R^3, closed under d/dh, d/dx, d/dy.

    The polynomial part has Fraction coefficients keyed by exponent triples
    for h^i x^j y^k; center and squared width are stored exactly so that
    differentiation and coordinate multiplication stay inside the class.
    Only evaluation produces floats.
    """

    __slots__ = ("poly", "center", "sigma2")
    __test__ = False          # not a pytest class, despite the name

    def __init__(self, poly, center, sigma2):
        self.poly = {tuple(e): Fraction(c) for e, c in poly.items() if c}
        self.center = tuple(Fraction(t) for t in center)
        self.sigma2 = Fraction(sigma2)
        if self.sigma2 <= 0:
            raise ValueError("width must be positive")

    @classmethod
    def gaussian(cls, center=(0, 0, 0), sigma=1, poly=None) -> "TestFunction":
        if poly is None:
            poly = {(0, 0, 0): 1}
        return cls(poly, center, Fraction(sigma) ** 2)

    def value(self, h, x, y):
        """Evaluate at floats or at numpy arrays that broadcast together."""
        pv = 0.0
        for expo, c in self.poly.items():
            pv = pv + _times_powers(float(c), (h, x, y), expo)
        ch, cx, cy = (float(t) for t in self.center)
        expo = ((h - ch) ** 2 + (x - cx) ** 2 + (y - cy) ** 2) / float(self.sigma2)
        return pv * np.exp(-expo)

    def diff(self, axis: int) -> "TestFunction":
        """Exact partial derivative along coordinate axis 0=h, 1=x, 2=y."""
        shift = [0, 0, 0]
        shift[axis] = 1
        lin = {tuple(shift): Fraction(-2) / self.sigma2,
               (0, 0, 0): 2 * self.center[axis] / self.sigma2}
        poly = _diff_poly(self.poly, axis)
        for key, c in _mul_polys(self.poly, lin).items():
            poly[key] = poly.get(key, Fraction(0)) + c
        return TestFunction(poly, self.center, self.sigma2)

    def mul_poly(self, poly) -> "TestFunction":
        return TestFunction(_mul_polys(self.poly, {tuple(e): Fraction(c) for e, c in poly.items()}),
                            self.center, self.sigma2)

    def casimir(self) -> "TestFunction":
        """(1/2) d^2/dh^2 + 2 d^2/dx dy, the invariant constant-coefficient operator."""
        return Fraction(1, 2) * self.diff(0).diff(0) + 2 * self.diff(1).diff(2)

    def __add__(self, other: "TestFunction") -> "TestFunction":
        if self.center != other.center or self.sigma2 != other.sigma2:
            raise ValueError("can only add test functions sharing one Gaussian factor")
        poly = dict(self.poly)
        for key, c in other.poly.items():
            poly[key] = poly.get(key, Fraction(0)) + c
        return TestFunction(poly, self.center, self.sigma2)

    def __rmul__(self, scalar) -> "TestFunction":
        scalar = Fraction(scalar)
        return TestFunction({e: scalar * c for e, c in self.poly.items()},
                            self.center, self.sigma2)

    __mul__ = __rmul__


def lie_derivative(z_label: str, f: TestFunction) -> TestFunction:
    """Flow derivative of f along the adjoint vector field of H, X or Y:
    L_H = -2x d/dx + 2y d/dy, L_X = 2h d/dx - y d/dh, L_Y = x d/dh - 2h d/dy."""
    if z_label == "H":
        return ((-2) * f.diff(1).mul_poly({(0, 1, 0): 1})
                + 2 * f.diff(2).mul_poly({(0, 0, 1): 1}))
    if z_label == "X":
        return (2 * f.diff(1).mul_poly({(1, 0, 0): 1})
                + (-1) * f.diff(0).mul_poly({(0, 0, 1): 1}))
    if z_label == "Y":
        return (f.diff(0).mul_poly({(0, 1, 0): 1})
                + (-2) * f.diff(2).mul_poly({(1, 0, 0): 1}))
    raise ValueError(f"unknown direction {z_label!r}; expected 'H', 'X' or 'Y'")


@dataclass(frozen=True)
class QuadratureGrid:
    """Deterministic tensor-product rule on [-R, R]^2.

    Nodes are exactly symmetric under negation (midpoint nodes are built
    as signed multiples of the step; Gauss-Legendre nodes are explicitly
    antisymmetrized), which the parity cancellations downstream rely on.
    """

    radius: float
    m: int
    rule: str = "midpoint"

    def nodes1d(self):
        if self.m <= 0:
            raise ValueError("need at least one node per axis")
        if self.rule == "midpoint":
            step = 2.0 * self.radius / self.m
            x = (np.arange(self.m) - (self.m - 1) / 2.0) * step
            w = np.full(self.m, step)
        elif self.rule == "gauss":
            x, w = _gauss_legendre(self.m)
            x = x * self.radius
            w = w * self.radius
        else:
            raise ValueError(f"unknown rule {self.rule!r}")
        return x, w

    def nodes(self):
        """(a, b, weight) as broadcastable factors: a an (m, 1) column, b a
        (1, m) row and weight the (m, m) product of the 1-d weights.  Their
        row-major broadcast is the flattened node order, a running over rows
        and b over columns; order is part of the contract."""
        x, w = self.nodes1d()
        return x[:, None], x[None, :], w[:, None] * w[None, :]


@functools.lru_cache(maxsize=16)
def _gauss_legendre(m: int):
    """Gauss-Legendre nodes and weights on [-1, 1], antisymmetrized and
    symmetrized exactly, as read-only arrays shared by every grid of size m."""
    x, w = np.polynomial.legendre.leggauss(m)
    x = (x - x[::-1]) / 2.0
    w = (w + w[::-1]) / 2.0
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _pairwise_sum(values) -> float:
    """Binary-tree summation in a fixed order, for bit-reproducible totals."""
    buf = np.asarray(values, dtype=float).ravel()
    if buf.size == 0:
        return 0.0
    while buf.size > 1:
        if buf.size % 2:
            buf = np.concatenate([buf, [0.0]])
        buf = buf[0::2] + buf[1::2]
    return float(buf[0])


def _mirror_pair_values(values: np.ndarray) -> np.ndarray:
    """Collapse node values into (v, -v) pair sums (center node kept as is).

    On the symmetric grids above the mirror of flat index (i, j) is
    (m-1-i, m-1-j), which is flat index m^2-1-t: the array read in reverse.
    Summing each pair first makes odd integrands cancel exactly in floating
    point.
    """
    values = values.ravel()
    half = values.size // 2
    out = values[:half] + values[::-1][:half]
    if values.size % 2:
        out = np.concatenate([out, values[half:half + 1]])
    return out


def pair_delta_nplus(f: TestFunction, grid: QuadratureGrid) -> float:
    """Pairing of the upper half-cone measure against f: the approximation
    of 2 * integral of f(moment_map(a, b)) da db over the grid square, which
    is the degree-0 seed pairing.

    The caller is responsible for a radius large enough that the Gaussian
    tail is negligible; tail_bound reports a conservative estimate.
    """
    return float(seed_pairing(0, f, grid)[0])


def tail_bound(f: TestFunction, grid: QuadratureGrid) -> float:
    """Conservative estimate of the pairing mass lost outside the grid square.

    Uses |image point| between sqrt(3)/4 r^2 and r^2/2 on the circle |v| = r
    to bound the integrand by a radial profile, then integrates the profile
    outward from the grid radius.
    """
    c_norm = math.sqrt(sum(float(t) ** 2 for t in f.center))
    s2 = float(f.sigma2)
    coeff_mass = [(abs(float(c)), sum(e)) for e, c in f.poly.items()]

    def profile(r):
        lo = math.sqrt(3.0) / 4.0 * r * r
        hi = 0.5 * r * r
        poly_bound = sum(mass * max(hi, 1.0) ** deg for mass, deg in coeff_mass)
        gap = max(0.0, lo - c_norm)
        return 2.0 * poly_bound * math.exp(-gap * gap / s2) * 2.0 * math.pi * r

    total = 0.0
    r = float(grid.radius)
    step = max(0.01 * r, 0.01)
    g = profile(r)
    while r < 1e4:
        g_next = profile(r + step)
        total += max(g, g_next) * step
        r += step
        g = g_next
        if g < 1e-300:
            break
    return 2.0 * total


def _monomials(degree: int) -> list[tuple[int, int, int]]:
    return sorted((i, j, degree - i - j)
                  for i in range(degree + 1) for j in range(degree + 1 - i))


def _multinomial(m: int, i: int, j: int, k: int) -> int:
    return math.factorial(m) // (math.factorial(i) * math.factorial(j) * math.factorial(k))


@functools.lru_cache(maxsize=8)
def _ad_matrix(z_label: str, degree: int) -> np.ndarray:
    """Derivation action of ad(H|X|Y) on degree-d monomials in (H, X, Y),
    using [H,X]=2X, [H,Y]=-2Y, [X,Y]=H, as a read-only float matrix."""
    monos = _monomials(degree)
    index = {mono: t for t, mono in enumerate(monos)}
    mat = np.zeros((len(monos), len(monos)))

    def add(target, source_col, value):
        mat[index[target], source_col] += value

    for col, (al, be, ga) in enumerate(monos):
        if z_label == "H":
            add((al, be, ga), col, 2.0 * be - 2.0 * ga)
        elif z_label == "X":
            if al:
                add((al - 1, be + 1, ga), col, -2.0 * al)
            if ga:
                add((al + 1, be, ga - 1), col, 1.0 * ga)
        elif z_label == "Y":
            if al:
                add((al - 1, be, ga + 1), col, 2.0 * al)
            if be:
                add((al + 1, be - 1, ga), col, -1.0 * be)
        else:
            raise ValueError(f"unknown direction {z_label!r}")
    mat.flags.writeable = False
    return mat


def _image_moments(degree: int, f: TestFunction, grid: QuadratureGrid,
                   lead=lambda a, b: (1.0,), absolute: bool = False):
    """Per-node integrands lead * multinomial(d; al, be, ga) * h^al x^be y^ga * f * w
    over the moment-map image of the grid, for each factor of lead(a, b) and
    each degree-d monomial in _monomials order; absolute takes |.| of every
    factor.  Summed pairwise and doubled, each is one pairing component."""
    a, b, w = grid.nodes()
    h, x, y = moment_map(a, b)
    fw = f.value(h, x, y)
    if absolute:
        a, b, h, y, fw = np.abs(a), np.abs(b), np.abs(h), np.abs(y), np.abs(fw)
    base = fw * w
    for factor in lead(a, b):
        for expo in _monomials(degree):
            coeff = float(_multinomial(degree, *expo))
            yield _times_powers(coeff * factor, (h, x, y), expo) * base


def _norm(components) -> float:
    """Euclidean norm, summing the squares c * c in order."""
    total = 0.0
    for c in components:
        total += c * c
    return math.sqrt(total)


def seed_pairing(n: int, f: TestFunction, grid: QuadratureGrid) -> np.ndarray:
    """Vector pairing of the degree-n/2 seeded cone measure against f.

    Coordinates are over the monomial basis of degree-n/2 symmetric tensors
    in (H, X, Y): the component at H^a X^b Y^c is the multinomial coefficient
    times 2 * integral of h^a x^b y^c f at the image points.
    """
    if n % 2:
        raise ValueError("the seeded pairing requires even n")
    return np.array([2.0 * _pairwise_sum(v) for v in _image_moments(n // 2, f, grid)])


def invariance_residual(n: int, z_label: str, f: TestFunction,
                        grid: QuadratureGrid) -> float:
    """Norm of  ad(Z) . P(f) - P(L_Z f)  with P the seeded pairing vector.

    Equivariance of the parametrized cone measure makes the two terms agree
    (the flow derivative transposes to its negative against the invariant
    density, which is where the relative sign comes from); the residual is
    pure quadrature error and must vanish under refinement.  Odd n has no
    seeded pairing and is rejected.
    """
    if n % 2:
        raise ValueError("odd n rejected: the equivariant seed only exists for even n")
    p_vec = seed_pairing(n, f, grid)
    q_vec = seed_pairing(n, lie_derivative(z_label, f), grid)
    action = _ad_matrix(z_label, n // 2)
    return float(np.linalg.norm(action @ p_vec - q_vec))


def odd_section_obstruction(n: int, f: TestFunction, grid: QuadratureGrid,
                            negative_control: bool = False) -> float:
    """Norm of the pairing 2 * integral of (v tensor image^{(n-1)/2}) f.

    The integrand is exactly odd under v -> -v while the image point is
    even, so on a negation-symmetric grid the (v, -v) pair sums cancel in
    floating point: the numeric shadow of the missing global section over
    the half-cone for odd n.  With negative_control=True the first factor
    v is replaced by |a| times the first basis vector, which breaks the
    parity and must produce a visibly nonzero value.
    """
    if n % 2 == 0:
        raise ValueError("even n rejected: the obstruction pairing is for odd n")
    lead = ((lambda a, b: (np.abs(a),)) if negative_control
            else (lambda a, b: (a, b)))
    return _norm(2.0 * _pairwise_sum(_mirror_pair_values(v))
                 for v in _image_moments((n - 1) // 2, f, grid, lead))


def odd_section_scale(n: int, f: TestFunction, grid: QuadratureGrid) -> float:
    """Companion magnitude for the obstruction: same pairing with absolute
    values everywhere, for forming relative residuals."""
    if n % 2 == 0:
        raise ValueError("even n rejected")
    return _norm(2.0 * _pairwise_sum(v) for v in _image_moments(
        (n - 1) // 2, f, grid, lambda a, b: (a, b), absolute=True))


# ---------------------------------------------------------------------------
# the numcheck batteries: each returns its command's record, ending in a
# PASS/FAIL verdict against the thresholds below

INVARIANCE_TOL = 1e-6   # relative invariance residual at the finest grid
ROUNDOFF = 1e-12        # relative size below which a quantity is roundoff
CONTROL_MIN = 1e-3      # the parity-broken negative control must stay above this
ROUTES_TOL = 1e-9       # relative gap between the midpoint and Gauss-Legendre pairings
_RADIUS = 6.0           # grid radius, in Gaussian widths
SIGMA_WINDOW = (1e-3, 1e3)  # accepted widths; far outside, sigma^2 under- or overflows
MAX_PAIRING_DEGREE = 8  # largest pairing degree n // 2; the cost grows as degree^2 * grid^2


def _check_pairing_degree(n: int) -> None:
    if n // 2 > MAX_PAIRING_DEGREE:
        raise ValueError(f"the pairing degree n // 2 = {n // 2} is above "
                         f"{MAX_PAIRING_DEGREE}; use a smaller n")


def invariance_report(n: int, grid: int, sigma: float) -> dict:
    """Relative invariance residuals of the seeded pairing against a Gaussian
    centred at x = 3, for H, X and Y on m x m grids, m = grid/4, grid/2 and
    grid (at least 8); PASS when the worst residual at m = grid is below
    INVARIANCE_TOL.  Even n only, with n // 2 at most MAX_PAIRING_DEGREE,
    and grid at least 8, so that the verdict row is the finest.  A pairing
    that is 0 on some grid leaves the residuals without a scale and is
    rejected, and so is a width whose grid square cuts off the Gaussian:
    the tail bound must be below INVARIANCE_TOL times the plain pairing on
    the finest grid."""
    if n % 2:
        raise ValueError("invariance checks need even n")
    _check_pairing_degree(n)
    if grid < 8:
        raise ValueError(f"invariance checks need a grid of at least 8 nodes per axis, got {grid}")
    func = TestFunction.gaussian(center=(0, 3, 0), sigma=sigma)
    radius = _RADIUS * sigma
    finest = QuadratureGrid(radius, grid)
    base = pair_delta_nplus(func, finest)
    tail = tail_bound(func, finest)
    if not tail < INVARIANCE_TOL * abs(base):
        raise ValueError(f"the tail bound {tail:.3e} at sigma={sigma:g} is not below "
                         f"{INVARIANCE_TOL:g} times the pairing {base:.3e}; use a larger sigma")
    table = []
    for m in (max(grid // 4, 8), max(grid // 2, 8), grid):
        quad = QuadratureGrid(radius, m)
        row = {"m": m}
        scale = _norm(seed_pairing(n, func, quad))
        if not scale:
            raise ValueError(f"the seeded pairing is 0 on the {m} x {m} grid at "
                             f"sigma={sigma:g}, so the residuals have no scale")
        for z in ("H", "X", "Y"):
            row[z] = invariance_residual(n, z, func, quad) / scale
        table.append(row)
    worst = max(table[-1][z] for z in ("H", "X", "Y"))
    return {
        "command": "numcheck", "kind": "invariance", "n": n,
        "sigma": sigma, "radius": radius, "table": table,
        "worst_relative_residual": worst,
        "verdict": "PASS" if worst < INVARIANCE_TOL else "FAIL",
        "verdict_detail": f"worst relative residual {worst:.3e} at m={grid}",
    }


def obstruction_report(n: int, grid: int, sigma: float) -> dict:
    """Relative odd-section obstruction and its parity-broken negative
    control against a Gaussian centred at x = 1; PASS when the obstruction
    is roundoff (below ROUNDOFF) and the control exceeds CONTROL_MIN.
    Odd n only, with n // 2 at most MAX_PAIRING_DEGREE.  A scale of 0
    leaves the obstruction nothing to be relative to and is rejected."""
    if n % 2 == 0:
        raise ValueError("obstruction checks need odd n")
    _check_pairing_degree(n)
    func = TestFunction.gaussian(center=(0, 1, 0), sigma=sigma)
    quad = QuadratureGrid(_RADIUS * sigma, grid)
    scale = odd_section_scale(n, func, quad)
    if not scale:
        raise ValueError(f"the obstruction scale is 0 on the {grid} x {grid} grid at "
                         f"sigma={sigma:g}, so no relative obstruction exists")
    rel = odd_section_obstruction(n, func, quad) / scale
    rel_control = odd_section_obstruction(n, func, quad, negative_control=True) / scale
    return {
        "command": "numcheck", "kind": "obstruction", "n": n,
        "sigma": sigma, "grid": grid,
        "relative_obstruction": rel, "relative_negative_control": rel_control,
        "verdict": "PASS" if rel < ROUNDOFF and rel_control > CONTROL_MIN else "FAIL",
        "verdict_detail": f"obstruction {rel:.3e}, negative control {rel_control:.3e}",
    }


def pairing_report(grid: int, sigma: float) -> dict:
    """The half-cone pairing battery: the Casimir image of a Gaussian paired
    by the midpoint and the Gauss-Legendre rule (relative gap below
    ROUTES_TOL), a positive pairing, and two pairings that must vanish up
    to ROUNDOFF, a Gaussian far off the cone and one times a polynomial
    that annihilates the cone.  The battery is rejected unless the tail
    bound is below ROUNDOFF times the base pairing: a grid square that
    cuts off more than that cannot tell the routes apart.  It is rejected
    too unless the two rules pair the plain Gaussian itself within
    ROUTES_TOL: a grid too coarse for the width cannot either."""
    func = TestFunction.gaussian(center=(0, 1, 0), sigma=sigma)
    grid_mid = QuadratureGrid(_RADIUS * sigma, grid, "midpoint")
    base = pair_delta_nplus(func, grid_mid)
    tail = tail_bound(func, grid_mid)
    if not tail < ROUNDOFF * abs(base):
        raise ValueError(f"the tail bound {tail:.3e} at sigma={sigma:g} is not below "
                         f"{ROUNDOFF:g} times the pairing {base:.3e}; use a larger sigma")
    grid_gauss = QuadratureGrid(_RADIUS * sigma, max(grid * 3 // 4, 8), "gauss")
    base_gauss = pair_delta_nplus(func, grid_gauss)
    if not abs(base - base_gauss) < ROUTES_TOL * max(abs(base), abs(base_gauss)):
        raise ValueError(f"the {grid} x {grid} grid is too coarse at sigma={sigma:g}: the "
                         f"midpoint and Gauss-Legendre pairings of the Gaussian, {base:.3e} "
                         f"and {base_gauss:.3e}, differ by {abs(base - base_gauss):.3e}, "
                         f"not below {ROUTES_TOL:g} of the larger; use a finer grid")
    casimired = func.casimir()
    route_a = pair_delta_nplus(casimired, grid_mid)
    route_b = pair_delta_nplus(casimired, grid_gauss)
    agreement = abs(route_a - route_b) / max(abs(route_a), abs(route_b), 1e-30)
    positive = pair_delta_nplus(
        TestFunction.gaussian(center=(0, 1, 0), sigma=sigma,
                              poly={(0, 1, 0): 1, (0, 0, 1): -1}), grid_mid)
    far = pair_delta_nplus(TestFunction.gaussian(center=(0, -5, 5), sigma=0.5), grid_mid)
    support = pair_delta_nplus(
        TestFunction.gaussian(center=(0, 1, 0), sigma=sigma,
                              poly={(2, 0, 0): 1, (0, 1, 1): 1}), grid_mid)
    negligible = ROUNDOFF * max(abs(base), 1.0)
    passed = (agreement < ROUTES_TOL and positive > 0
              and abs(far) < negligible and abs(support) < negligible)
    return {
        "command": "numcheck", "kind": "pairing", "sigma": sigma, "grid": grid,
        "two_route_agreement": agreement,
        "casimir_pairing_midpoint": route_a,
        "casimir_pairing_gauss": route_b,
        "positive_pairing": positive,
        "far_gaussian_pairing": far,
        "cone_annihilator_pairing": support,
        "tail_bound": tail,
        "verdict": "PASS" if passed else "FAIL",
        "verdict_detail": f"two-route agreement {agreement:.3e}; support and decay checks",
    }
