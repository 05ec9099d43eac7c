"""Floating-point cross-checks of the exact engine.

Everything runs through the quadratic parametrization of the closed upper
half-cone by the plane,

    (a, b)  ->  (h, x, y) = (-a*b/2, a^2/2, -b^2/2),

under which pairings against the cone measure become plain double
integrals over the plane (with density factor 2), evaluated here by
deterministic tensor-product quadrature.  Test functions are polynomial
times Gaussian, so every derivative needed is available in closed form,
and every image monomial is one plane monomial,

    h^i x^j y^l  =  (-1)^(i+l) 2^-(i+j+l) a^(i+2j) b^(i+2l).

So every pairing is read from the plane moments M[p, q] = sum of
w_i w_j a_i^p b_j^q E_ij of the Gaussian factor E alone.  The plane covers
the half-cone twice, and the grids keep the deck transformation
(a, b) -> (-a, -b) exactly: the nodes are negation-symmetric and
moment_map(-a, -b) is moment_map(a, b) bit for bit, so
E[m-1-i, m-1-j] = E[i, j], and the weighted 1-d Vandermonde factor
V[i, p] = w_i (x_i / 2^k)^p has V[m-1-i, p] = (-1)^p V[i, p].  Only the
upper ceil(m/2) rows of E are evaluated (_node_envelope), and one
contraction U over them (_plane_moments), the middle row of an odd grid
at half weight, gives M = (1 + (-1)^(p+q)) U, because the lower rows add
(-1)^(p+q) times the upper ones.  Every odd moment is thus exactly
0 * U = 0.0, which is how the odd-section obstruction cancels in floating
point, and the same U gives its negative control, the moments of sign(a),
as ((-1)^(p+q) - 1) U, since the upper rows are the rows a < 0.
_components reads each pairing component from U with its parity factor,
handling the polynomial part of the test function, the lead factor and
the monomial of each component in exponent space.  Only the
absolute-value scale pairs |f|, which is not polynomial times Gaussian,
and contracts that one array over the upper rows instead.  A TestFunction
is an immutable value that carries its float form, computed once when it
is built: the key (float centre, float squared width) of its Gaussian,
its float terms and its degree, which is all the quadrature reads.  A
battery computes each piece once: bounded, read-only memos hold E per
Gaussian key and grid, U per key, grid and degree, the weighted monomials
of each degree, |f| on the upper rows per (f, grid), and the flow
derivatives along H, X and Y per f, all three from one set of partials
(lie_derivative).  Widths and centres that round to the same floats share
one Gaussian entry, and no Fraction is hashed per lookup.  Floats are
confined to this module; nothing numeric flows back into the symbolic
side.  A QuadratureGrid is validated and builds its rule once; its nodes
are two broadcast axis factors, and the weights enter only through V.
The adjoint action of sl(2) is stated once, in _FLOWS: the terms
(i, j, c) of Z give the flow derivative L_Z = sum of c xi_j d/dxi_i
(lie_derivative) and ad(Z) e_j = -c e_i (_ad_matrix), and a Tier-1 test
certifies the field sum of c xi_j e_i against the 2 x 2 matrix bracket
-[Z, xi].  The *_report functions at the end are the numcheck batteries,
judged against the named thresholds defined beside them.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from types import MappingProxyType

from . import Value


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


def _poly_value(terms, h, x, y):
    """The polynomial part, given by its float terms (i, j, l, c), at points
    that broadcast together, summed in term order."""
    pv = 0.0
    for i, j, l, c in terms:
        pv = pv + _times_powers(c, (h, x, y), (i, j, l))
    return pv


def _gaussian(center, sigma2, h, x, y):
    """exp(-|(h, x, y) - center|^2 / sigma2) at points that broadcast together,
    the centre and squared width given as floats.  The squares are summed
    left to right into one buffer of the broadcast shape, which is then
    divided and exponentiated in place: the same float operations in the
    same order as the plain expression, without an array per step.  Far
    from the centre the divide may overflow to -inf, whose exp is the
    envelope's exact 0.0 there, so that overflow alone is silenced."""
    ch, cx, cy = center
    out = np.empty(np.broadcast_shapes(np.shape(h), np.shape(x), np.shape(y)))
    np.subtract(h, ch, out=out)
    np.square(out, out=out)
    out += np.square(x - cx)
    out += np.square(y - cy)
    with np.errstate(over="ignore"):
        np.divide(out, -sigma2, out=out)
    return np.exp(out, out=out)


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


class TestFunction(Value):
    """Polynomial times centered Gaussian on R^3, closed under d/dh, d/dx, d/dy.

    An immutable value.  The polynomial part is a read-only mapping from
    exponent triples (i, j, l), for h^i x^j y^l, to Fraction coefficients;
    center and squared width are stored exactly, so that differentiation
    and coordinate multiplication stay inside the class.  The float form
    the quadrature reads is computed once, here: key, the Gaussian's
    (float centre, float squared width), which keys the envelope and moment
    memos; terms, the float terms (i, j, l, c) in item order; and degree.
    A value whose float form overflows, whose squared width underflows to
    0, or whose envelope exponent overflows near the origin or the centre,
    is rejected.  Two test functions are equal when their items, in
    order, their centre and their width are; the hash is computed at most
    once.
    """

    __slots__ = ("poly", "center", "sigma2", "key", "terms", "degree", "_hash")
    __test__ = False          # not a pytest class, despite the name

    def __init__(self, poly, center, sigma2):
        poly = MappingProxyType({tuple(e): Fraction(c) for e, c in poly.items() if c})
        center = tuple(Fraction(t) for t in center)
        sigma2 = Fraction(sigma2)
        if sigma2 <= 0:
            raise ValueError("width must be positive")
        try:    # a Fraction too large for a float raises rather than give inf
            key = (tuple(map(float, center)), float(sigma2))
            terms = tuple((i, j, l, float(c)) for (i, j, l), c in poly.items())
        except OverflowError:
            raise ValueError("the centre, width and coefficients must be finite as floats") from None
        if not key[1]:
            raise ValueError("the squared width underflows to 0 as a float")
        # the envelope's exponent |p - c|^2 / sigma^2 at the origin plus the
        # one at unit distance from the centre: _gaussian overflows near them
        # unless this sum is finite
        if not math.isfinite((1.0 + sum(t * t for t in key[0])) / key[1]):
            raise ValueError("the Gaussian exponent overflows a float near the origin "
                             "or the centre")
        self._set(poly=poly, center=center, sigma2=sigma2, key=key, terms=terms,
                  degree=max(map(sum, poly), default=0), _hash=None)

    def __hash__(self):
        # computed on first use: most test functions, such as the partials
        # behind a flow or a Casimir image, are never hashed
        if self._hash is None:
            self._set(_hash=hash((tuple(self.poly.items()), self.center, self.sigma2)))
        return self._hash

    def __eq__(self, other):
        if not isinstance(other, TestFunction):
            return NotImplemented
        return self is other or (self.center == other.center and self.sigma2 == other.sigma2
                                 and list(self.poly.items()) == list(other.poly.items()))

    @classmethod
    def gaussian(cls, center=(0, 0, 0), sigma=1, poly=None) -> "TestFunction":
        if poly is None:
            poly = {(0, 0, 0): 1}
        return cls(poly, center, Fraction(sigma) ** 2)

    def value(self, h, x, y):
        """Evaluate at floats or at numpy arrays that broadcast together."""
        return _poly_value(self.terms, h, x, y) * self.envelope(h, x, y)

    def envelope(self, h, x, y):
        """The Gaussian factor exp(-|(h, x, y) - center|^2 / sigma^2) alone,
        a scalar at scalar points."""
        return _gaussian(*self.key, h, x, y)[()]

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


_FLOWS = {"H": ((1, 1, -2), (2, 2, 2)),
          "X": ((1, 0, 2), (0, 2, -1)),
          "Y": ((0, 1, 1), (2, 0, -2))}


def _flow(z_label: str):
    if z_label not in _FLOWS:
        raise ValueError(f"unknown direction {z_label!r}; expected 'H', 'X' or 'Y'")
    return _FLOWS[z_label]


def lie_derivative(z_label: str, f: TestFunction) -> TestFunction:
    """Flow derivative of f along the adjoint vector field of H, X or Y, the
    terms c xi_j df/dxi_i of _FLOWS gathered in one dict in first-insertion
    order, cancelled keys dropped at the end, as summing them one by one
    would.  The result is shared: every caller with a value-equal f gets the
    same immutable TestFunction (_lie_flows)."""
    _flow(z_label)
    return _lie_flows(f)[z_label]


@functools.lru_cache(maxsize=8)
def _lie_flows(f: TestFunction) -> MappingProxyType:
    """L_Z f for Z = H, X and Y, read-only, from the three partials of f
    taken once.  The bound holds the test functions of a battery."""
    partials = [f.diff(axis) for axis in range(3)]
    flows = {}
    for z_label, flow in _FLOWS.items():
        poly = {}
        for i, j, c in flow:
            for expo, v in partials[i].poly.items():
                key = tuple(e + (axis == j) for axis, e in enumerate(expo))
                poly[key] = poly.get(key, 0) + c * v
        flows[z_label] = TestFunction(poly, f.center, f.sigma2)
    return MappingProxyType(flows)


class QuadratureGrid(Value):
    """Deterministic tensor-product rule on [-R, R]^2, checked and built once:
    an immutable value whose fields are radius, m and rule.  The read-only
    1-d nodes x and weights w, 2^k the least power of two above R, and
    upper = ceil(m/2) are set at construction and are not fields, so
    equality and hashing stay by (radius, m, rule).  Nodes are exactly
    symmetric under negation (midpoint nodes are signed multiples of the step;
    Gauss-Legendre nodes are explicitly antisymmetrized), as parity relies on.
    """

    _FIELDS = ("radius", "m", "rule")

    def __init__(self, radius: float, m: int, rule: str = "midpoint"):
        if m <= 0:
            raise ValueError("need at least one node per axis")
        if not (math.isfinite(radius) and radius > 0):
            raise ValueError(f"the grid radius must be finite and positive, got {radius!r}")
        if rule == "midpoint":
            step = 2.0 * radius / m
            x = (np.arange(m) - (m - 1) / 2.0) * step
            w = np.full(m, step)
        elif rule == "gauss":
            x, w = _gauss_legendre(m)
            x = x * radius
            w = w * radius
        else:
            raise ValueError(f"unknown rule {rule!r}")
        x.flags.writeable = w.flags.writeable = False
        self._set(radius=radius, m=m, rule=rule, x=x, w=w, k=math.frexp(radius)[1],
                  upper=(m + 1) // 2)

    def nodes(self):
        """(a, b) as broadcastable factors, a an (m, 1) column and b a (1, m) row,
        whose row-major broadcast is the flattened node order; order is part of
        the contract.  The weights enter only through _vandermonde."""
        return self.x[:, None], self.x[None, :]


@functools.lru_cache(maxsize=16)
def _gauss_legendre(m: int):
    """Gauss-Legendre nodes and weights on [-1, 1], antisymmetrized and
    symmetrized exactly, as read-only arrays shared by every grid of size m."""
    x, w = np.polynomial.legendre.leggauss(m)
    x = (x - x[::-1]) / 2.0
    w = (w + w[::-1]) / 2.0
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _vandermonde(grid: QuadratureGrid, top: int):
    """(half, V): the weighted 1-d Vandermonde factor
    V[i, p] = w_i (x_i / 2^k)^p, p <= top, on the grid's nodes x_i and
    weights w_i, and its upper ceil(m/2) rows, the middle row of an odd grid
    at half weight: that row is its own mirror, so the lower half counts it
    again.  No power exceeds 1 in size (QuadratureGrid.k); unscaling is exact."""
    v = grid.w[:, None] * np.vander(np.ldexp(grid.x, -grid.k), top + 1, increasing=True)
    half = v[:grid.upper]
    if grid.m % 2:
        half = half.copy()
        half[-1] *= 0.5
    return half, v


@functools.lru_cache(maxsize=8)
def _node_envelope(key: tuple, grid: QuadratureGrid):
    """The upper ceil(m/2) rows of E, the Gaussian factor of the given key
    (TestFunction.key) at the image of every node of grid, read-only.  The
    nodes are exactly negation-symmetric and moment_map(-a, -b) is
    moment_map(a, b) bit for bit, so E[m-1-i, m-1-j] = E[i, j] exactly: the
    rows kept determine E, every contraction reads only them
    (_plane_moments), and the exp runs on half of E.  The bound holds the
    distinct (Gaussian, grid) pairs of a battery."""
    a, b = grid.nodes()
    e = _gaussian(*key, *moment_map(a[:grid.upper], b))
    e.flags.writeable = False
    return e


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
    center, s2 = f.key
    c_norm = math.sqrt(sum(t ** 2 for t in center))
    coeff_mass = [(abs(c), i + j + l) for i, j, l, c in f.terms]

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
def _weighted_monomials(degree: int) -> tuple:
    """((al, be, ga), 2 * multinomial) for each degree-d monomial in
    _monomials order, the weight a float, as _components reads them.  The
    bound holds the degrees of a battery."""
    return tuple(((al, be, ga), 2.0 * _multinomial(degree, al, be, ga))
                 for al, be, ga in _monomials(degree))


@functools.lru_cache(maxsize=8)
def _ad_matrix(z_label: str, degree: int) -> np.ndarray:
    """ad(H|X|Y) on degree-d monomials in (H, X, Y), the derivation with
    e_j -> -c e_i for each term (i, j, c) of _FLOWS, as a read-only float
    matrix.  Each term fills its entries in one step: the monomial
    (al, be, ga) has index al (d + 1) - al (al - 1) / 2 + be in _monomials
    order, and one term sends distinct columns to distinct rows.  The
    entries are small integers, exact in any order."""
    flow = _flow(z_label)
    monos = np.array(_monomials(degree)).reshape(-1, 3)
    cols = np.arange(len(monos))
    mat = np.zeros((len(monos), len(monos)))
    for i, j, c in flow:
        hit = monos[:, j] > 0
        target = monos[hit]
        target[:, j] -= 1
        target[:, i] += 1
        al, be = target[:, 0], target[:, 1]
        mat[al * (degree + 1) - al * (al - 1) // 2 + be, cols[hit]] -= c * monos[hit, j]
    mat.flags.writeable = False
    return mat


# The factor (s0, s1) that turns entry (p, q) of a half-plane contraction U
# into a moment over the whole plane, s0 for even p + q and s1 for odd: the
# lower rows add (-1)^(p+q) times the upper ones (_plane_moments).
_PLANE = (2.0, 0.0)         # 1 + (-1)^(p+q): every odd moment is 0 * U
_SIGN_A = (0.0, -2.0)       # (-1)^(p+q) - 1, the moments of sign(a): the upper rows are a < 0
_ABSOLUTE = (2.0, 2.0)      # under |.| the two halves are equal
_ONE = ((0, 0, 0, 1.0),)    # the float terms of the constant polynomial 1


@functools.lru_cache(maxsize=64)
def _plane_moments(key: tuple, grid: QuadratureGrid, top: int):
    """(U, k) with U[p][q] = sum_ij half_ip E_ij V_jq for p, q <= top, E the
    upper ceil(m/2) rows of the Gaussian factor of the given key
    (_node_envelope) and (half, V, k) from _vandermonde, as an
    immutable tuple of rows.  The lower rows add (-1)^(p+q) U, so the
    moments over the whole plane are (1 + (-1)^(p+q)) U (_PLANE).  The bound
    holds the distinct (Gaussian, grid, top) keys of a battery."""
    half, v = _vandermonde(grid, top)
    u = half.T @ _node_envelope(key, grid) @ v
    return tuple(map(tuple, u.tolist())), grid.k


def _components(moments, k: int, degree: int, terms, lead=(0, 0), parity=_PLANE) -> list:
    """Pairing components, one per degree-d monomial in _monomials order: the
    multinomial times 2 * the integral of lead * monomial * the polynomial of
    float terms (i, j, l, c) (TestFunction.terms) against the
    Gaussian whose half-plane contraction (U, k) is given, with
    lead = a^dp b^dq, entry (p, q) of U read as a moment over the whole
    plane by the factor parity[(p + q) % 2].  Under the moment map
    h^i x^j y^l is (-1)^(i+l) 2^-(i+j+l) a^(i+2j) b^(i+2l), so each component
    is a short sum over entries of U, rescaled by exact powers of two; only
    the entries read are rescaled, so none overflows."""
    dp, dq = lead
    out = []
    for (al, be, ga), weight in _weighted_monomials(degree):
        total = 0.0
        for i, j, l, c in terms:
            eh, ex, ey = al + i, be + j, ga + l
            p, q = eh + 2 * ex + dp, eh + 2 * ey + dq
            term = c * math.ldexp(parity[(p + q) % 2] * moments[p][q],
                                  k * (p + q) - eh - ex - ey)
            total += -term if (eh + ey) % 2 else term
        out.append(weight * total)
    return out


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
    if n < 0 or n % 2:
        raise ValueError(f"the seeded pairing requires an even n >= 0, got n={n}")
    d = n // 2
    moments, k = _plane_moments(f.key, grid, 2 * (d + f.degree))
    return np.array(_components(moments, k, d, f.terms))


def invariance_residual(n: int, z_label: str, f: TestFunction,
                        grid: QuadratureGrid) -> float:
    """Norm of  ad(Z) . P(f) - P(L_Z f)  with P the seeded pairing vector.

    Equivariance of the parametrized cone measure makes the two terms agree
    (the flow derivative transposes to its negative against the invariant
    density, which is where the relative sign comes from); the residual is
    pure quadrature error and must vanish under refinement.  f and L_Z f
    share their Gaussian factor, so both pairings read one set of moments.
    Odd n has no seeded pairing and is rejected.
    """
    if n < 0 or n % 2:
        raise ValueError(f"n={n} rejected: the equivariant seed only exists for even n >= 0")
    flow = lie_derivative(z_label, f)
    d = n // 2
    moments, k = _plane_moments(f.key, grid, 2 * (d + max(f.degree, flow.degree)))
    p_vec = np.array(_components(moments, k, d, f.terms))
    q_vec = np.array(_components(moments, k, d, flow.terms))
    return float(np.linalg.norm(_ad_matrix(z_label, d) @ p_vec - q_vec))


def odd_section_obstruction(n: int, f: TestFunction, grid: QuadratureGrid,
                            negative_control: bool = False) -> float:
    """Norm of the pairing 2 * integral of (v tensor image^{(n-1)/2}) f.

    The integrand is exactly odd under the deck transformation v -> -v while
    the image point is even, so it reads only odd moments, each exactly
    0 * U (_PLANE): the numeric shadow of the missing global section over
    the half-cone for odd n.  With negative_control=True the first factor v
    is replaced by |a| times the first basis vector, which breaks the parity
    and must produce a visibly nonzero value; it reads the same U, signed
    by sign(a) (_SIGN_A).
    """
    if n < 0 or n % 2 == 0:
        raise ValueError(f"n={n} rejected: the obstruction pairing is for odd n >= 1")
    d = (n - 1) // 2
    moments, k = _plane_moments(f.key, grid, 2 * (d + f.degree) + 1)
    if negative_control:
        # sign(a) a^(p+1) = |a| a^p: the moment of sign(a) at p + 1 is the
        # moment of |a| a^p, read under the lead a
        leads, parity = [(1, 0)], _SIGN_A
    else:
        leads, parity = [(1, 0), (0, 1)], _PLANE
    return _norm(c for lead in leads for c in _components(moments, k, d, f.terms, lead, parity))


@functools.lru_cache(maxsize=2)
def _abs_upper_values(f: TestFunction, grid: QuadratureGrid):
    """|f| at the image of every node on the upper ceil(m/2) rows, read-only:
    the array odd_section_scale contracts, the same for every n.  The bound
    holds the (f, grid) pairs of one battery."""
    a, b = grid.nodes()
    values = np.abs(_poly_value(f.terms, *moment_map(a[:grid.upper], b))
                    * _node_envelope(f.key, grid))
    values.flags.writeable = False
    return values


def odd_section_scale(n: int, f: TestFunction, grid: QuadratureGrid) -> float:
    """Companion magnitude for the obstruction: same pairing with absolute
    values everywhere, for forming relative residuals.  |f| is not a
    polynomial times a Gaussian, so it is evaluated on the upper ceil(m/2)
    rows (_abs_upper_values) and contracted as one array against the same
    rows of |V| and all of |V|; under |.| the lower rows add the same again
    (_ABSOLUTE).  Each component is then a single moment, whose sign the
    norm drops, as |h| and |y| would."""
    if n < 0 or n % 2 == 0:
        raise ValueError(f"n={n} rejected: the obstruction scale is for odd n >= 1")
    d = (n - 1) // 2
    half, v = _vandermonde(grid, 2 * d + 1)
    moments = (np.abs(half).T @ _abs_upper_values(f, grid) @ np.abs(v)).tolist()
    return _norm(c for lead in ((1, 0), (0, 1))
                 for c in _components(moments, grid.k, d, _ONE, lead, _ABSOLUTE))


# ---------------------------------------------------------------------------
# the numcheck batteries: each returns its command's record, ending in a
# PASS/FAIL verdict against the thresholds below

INVARIANCE_TOL = 1e-6   # relative invariance residual at the finest grid
ROUNDOFF = 1e-12        # relative size below which a quantity is roundoff
CONTROL_MIN = 1e-3      # the parity-broken negative control must stay above this
ROUTES_TOL = 1e-9       # relative gap between the midpoint and Gauss-Legendre pairings
_RADIUS = 6.0           # grid radius, in Gaussian widths
SIGMA_WINDOW = (1e-3, 1e3)  # accepted widths; far outside, sigma^2 under- or overflows


def _tail_gate(func: TestFunction, quad: QuadratureGrid, sigma: float, tol: float):
    """(base, tail): the plain pairing of func on quad and its tail bound;
    a width whose tail bound is not below tol times the pairing is rejected.
    When both are 0, nothing lies outside the square and the grid's nodes
    miss the Gaussian: the grid is too coarse, not the width too small."""
    base = pair_delta_nplus(func, quad)
    tail = tail_bound(func, quad)
    if not base and not tail:
        raise ValueError(f"the pairing is 0 on the {quad.m} x {quad.m} grid at sigma={sigma:g}: "
                         f"its nodes miss the Gaussian; use a finer grid")
    if not tail < tol * abs(base):
        raise ValueError(f"the tail bound {tail:.3e} at sigma={sigma:g} is not below "
                         f"{tol:g} times the pairing {base:.3e}; use a larger sigma")
    return base, tail


def invariance_report(n: int, grid: int, sigma: float) -> dict:
    """Relative invariance residuals of the seeded pairing against a Gaussian
    centred at x = 3, for H, X and Y on m x m grids, m = grid/4, grid/2 and
    grid (at least 8); PASS when the worst residual at m = grid is below
    INVARIANCE_TOL.  Even n only, and grid at least 8, so that the verdict
    row is the finest.  A pairing that is 0 on some grid leaves the
    residuals without a scale and is rejected, and so is a width whose
    grid square cuts off the Gaussian: the tail bound must be below
    INVARIANCE_TOL times the plain pairing on the finest grid."""
    if n % 2:
        raise ValueError("invariance checks need even n")
    if grid < 8:
        raise ValueError(f"invariance checks need a grid of at least 8 nodes per axis, got {grid}")
    func = TestFunction.gaussian(center=(0, 3, 0), sigma=sigma)
    radius = _RADIUS * sigma
    _tail_gate(func, QuadratureGrid(radius, grid), sigma, INVARIANCE_TOL)
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
    Odd n only.  A scale of 0 leaves the obstruction nothing to be
    relative to and is rejected."""
    if n % 2 == 0:
        raise ValueError("obstruction checks need odd n")
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
    ROUTES_TOL, and unless the Gauss-Legendre pairing of the Casimir image
    moves by less than ROUTES_TOL when its grid is refined by a quarter:
    a grid too coarse for the width cannot tell them apart either."""
    func = TestFunction.gaussian(center=(0, 1, 0), sigma=sigma)
    grid_mid = QuadratureGrid(_RADIUS * sigma, grid, "midpoint")
    base, tail = _tail_gate(func, grid_mid, sigma, ROUNDOFF)
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
    finer = QuadratureGrid(grid_gauss.radius, grid_gauss.m + grid_gauss.m // 4, "gauss")
    route_c = pair_delta_nplus(casimired, finer)
    refinement = abs(route_b - route_c) / max(abs(route_b), abs(route_c), 1e-30)
    if not refinement < ROUTES_TOL:
        raise ValueError(f"the {grid} x {grid} grid is too coarse at sigma={sigma:g}: the "
                         f"Gauss-Legendre pairings of the Casimir image on {grid_gauss.m} and "
                         f"{finer.m} nodes per axis differ by {refinement:.3e} of the larger, "
                         f"not below {ROUTES_TOL:g}; use a finer grid")
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
