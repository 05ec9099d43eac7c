"""The three workloads: seeded query streams and the checks on their answers.

A workload is an endless stream of rounds.  A round is a list of queries,
each a zero-argument call into the program plus a check of its answer; a
round may end with a check across its queries.  The runner times only the
calls, runs the checks between them, and stops after the round during
which the timed calls passed the run length, so every run attempts whole
rounds and every round has the same make-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count, product
from typing import Callable

import checks


@dataclass
class Query:
    kind: str
    tags: tuple                      # (n, K, degree) or whatever sizes the kind has
    call: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Round:
    queries: list
    close: Callable[[], None] = field(default=lambda: None)


def _terms(dists) -> list:
    return [dist.terms for dist in dists]


# ---------------------------------------------------------------------------
# local_fresh: distinct local-theorem queries over a range of n and K

LOCAL_N = tuple(range(2, 14))
LOCAL_KINDS = ("kernel_basis", "casimir_orbit", "solve_polynomial", "change_of_basis")
K_EPOCH = 32               # K values 1..32 per epoch; later epochs move up by 32
K_BLOCKS = 4               # blocks of 8 rounds; a block's K share one residue mod 4
K_ORDER = (0, 4, 2, 6, 1, 5, 3, 7)    # spread-out visiting order within a block


def local_shape(r: int, kind_index: int, n_index: int) -> int:
    """K of one query in round r.

    An epoch is 32 rounds in 4 blocks of 8.  In block b, a (kind, n) takes
    the 8 K values of residue (b + kind_index + n_index) mod 4, one per
    round, so over the epoch it takes each K in 1..32 once.  The residue
    rotates with (kind, n), so every round mixes all four residues and the
    spread of small and large K, and a later block asks for no larger K
    than an earlier one.  A (kind, n, K) comes back in no later round.  A
    30 s run of the seed engine covers 11 to 19 rounds; a faster engine
    that gets past the epoch meets larger K, so the stream never repeats a
    query.
    """
    epoch, q = divmod(r, K_EPOCH)
    block, pos = divmod(q, K_EPOCH // K_BLOCKS)
    # Consecutive positions alternate between small and large K.  Even n cost
    # far more than odd n, so each parity gets its own run of positions, and
    # the kinds at one n take consecutive positions too.
    j = K_ORDER[(pos + n_index // 2 + 4 * (n_index % 2) + kind_index) % len(K_ORDER)]
    return epoch * K_EPOCH + 1 + (block + kind_index + n_index) % K_BLOCKS + K_BLOCKS * j


def random_monic(rng: random.Random, degree: int) -> tuple:
    """Lower coefficients of a monic rational p of the given degree.

    The valuation is drawn first, since it decides how many solutions exist
    for odd n; coefficients above it are small rationals, some zero.
    """
    valuation = rng.randint(0, degree)
    coeffs = [Fraction(0)] * degree
    for k in range(valuation, degree):
        if k == valuation or rng.random() < 0.75:
            num = rng.choice([v for v in range(-9, 10) if v])
            coeffs[k] = Fraction(num, rng.randint(1, 6))
    return tuple(coeffs)


class LocalFresh:
    entry = "nilcone.solver"
    probe = "python"

    def __init__(self):
        from nilcone import solver
        self.solver = solver

    def _query(self, kind: str, n: int, K: int, degree: int, rng) -> Query:
        solver = self.solver
        if kind == "kernel_basis":
            return Query(kind, (n, K, 0), lambda: solver.kernel_basis(n, K),
                         lambda out: checks.check_kernel(n, K, _terms(out)))
        if kind == "casimir_orbit":
            return Query(kind, (n, K, 0), lambda: solver.casimir_orbit(n, K),
                         lambda out: checks.check_orbit(n, K, _terms(out)))
        if kind == "change_of_basis":
            return Query(kind, (n, K, 0), lambda: solver.change_of_basis(n, K),
                         lambda out: checks.check_change_of_basis(n, K, out))
        lower = random_monic(rng, degree)
        poly = solver.CasimirPolynomial(lower)
        return Query(kind, (n, K, degree), lambda: solver.solve_polynomial(n, poly, K),
                     lambda out: checks.check_solutions(n, lower, K, _terms(out)))

    def _round(self, rng, shape) -> Round:
        queries = []
        for kind_index, kind in enumerate(LOCAL_KINDS):
            for n_index, n in enumerate(LOCAL_N):
                if kind == "change_of_basis" and n % 2:
                    continue          # odd n: the orbit supports only K <= (n-1)/2
                K, degree = shape(kind_index, n_index)
                queries.append(self._query(kind, n, K, degree, rng))
        rng.shuffle(queries)
        return Round(queries)

    def warmup(self, seed: int) -> Round:
        """One round at K = 0, outside every round of the stream."""
        return self._round(random.Random(f"local_fresh-warmup-{seed}"),
                           lambda kind_index, n_index: (0, 1 + n_index % 3))

    def rounds(self, seed: int):
        rng = random.Random(f"local_fresh-{seed}")
        for r in count():
            yield self._round(rng, lambda kind_index, n_index, r=r: (
                local_shape(r, kind_index, n_index), 1 + (r + n_index) % 3))


# ---------------------------------------------------------------------------
# global_cli: the decision-table commands, in repeated passes

CLI_N = tuple(range(0, 6))
CLI_DEGREES = (4, 8, 12)
CLI_IRREP_N = tuple(range(0, 13))
FLAG_SETS = tuple(product((True, False), repeat=3))


def cli_commands() -> list:
    """(argv, check) for one pass: argv without --format, check(rc, record)."""
    out = []
    for n, flags, degree in product(CLI_N, FLAG_SETS, CLI_DEGREES):
        origin, plus, minus = flags
        argv = ["classify", "--n", str(n), "--max-degree", str(degree),
                "--origin" if origin else "--no-origin",
                "--nplus" if plus else "--no-nplus",
                "--nminus" if minus else "--no-nminus"]
        out.append((argv, (n, degree, flags), lambda rc, rec, n=n, f=flags, d=degree:
                    checks.check_classify(n, *f, d, rc, rec)))
    for n in CLI_N:
        out.append((["supp0-dims", "--n", str(n), "--max-degree", "12"], (n, 12, ()),
                    lambda rc, rec, n=n: checks.check_supp0(n, 12, rc, rec)))
    for n in CLI_IRREP_N:
        out.append((["irrep", "--n", str(n)], (n, 0, ()),
                    lambda rc, rec, n=n: checks.check_irrep(n, rc, rec)))
    return out


class GlobalCli:
    entry = "nilcone.cli"
    probe = "python"

    def __init__(self):
        from nilcone import cli
        self.cli = cli
        self.stdout_bytes = 0

    def _run(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(argv + ["--format", "json"])
        return rc, buf.getvalue()

    def _pass(self, rng) -> Round:
        queries = []
        for argv, tags, check in cli_commands():
            def verify(out, check=check):
                rc, text = out
                self.stdout_bytes += len(text.encode())
                check(rc, json.loads(text))
            queries.append(Query(argv[0], tags, lambda argv=argv: self._run(argv), verify))
        rng.shuffle(queries)
        return Round(queries)

    def warmup(self, seed: int) -> Round:
        return self._pass(random.Random(f"global_cli-warmup-{seed}"))

    def rounds(self, seed: int):
        rng = random.Random(f"global_cli-{seed}")
        while True:
            yield self._pass(rng)


# ---------------------------------------------------------------------------
# quadrature: the oracle battery

EVEN_N = (2, 4)
ODD_N = (1, 3, 5)
INVARIANCE_GRIDS = (32, 64, 96, 128)
ODD_GRIDS = (64, 128)
PAIRING_GRIDS = (128, 192)


class Quadrature:
    entry = "nilcone.oracle"
    probe = "numpy"

    def __init__(self):
        from nilcone import oracle
        self.oracle = oracle

    def _pass(self, rng) -> Round:
        """One battery at a seeded width sigma in [0.7, 1.0].

        The grid radius is 6 sigma, as in the command line; below sigma = 0.7
        that square cuts off the Gaussian centred at x = 3 and the invariance
        residual stalls near 1e-3.
        """
        o = self.oracle
        sigma = rng.uniform(0.7, 1.0)
        radius = 6.0 * sigma
        shifted = o.TestFunction.gaussian(center=(0, 3, 0), sigma=sigma)
        near = o.TestFunction.gaussian(center=(0, 1, 0), sigma=sigma)
        centred = o.TestFunction.gaussian(center=(0, 0, 0), sigma=sigma)
        image = near.casimir()
        got: dict = {}
        queries = []

        def add(kind, tags, call):
            def keep(out, key=(kind,) + tags):
                got[key] = out
            queries.append(Query(kind, tags, call, keep))

        for n, m in product(EVEN_N, INVARIANCE_GRIDS):
            grid = o.QuadratureGrid(radius, m)
            add("seed_pairing", (n, m), lambda n=n, g=grid: o.seed_pairing(n, shifted, g))
            for z in "HXY":
                add("invariance_residual", (n, m, z),
                    lambda n=n, z=z, g=grid: o.invariance_residual(n, z, shifted, g))
        for n, m in product(ODD_N, ODD_GRIDS):
            grid = o.QuadratureGrid(radius, m)
            add("odd_section_scale", (n, m), lambda n=n, g=grid: o.odd_section_scale(n, near, g))
            add("odd_section_obstruction", (n, m),
                lambda n=n, g=grid: o.odd_section_obstruction(n, near, g))
            add("odd_section_control", (n, m), lambda n=n, g=grid: o.odd_section_obstruction(
                n, near, g, negative_control=True))
        for m in PAIRING_GRIDS:
            mid = o.QuadratureGrid(radius, m, "midpoint")
            gauss = o.QuadratureGrid(radius, m * 3 // 4, "gauss")
            add("pair_centred", (m,), lambda g=mid: o.pair_delta_nplus(centred, g))
            add("pair_midpoint", (m,), lambda g=mid: o.pair_delta_nplus(image, g))
            add("pair_gauss", (m,), lambda g=gauss: o.pair_delta_nplus(image, g))
            add("tail_bound", (m,), lambda g=mid: o.tail_bound(centred, g))

        def close():
            for n in EVEN_N:
                for z in "HXY":
                    rel = []
                    for m in INVARIANCE_GRIDS:
                        pairing = got[("seed_pairing", n, m)]
                        scale = sum(float(v) * float(v) for v in pairing) ** 0.5
                        rel.append(got[("invariance_residual", n, m, z)] / scale)
                    checks.check_invariance(n, z, rel)
            for n, m in product(ODD_N, ODD_GRIDS):
                checks.check_obstruction(n, m, got[("odd_section_obstruction", n, m)],
                                         got[("odd_section_control", n, m)],
                                         got[("odd_section_scale", n, m)])
            for m in PAIRING_GRIDS:
                checks.check_gaussian_pairing(sigma, m, got[("pair_centred", m)])
                checks.check_routes(m, got[("pair_midpoint", m)], got[("pair_gauss", m)])
                checks.check_tail(m, got[("tail_bound", m)], got[("pair_centred", m)])

        rng.shuffle(queries)
        return Round(queries, close)

    def warmup(self, seed: int) -> Round:
        return self._pass(random.Random(f"quadrature-warmup-{seed}"))

    def rounds(self, seed: int):
        rng = random.Random(f"quadrature-{seed}")
        while True:
            yield self._pass(rng)


WORKLOADS = {"local_fresh": LocalFresh, "global_cli": GlobalCli, "quadrature": Quadrature}
