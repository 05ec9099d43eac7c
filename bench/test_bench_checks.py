"""The benchmark's own tests: no check is vacuous.

Each checker first accepts a real answer of the engine, then rejects the
same answer with one deliberate fault in it.  The last tests cover the
tracer's bookkeeping and the distinctness of the local_fresh stream.
"""

import contextlib
import copy
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402
from nilcone import cli, solver  # noqa: E402


def terms(dists):
    return [dict(d.terms) for d in dists]


def cli_record(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv + ["--format", "json"])
    return rc, json.loads(buf.getvalue())


# -- local theorem -------------------------------------------------------------


@pytest.mark.parametrize("n,K", [(4, 3), (5, 4)])
def test_kernel_check_rejects_a_wrong_basis_count(n, K):
    basis = terms(solver.kernel_basis(n, K))
    checks.check_kernel(n, K, basis)
    with pytest.raises(CheckError, match="elements"):
        checks.check_kernel(n, K, basis[:-1])


def test_kernel_check_rejects_a_nonzero_ladder_defect():
    n, K = 4, 3
    basis = terms(solver.kernel_basis(n, K))
    i, k = next(key for key in basis[1] if key[0] < n)
    basis[1][(i, k)] += 1
    with pytest.raises(CheckError, match="defect"):
        checks.check_kernel(n, K, basis)


def test_kernel_check_rejects_tops_that_are_not_the_identity():
    n, K = 6, 2
    basis = terms(solver.kernel_basis(n, K))
    swapped = [basis[1], basis[0]] + basis[2:]
    with pytest.raises(CheckError, match="identity"):
        checks.check_kernel(n, K, swapped)


def test_orbit_check_rejects_a_wrong_top_coefficient():
    n, K = 5, 2
    orbit = terms(solver.casimir_orbit(n, K))
    checks.check_orbit(n, K, orbit)
    doubled = orbit[:1] + [{key: 2 * c for key, c in orbit[1].items()}] + orbit[2:]
    with pytest.raises(CheckError, match="top coefficient"):
        checks.check_orbit(n, K, doubled)
    with pytest.raises(CheckError, match="length"):
        checks.check_orbit(n, K, orbit[:-1])


def test_change_of_basis_check_rejects_a_wrong_diagonal_product():
    n, K = 6, 3
    matrix = [list(row) for row in solver.change_of_basis(n, K)]
    checks.check_change_of_basis(n, K, matrix)
    bad = copy.deepcopy(matrix)
    bad[2][2] += 1
    with pytest.raises(CheckError, match="diagonal"):
        checks.check_change_of_basis(n, K, bad)
    bad = copy.deepcopy(matrix)
    bad[2][1] = Fraction(1)
    with pytest.raises(CheckError, match="below"):
        checks.check_change_of_basis(n, K, bad)


def test_solution_check_rejects_a_wrong_count_and_a_non_solution():
    n, K = 7, 5
    lower = (Fraction(0), Fraction(-3, 2))          # p = t^2 - 3/2 t, valuation 1
    sols = terms(solver.solve_polynomial(n, solver.CasimirPolynomial(lower), K))
    assert sols
    checks.check_solutions(n, lower, K, sols)
    with pytest.raises(CheckError, match="solutions"):
        checks.check_solutions(n, lower, K, sols[:-1])
    outsider = terms(solver.kernel_basis(n, K))[0]   # invariant, but p does not kill it
    with pytest.raises(CheckError, match="annihilate"):
        checks.check_solutions(n, lower, K, sols[:-1] + [outsider])


def test_own_casimir_agrees_with_the_closed_form_orbit_tops():
    n = 9
    psi = {(n, 0): Fraction(1)}
    for k in range(1, (n + 1) // 2):
        psi = checks.radial_casimir(n, psi)
        assert checks.top_coefficients(n, psi)[k] == checks.orbit_top(n, k)
    assert not checks.radial_casimir(n, psi)        # odd n: the orbit dies


# -- global theorem ------------------------------------------------------------


def test_classify_check_rejects_a_wrong_graded_dimension():
    rc, record = cli_record(["classify", "--n", "2", "--max-degree", "8"])
    checks.check_classify(2, True, True, True, 8, rc, record)
    bad = copy.deepcopy(record)
    bad["answer"]["supp0_graded_dims"][3] += 1
    with pytest.raises(CheckError, match="graded"):
        checks.check_classify(2, True, True, True, 8, rc, bad)
    bad = copy.deepcopy(record)
    bad["answer"]["half_cone_generators"]["minus"] = "zero"
    with pytest.raises(CheckError, match="half-cone"):
        checks.check_classify(2, True, True, True, 8, rc, bad)
    bad = copy.deepcopy(record)
    bad["answer"]["realizable"] = False
    with pytest.raises(CheckError, match="realiz"):
        checks.check_classify(2, True, True, True, 8, rc, bad)
    with pytest.raises(CheckError, match="exit code"):
        checks.check_classify(2, True, True, True, 8, 2, record)


def test_supp0_check_rejects_a_wrong_graded_dimension():
    rc, record = cli_record(["supp0-dims", "--n", "4", "--max-degree", "10"])
    checks.check_supp0(4, 10, rc, record)
    record["graded_dims"][2] = 0
    with pytest.raises(CheckError, match="graded"):
        checks.check_supp0(4, 10, rc, record)


def test_irrep_check_rejects_a_wrong_matrix_and_casimir():
    rc, record = cli_record(["irrep", "--n", "3"])
    checks.check_irrep(3, rc, record)
    bad = copy.deepcopy(record)
    bad["rho_y"][0][1] = "2"
    with pytest.raises(CheckError, match="rho_y"):
        checks.check_irrep(3, rc, bad)
    bad = copy.deepcopy(record)
    bad["casimir_scalar"] = "15/4"
    with pytest.raises(CheckError, match="Casimir"):
        checks.check_irrep(3, rc, bad)


# -- quadrature -----------------------------------------------------------------


def test_pairing_check_rejects_an_error_of_one_in_a_million():
    exact = checks.gaussian_pairing(0.8)
    checks.check_gaussian_pairing(0.8, 128, exact * (1 + 1e-13))
    with pytest.raises(CheckError, match="closed form"):
        checks.check_gaussian_pairing(0.8, 128, exact * (1 + 1e-6))
    checks.check_routes(128, exact, exact * (1 + 1e-12))
    with pytest.raises(CheckError, match="gap"):
        checks.check_routes(128, exact, exact * (1 + 1e-6))


def test_gaussian_pairing_closed_form_matches_the_oracle():
    from nilcone import oracle
    f = oracle.TestFunction.gaussian(center=(0, 0, 0), sigma=0.9)
    value = oracle.pair_delta_nplus(f, oracle.QuadratureGrid(5.4, 128))
    checks.check_gaussian_pairing(0.9, 128, value)


def test_invariance_obstruction_and_tail_checks_reject_faults():
    checks.check_invariance(2, "H", [1e-3, 1e-9, 1e-15, 3e-15])
    with pytest.raises(CheckError, match="finest"):
        checks.check_invariance(2, "H", [1e-3, 1e-5, 2e-6])
    with pytest.raises(CheckError, match="grew"):
        checks.check_invariance(2, "H", [1e-9, 1e-8, 1e-7])
    checks.check_obstruction(3, 64, 0.0, 0.5, 1.0)
    with pytest.raises(CheckError, match="relative value"):
        checks.check_obstruction(3, 64, 1e-6, 0.5, 1.0)
    with pytest.raises(CheckError, match="negative control"):
        checks.check_obstruction(3, 64, 0.0, 1e-6, 1.0)
    checks.check_tail(128, 1e-40, 2.0)
    with pytest.raises(CheckError, match="tail"):
        checks.check_tail(128, 1e-6, 2.0)


# -- tracer and stream -----------------------------------------------------------


def test_tracer_restores_every_name_and_accounts_for_all_time():
    import nilcone.transversal as transversal
    originals = (solver.kernel_basis, transversal.equivariance_defect,
                 solver.equivariance_defect, transversal.TransversalDist.__add__)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert solver.equivariance_defect is transversal.equivariance_defect
        assert solver.equivariance_defect is not originals[1]
        started = tracer.now()
        basis = solver.kernel_basis(4, 3)
        loop = tracer.now() - started
    finally:
        tracer.remove()
    assert (solver.kernel_basis, transversal.equivariance_defect,
            solver.equivariance_defect, transversal.TransversalDist.__add__) == originals
    assert len(basis) == 4
    assert tracer.counts["solver.nullspace_cols"] == 5 * 4
    assert tracer.counts["solver.basis_elements"] == 4
    assert tracer.calls["transversal"] > 0 and tracer.self_s["transversal"] > 0
    assert all(v >= 0 for v in tracer.self_s.values())
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.root_s, rel=1e-9)
    assert 0 <= loop - tracer.root_s < 0.01


def test_local_fresh_stream_never_repeats_a_query_shape():
    seen = set()
    for r in range(2 * workloads.K_EPOCH):
        for kind_index in range(len(workloads.LOCAL_KINDS)):
            for n_index in range(len(workloads.LOCAL_N)):
                key = (kind_index, n_index, workloads.local_shape(r, kind_index, n_index))
                assert key not in seen
                assert key[2] >= 1                  # the warm-up round uses K = 0
                seen.add(key)


def test_run_prints_exactly_the_metrics_benchmark_json_names():
    import run
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    tracer = tracing.Tracer()
    tracer.self_s["oracle"] = 1.0
    setup = [(0.2, 0.1, 120, 1, 0.002)]
    layer = run.per_layer(tracer, 10, 1.0, 2.0, 10, 1.0, 500, setup)
    assert {k: u for k, (_, u) in layer.items()} == {m["name"]: m["unit"]
                                                      for m in spec["per_layer"]}
    loop = run.Loop()
    loop.times.extend(0.01 * (1 + i % 7) for i in range(120))
    loop.round_ends.extend([60, 120])
    loop.probe_marks.extend([60, 120])
    loop.probe_s.extend([0.002, 0.002])
    e2e = run.end_to_end(loop, setup, "python")
    assert {k: u for k, (_, u) in e2e.items()} == {m["name"]: m["unit"]
                                                    for m in spec["end_to_end"]}


def test_query_times_scale_with_the_probes_around_them():
    import hostspeed
    nominal = hostspeed.NOMINAL["python"]
    marks, values = [10] * 5 + [20] * 5, [nominal] * 5 + [2 * nominal] * 5
    times = hostspeed.scaled([0.1] * 20, marks, values, "python")
    assert times[0] == pytest.approx(0.1)           # quiet host: unchanged
    assert times[-1] == pytest.approx(0.05)         # host twice as slow: halved
