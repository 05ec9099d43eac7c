"""Exact engine for sl(2,R)-invariant distributions on the nilpotent cone.

Symbolic modules work over the rationals and assert identities with zero
tolerance; the oracle module re-derives a slice of the same facts in
floating point through quadrature against the parametrized cone measure.
"""

from .characters import (Character, adjoint_character, decompose_into_irreducibles,
                         invariant_dim, irrep_character, sym_power, sym_power_brute,
                         tensor_decompose)
from .oracle import (QuadratureGrid, TestFunction, invariance_residual, lie_derivative,
                     moment_map, odd_section_obstruction, odd_section_scale,
                     pair_delta_nplus, seed_pairing, tail_bound)
from .sl2 import (EndMatrix, Irrep, casimir_scalar, commutator, expected_casimir,
                  make_irrep)
from .solver import (CasimirPolynomial, GlobalQuery, casimir_orbit,
                     change_of_basis, classify_global, classify_square_finite_supported,
                     kernel_basis, predicted_kernel_dim, predicted_solve_dim,
                     solve_polynomial)
from .transversal import (TransversalDist, apply_endo, d_dy, delta_seed,
                          equivariance_defect, mul_y, radial_casimir, radial_mn)

__version__ = "0.1.0"

__all__ = [
    "Character", "adjoint_character", "decompose_into_irreducibles", "invariant_dim",
    "irrep_character", "sym_power", "sym_power_brute", "tensor_decompose",
    "QuadratureGrid", "TestFunction", "invariance_residual", "lie_derivative",
    "moment_map", "odd_section_obstruction", "odd_section_scale", "pair_delta_nplus",
    "seed_pairing", "tail_bound",
    "EndMatrix", "Irrep", "casimir_scalar", "commutator", "expected_casimir",
    "make_irrep",
    "CasimirPolynomial", "GlobalQuery", "casimir_orbit",
    "change_of_basis", "classify_global", "classify_square_finite_supported",
    "kernel_basis", "predicted_kernel_dim", "predicted_solve_dim", "solve_polynomial",
    "TransversalDist", "apply_endo", "d_dy", "delta_seed", "equivariance_defect",
    "mul_y", "radial_casimir", "radial_mn",
]
