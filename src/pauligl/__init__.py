"""Coefficient-space linear algebra over the tensor-product generator basis.

Matrices of side 2^m are represented by their (sparse) coefficients over the
m-fold Kronecker products of the four 2x2 generators.  Products of basis
elements are single phased basis elements, so matrix multiplication becomes
a bilinear combination driven by exact structure constants; transposition is
a sign mask; symmetry classes are support sets.  See the module docstrings
for the details of each layer.
"""

from .algebra import (EPSILON, Phase, ScaledMultiIndex, basis_element,
                      multi_product, pauli_matrix, single_product,
                      validate_multi_index)
from .composition import (ClosedFormReport, ComponentCheck, FamilyCheck,
                          TABULATED_ANTISYM_COMPONENTS, compose,
                          compose_antisym_gl4, compose_gl4, verify_closed_forms)
from .decomposition import (DEFAULT_PRUNE_TOL, CoefficientTensor,
                            coeff_distance, decompose, reconstruct)
from .errors import DimensionError, DomainError, FileFormatError
from .indexing import (BlockCuts, BlockLocal, Half, block_global_from_local,
                       block_local_from_global, lex_global_from_local,
                       lex_local_from_global)
from .symmetry import (ANTISYMMETRIC_GL4_SUPPORT, QVector, REALNESS_TOL,
                       SymmetryKind, classify_basis, coeffs_to_qvector,
                       project, qvector_to_coeffs, qvector_to_dense,
                       transpose_coeffs)
from .verify import SuiteResult, VerificationReport, run_verification

__version__ = "0.1.0"

__all__ = [
    "EPSILON",
    "Phase",
    "ScaledMultiIndex",
    "pauli_matrix",
    "single_product",
    "multi_product",
    "basis_element",
    "validate_multi_index",
    "DEFAULT_PRUNE_TOL",
    "CoefficientTensor",
    "decompose",
    "reconstruct",
    "coeff_distance",
    "compose",
    "compose_gl4",
    "compose_antisym_gl4",
    "verify_closed_forms",
    "ClosedFormReport",
    "FamilyCheck",
    "ComponentCheck",
    "TABULATED_ANTISYM_COMPONENTS",
    "SymmetryKind",
    "QVector",
    "REALNESS_TOL",
    "ANTISYMMETRIC_GL4_SUPPORT",
    "classify_basis",
    "transpose_coeffs",
    "project",
    "coeffs_to_qvector",
    "qvector_to_coeffs",
    "qvector_to_dense",
    "Half",
    "BlockCuts",
    "BlockLocal",
    "block_local_from_global",
    "block_global_from_local",
    "lex_global_from_local",
    "lex_local_from_global",
    "DimensionError",
    "DomainError",
    "FileFormatError",
    "SuiteResult",
    "VerificationReport",
    "run_verification",
]
