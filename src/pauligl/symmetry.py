"""Transpose action on coefficients, symmetry classification, q-vector maps.

Each basis element is either symmetric or antisymmetric under transposition:
three of the four generators are symmetric and the fourth (index 2) flips
sign, so a Kronecker basis element is antisymmetric exactly when it contains
an odd number of index-2 factors.  That makes the transpose a diagonal sign
mask in coefficient space and lets symmetric/antisymmetric projection act by
support filtering.  Transpose, classification, projection and the
antisymmetric-support check all read one mask, ``antisymmetric_mask``: the
parity of ``y_counts`` over the packed codes, tags masked off, so the check
reads a tensor and a whole stack alike.

For 4x4 antisymmetric matrices built from two real 3-vectors a and b (the
complex combination q = a + i*b), this module also provides the conversions
between the vector pair, the six antisymmetric basis coefficients, and the
dense bordered cross-product matrix.  The dense layout is pinned down by the
coefficient relations

    -i*a1 = A21 - A12    -i*a2 = -A20 - A23    -i*a3 = A02 + A32
      b1  = -A21 - A12     b2  = -A20 + A23      b3  = -A02 + A32

together with antisymmetry; the resulting upper-left 3x3 block acts as the
left cross product, X @ v = a x v.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import EPSILON, code_digits, pack_index, validate_multi_index, y_counts
from .decomposition import DEFAULT_PRUNE_TOL, CoefficientTensor, _Stack, _stack
from .errors import DimensionError, DomainError

__all__ = [
    "SymmetryKind",
    "QVector",
    "ANTISYMMETRIC_GL4_SUPPORT",
    "classify_basis",
    "antisymmetric_mask",
    "transpose_coeffs",
    "project",
    "coeffs_to_qvector",
    "qvector_to_coeffs",
    "qvector_to_dense",
    "REALNESS_TOL",
]

#: Absolute imaginary-part bound when extracting the real vectors a, b.
REALNESS_TOL = 1e-9


class SymmetryKind(enum.Enum):
    SYMMETRIC = "symmetric"
    ANTISYMMETRIC = "antisymmetric"


def classify_basis(idx) -> SymmetryKind:
    """Symmetry of one basis element: antisymmetric iff odd count of 2s."""
    idx = validate_multi_index(idx)
    if idx.count(2) % 2 == 1:
        return SymmetryKind.ANTISYMMETRIC
    return SymmetryKind.SYMMETRIC


#: The six order-2 basis indices whose elements are antisymmetric.
ANTISYMMETRIC_GL4_SUPPORT = frozenset(
    idx for idx in itertools.product(range(4), repeat=2)
    if classify_basis(idx) is SymmetryKind.ANTISYMMETRIC)


def _codes(support) -> np.ndarray:
    """Sorted uint64 codes of a set of multi-indices, which is index order."""
    return np.array(sorted(map(pack_index, support)), dtype=np.uint64)


_ANTISYM_GL4_CODES = _codes(ANTISYMMETRIC_GL4_SUPPORT)


def antisymmetric_mask(c: CoefficientTensor) -> np.ndarray:
    """``classify_basis`` of each stored term of a tensor or a stack: odd digit-2 count."""
    return (y_counts(c.codes & np.uint64((1 << 2 * c.m) - 1)) & 1).astype(bool)


def _check_antisym_gl4(c: CoefficientTensor, operand: str) -> None:
    """Refuse a tensor or a stack that is not of order 2 on the six
    antisymmetric indices, with an error that names it as ``operand`` and
    lists each outside index in stack order."""
    if c.m != 2:
        raise DimensionError(f"{operand} must have tensor order 2, got {c.m}")
    outside = c.codes[~antisymmetric_mask(c)]
    if len(outside):
        indices = list(map(tuple, code_digits(outside, 2).tolist()))
        raise DomainError(f"{operand} has support outside the six "
                          f"antisymmetric indices: {indices}")


def transpose_coeffs(c: CoefficientTensor) -> CoefficientTensor:
    """Coefficients of the transposed matrix: sign flip per index-2 factor.

    Exact involution; reconstruct(transpose_coeffs(c)) is the dense transpose.
    """
    return _transposed(_stack([c])).tensor()


def _transposed(stack: _Stack) -> _Stack:
    """``transpose_coeffs`` of each member; a sign flip keeps the values
    finite and nonzero and the codes in order, so nothing is rebuilt."""
    values = np.where(antisymmetric_mask(stack), -stack.values, stack.values)
    return _Stack(stack.m, stack.codes, values, stack.members)


def project(c: CoefficientTensor, kind: SymmetryKind) -> CoefficientTensor:
    """Keep exactly the coefficients whose basis element has the given symmetry.

    Equals the coefficients of (A + A^T)/2 (symmetric) or (A - A^T)/2
    (antisymmetric); the two projections sum back to c.  A subset of a
    canonical tensor is canonical, so nothing is rebuilt.
    """
    kind = SymmetryKind(kind)
    keep = antisymmetric_mask(c) == (kind is SymmetryKind.ANTISYMMETRIC)
    return _Stack(c.m, c.codes[keep], c.values[keep], 1).tensor()


@dataclass(frozen=True)
class QVector:
    """Real 3-vectors a and b encoding one 4x4 antisymmetric matrix."""

    a: tuple
    b: tuple

    def __post_init__(self):
        for name, vec in (("a", self.a), ("b", self.b)):
            # the + 0.0 folds IEEE negative zeros into plain zeros
            vec = tuple(float(x) + 0.0 for x in vec)
            if len(vec) != 3:
                raise DimensionError(f"{name} must have 3 components, got {len(vec)}")
            if not all(math.isfinite(x) for x in vec):
                raise DomainError(f"{name} has a non-finite component: {vec}")
            object.__setattr__(self, name, vec)


def _require_real(value: complex, what: str) -> float:
    if abs(value.imag) > REALNESS_TOL:
        raise DomainError(
            f"{what} = {value} is not real within {REALNESS_TOL:g}; "
            "coefficients do not arise from real vectors a, b")
    return value.real


def coeffs_to_qvector(c: CoefficientTensor) -> QVector:
    """Extract the real vectors a, b from antisymmetric-support coefficients.

    The six stored coefficients overdetermine nothing: the linear relations
    above are inverted directly.  Coefficient patterns that would force a or
    b off the real axis (beyond REALNESS_TOL) are rejected.
    """
    _check_antisym_gl4(c, "q-vector input")
    A = _stack([c]).dense().reshape(4, 4).tolist()
    a = (1j * (A[2][1] - A[1][2]),
         1j * (-A[2][0] - A[2][3]),
         1j * (A[0][2] + A[3][2]))
    b = (-A[2][1] - A[1][2],
         -A[2][0] + A[2][3],
         -A[0][2] + A[3][2])
    return QVector(
        tuple(_require_real(x, f"a{k + 1}") for k, x in enumerate(a)),
        tuple(_require_real(x, f"b{k + 1}") for k, x in enumerate(b)))


def qvector_to_coeffs(q: QVector, tol: float = DEFAULT_PRUNE_TOL) -> CoefficientTensor:
    """Left inverse of coeffs_to_qvector (solves the six relations pairwise)."""
    a1, a2, a3 = q.a
    b1, b2, b3 = q.b
    values = [
        (-1j * a3 - b3) / 2,  # (0, 2)
        (1j * a1 - b1) / 2,   # (1, 2)
        (1j * a2 - b2) / 2,   # (2, 0)
        (-1j * a1 - b1) / 2,  # (2, 1)
        (1j * a2 + b2) / 2,   # (2, 3)
        (-1j * a3 + b3) / 2,  # (3, 2)
    ]
    return CoefficientTensor._from_codes(2, _ANTISYM_GL4_CODES,
                                         np.array(values), tol)


def qvector_to_dense(q: QVector) -> np.ndarray:
    """Dense 4x4 antisymmetric matrix for the vector pair.

    Upper-left 3x3 block X satisfies X @ v = a x v; the fourth column is
    i*b over a zero diagonal entry, the fourth row its negative.
    """
    m = np.zeros((4, 4), dtype=complex)
    m[:3, :3] = np.einsum("ijk,j->ik", EPSILON, np.asarray(q.a, dtype=float))
    m[:3, 3] = 1j * np.asarray(q.b, dtype=float)
    m[3, :3] = -1j * np.asarray(q.b, dtype=float)
    return m
