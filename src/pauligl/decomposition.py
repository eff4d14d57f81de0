"""Bijection between dense 2^m x 2^m matrices and sparse basis coefficients.

Every 2^m x 2^m complex matrix A has a unique expansion over the tensor-product
generator basis; the coefficient attached to a multi-index is

    c(idx) = 2^-m * Tr(basis_element(idx) @ A).

``decompose`` evaluates this with a factorized transform (one 4x4 mixing pass
per tensor factor, O(m * 4^m) total).
"""

from __future__ import annotations

from types import MappingProxyType

import numpy as np

from .algebra import (_checked_integer, code_digits, distinct_codes, pack_index,
                      pauli_matrix, validate_multi_index)
from .errors import DimensionError, DomainError

__all__ = [
    "DEFAULT_PRUNE_TOL",
    "MAX_ORDER",
    "MAX_DENSE_BYTES",
    "CoefficientTensor",
    "decompose",
    "reconstruct",
    "coeff_distance",
]

#: Coefficients with modulus <= this are dropped from canonical sparse form.
DEFAULT_PRUNE_TOL = 1e-12

#: Largest tensor order: a multi-index packs into one 64-bit code.
MAX_ORDER = 32

#: Largest dense (4,)*m complex array ``reconstruct`` allocates (m <= 12).
MAX_DENSE_BYTES = 1 << 28


def _checked_tol(tol: float) -> float:
    # written so that NaN fails too
    if not tol >= 0:
        raise DomainError(f"prune tolerance must be >= 0, got {tol}")
    return tol


def _kept(values: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the coefficients that survive pruning: modulus > tol."""
    # np.hypot is the modulus Python's abs(complex) computes; a modulus
    # that overflows is inf, which is kept, so its warning says nothing
    with np.errstate(over="ignore"):
        return np.hypot(values.real, values.imag) > tol


def _checked_order(m) -> int:
    m = _checked_integer(m, "tensor order")
    if m < 1:
        raise DimensionError(f"tensor order must be >= 1, got {m}")
    if m > MAX_ORDER:
        raise DimensionError(f"tensor order must be <= {MAX_ORDER}, got {m}")
    return m


def _check_dense_size(m: int) -> None:
    nbytes = 16 * 4 ** m
    if nbytes > MAX_DENSE_BYTES:
        raise DimensionError(
            f"a dense order-{m} array needs {nbytes} bytes, above the "
            f"{MAX_DENSE_BYTES}-byte limit")


def _checked_index(idx, m: int) -> tuple[int, ...]:
    idx = validate_multi_index(idx)
    if len(idx) != m:
        raise DimensionError(
            f"multi-index {idx} has {len(idx)} factors, expected {m}")
    return idx


class CoefficientTensor:
    """Sparse coefficients of one matrix over the generator basis.

    Stored as two parallel read-only arrays: ``codes`` (uint64, strictly
    increasing) holds the packed multi-index of each stored term (see
    ``pauligl.algebra``) and ``values`` (complex128) its coefficient.
    Construction canonicalizes: indices are validated, non-finite values
    are refused, entries with modulus <= tol are dropped, and survivors are
    sorted, which is lexicographic index order.  Nothing else is stored:
    ``coeffs`` builds a read-only mapping from multi-index tuples to
    coefficients on each access, and ``coeff`` binary-searches ``codes``.
    Instances are immutable.
    """

    __slots__ = ("m", "codes", "values")

    def __init__(self, m: int, coeffs=None, *, tol: float = DEFAULT_PRUNE_TOL):
        m = _checked_order(m)
        _checked_tol(tol)
        items = coeffs.items() if hasattr(coeffs, "items") else (coeffs or ())
        entries = {pack_index(_checked_index(idx, m)): complex(value)
                   for idx, value in items}
        self._assign(m, np.fromiter(entries, np.uint64, len(entries)),
                     np.fromiter(entries.values(), complex, len(entries)), tol)

    @classmethod
    def _from_codes(cls, m: int, codes: np.ndarray, values: np.ndarray,
                    tol: float) -> "CoefficientTensor":
        """Build from distinct in-range uint64 codes and their values, any order."""
        out = cls.__new__(cls)
        out._assign(_checked_order(m), codes, values, _checked_tol(tol))
        return out

    def _assign(self, m, codes, values, tol) -> None:
        finite = np.isfinite(values)
        if not finite.all():
            bad = tuple(code_digits(codes[~finite][:1], m)[0].tolist())
            raise DomainError(f"non-finite coefficient at {bad}")
        if np.any(codes[1:] <= codes[:-1]):
            order = np.argsort(codes)
            codes, values = codes[order], values[order]
        keep = _kept(values, tol)
        if not keep.all():
            codes, values = codes[keep], values[keep]
        codes.flags.writeable = False
        values.flags.writeable = False
        self.m, self.codes, self.values = m, codes, values

    @property
    def coeffs(self) -> MappingProxyType:
        """Read-only mapping: multi-index tuple -> coefficient, in index order."""
        keys = map(tuple, code_digits(self.codes, self.m).tolist())
        return MappingProxyType(dict(zip(keys, self.values.tolist())))

    def coeff(self, idx) -> complex:
        """Coefficient at a multi-index; 0 where nothing is stored."""
        # a Python-int key would make numpy convert the whole code array
        code = np.uint64(pack_index(_checked_index(idx, self.m)))
        pos = int(np.searchsorted(self.codes, code))
        if pos < len(self.codes) and self.codes[pos] == code:
            return complex(self.values[pos])
        return 0j

    def __len__(self) -> int:
        return len(self.codes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoefficientTensor):
            return NotImplemented
        return (self.m == other.m and np.array_equal(self.codes, other.codes)
                and np.array_equal(self.values, other.values))

    def __repr__(self) -> str:
        return f"CoefficientTensor(m={self.m}, nnz={len(self.codes)})"


def _coeff_matrix(c: CoefficientTensor) -> np.ndarray:
    """The 16 coefficients of an order-2 tensor as a 4x4 array indexed by digits."""
    if c.m != 2:
        raise DimensionError(f"closed form requires tensor order 2, got {c.m}")
    t = np.zeros(16, dtype=complex)
    t[c.codes] = c.values
    return t.reshape(4, 4)


def coeff_distance(a: CoefficientTensor, b: CoefficientTensor) -> float:
    """Max absolute coefficient difference over the union of supports."""
    if a.m != b.m:
        raise DimensionError(f"tensor orders differ: {a.m} vs {b.m}")
    codes = distinct_codes(np.concatenate([a.codes, b.codes]))
    diff = np.zeros(len(codes), dtype=complex)
    diff[np.searchsorted(codes, a.codes)] = a.values
    # a difference or modulus past the largest float is inf, as it should be
    with np.errstate(over="ignore"):
        diff[np.searchsorted(codes, b.codes)] -= b.values
        return float(np.hypot(diff.real, diff.imag).max(initial=0.0))


def _order_of(side: int) -> int:
    m = side.bit_length() - 1
    if side < 2 or 2 ** m != side:
        raise DimensionError(
            f"matrix side must be a power of two >= 2, got {side}")
    return m


def _as_square(matrix) -> np.ndarray:
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    return a


# 4x4 mixing matrices for one tensor factor.  Entry pairs (r, s) of a 2x2
# block are flattened to p = 2r + s.
#   forward:  c[mu] = sum_p FORWARD[mu, p] * block[p]   (trace formula)
#   inverse:  block[p] = sum_mu INVERSE[p, mu] * c[mu]
def _mixing_matrices() -> tuple[np.ndarray, np.ndarray]:
    forward = np.zeros((4, 4), dtype=complex)
    inverse = np.zeros((4, 4), dtype=complex)
    for mu in range(4):
        g = pauli_matrix(mu)
        for r in range(2):
            for s in range(2):
                forward[mu, 2 * r + s] = g[s, r] / 2
                inverse[2 * r + s, mu] = g[r, s]
    return forward, inverse


_FORWARD, _INVERSE = _mixing_matrices()


def _interleaved(matrix: np.ndarray, m: int) -> np.ndarray:
    # (2^m, 2^m) -> (4,)*m with axis k the flattened (row_k, col_k) pair
    t = matrix.reshape((2,) * (2 * m))
    perm = [ax for k in range(m) for ax in (k, m + k)]
    return t.transpose(perm).reshape((4,) * m)


def _deinterleaved(tensor: np.ndarray, m: int) -> np.ndarray:
    t = tensor.reshape((2,) * (2 * m))
    perm = [2 * k for k in range(m)] + [2 * k + 1 for k in range(m)]
    return t.transpose(perm).reshape((2 ** m, 2 ** m))


def _apply_along_each_axis(tensor: np.ndarray, mix: np.ndarray, m: int) -> np.ndarray:
    # Each pass mixes the leading axis and moves it to the back: t.T @ mix.T
    # is (mix @ t).T, written C-contiguous, so the reshape is a view.  After m
    # passes every axis has been mixed once and the order is restored.
    t = tensor.reshape(4, -1)
    for _ in range(m):
        t = (t.T @ mix.T).reshape(4, -1)
    return t.reshape((4,) * m)


def coefficient_array(matrix) -> np.ndarray:
    """Dense (4,)*m array of all basis coefficients of a 2^m x 2^m matrix."""
    a = _as_square(matrix)
    m = _order_of(a.shape[0])
    return _apply_along_each_axis(_interleaved(a, m), _FORWARD, m)


def decompose(matrix, tol: float = DEFAULT_PRUNE_TOL) -> CoefficientTensor:
    """Expand a dense matrix into sparse basis coefficients.

    The side must be a power of two >= 2.  Coefficients with modulus <= tol
    are omitted; ``reconstruct`` inverts the result up to tol.  A non-finite
    coefficient (from a non-finite or overflowing entry) raises DomainError.
    """
    _checked_tol(tol)
    with np.errstate(over="ignore", invalid="ignore"):
        c = coefficient_array(matrix)
    flat = c.reshape(-1)
    if not np.isfinite(flat).all():
        raise DomainError("non-finite coefficient: the matrix has a "
                          "non-finite or overflowing entry")
    # flat positions of the (4,)*m array are the codes
    keep = np.flatnonzero(_kept(flat, tol))
    return CoefficientTensor._from_codes(c.ndim, keep.astype(np.uint64),
                                         flat[keep], 0.0)


def reconstruct(c: CoefficientTensor) -> np.ndarray:
    """Dense matrix equal to the coefficient-weighted sum of basis elements.

    Raises DimensionError when the dense array would exceed MAX_DENSE_BYTES,
    and DomainError when a sum overflows to a non-finite entry.
    """
    _check_dense_size(c.m)
    dense = np.zeros(4 ** c.m, dtype=complex)
    dense[c.codes] = c.values
    dense = dense.reshape((4,) * c.m)
    # a sum past the largest float is inf (or nan), which is rejected below;
    # numpy's warning would only echo that to stderr
    with np.errstate(over="ignore", invalid="ignore"):
        dense = _apply_along_each_axis(dense, _INVERSE, c.m)
    if not np.isfinite(dense).all():
        raise DomainError("non-finite matrix entry: a sum of coefficients "
                          "overflows")
    return _deinterleaved(dense, c.m)
