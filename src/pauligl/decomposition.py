"""Bijection between dense 2^m x 2^m matrices and sparse basis coefficients.

Every 2^m x 2^m complex matrix A has a unique expansion over the tensor-product
generator basis; the coefficient attached to a multi-index is

    c(idx) = 2^-m * Tr(basis_element(idx) @ A).

``decompose`` evaluates this with a factorized transform (one 4x4 mixing pass
per tensor factor, O(m * 4^m) total).  The transform and the stack type
``_Stack`` (tensors of one order in two tagged arrays) let ``verify`` pass
whole stacks through; the public functions are their one-member case, and
``_Stack.tensor()`` their one way back.  Only the tests turn a stack of
more members into tensors; shipped code splits one only by ``pairs()``.
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
    if tol == 0:  # a modulus is > 0 exactly where a part is nonzero
        return values != 0
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


def _same_order(m: int, other: int) -> None:
    if m != other:
        raise DimensionError(f"tensor orders differ: {m} vs {other}")


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
        stack = _from_tagged(m, np.fromiter(entries, np.uint64, len(entries)),
                             np.fromiter(entries.values(), complex, len(entries)),
                             1, tol)
        self.m, self.codes, self.values = m, stack.codes, stack.values

    @classmethod
    def _from_codes(cls, m: int, codes: np.ndarray, values: np.ndarray,
                    tol: float) -> "CoefficientTensor":
        """Build from distinct in-range uint64 codes and their values, any order."""
        return _from_tagged(_checked_order(m), codes, values, 1,
                            _checked_tol(tol)).tensor()

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


class _Stack:
    """``members`` order-m tensors in two read-only arrays: strictly increasing
    tagged codes ``k << 2m | code`` for member k, which are also the terms' flat
    positions in the dense ``(members, 4**m)`` form, and their finite, pruned
    values.  The tags fit in 64 bits; one member shares its tensor's arrays."""

    __slots__ = ("m", "codes", "values", "members")

    def __init__(self, m: int, codes: np.ndarray, values: np.ndarray, members: int):
        codes.flags.writeable = False
        values.flags.writeable = False
        self.m, self.codes, self.values, self.members = m, codes, values, members

    def member(self) -> np.ndarray:
        """The member index of each stored term."""
        return (self.codes >> np.uint64(2 * self.m)).astype(np.intp)

    def sizes(self) -> np.ndarray:
        """The number of stored terms of each member."""
        return np.bincount(self.member(), minlength=self.members)

    def untagged(self) -> np.ndarray:
        """The code of each stored term without its tag, as a new array."""
        return self.codes & np.uint64((1 << 2 * self.m) - 1)

    def pairs(self) -> tuple:
        """The left and right stacks of a stack of pairs: members 2k and 2k + 1 as k."""
        member, low = self.member(), self.untagged()
        tags = (member >> 1).astype(np.uint64) << np.uint64(2 * self.m)
        return tuple(_Stack(self.m, tags[s] | low[s], self.values[s], self.members // 2)
                     for s in (member & 1 == 0, member & 1 == 1))

    def tensor(self) -> CoefficientTensor:
        """The tensor of a one-member stack, on the stack's own arrays."""
        out = CoefficientTensor.__new__(CoefficientTensor)
        out.m, out.codes, out.values = self.m, self.codes, self.values
        return out

    def dense(self) -> np.ndarray:
        """The ``(members, 4**m)`` coefficient array, one scatter at the tagged codes."""
        out = np.zeros((self.members, 4 ** self.m), dtype=complex)
        out.reshape(-1)[self.codes] = self.values
        return out


def _stack(tensors: list) -> _Stack:
    """The stack of a non-empty list of tensors; two orders, or more tensors
    than 64-bit tags hold, raise DimensionError."""
    m, k = tensors[0].m, len(tensors)
    if k == 1:
        return _Stack(m, tensors[0].codes, tensors[0].values, 1)
    for c in tensors:
        _same_order(m, c.m)
    if 2 * m + (k - 1).bit_length() > 64:
        raise DimensionError(f"a stack of {k} order-{m} tensors does not fit "
                             f"in 64-bit tagged codes")
    tags = np.repeat(np.arange(k, dtype=np.uint64) << np.uint64(2 * m),
                     [len(c) for c in tensors])
    codes = np.concatenate([c.codes for c in tensors]) | tags
    return _Stack(m, codes, np.concatenate([c.values for c in tensors]), k)


def _from_tagged(m: int, codes: np.ndarray, values: np.ndarray, members: int,
                 tol: float) -> _Stack:
    """The stack of ``members`` order-m tensors from distinct tagged codes and their
    values in any order, m and tol checked.  A non-finite value raises DomainError
    naming the first in input order; then the terms are sorted if need be and pruned."""
    finite = np.isfinite(values)
    if not finite.all():
        # code_digits reads the 2m code bits only, not the tag
        bad = tuple(code_digits(codes[~finite][:1], m)[0].tolist())
        raise DomainError(f"non-finite coefficient at {bad}")
    if (codes[1:] <= codes[:-1]).any():
        order = np.argsort(codes)
        codes, values = codes[order], values[order]
    keep = _kept(values, tol)
    if not keep.all():
        codes, values = codes[keep], values[keep]
    return _Stack(m, codes, values, members)


def _from_dense(m: int, flat: np.ndarray, tol: float) -> _Stack:
    """The stack of the rows of a (B, 4**m) coefficient array, m and tol checked,
    pruned at once.  A non-finite coefficient raises DomainError."""
    if not np.isfinite(flat).all():
        raise DomainError("non-finite coefficient: the matrix has a "
                          "non-finite or overflowing entry")
    pos = np.flatnonzero(_kept(flat, tol))
    return _Stack(m, pos.astype(np.uint64), flat.ravel()[pos], len(flat))


def coeff_distance(a: CoefficientTensor, b: CoefficientTensor) -> float:
    """Max absolute coefficient difference over the union of supports."""
    return float(_coeff_distances(_stack([a]), _stack([b]))[0])


def _coeff_distances(left: _Stack, right: _Stack) -> np.ndarray:
    """``coeff_distance`` of each member of ``left`` with the same member of
    ``right``, the union supports from one sort of the tagged codes."""
    _same_order(left.m, right.m)
    codes = distinct_codes(np.concatenate([left.codes, right.codes]))
    diff = np.zeros(len(codes), dtype=complex)
    diff[np.searchsorted(codes, left.codes)] = left.values
    worst = np.zeros(left.members)
    member = (codes >> np.uint64(2 * left.m)).astype(np.intp)
    # a difference or modulus past the largest float is inf, as it should be
    with np.errstate(over="ignore"):
        diff[np.searchsorted(codes, right.codes)] -= right.values
        np.maximum.at(worst, member, np.hypot(diff.real, diff.imag))
    return worst


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


#: Most complex entries one stacked transform is given; ``_matrix_stacks``
#: splits a caller's samples into stacks of this size, so its scratch memory
#: stays flat whatever the sample count.
_STACK_ENTRIES = 1 << 12


def _matrix_stacks(rng, n: int, count: int, per: int = 1):
    """Yield count samples of per complex n x n matrices, as (k * per, n, n)
    stacks of whole samples, each within _STACK_ENTRIES entries (at least one
    sample).  The stream is that of two standard_normal((n, n)) calls per
    matrix: its real part, then its imaginary part."""
    step = max(1, _STACK_ENTRIES // (per * n * n))
    for start in range(0, count, step):
        parts = rng.standard_normal((per * min(step, count - start), 2, n, n))
        stack = parts[:, 0] + 1j * parts[:, 1]
        del parts  # not held while the caller works on the stack
        yield stack


def _interleaved(stack: np.ndarray, m: int) -> np.ndarray:
    # (B, 2^m, 2^m) -> (B,) + (2,)*2m, axes 1 + 2k and 2 + 2k factor k's row
    # and column bit, so its C order is (B,) + (4,)*m: a view, which decompose
    # reads and reconstruct writes
    t = stack.reshape((len(stack),) + (2,) * (2 * m))
    return t.transpose([0] + [1 + ax for k in range(m) for ax in (k, m + k)])


def _transform(t: np.ndarray, mix: np.ndarray, m: int) -> np.ndarray:
    """Mix every tensor factor of a stack held as (B,) + (4,)*m in C order;
    returns the (B, 4**m) result, one row per stacked tensor.  A sum past the
    largest float is inf (or nan) and is left for the caller to judge."""
    # Each pass mixes every member's leading factor axis and moves it to the
    # back: t.T @ mix.T is (mix @ t).T, written C-contiguous, so the reshape is
    # a view.  numpy runs one matrix product per member, the one a one-matrix
    # call runs, so each member gets the bits of its own call.  After m passes
    # every factor axis has been mixed once, in order.
    t = t.reshape(len(t), 4, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(m):
            t = (t.transpose(0, 2, 1) @ mix.T).reshape(len(t), 4, -1)
    return t.reshape(len(t), 4 ** m)


def _coefficients(stack: np.ndarray, m: int) -> np.ndarray:
    """(B, 4**m) basis coefficients of each matrix of a (B, 2^m, 2^m) stack."""
    return _transform(_interleaved(stack, m), _FORWARD, m)


def coefficient_array(matrix) -> np.ndarray:
    """Dense (4,)*m array of all basis coefficients of a 2^m x 2^m matrix;
    a non-finite entry gives non-finite coefficients, without a warning."""
    a = _as_square(matrix)
    m = _order_of(a.shape[0])
    return _coefficients(a[None], m).reshape((4,) * m)


def decompose(matrix, tol: float = DEFAULT_PRUNE_TOL) -> CoefficientTensor:
    """Expand a dense matrix into sparse basis coefficients.

    The side must be a power of two >= 2.  Coefficients with modulus <= tol
    are omitted; ``reconstruct`` inverts the result up to tol.  A non-finite
    coefficient (from a non-finite or overflowing entry) raises DomainError.
    """
    _checked_tol(tol)
    c = coefficient_array(matrix)
    return _from_dense(c.ndim, c.reshape(1, -1), tol).tensor()


def _decompose_stack(stack: np.ndarray) -> _Stack:
    """The stack of ``decompose(a, 0.0)`` of each matrix a of a complex
    (B, 2^m, 2^m) stack, m >= 1, through one transform."""
    m = _order_of(stack.shape[-1])
    return _from_dense(m, _coefficients(stack, m), 0.0)


def reconstruct(c: CoefficientTensor) -> np.ndarray:
    """Dense matrix equal to the coefficient-weighted sum of basis elements.

    Raises DimensionError when the dense array would exceed MAX_DENSE_BYTES,
    and DomainError when a sum overflows to a non-finite entry.
    """
    return _reconstruct_stack(_stack([c]))[0]


def _reconstruct_stack(stack: _Stack) -> np.ndarray:
    """``reconstruct`` of each member of a stack, as one (B, 2^m, 2^m)
    array, through one transform."""
    m, nbytes = stack.m, 16 * 4 ** stack.m
    if nbytes > MAX_DENSE_BYTES:
        raise DimensionError(f"a dense order-{m} array needs {nbytes} bytes, above "
                             f"the {MAX_DENSE_BYTES}-byte limit")
    flat = _transform(stack.dense(), _INVERSE, m)
    if not np.isfinite(flat).all():
        raise DomainError("non-finite matrix entry: a sum of coefficients overflows")
    out = np.empty((stack.members, 2 ** m, 2 ** m), dtype=complex)
    view = _interleaved(out, m)
    view[...] = flat.reshape(view.shape)
    return out
