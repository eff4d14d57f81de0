"""Maps between global matrix indices and local ones.

Two families, both 0-based:

* block maps — a single cut in the rows and one in the columns split a
  matrix into four blocks; a global entry index maps linearly to a block id
  plus an offset inside that block, and back.
* mixed-radix (lexicographic) maps — when the matrix is a Kronecker product
  of factors, a global row or column index maps to one digit per factor.
  The first listed factor of a shape is the slowest-varying (the leftmost
  Kronecker factor); the last listed factor varies fastest.

Every map takes Python integers, or integer numpy arrays to map many indices
in one call.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .algebra import _checked_integer
from .errors import DomainError

__all__ = [
    "Half",
    "BlockCuts",
    "BlockLocal",
    "block_local_from_global",
    "block_global_from_local",
    "lex_global_from_local",
    "lex_local_from_global",
]


class Half(enum.Enum):
    LOW = "low"
    HIGH = "high"


# The array maps never hand numpy a Half member, whose every conversion probes
# the Enum class: _HALVES[low] is a band's Half, _LOW and _HIGH 0-d constants.
_HALVES = np.array([Half.HIGH, Half.LOW], dtype=object)
_LOW, _HIGH = np.array(Half.LOW, dtype=object), np.array(Half.HIGH, dtype=object)


@dataclass(frozen=True)
class BlockCuts:
    """A two-way split of an n x n matrix: rows at row_cut, columns at col_cut.

    Rows 0..row_cut-1 fall in the LOW row band, rows row_cut..n-1 in HIGH;
    likewise for columns.  Cuts must be strictly interior (0 < cut < n).
    """

    n: int
    row_cut: int
    col_cut: int

    def __post_init__(self):
        for name in ("n", "row_cut", "col_cut"):
            object.__setattr__(self, name, _checked_integer(getattr(self, name), name))
        if self.n < 2:
            raise DomainError(f"matrix side must be >= 2, got {self.n}")
        if not 0 < self.row_cut < self.n:
            raise DomainError(
                f"row cut must satisfy 0 < cut < {self.n}, got {self.row_cut}")
        if not 0 < self.col_cut < self.n:
            raise DomainError(
                f"col cut must satisfy 0 < cut < {self.n}, got {self.col_cut}")


@dataclass(frozen=True)
class BlockLocal:
    """Block id plus the entry's offset inside that block."""

    block_row: Half
    block_col: Half
    local_row: int
    local_col: int


def _integer_array(a, what: str) -> np.ndarray:
    """``a`` as an array, which must have an integer dtype (not bool)."""
    a = np.asarray(a)
    if a.dtype.kind not in "iu":
        raise TypeError(f"{what} must have an integer dtype, got {a.dtype}")
    return a


def block_local_from_global(i, j, cuts: BlockCuts) -> BlockLocal:
    """Locate global entry (i, j) as (block, local offset).

    If either index is an np.ndarray, both must be integer arrays (or Python
    integers), broadcast together: the BlockLocal then holds object arrays
    of Half members and int64 offsets.  An index out of range raises
    DomainError, for arrays the scalar call's for the first bad entry in
    ravel order; an array of a non-integer dtype raises TypeError.
    """
    if isinstance(i, np.ndarray) or isinstance(j, np.ndarray):
        i, j = np.broadcast_arrays(_integer_array(i, "row index"),
                                   _integer_array(j, "col index"))
        bad = (i < 0) | (i >= cuts.n) | (j < 0) | (j >= cuts.n)
        if np.logical_or.reduce(bad, axis=None):
            k = np.argmax(bad)
            block_local_from_global(i.flat[k], j.flat[k], cuts)  # raises
        i, j = i.astype(np.int64, copy=False), j.astype(np.int64, copy=False)
        low_row, low_col = i < cuts.row_cut, j < cuts.col_cut
        # the Ellipsis keeps the lookup of a 0-d index a 0-d array
        return BlockLocal(_HALVES[low_row.view(np.int8), ...],
                          _HALVES[low_col.view(np.int8), ...],
                          np.where(low_row, i, i - cuts.row_cut),
                          np.where(low_col, j, j - cuts.col_cut))
    i, j = _checked_integer(i, "row index"), _checked_integer(j, "col index")
    if not 0 <= i < cuts.n or not 0 <= j < cuts.n:
        raise DomainError(
            f"index ({i}, {j}) out of range for side {cuts.n}")
    if i < cuts.row_cut:
        row = (Half.LOW, i)
    else:
        row = (Half.HIGH, i - cuts.row_cut)
    if j < cuts.col_cut:
        col = (Half.LOW, j)
    else:
        col = (Half.HIGH, j - cuts.col_cut)
    return BlockLocal(row[0], col[0], row[1], col[1])


def _is_low(half, what: str) -> bool:
    if not isinstance(half, Half):
        raise DomainError(f"{what} must be a Half member, got {half!r}")
    return half is Half.LOW


def block_global_from_local(loc: BlockLocal, cuts: BlockCuts) -> tuple:
    """Inverse of :func:`block_local_from_global`: (i, j) as ints, or as
    int64 arrays when a local offset is an np.ndarray.  A block id that is
    not a Half member raises DomainError, as an offset outside its block
    does; the array errors are those of :func:`block_local_from_global`."""
    if isinstance(loc.local_row, np.ndarray) or isinstance(loc.local_col, np.ndarray):
        br, bc, r, c = np.broadcast_arrays(
            np.asarray(loc.block_row, dtype=object),
            np.asarray(loc.block_col, dtype=object),
            _integer_array(loc.local_row, "local row"),
            _integer_array(loc.local_col, "local col"))
        low_row, low_col = br == _LOW, bc == _LOW
        rows = np.where(low_row, cuts.row_cut, cuts.n - cuts.row_cut)
        cols = np.where(low_col, cuts.col_cut, cuts.n - cuts.col_cut)
        bad = (~low_row & (br != _HIGH)) | (~low_col & (bc != _HIGH))
        bad |= (r < 0) | (r >= rows) | (c < 0) | (c >= cols)
        if np.logical_or.reduce(bad, axis=None):
            k = np.argmax(bad)
            block_global_from_local(BlockLocal(br.flat[k], bc.flat[k], r.flat[k],
                                               c.flat[k]), cuts)  # raises
        r, c = r.astype(np.int64, copy=False), c.astype(np.int64, copy=False)
        return (np.where(low_row, r, r + cuts.row_cut),
                np.where(low_col, c, c + cuts.col_cut))
    r = _checked_integer(loc.local_row, "local row")
    c = _checked_integer(loc.local_col, "local col")
    low_row = _is_low(loc.block_row, "block row")
    low_col = _is_low(loc.block_col, "block col")
    row_size = cuts.row_cut if low_row else cuts.n - cuts.row_cut
    col_size = cuts.col_cut if low_col else cuts.n - cuts.col_cut
    if not 0 <= r < row_size:
        raise DomainError(f"local row {r} out of range for block height {row_size}")
    if not 0 <= c < col_size:
        raise DomainError(f"local col {c} out of range for block width {col_size}")
    i = r if low_row else cuts.row_cut + r
    j = c if low_col else cuts.col_cut + c
    return i, j


def _validate_shape(shape) -> tuple[tuple[int, ...], int]:
    """Factor sizes as ints and their product, or the DomainError/TypeError."""
    shape = tuple(_checked_integer(s, "factor size") for s in shape)
    if not shape:
        raise DomainError("factor shape must have at least one factor")
    for s in shape:
        if s < 2:
            raise DomainError(f"factor sizes must be >= 2, got {s}")
    return shape, math.prod(shape)


# Array results are int64, so a shape must have fewer entries than this.
_INT64_LIMIT = 1 << 63


def _radix_columns(a: np.ndarray, what: str, shape: tuple, size: int,
                   ndim: int) -> tuple[np.ndarray, np.ndarray]:
    """Factor sizes and place values as int64 columns that broadcast over
    ``ndim`` index axes, once ``a`` is known to be an integer array the
    maps can handle exactly in int64."""
    _integer_array(a, what)
    if size >= _INT64_LIMIT:
        raise DomainError(
            f"shape of size {size} is too large for int64 index arrays")
    place = [1]
    for s in reversed(shape[1:]):
        place.append(place[-1] * s)
    column = (-1,) + (1,) * ndim
    return (np.array(shape, dtype=np.int64).reshape(column),
            np.array(place[::-1], dtype=np.int64).reshape(column))


def _lex_global_array(locals_: np.ndarray, shape: tuple, size: int) -> np.ndarray:
    if locals_.ndim == 0:
        raise TypeError("local indices need a factor axis, got a 0-d array")
    sizes, place = _radix_columns(locals_, "local indices", shape, size,
                                  locals_.ndim - 1)
    if len(locals_) != len(shape):
        lex_global_from_local([0] * len(locals_), shape)  # raises
    bad = (locals_ < 0) | (locals_ >= sizes)
    if np.logical_or.reduce(bad, axis=None):
        # the first bad digit of the first bad factor; 0 is in range elsewhere
        k = int(np.argmax(bad.reshape(len(shape), -1).any(axis=1)))
        digits = [0] * len(shape)
        digits[k] = locals_[k][bad[k]][0]
        lex_global_from_local(digits, shape)  # raises
    return np.add.reduce(locals_.astype(np.int64, copy=False) * place, axis=0)


def lex_global_from_local(locals_, shape):
    """Convert per-factor digits to the global index of a Kronecker product.

    Parameters
    ----------
    locals_ : sequence of int, or integer np.ndarray
        One 0-based digit per factor, slowest factor first.  An array holds
        the digits of factor k in ``locals_[k]``, so axis 0 is the factor
        axis and the other axes index many digit vectors at once.
    shape : sequence of int
        Factor sizes, slowest factor first; each must be >= 2.

    Returns
    -------
    int, or np.ndarray of int64
        Mixed-radix value: the last-listed factor varies fastest.  For an
        array, one value per digit vector, of shape ``locals_.shape[1:]``
        (a numpy int64 for a 1-D array).

    A wrong number of digits or a digit out of range raises DomainError; for
    an array, the message names the first bad digit of the first bad factor.
    An array of a non-integer dtype (bool included) raises TypeError, and a
    shape of 2**63 or more entries raises DomainError.
    """
    shape, size = _validate_shape(shape)
    if isinstance(locals_, np.ndarray):
        return _lex_global_array(locals_, shape, size)
    locals_ = tuple(_checked_integer(v, "local index") for v in locals_)
    if len(locals_) != len(shape):
        raise DomainError(
            f"expected {len(shape)} local indices, got {len(locals_)}")
    g = 0
    for v, s in zip(locals_, shape):
        if not 0 <= v < s:
            raise DomainError(f"local index {v} out of range for factor size {s}")
        g = g * s + v
    return g


def lex_local_from_global(i, shape):
    """Convert a global index back to per-factor digits.

    Exact inverse of :func:`lex_global_from_local` for the same shape.  A
    Python integer gives a tuple of ints.  An integer np.ndarray gives an
    int64 array of shape ``(len(shape),) + i.shape`` whose row k holds the
    digits of factor k, slowest factor first.  An index out of range raises
    DomainError (for an array, naming the first one in ravel order); the
    array errors are those of :func:`lex_global_from_local`.
    """
    shape, size = _validate_shape(shape)
    if isinstance(i, np.ndarray):
        sizes, place = _radix_columns(i, "global indices", shape, size, i.ndim)
        bad = (i < 0) | (i >= size)
        if np.logical_or.reduce(bad, axis=None):
            lex_local_from_global(i[bad][0], shape)  # raises
        return i.astype(np.int64, copy=False) // place % sizes
    i = _checked_integer(i, "global index")
    if not 0 <= i < size:
        raise DomainError(
            f"global index {i} out of range for shape of size {size}")
    out = []
    for s in reversed(shape):
        i, v = divmod(i, s)
        out.append(v)
    return tuple(reversed(out))
