"""Maps between global matrix indices and local ones.

Two families, both 0-based:

* block maps — a single cut in the rows and one in the columns split a
  matrix into four blocks; a global entry index maps linearly to a block id
  plus an offset inside that block, and back.
* mixed-radix (lexicographic) maps — when the matrix is a Kronecker product
  of factors, a global row or column index maps to one digit per factor.
  The first listed factor of a shape is the slowest-varying (the leftmost
  Kronecker factor); the last listed factor varies fastest.

Every map takes Python integers, or integer numpy arrays, which a stacked
kernel maps in one call; block ids then come back as object arrays of Half.
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


# Array results are int64: a shape must have fewer entries than this, and a
# block side at most this many (its indices are below it).
_INT64_LIMIT = 1 << 63


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


def _entry(bad: np.ndarray, *arrays) -> list:
    """Each array's entry at the first true entry of bad (in ravel order),
    which a stacked kernel hands the scalar map to raise its error."""
    return [np.broadcast_to(a, bad.shape).flat[np.argmax(bad)] for a in arrays]


def _checked_side(cuts: BlockCuts) -> None:
    """Refuse a side past 2**63, whose indices int64 arrays cannot all hold."""
    if cuts.n > _INT64_LIMIT:
        raise DomainError(f"matrix side {cuts.n} is too large for int64 index arrays")


def _block_stack(x, n, row_cut, col_cut):
    """The block maps over a stack of cuts (n, row_cut, col_cut), each an
    int64 array of one per entry or one int for all: a pair (i, j) of
    integer arrays of one shape maps to a BlockLocal, and a BlockLocal with
    fields of one shape maps back to (i, j).  The first bad entry raises
    the scalar call's DomainError."""
    if isinstance(x, BlockLocal):
        br, bc, r, c = x.block_row, x.block_col, x.local_row, x.local_col
        low_row, low_col = br == Half.LOW, bc == Half.LOW
        rows = np.where(low_row, row_cut, n - row_cut)
        cols = np.where(low_col, col_cut, n - col_cut)
        bad = (~low_row & (br != Half.HIGH)) | (~low_col & (bc != Half.HIGH))
        bad |= (r < 0) | (r >= rows) | (c < 0) | (c >= cols)
        if bad.any():
            block_global_from_local(BlockLocal(*_entry(bad, br, bc, r, c)),
                                    BlockCuts(*_entry(bad, n, row_cut, col_cut)))
        r, c = r.astype(np.int64, copy=False), c.astype(np.int64, copy=False)
        return np.where(low_row, r, r + row_cut), np.where(low_col, c, c + col_cut)
    i, j = x
    bad = (i < 0) | (i >= n) | (j < 0) | (j >= n)
    if bad.any():
        block_local_from_global(*_entry(bad, i, j),
                                BlockCuts(*_entry(bad, n, row_cut, col_cut)))
    i, j = i.astype(np.int64, copy=False), j.astype(np.int64, copy=False)
    low_row, low_col = i < row_cut, j < col_cut
    return BlockLocal(np.where(low_row, Half.LOW, Half.HIGH),
                      np.where(low_col, Half.LOW, Half.HIGH),
                      np.where(low_row, i, i - row_cut),
                      np.where(low_col, j, j - col_cut))


def block_local_from_global(i, j, cuts: BlockCuts) -> BlockLocal:
    """Locate global entry (i, j) as (block, local offset).

    If either index is an np.ndarray, both must be integer arrays (or Python
    integers), broadcast together: the BlockLocal then holds object arrays
    of Half members and int64 offsets.  An index out of range raises
    DomainError, for arrays the scalar call's for the first bad entry in
    ravel order; an array of a non-integer dtype raises TypeError, and a
    side past 2**63 raises DomainError.
    """
    if isinstance(i, np.ndarray) or isinstance(j, np.ndarray):
        ij = np.broadcast_arrays(_integer_array(i, "row index"),
                                 _integer_array(j, "col index"))
        _checked_side(cuts)
        return _block_stack(ij, cuts.n, cuts.row_cut, cuts.col_cut)
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
        fields = np.broadcast_arrays(
            np.asarray(loc.block_row, dtype=object),
            np.asarray(loc.block_col, dtype=object),
            _integer_array(loc.local_row, "local row"),
            _integer_array(loc.local_col, "local col"))
        _checked_side(cuts)
        return _block_stack(BlockLocal(*fields), cuts.n, cuts.row_cut, cuts.col_cut)
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


def _places(shapes: np.ndarray) -> np.ndarray:
    """Each factor's place value in each row of a (K, r) stack of shapes:
    the product of the sizes listed after it."""
    return np.multiply.accumulate(shapes[:, ::-1], axis=1)[:, ::-1] // shapes


def _lex_stack(x: np.ndarray, shapes: np.ndarray, ids, to_local: bool) -> np.ndarray:
    """The lex maps over a (K, r) int64 stack of shapes of fewer than 2**63
    entries each; ids holds each index's row of shapes and broadcasts over
    the index axes.  to_local maps global indices x to digits, factor axis
    first; else digits x map to global indices.  The first bad index, or
    the first bad digit of the first factor with one, raises the scalar
    call's DomainError."""
    sizes, place = shapes.T[:, ids], _places(shapes).T[:, ids]
    # uint64 indices past int64 wrap to negatives, which are out of range
    wide = x.astype(np.int64, copy=False)
    if to_local:
        bad = (wide < 0) | (wide >= sizes[0] * place[0])
        if bad.any():
            g, k = _entry(bad, x, ids)
            lex_local_from_global(g, shapes[k])  # raises
        return wide // place % sizes
    bad = (wide < 0) | (wide >= sizes)
    if bad.any():
        # the first bad digit of the first bad factor; 0 is in range elsewhere
        f = int(np.argmax(bad.reshape(len(bad), -1).any(axis=1)))
        digits = [0] * len(bad)
        digits[f], k = _entry(bad[f], x[f], ids)
        lex_global_from_local(digits, shapes[k])  # raises
    return np.add.reduce(wide * place, axis=0)


def _one_shape(a: np.ndarray, what: str, shape: tuple, size: int) -> np.ndarray:
    """shape as the one row of a shape stack, once ``a`` is known to be an
    integer array the maps can handle exactly in int64."""
    _integer_array(a, what)
    if size >= _INT64_LIMIT:
        raise DomainError(
            f"shape of size {size} is too large for int64 index arrays")
    return np.array([shape], dtype=np.int64)


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
        if locals_.ndim == 0:
            raise TypeError("local indices need a factor axis, got a 0-d array")
        shapes = _one_shape(locals_, "local indices", shape, size)
        if len(locals_) != len(shape):
            lex_global_from_local([0] * len(locals_), shape)  # raises
        return _lex_stack(locals_, shapes, np.zeros((1,) * (locals_.ndim - 1), np.intp),
                          to_local=False)
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
        shapes = _one_shape(i, "global indices", shape, size)
        return _lex_stack(i, shapes, np.zeros((1,) * i.ndim, np.intp), to_local=True)
    i = _checked_integer(i, "global index")
    if not 0 <= i < size:
        raise DomainError(
            f"global index {i} out of range for shape of size {size}")
    out = []
    for s in reversed(shape):
        i, v = divmod(i, s)
        out.append(v)
    return tuple(reversed(out))
