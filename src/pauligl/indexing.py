"""Maps between global matrix indices and local ones.

Two families, both 0-based:

* block maps — a single cut in the rows and one in the columns split a
  matrix into four blocks; a global entry index maps linearly to a block id
  plus an offset inside that block, and back.
* mixed-radix (lexicographic) maps — when the matrix is a Kronecker product
  of factors, a global row or column index maps to one digit per factor.
  The first listed factor of a shape is the slowest-varying (the leftmost
  Kronecker factor); the last listed factor varies fastest.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

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


def block_local_from_global(i: int, j: int, cuts: BlockCuts) -> BlockLocal:
    """Locate global entry (i, j) as (block, local offset)."""
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


def block_global_from_local(loc: BlockLocal, cuts: BlockCuts) -> tuple[int, int]:
    """Inverse of :func:`block_local_from_global`."""
    row_size = cuts.row_cut if loc.block_row is Half.LOW else cuts.n - cuts.row_cut
    col_size = cuts.col_cut if loc.block_col is Half.LOW else cuts.n - cuts.col_cut
    if not 0 <= loc.local_row < row_size:
        raise DomainError(
            f"local row {loc.local_row} out of range for block height {row_size}")
    if not 0 <= loc.local_col < col_size:
        raise DomainError(
            f"local col {loc.local_col} out of range for block width {col_size}")
    i = loc.local_row if loc.block_row is Half.LOW else cuts.row_cut + loc.local_row
    j = loc.local_col if loc.block_col is Half.LOW else cuts.col_cut + loc.local_col
    return i, j


#: Distinct factor shapes whose validation the lex maps keep; a fixed count,
#: so memory stays bounded whatever shapes callers pass.
SHAPE_CACHE_SIZE = 128


# Keyed on the elements with their types (typed=True), so a hit is only ever
# an equal value of the same type: 2 and 2+0j hash alike, but int() rejects
# the complex one.
@functools.lru_cache(maxsize=SHAPE_CACHE_SIZE, typed=True)
def _checked_shape(*shape) -> tuple[tuple[int, ...], int]:
    shape = tuple(int(s) for s in shape)
    if not shape:
        raise DomainError("factor shape must have at least one factor")
    for s in shape:
        if s < 2:
            raise DomainError(f"factor sizes must be >= 2, got {s}")
    return shape, math.prod(shape)


def _validate_shape(shape) -> tuple[tuple[int, ...], int]:
    """Factor sizes as ints and their product, or the DomainError/TypeError."""
    shape = tuple(shape)
    try:
        return _checked_shape(*shape)
    except TypeError:
        pass
    # an unhashable element is no cache key; int() decides what it raises
    return _checked_shape.__wrapped__(*shape)


def lex_global_from_local(locals_, shape) -> int:
    """Convert per-factor digits to the global index of a Kronecker product.

    Parameters
    ----------
    locals_ : sequence of int
        One 0-based digit per factor, slowest factor first.
    shape : sequence of int
        Factor sizes, slowest factor first; each must be >= 2.

    Returns
    -------
    int
        Mixed-radix value: the last-listed factor varies fastest.
    """
    shape, _ = _validate_shape(shape)
    locals_ = tuple(int(v) for v in locals_)
    if len(locals_) != len(shape):
        raise DomainError(
            f"expected {len(shape)} local indices, got {len(locals_)}")
    g = 0
    for v, s in zip(locals_, shape):
        if not 0 <= v < s:
            raise DomainError(f"local index {v} out of range for factor size {s}")
        g = g * s + v
    return g


def lex_local_from_global(i: int, shape) -> tuple[int, ...]:
    """Convert a global index back to per-factor digits.

    Exact inverse of :func:`lex_global_from_local` for the same shape.
    """
    shape, size = _validate_shape(shape)
    i = int(i)
    if not 0 <= i < size:
        raise DomainError(
            f"global index {i} out of range for shape of size {size}")
    out = []
    for s in reversed(shape):
        i, v = divmod(i, s)
        out.append(v)
    return tuple(reversed(out))
