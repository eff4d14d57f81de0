"""Text file formats for matrices, coefficient tensors, and vector pairs.

Three formats, all line-oriented ASCII:

  matrix file       first line: side N; then N rows of N tokens "re,im"
  coefficient file  first line: tensor order m; then zero or more lines
                    "D re im" where D is m digits, each in 0..3
  vector-pair file  one line "a1 a2 a3 b1 b2 b3"

Reals print in shortest round-trip form, with integral values printed as
bare integers ("1", not "1.0") and negative zero kept as "-0".  Coefficient
files are written sorted by digit string with near-zero entries already
pruned, so equal tensors produce byte-identical files.  The readers accept
finite values only, so the writers refuse inf and nan with DomainError (a
CoefficientTensor never holds them).

Files are read a matrix row or a block of lines at a time, each checked
with one regular expression, and written a row or a block at a time.
Parse errors raise FileFormatError carrying the 1-based line number of the
first error in line order, with one exception: a matrix file with the wrong
number of rows reports the count first, at the line of the first extra or
missing row, before any row is read.
"""

from __future__ import annotations

import itertools
import math
import re

import numpy as np

from .algebra import code_digits
from .decomposition import CoefficientTensor, _checked_order
from .errors import DomainError, FileFormatError
from .symmetry import QVector

__all__ = [
    "format_real",
    "parse_real_literal",
    "format_matrix",
    "parse_matrix",
    "format_coefficients",
    "parse_coefficients",
    "format_qvector",
    "parse_qvector",
]

# Digits are spelled [0-9]: \d would match every Unicode decimal digit.
# Each accepted literal has exactly one parse, so the row and block patterns
# that repeat it fail in linear time; an ambiguous spelling such as
# [0-9]+\.?[0-9]* backtracks exponentially over the tokens of a bad row.
_REAL = r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_REAL_RE = re.compile(_REAL + r"\Z")
_INT_RE = re.compile(r"[+-]?[0-9]+\Z")
# One matrix row, its tokens joined by single spaces.  This and the block
# pattern are compiled where they are used, so that importing the module
# does not pay for them; re caches them after the first use.
_ROW = rf"{_REAL},{_REAL}(?: {_REAL},{_REAL})*\Z"
# what str.split() splits on, minus the newline that joins a block's lines
_SPACE = r"[^\S\n]"

# Files are read in blocks of about this many characters, cut after a
# newline, and coefficient files are written this many lines at a time.
# Either bounds the Python objects alive at once to one block.
_BLOCK_CHARS = 1 << 15
_BLOCK_LINES = 4096


def _format_reals(values: np.ndarray) -> list:
    """format_real of each element of a float array, in ravel order."""
    v = np.ravel(values)
    out = list(map(repr, v.tolist()))
    # repr writes an integral value below 1e16 in fixed form ending in ".0";
    # dropping that gives the bare integer, and "-0" for -0.0
    for k in np.flatnonzero((v == np.trunc(v)) & (np.abs(v) < 1e16)).tolist():
        out[k] = out[k][:-2]
    return out


def format_real(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"cannot write the non-finite value {x!r}")
    return _format_reals(np.array([x]))[0]


def _format_parts(z: np.ndarray) -> list:
    """format_real of the real and imaginary part of each complex, interleaved."""
    return _format_reals(np.stack((z.real, z.imag), axis=-1))


def parse_real_literal(token: str) -> float:
    """Strict decimal-literal parse; rejects inf, nan, and underscores."""
    if not _REAL_RE.match(token):
        raise ValueError(f"not a decimal literal: {token!r}")
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value: {token!r}")
    return value


def _parse_real(token: str, line: int) -> float:
    try:
        return parse_real_literal(token)
    except ValueError as exc:
        raise FileFormatError(str(exc), line=line) from None


def _parse_int(token: str, line: int | None, what: str) -> int:
    if not _INT_RE.match(token):
        raise FileFormatError(f"{what} must be an integer, got {token!r}", line=line)
    try:
        return int(token)
    except ValueError:
        # above sys.get_int_max_str_digits() digits
        raise FileFormatError(
            f"{what} has {len(token)} characters, too many for an integer",
            line=line) from None


def _line_blocks(text: str):
    """Yield text.splitlines() without its trailing blank lines, in blocks.

    Each block is a list of the whole lines of about _BLOCK_CHARS
    characters of text, so the lines of the whole text never exist at once.
    """
    # the lines end with the one that holds the last non-space character
    stop = len(text)
    while stop and text[stop - 1].isspace():
        stop -= 1
    if stop:
        stop += len(text[stop - 1:].splitlines()[0]) - 1
    pos = 0
    while pos < stop:
        # a newline always ends a line, also as the second half of "\r\n"
        cut = text.find("\n", pos + _BLOCK_CHARS, stop)
        end = stop if cut < 0 else cut + 1
        yield text[pos:end].splitlines()
        pos = end


def format_matrix(matrix) -> str:
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2:
        raise TypeError(f"expected a 2-D matrix, got {a.ndim} dimensions")
    if not np.isfinite(a).all():
        i, j = np.argwhere(~np.isfinite(a))[0].tolist()
        raise DomainError(
            f"cannot write the non-finite matrix entry at ({i}, {j}): {a[i, j]}")
    lines = [str(a.shape[0])]
    for row in a:
        reals = iter(_format_parts(row))
        lines.append(" ".join(map(",".join, zip(reals, reals))))
    lines.append("")  # the final newline, without copying the joined text
    return "\n".join(lines)


def _raise_row_error(tokens: list, n: int, lineno: int):
    """Raise the first error of a matrix row, in the order the row is read."""
    if len(tokens) != n:
        raise FileFormatError(
            f"expected {n} entries, found {len(tokens)}", line=lineno)
    for token in tokens:
        parts = token.split(",")
        if len(parts) != 2:
            raise FileFormatError(
                f"entry must be 're,im', got {token!r}", line=lineno)
        _parse_real(parts[0], lineno)
        _parse_real(parts[1], lineno)
    raise AssertionError(f"line {lineno}: row check and entry checks disagree")


def parse_matrix(text: str) -> np.ndarray:
    blocks = _line_blocks(text)
    header = next(blocks, None)
    if header is None:
        raise FileFormatError("empty matrix file", line=1)
    n = _parse_int(header[0].strip(), 1, "matrix side")
    if n < 1:
        raise FileFormatError(f"matrix side must be >= 1, got {n}", line=1)
    found = len(header) - 1 + sum(map(len, blocks))
    if found != n:
        bad = found + 2 if found < n else n + 2
        raise FileFormatError(f"expected {n} rows, found {found}", line=bad)
    out = np.empty((n, n), dtype=complex)
    reals = out.view(float)  # row i holds re, im, re, im, ... of matrix row i
    blocks = _line_blocks(text)
    rows = itertools.chain(next(blocks)[1:], itertools.chain.from_iterable(blocks))
    row_re = re.compile(_ROW)
    for i, raw in enumerate(rows):
        tokens = raw.split()
        if len(tokens) == n and row_re.match(" ".join(tokens)):
            reals[i] = list(map(float, ",".join(tokens).split(",")))
            if np.isfinite(reals[i]).all():
                continue
        _raise_row_error(tokens, n, i + 2)
    return out


def _digit_strings(codes: np.ndarray, m: int) -> list:
    """The m-digit index string of each code."""
    # one m-character string per code, from its digit bytes
    digits = code_digits(codes, m) + ord("0")
    return digits.view(f"S{m}").astype(str).ravel().tolist()


def format_coefficients(c: CoefficientTensor) -> str:
    blocks = [str(c.m)]
    for start in range(0, len(c.codes), _BLOCK_LINES):
        stop = start + _BLOCK_LINES
        reals = iter(_format_parts(c.values[start:stop]))
        blocks.append("\n".join(map(" ".join, zip(
            _digit_strings(c.codes[start:stop], c.m), reals, reals))))
    blocks.append("")
    return "\n".join(blocks)


def _check_distinct(codes: np.ndarray, m: int) -> None:
    """Raise on the earliest line whose index an earlier line already has.

    codes[k] was read from line k + 2.
    """
    if not np.any(codes[1:] <= codes[:-1]):
        return
    order = np.argsort(codes, kind="stable")
    repeats = np.flatnonzero(codes[order[1:]] == codes[order[:-1]]) + 1
    if repeats.size:
        # a stable sort keeps equal codes in line order, so the earliest
        # repeating line is the smallest position that follows a tie
        k = int(order[repeats].min())
        digits = _digit_strings(codes[k:k + 1], m)[0]
        raise FileFormatError(f"duplicate index {digits}", line=k + 2)


def _raise_block_error(lines: list, first: int, m: int, codes: np.ndarray):
    """Raise the first error of a block of lines, the first on line `first`.

    codes holds the indices of every earlier line, which were all read
    without error; so an index they repeat comes first.
    """
    _check_distinct(codes, m)
    seen = set(codes.tolist())
    for lineno, raw in enumerate(lines, start=first):
        parts = raw.split()
        if len(parts) != 3:
            raise FileFormatError(
                f"expected 'INDEX re im', got {raw!r}", line=lineno)
        digits = parts[0]
        if len(digits) != m or digits.strip("0123"):
            raise FileFormatError(
                f"index must be {m} digits in 0..3, got {digits!r}", line=lineno)
        code = int(digits, 4)
        if code in seen:
            raise FileFormatError(f"duplicate index {digits}", line=lineno)
        seen.add(code)
        _parse_real(parts[1], lineno)
        _parse_real(parts[2], lineno)
    raise AssertionError(f"line {first}: block check and line checks disagree")


def parse_coefficients(text: str) -> CoefficientTensor:
    blocks = _line_blocks(text)
    header = next(blocks, None)
    if header is None:
        raise FileFormatError("empty coefficient file", line=1)
    m = _parse_int(header[0].strip(), 1, "tensor order")
    if m < 1:
        raise FileFormatError(f"tensor order must be >= 1, got {m}", line=1)
    _checked_order(m)
    block_re = re.compile(rf"(?:{_SPACE}*[0-3]{{{m}}}{_SPACE}+{_REAL}"
                          rf"{_SPACE}+{_REAL}{_SPACE}*\n)*\Z")
    weights = np.uint64(4) ** np.arange(m - 1, -1, -1, dtype=np.uint64)
    codes, values = [np.empty(0, dtype=np.uint64)], [np.empty(0, dtype=complex)]
    first = 2  # line number of the block's first line
    for lines in itertools.chain([header[1:]], blocks):
        if not lines:
            continue
        block = "\n".join(lines) + "\n"
        if block_re.match(block):
            fields = block.split()  # index, re, im of each line in turn
            digits = np.frombuffer("".join(fields[0::3]).encode("ascii"),
                                   dtype=np.uint8).reshape(-1, m) - ord("0")
            del fields[0::3]
            reals = np.array(list(map(float, fields)))
            if np.isfinite(reals).all():
                codes.append(digits.astype(np.uint64) @ weights)
                values.append(reals.view(complex))
                first += len(lines)
                continue
        _raise_block_error(lines, first, m, np.concatenate(codes))
    codes = np.concatenate(codes)
    _check_distinct(codes, m)
    return CoefficientTensor._from_codes(m, codes, np.concatenate(values), 0.0)


def format_qvector(q: QVector) -> str:
    return " ".join(format_real(x) for x in (*q.a, *q.b)) + "\n"


def parse_qvector(text: str) -> QVector:
    lines = list(itertools.chain.from_iterable(_line_blocks(text)))
    if not lines:
        raise FileFormatError("empty vector-pair file", line=1)
    if len(lines) > 1:
        raise FileFormatError("expected a single line of six values", line=2)
    tokens = lines[0].split()
    if len(tokens) != 6:
        raise FileFormatError(
            f"expected six values, found {len(tokens)}", line=1)
    values = [_parse_real(t, 1) for t in tokens]
    return QVector(tuple(values[:3]), tuple(values[3:]))
