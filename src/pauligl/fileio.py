"""Text file formats for matrices, coefficient tensors, and vector pairs.

Three formats, all line-oriented ASCII:

  matrix file       first line: side N; then N rows of N tokens "re,im"
  coefficient file  first line: tensor order m; then zero or more lines
                    "D re im" where D is m digits, each in 0..3
  vector-pair file  one line "a1 a2 a3 b1 b2 b3"

Reals print in shortest round-trip form, with integral values printed as
bare integers ("1", not "1.0") and negative zero kept as "-0".  Coefficient
files are written sorted by digit string with near-zero entries already
pruned, so equal tensors produce byte-identical files.

Parse errors raise FileFormatError carrying the 1-based line number.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .algebra import code_digits
from .decomposition import MAX_ORDER, CoefficientTensor
from .errors import DimensionError, FileFormatError
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

# re.ASCII: \d would otherwise match every Unicode decimal digit
_REAL_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?\Z", re.ASCII)
_INT_RE = re.compile(r"[+-]?\d+\Z", re.ASCII)


def format_real(x: float) -> str:
    x = float(x)
    if x == 0.0:
        return "-0" if math.copysign(1.0, x) < 0.0 else "0"
    if x.is_integer() and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


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


def _parse_int(token: str, line: int, what: str) -> int:
    if not _INT_RE.match(token):
        raise FileFormatError(f"{what} must be an integer, got {token!r}", line=line)
    try:
        return int(token)
    except ValueError:
        # above sys.get_int_max_str_digits() digits
        raise FileFormatError(
            f"{what} has {len(token)} characters, too many for an integer",
            line=line) from None


def _content_lines(text: str) -> list:
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    return lines


def format_matrix(matrix) -> str:
    a = np.asarray(matrix, dtype=complex)
    n = a.shape[0]
    lines = [str(n)]
    for row in a:
        lines.append(" ".join(
            f"{format_real(z.real)},{format_real(z.imag)}" for z in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> np.ndarray:
    lines = _content_lines(text)
    if not lines:
        raise FileFormatError("empty matrix file", line=1)
    n = _parse_int(lines[0].strip(), 1, "matrix side")
    if n < 1:
        raise FileFormatError(f"matrix side must be >= 1, got {n}", line=1)
    rows = lines[1:]
    if len(rows) != n:
        bad = len(lines) + 1 if len(rows) < n else n + 2
        raise FileFormatError(f"expected {n} rows, found {len(rows)}", line=bad)
    out = np.zeros((n, n), dtype=complex)
    for i, raw in enumerate(rows):
        lineno = i + 2
        tokens = raw.split()
        if len(tokens) != n:
            raise FileFormatError(
                f"expected {n} entries, found {len(tokens)}", line=lineno)
        for j, token in enumerate(tokens):
            parts = token.split(",")
            if len(parts) != 2:
                raise FileFormatError(
                    f"entry must be 're,im', got {token!r}", line=lineno)
            out[i, j] = complex(_parse_real(parts[0], lineno),
                                _parse_real(parts[1], lineno))
    return out


def _digit_strings(c: CoefficientTensor) -> list:
    """The m-digit index string of each stored term, in storage order."""
    # one m-character string per code, from its digit bytes
    digits = code_digits(c.codes, c.m) + ord("0")
    return digits.view(f"S{c.m}").astype(str).ravel().tolist()


def format_coefficients(c: CoefficientTensor) -> str:
    lines = [str(c.m)]
    lines += [f"{d} {format_real(re)} {format_real(im)}"
              for d, re, im in zip(_digit_strings(c), c.values.real.tolist(),
                                   c.values.imag.tolist())]
    return "\n".join(lines) + "\n"


def parse_coefficients(text: str) -> CoefficientTensor:
    lines = _content_lines(text)
    if not lines:
        raise FileFormatError("empty coefficient file", line=1)
    m = _parse_int(lines[0].strip(), 1, "tensor order")
    if m < 1:
        raise FileFormatError(f"tensor order must be >= 1, got {m}", line=1)
    if m > MAX_ORDER:
        raise DimensionError(f"tensor order must be <= {MAX_ORDER}, got {m}")
    codes, values, seen = [], [], set()
    for lineno, raw in enumerate(lines[1:], start=2):
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
        codes.append(code)
        values.append(complex(_parse_real(parts[1], lineno),
                              _parse_real(parts[2], lineno)))
    return CoefficientTensor._from_codes(m, np.array(codes, dtype=np.uint64),
                                         np.array(values, dtype=complex), 0.0)


def format_qvector(q: QVector) -> str:
    return " ".join(format_real(x) for x in (*q.a, *q.b)) + "\n"


def parse_qvector(text: str) -> QVector:
    lines = _content_lines(text)
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
