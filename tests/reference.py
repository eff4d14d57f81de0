"""Reference loops that the vectorized package code is tested against.

Compose: the per-pair dict loop the packed kernel replaced.  Each term
av * bv * phase is computed with Python complex arithmetic and summed into
a dict in lexicographic order over input index pairs; the sums are then
checked and pruned the way CoefficientTensor does.  The kernel in
``pauligl.composition`` must reproduce this bit for bit.

Text files: the per-token readers and writers that ``pauligl.fileio``
replaced with row and block chunks (see the section below).

Transform: the per-axis ``tensordot`` + ``moveaxis`` pass that
``pauligl.decomposition`` replaced with one matmul and transpose per factor.

Index maps: the lexicographic maps as they were before the validated factor
shapes were cached.
"""

import cmath
import math
import re

import numpy as np

from pauligl import (DEFAULT_PRUNE_TOL, CoefficientTensor, DimensionError,
                     DomainError, FileFormatError, multi_product)
from pauligl.decomposition import (_FORWARD, _INVERSE, MAX_ORDER, _as_square,
                                   _deinterleaved, _interleaved, _order_of)


def reference_compose(a, b, tol=DEFAULT_PRUNE_TOL) -> dict:
    """Sorted {multi-index: coefficient} of the product of two tensors."""
    acc = {}
    for mu, av in a.coeffs.items():
        for nu, bv in b.coeffs.items():
            phase, lam = multi_product(mu, nu)
            acc[lam] = acc.get(lam, 0j) + av * bv * phase.to_complex()
    for idx, value in acc.items():
        if not cmath.isfinite(value):
            raise DomainError(f"non-finite coefficient at {idx}")
    return {idx: v for idx, v in sorted(acc.items()) if abs(v) > tol}


# -- text files: the per-token loops the chunked fileio functions replaced --
#
# Each reads or writes one real at a time.  fileio must produce the same
# bytes, the same array and code bits, and on bad input the same exception
# type, message and line number.

_REF_REAL_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?\Z", re.ASCII)
_REF_INT_RE = re.compile(r"[+-]?\d+\Z", re.ASCII)


def reference_format_real(x) -> str:
    x = float(x)
    if x == 0.0:
        return "-0" if math.copysign(1.0, x) < 0.0 else "0"
    if x.is_integer() and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def _ref_real(token, line):
    if not _REF_REAL_RE.match(token):
        raise FileFormatError(f"not a decimal literal: {token!r}", line=line)
    value = float(token)
    if not math.isfinite(value):
        raise FileFormatError(f"non-finite value: {token!r}", line=line)
    return value


def _ref_int(token, line, what):
    if not _REF_INT_RE.match(token):
        raise FileFormatError(f"{what} must be an integer, got {token!r}", line=line)
    try:
        return int(token)
    except ValueError:
        raise FileFormatError(
            f"{what} has {len(token)} characters, too many for an integer",
            line=line) from None


def _ref_lines(text):
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    return lines


def reference_format_matrix(matrix) -> str:
    a = np.asarray(matrix, dtype=complex)
    lines = [str(a.shape[0])]
    for row in a:
        lines.append(" ".join(
            f"{reference_format_real(z.real)},{reference_format_real(z.imag)}"
            for z in row))
    return "\n".join(lines) + "\n"


def reference_parse_matrix(text):
    lines = _ref_lines(text)
    if not lines:
        raise FileFormatError("empty matrix file", line=1)
    n = _ref_int(lines[0].strip(), 1, "matrix side")
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
            out[i, j] = complex(_ref_real(parts[0], lineno),
                                _ref_real(parts[1], lineno))
    return out


def reference_format_coefficients(c) -> str:
    lines = [str(c.m)]
    lines += [f"{''.join(map(str, idx))} {reference_format_real(v.real)} "
              f"{reference_format_real(v.imag)}" for idx, v in c.coeffs.items()]
    return "\n".join(lines) + "\n"


def reference_parse_coefficients(text):
    lines = _ref_lines(text)
    if not lines:
        raise FileFormatError("empty coefficient file", line=1)
    m = _ref_int(lines[0].strip(), 1, "tensor order")
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
        values.append(complex(_ref_real(parts[1], lineno),
                              _ref_real(parts[2], lineno)))
    return CoefficientTensor._from_codes(m, np.array(codes, dtype=np.uint64),
                                         np.array(values, dtype=complex), 0.0)


# -- transform: one tensordot and moveaxis per tensor factor --

def _ref_apply_along_each_axis(tensor, mix, m):
    for k in range(m):
        tensor = np.moveaxis(np.tensordot(tensor, mix, axes=([k], [1])), -1, k)
    return tensor


def reference_coefficient_array(matrix):
    a = _as_square(matrix)
    m = _order_of(a.shape[0])
    return _ref_apply_along_each_axis(_interleaved(a, m), _FORWARD, m)


def reference_reconstruct(c):
    dense = np.zeros(4 ** c.m, dtype=complex)
    dense[c.codes] = c.values
    dense = dense.reshape((4,) * c.m)
    return _deinterleaved(_ref_apply_along_each_axis(dense, _INVERSE, c.m), c.m)


# -- index maps: every call validates its shape --

def _ref_validate_shape(shape):
    shape = tuple(int(s) for s in shape)
    if not shape:
        raise DomainError("factor shape must have at least one factor")
    for s in shape:
        if s < 2:
            raise DomainError(f"factor sizes must be >= 2, got {s}")
    return shape


def reference_lex_global_from_local(locals_, shape):
    shape = _ref_validate_shape(shape)
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


def reference_lex_local_from_global(i, shape):
    shape = _ref_validate_shape(shape)
    i = int(i)
    if not 0 <= i < math.prod(shape):
        raise DomainError(
            f"global index {i} out of range for shape of size {math.prod(shape)}")
    out = []
    for s in reversed(shape):
        i, v = divmod(i, s)
        out.append(v)
    return tuple(reversed(out))
