"""Reference loops that the vectorized package code is tested against.

Compose: the per-pair dict loop the packed kernel replaced.  Each term
av * bv * phase is computed with Python complex arithmetic and summed into
a dict in lexicographic order over input index pairs; the sums are then
checked and pruned the way CoefficientTensor does.  The kernel in
``pauligl.composition`` must reproduce this bit for bit.

Text files: the per-token readers and writers that ``pauligl.fileio``
replaced with row and block chunks (see the section below).

Transform: the per-axis ``tensordot`` + ``moveaxis`` pass, on one matrix,
that ``pauligl.decomposition`` replaced with one matmul and transpose per
factor over a stack of matrices (the matrix-to-tensor axis order is spelled
here apart from the package's), and the trace formula
c(idx) = 2^-m * Tr(basis_element(idx) @ A) evaluated one index at a time.

Index maps: the scalar lexicographic maps, one digit at a time.

Closed forms: the four-family product law on one pair of 4x4 arrays, which
the package's law over a stack of pairs must reproduce bit for bit; the
per-entry loop that ``verify_closed_forms`` replaced with one array check;
and ``compose_gl4`` as it was when it evaluated the law, before it became a
call to ``compose``.

Small tensors: ``qvector_to_coeffs`` as it was when it built its result from
a {multi-index: value} dict; the package now passes code arrays to
``CoefficientTensor._from_codes``, with the same bits.

Antisymmetric closed form: the derived 16-component table built with one
``multi_product`` per input pair, and the term-by-term evaluator of that
table that ``compose_antisym_gl4`` replaced with a call to ``compose``.
"""

import cmath
import itertools
import math
import re

import numpy as np

from pauligl import (ANTISYMMETRIC_GL4_SUPPORT, DEFAULT_PRUNE_TOL,
                     CoefficientTensor, DimensionError, DomainError,
                     FileFormatError, basis_element, compose, multi_product)
from pauligl.algebra import EPSILON
from pauligl.decomposition import (_FORWARD, _INVERSE, MAX_ORDER, _as_square,
                                   _checked_tol, _order_of)
from pauligl.symmetry import _check_antisym_gl4


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

def _ref_interleaved(matrix, m):
    # (2^m, 2^m) -> (4,)*m with axis k the flattened (row_k, col_k) pair
    t = matrix.reshape((2,) * (2 * m))
    perm = [ax for k in range(m) for ax in (k, m + k)]
    return t.transpose(perm).reshape((4,) * m)


def _ref_deinterleaved(tensor, m):
    t = tensor.reshape((2,) * (2 * m))
    perm = [2 * k for k in range(m)] + [2 * k + 1 for k in range(m)]
    return t.transpose(perm).reshape((2 ** m, 2 ** m))


def _ref_apply_along_each_axis(tensor, mix, m):
    for k in range(m):
        tensor = np.moveaxis(np.tensordot(tensor, mix, axes=([k], [1])), -1, k)
    return tensor


def reference_coefficient_array(matrix):
    a = _as_square(matrix)
    m = _order_of(a.shape[0])
    return _ref_apply_along_each_axis(_ref_interleaved(a, m), _FORWARD, m)


def reference_reconstruct(c):
    dense = np.zeros(4 ** c.m, dtype=complex)
    dense[c.codes] = c.values
    dense = dense.reshape((4,) * c.m)
    return _ref_deinterleaved(_ref_apply_along_each_axis(dense, _INVERSE, c.m),
                              c.m)


def reference_decompose_via_traces(matrix, tol=DEFAULT_PRUNE_TOL):
    """Evaluate c(idx) = 2^-m * Tr(basis_element(idx) @ A) per index."""
    _checked_tol(tol)
    a = _as_square(matrix)
    m = _order_of(a.shape[0])
    scale = 2.0 ** -m
    # itertools.product runs through the indices in code order
    values = np.array([scale * complex(np.einsum("ij,ji->", basis_element(idx), a))
                       for idx in itertools.product(range(4), repeat=m)])
    return CoefficientTensor._from_codes(m, np.arange(4 ** m, dtype=np.uint64),
                                         values, tol)


# -- index maps: every call validates its shape --

def _ref_validate_shape(shape):
    sizes = []
    for s in shape:
        # int() truncates 3.5 and parses "3"; neither is a factor size
        if int(s) != s:
            raise DomainError(f"factor size must be an integer, got {s!r}")
        sizes.append(int(s))
    shape = tuple(sizes)
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


# -- small tensors: built from a {multi-index: value} dict --

def reference_qvector_to_coeffs(q, tol=DEFAULT_PRUNE_TOL):
    a1, a2, a3 = q.a
    b1, b2, b3 = q.b
    coeffs = {
        (2, 1): (-1j * a1 - b1) / 2,
        (1, 2): (1j * a1 - b1) / 2,
        (2, 0): (1j * a2 - b2) / 2,
        (2, 3): (1j * a2 + b2) / 2,
        (0, 2): (-1j * a3 - b3) / 2,
        (3, 2): (-1j * a3 + b3) / 2,
    }
    return CoefficientTensor(2, coeffs, tol=tol)


def reference_derived_antisym_table() -> dict:
    """{output index: ((s, t, scalar), ...)} over the 36 ordered pairs of
    antisymmetric basis indices, one ``multi_product`` per pair."""
    table = {(p, q): [] for p in range(4) for q in range(4)}
    for s in sorted(ANTISYMMETRIC_GL4_SUPPORT):
        for t in sorted(ANTISYMMETRIC_GL4_SUPPORT):
            phase, lam = multi_product(s, t)
            table[lam].append((s, t, phase.to_complex()))
    return {k: tuple(v) for k, v in table.items()}


_REF_ANTISYM_TABLE = reference_derived_antisym_table()


def _coeff_matrix(c) -> np.ndarray:
    """The 16 coefficients of an order-2 tensor as a 4x4 array indexed by
    digits, read from its mapping one entry at a time."""
    A = np.zeros((4, 4), dtype=complex)
    for (p, q), value in c.coeffs.items():
        A[p, q] = value
    return A


def reference_compose_antisym_gl4(a, b, tol=DEFAULT_PRUNE_TOL):
    """The 16-component table evaluated term by term with Python complex
    numbers, in table order."""
    _check_antisym_gl4(a, "left factor")
    _check_antisym_gl4(b, "right factor")
    A, B = _coeff_matrix(a).tolist(), _coeff_matrix(b).tolist()
    acc = {}
    for out, terms in _REF_ANTISYM_TABLE.items():
        total = 0j
        for (s0, s1), (t0, t1), scalar in terms:
            total += scalar * A[s0][s1] * B[t0][t1]
        acc[out] = total
    return CoefficientTensor(2, acc, tol=tol)


# -- closed forms: the family errors one entry at a time --

def _ref_family_of(p, q):
    if p == 0 and q == 0:
        return "00"
    if q == 0:
        return "k0"
    if p == 0:
        return "0l"
    return "kl"


def reference_gl4_product_array(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The paper's four-family product law on 4x4 coefficient arrays (a claim).

    Splits each array into the scalar part (0,0), first-slot vector part
    (k,0), second-slot vector part (0,l), and tensor part (k,l), k,l in 1..3.
    """
    E = EPSILON
    a00, ar, ac, at = A[0, 0], A[1:, 0], A[0, 1:], A[1:, 1:]
    b00, br, bc, bt = B[0, 0], B[1:, 0], B[0, 1:], B[1:, 1:]

    C = np.zeros((4, 4), dtype=complex)
    C[0, 0] = a00 * b00 + ar @ br + ac @ bc + np.sum(at * bt)
    C[1:, 0] = (a00 * br + ar * b00 + bt @ ac + at @ bc
                + 1j * (np.einsum("lmk,l,m->k", E, ar, br)
                        + np.einsum("lmk,lj,mj->k", E, at, bt)))
    C[0, 1:] = (a00 * bc + ac * b00 + at.T @ br + bt.T @ ar
                + 1j * (np.einsum("jkl,j,k->l", E, ac, bc)
                        + np.einsum("jkl,ij,ik->l", E, at, bt)))
    C[1:, 1:] = (a00 * bt + np.outer(br, ac) + np.outer(ar, bc) + at * b00
                 + 1j * (np.einsum("klj,k,il->ij", E, ac, bt)
                         + np.einsum("klj,ik,l->ij", E, at, bc))
                 + 1j * (np.einsum("kli,k,lj->ij", E, ar, bt)
                         + np.einsum("kli,kj,l->ij", E, at, br))
                 - np.einsum("kli,mnj,km,ln->ij", E, E, at, bt))
    return C


def reference_compose_gl4(a, b, tol=DEFAULT_PRUNE_TOL):
    """Closed-form product for order-2 tensors; agrees with ``compose``."""
    C = reference_gl4_product_array(_coeff_matrix(a), _coeff_matrix(b))
    return CoefficientTensor._from_codes(2, np.arange(16, dtype=np.uint64),
                                         C.reshape(-1), tol)


def reference_family_errors(rng, pairs):
    """{family: largest |closed form - compose| entry} over random dense pairs,
    drawn from rng as ``verify_closed_forms`` draws them."""
    worst = {fam: 0.0 for fam in ("00", "k0", "0l", "kl")}
    for _ in range(pairs):
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = CoefficientTensor._from_codes(2, np.arange(16, dtype=np.uint64),
                                          A.reshape(-1), 0.0)
        b = CoefficientTensor._from_codes(2, np.arange(16, dtype=np.uint64),
                                          B.reshape(-1), 0.0)
        general = _coeff_matrix(compose(a, b, tol=0.0)).tolist()
        closed = _coeff_matrix(reference_compose_gl4(a, b, tol=0.0)).tolist()
        for p in range(4):
            for q in range(4):
                err = abs(closed[p][q] - general[p][q])
                fam = _ref_family_of(p, q)
                if err > worst[fam]:
                    worst[fam] = err
    return worst
