"""Exact arithmetic for the 2x2 generator matrices and their Kronecker products.

A length-m tuple of digits in {0, 1, 2, 3} (a multi-index) names one basis
element of the space of 2^m x 2^m complex matrices: the Kronecker product of
the corresponding 2x2 generators, leftmost factor first.  The product of two
basis elements is again a single basis element times a phase in
{1, i, -1, -i}.  That phase is carried exactly, as an integer power of i, so
multiplying basis elements involves no floating-point arithmetic at all.

Coefficient tensors store multi-indices packed into one unsigned 64-bit
*code* each: the base-4 number whose digits are the multi-index, leftmost
factor most significant, so integer order is lexicographic order and m is at
most 32.  Per factor, the high bit of a digit is its z bit and low ^ high its
x bit (digit 1 is x, 3 is z, 2 is both), which is the symplectic encoding of
Aaronson & Gottesman, "Improved simulation of stabilizer circuits" (PRA 70,
052328, 2004).  ``code_product`` evaluates the product law on such codes and
is the package's only source of structure constants: ``multi_product``
applies it to one-digit codes, one per factor, and ``compose`` to whole
packed codes.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, DomainError

__all__ = [
    "EPSILON",
    "Phase",
    "ScaledMultiIndex",
    "code_product",
    "pauli_matrix",
    "single_product",
    "multi_product",
    "basis_element",
    "validate_multi_index",
    "pack_index",
    "code_digits",
    "y_counts",
    "distinct_codes",
    "z_bits",
    "x_bits",
]

#: Levi-Civita symbol on indices 0..2 with EPSILON[0, 1, 2] == +1.
EPSILON = np.zeros((3, 3, 3), dtype=np.int8)
for _i, _j, _k, _s in [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                       (2, 1, 0, -1), (1, 0, 2, -1), (0, 2, 1, -1)]:
    EPSILON[_i, _j, _k] = _s
EPSILON.flags.writeable = False


class Phase(enum.Enum):
    """A fourth root of unity, stored exactly as the exponent of i."""

    PLUS_ONE = 0
    PLUS_I = 1
    MINUS_ONE = 2
    MINUS_I = 3

    def __mul__(self, other: "Phase") -> "Phase":
        return Phase((self.value + other.value) % 4)

    def to_complex(self) -> complex:
        return (1 + 0j, 1j, -1 + 0j, -1j)[self.value]

    def __repr__(self) -> str:
        return ("+1", "+i", "-1", "-i")[self.value]


class ScaledMultiIndex(NamedTuple):
    """A basis element together with an exact phase: phase * basis[index]."""

    phase: Phase
    index: tuple[int, ...]


def _readonly(rows) -> np.ndarray:
    m = np.array(rows, dtype=complex)
    m.flags.writeable = False
    return m


_GENERATORS = (
    _readonly([[1, 0], [0, 1]]),
    _readonly([[0, 1], [1, 0]]),
    _readonly([[0, -1j], [1j, 0]]),
    _readonly([[1, 0], [0, -1]]),
)


def _checked_integer(value, what: str) -> int:
    if type(value) is int:  # the common case, and already the answer
        return value
    # int() refuses NaN and +-inf with its own ValueError and OverflowError
    if isinstance(value, (float, np.floating)) and not np.isfinite(value):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    integer = int(value)
    # int() truncates 2.9 and parses "1"; neither is an integer
    if integer != value:
        raise DomainError(f"{what} must be an integer, got {value!r}")
    return integer


def _check_digit(mu) -> int:
    digit = _checked_integer(mu, "generator index")
    if digit not in (0, 1, 2, 3):
        raise DomainError(f"generator index must be in 0..3, got {mu}")
    return digit


def validate_multi_index(idx) -> tuple[int, ...]:
    """Normalize to a tuple of digits in 0..3; reject empty or out-of-range."""
    idx = tuple(_check_digit(mu) for mu in idx)
    if not idx:
        raise DimensionError("multi-index must have at least one factor")
    return idx


def pauli_matrix(mu: int) -> np.ndarray:
    """The 2x2 generator for digit mu: identity, then the three Pauli matrices.

    Entries are exact (0, +-1, +-i).  The returned array is read-only.
    """
    return _GENERATORS[_check_digit(mu)]


def single_product(mu: int, nu: int) -> ScaledMultiIndex:
    """Exact product of two generators: generator(mu) @ generator(nu)."""
    return multi_product((mu,), (nu,))


def multi_product(a, b) -> ScaledMultiIndex:
    """Factorwise product of two equal-length multi-indices.

    Returns the single phased basis element equal to
    basis_element(a) @ basis_element(b); phases multiply across factors.
    """
    a = validate_multi_index(a)
    b = validate_multi_index(b)
    if len(a) != len(b):
        raise DimensionError(
            f"incompatible tensor orders: {len(a)} vs {len(b)}")
    # each digit is the one-factor code of itself, so no order limit applies
    prod, exponent = code_product(np.array(a, dtype=np.uint64),
                                  np.array(b, dtype=np.uint64))
    return ScaledMultiIndex(Phase(int(exponent.sum()) % 4), tuple(prod.tolist()))


def basis_element(idx) -> np.ndarray:
    """Dense 2^m x 2^m basis element for a multi-index (read-only)."""
    idx = validate_multi_index(idx)
    mat = _GENERATORS[idx[0]]
    for mu in idx[1:]:
        # np.kron's products, without its per-call overhead
        n = 2 * len(mat)
        mat = (mat[:, None, :, None] * _GENERATORS[mu][None, :, None, :]).reshape(n, n)
    mat.flags.writeable = False
    return mat


# -- packed codes -------------------------------------------------------------

_LOW_BITS = 0x5555555555555555  # the low bit of every 2-bit digit


def pack_index(idx: tuple[int, ...]) -> int:
    """Base-4 code of a validated multi-index, leftmost digit most significant."""
    code = 0
    for mu in idx:
        code = 4 * code + mu
    return code


def code_digits(codes: np.ndarray, m: int) -> np.ndarray:
    """(len(codes), m) uint8 array of the digits of each uint64 code."""
    shifts = np.arange(2 * (m - 1), -1, -2, dtype=np.uint64)
    return ((codes[:, None] >> shifts) & 3).astype(np.uint8)


def z_bits(codes: np.ndarray) -> np.ndarray:
    """Per-factor z bits (digits 2 and 3), one at each digit's low position."""
    return (codes >> 1) & _LOW_BITS


def x_bits(codes: np.ndarray) -> np.ndarray:
    """Per-factor x bits (digits 1 and 2), one at each digit's low position."""
    return (codes ^ (codes >> 1)) & _LOW_BITS


def y_counts(codes: np.ndarray) -> np.ndarray:
    """Number of digit-2 factors of each code (uint8)."""
    return np.bitwise_count(z_bits(codes) & ~codes)


def code_product(ca: np.ndarray, cb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Product law on uint64 code arrays, elementwise with broadcasting.

    Returns ``(ca ^ cb, exponent)``: the basis element of code ca times the
    one of code cb is i**exponent (uint8, in 0..3) times the one of code
    ca ^ cb.  The exponent is ny(a) + ny(b) - ny(a ^ b) + 2 |z(a) & x(b)|
    mod 4, where ny counts the digit-2 factors.
    """
    prod = ca ^ cb
    # uint8 exponent arithmetic wraps mod 256, which keeps it right mod 4
    exponent = (y_counts(ca) + y_counts(cb) - y_counts(prod)
                + 2 * np.bitwise_count(z_bits(ca) & x_bits(cb))) & 3
    return prod, exponent


def distinct_codes(codes: np.ndarray) -> np.ndarray:
    """Sorted distinct entries of a code array.

    Same result as np.unique, which imports numpy.ma on first use (over a
    megabyte of resident memory for the command-line tool).
    """
    codes = np.sort(codes, axis=None)
    keep = np.ones(len(codes), dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    return codes[keep]
