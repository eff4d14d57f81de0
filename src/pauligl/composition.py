"""Matrix multiplication carried out directly on basis coefficients.

The product of two basis elements is a single phased basis element, so the
product of two coefficient tensors is a bilinear combination over stored
pairs.  ``compose`` is that general path for any tensor order; it works on
the packed codes of ``pauligl.algebra`` and takes the product index and
phase of each term pair from ``code_product``.

For order 2 (4x4 matrices) the paper gives two closed forms, a four-family
product law and a 16-component table for the six antisymmetric basis
indices.  Both are claims only: ``compose_gl4`` checks the order and
``compose_antisym_gl4`` the support, and each then runs ``compose``.
``verify_closed_forms`` checks both forms against ``compose`` and reports each
tabulated formula as CONFIRMED or MISMATCH with the derived correction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import EPSILON, Phase, code_product, distinct_codes
from .decomposition import (DEFAULT_PRUNE_TOL, CoefficientTensor, _checked_tol,
                            _coeff_matrix)
from .errors import DimensionError, DomainError
from .symmetry import (ANTISYMMETRIC_GL4_SUPPORT, _ANTISYM_GL4_CODES,
                       _check_antisym_gl4)

__all__ = [
    "compose",
    "compose_gl4",
    "compose_antisym_gl4",
    "verify_closed_forms",
    "FamilyCheck",
    "ComponentCheck",
    "ClosedFormReport",
    "TABULATED_ANTISYM_COMPONENTS",
]


#: Term pairs per block of the compose kernel's second pass; its scratch
#: arrays hold about this many entries each, whatever the sizes of the
#: operands.  First-pass blocks start at this size and grow with the
#: output codes found so far.
_BLOCK_PAIRS = 8192

#: The dense accumulator (one complex slot per output code) is used when it
#: takes at most this many bytes, so m <= 8 ...
_DENSE_MAX_BYTES = 1 << 20
#: ... and there is at least one term pair per this many slots; below that,
#: zeroing and scanning the slots costs more than sorting the product codes.
_DENSE_SLOTS_PER_PAIR = 16

#: Phase.to_complex() of each exponent, split into real and imaginary parts.
_PHASE_RE = np.array([p.to_complex().real for p in Phase])
_PHASE_IM = np.array([p.to_complex().imag for p in Phase])


def _row_blocks(a: CoefficientTensor, b: CoefficientTensor) -> list:
    rows = max(1, _BLOCK_PAIRS // max(len(b), 1))
    return [slice(s, s + rows) for s in range(0, len(a), rows)]


def _output_codes(ca: np.ndarray, cb: np.ndarray) -> np.ndarray:
    """Sorted distinct codes of all products, merged one row block at a time.

    A block holds about max(_BLOCK_PAIRS, codes found so far) pairs, so
    memory stays O(block + output) and merging costs amortized O(block)
    per block.
    """
    found, start = np.empty(0, dtype=np.uint64), 0
    while start < len(ca):
        rows = max(1, max(_BLOCK_PAIRS, len(found)) // max(len(cb), 1))
        block = ca[start:start + rows, None] ^ cb
        found = distinct_codes(np.concatenate([found, block.ravel()]))
        start += rows
    return found


def _dense_route(m: int, pairs: int) -> bool:
    slots = 4 ** m
    return (16 * slots <= _DENSE_MAX_BYTES
            and pairs * _DENSE_SLOTS_PER_PAIR >= slots)


def compose(a: CoefficientTensor, b: CoefficientTensor,
            tol: float = DEFAULT_PRUNE_TOL) -> CoefficientTensor:
    """Coefficient-space product: reconstruct(compose(a, b)) = reconstruct(a) @ reconstruct(b).

    Cost is O(nnz(a) * nnz(b)), evaluated in row blocks of about
    ``_BLOCK_PAIRS`` term pairs.  Each term is a * b * phase, with both
    complex products written out as re = x.re*y.re - x.im*y.im,
    im = x.re*y.im + x.im*y.re, and terms landing on the same output index
    are summed in lexicographic order over input index pairs, starting
    from +0.0.  Results are therefore bit-deterministic, and equal bit for
    bit to the same sum done with Python complex numbers.

    The terms go to one of two accumulators, with the same bits from either.
    When all 4^m output slots fit in ``_DENSE_MAX_BYTES`` (m <= 8) and there
    is at least one term pair per ``_DENSE_SLOTS_PER_PAIR`` slots, each term
    is added into a zeroed slot per output code, indexed by the product
    code itself, and the nonzero slots are kept.  Otherwise a first pass
    collects the sorted distinct output codes and each term's slot is
    found by binary search, so scratch memory is O(block + output).
    """
    if a.m != b.m:
        raise DimensionError(f"tensor orders differ: {a.m} vs {b.m}")
    _checked_tol(tol)
    ca, cb = a.codes, b.codes
    dense = _dense_route(a.m, len(ca) * len(cb))
    out = None if dense else _output_codes(ca, cb)
    acc = np.zeros(4 ** a.m if dense else len(out), dtype=complex)
    ar, ai = a.values.real[:, None], a.values.imag[:, None]
    br, bi = b.values.real, b.values.imag
    # an overflow shows up as a non-finite sum, which _from_codes rejects
    with np.errstate(over="ignore", invalid="ignore"):
        for blk in _row_blocks(a, b):
            prod, exponent = code_product(ca[blk, None], cb)
            pr = ar[blk] * br - ai[blk] * bi
            pi = ar[blk] * bi + ai[blk] * br
            fr, fi = _PHASE_RE[exponent], _PHASE_IM[exponent]
            # np.add.at applies repeated indices one after another, in pair order
            pos = (prod.ravel().astype(np.intp) if dense
                   else np.searchsorted(out, prod.ravel()))
            np.add.at(acc.real, pos, (pr * fr - pi * fi).ravel())
            np.add.at(acc.imag, pos, (pr * fi + pi * fr).ravel())
    if dense:
        # a slot that no term reached, or whose terms cancel, is 0 and would
        # be pruned anyway; nan and inf are nonzero and stay to be rejected
        # (acc != 0 is np.nonzero's own test, and twice as fast on complex)
        out = np.flatnonzero(acc != 0).astype(np.uint64)
        acc = acc[out]
    return CoefficientTensor._from_codes(a.m, out, acc, tol)


def _gl4_product_array(A: np.ndarray, B: np.ndarray) -> np.ndarray:
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


def compose_gl4(a: CoefficientTensor, b: CoefficientTensor,
                tol: float = DEFAULT_PRUNE_TOL) -> CoefficientTensor:
    """Product of order-2 tensors; equals ``compose``."""
    for c in (a, b):
        if c.m != 2:
            raise DimensionError(f"closed form requires tensor order 2, got {c.m}")
    return compose(a, b, tol)


# -- antisymmetric-support closed form ---------------------------------------

def _derived_antisym_table() -> dict[tuple, tuple]:
    """Component terms obtained from the structure constants themselves.

    For each ordered pair (s, t) of antisymmetric basis indices the product
    sigma_s sigma_t is one phased basis element, so each output component is
    a short bilinear form in the input coefficients.
    """
    prod, exponent = code_product(_ANTISYM_GL4_CODES[:, None], _ANTISYM_GL4_CODES)
    table: dict[tuple, list] = {divmod(code, 4): [] for code in range(16)}
    pairs = itertools.product(sorted(ANTISYMMETRIC_GL4_SUPPORT), repeat=2)
    for (s, t), code, e in zip(pairs, prod.ravel().tolist(), exponent.ravel().tolist()):
        table[divmod(code, 4)].append((s, t, Phase(e).to_complex()))
    return {k: tuple(v) for k, v in table.items()}


_DERIVED_ANTISYM_TABLE = _derived_antisym_table()

# Tabulated 16-component formulas for products of antisymmetric-support
# tensors, transcribed as term lists (input index A, input index B, scalar).
# These are validation targets, not an executable path: verify_closed_forms
# compares each against the derived table above.  One component, C21, fails
# the check (its tabulated scalar on the (2,3)x(0,2) term is +1 where the
# structure constants give -i); the derived table carries the correction.
TABULATED_ANTISYM_COMPONENTS: dict[tuple, tuple] = {
    (0, 0): (((0, 2), (0, 2), 1), ((1, 2), (1, 2), 1), ((2, 3), (2, 3), 1),
             ((2, 0), (2, 0), 1), ((2, 1), (2, 1), 1), ((3, 2), (3, 2), 1)),
    (0, 1): (((2, 0), (2, 1), 1), ((2, 1), (2, 0), 1)),
    (0, 2): (((2, 3), (2, 1), 1j), ((2, 1), (2, 3), -1j)),
    (0, 3): (((2, 0), (2, 3), 1), ((2, 3), (2, 0), 1)),
    (1, 0): (((0, 2), (1, 2), 1), ((1, 2), (0, 2), 1)),
    (2, 0): (((3, 2), (1, 2), 1j), ((1, 2), (3, 2), -1j)),
    (3, 0): (((0, 2), (3, 2), 1), ((3, 2), (0, 2), 1)),
    (1, 1): (((2, 3), (3, 2), 1), ((3, 2), (2, 3), 1)),
    (1, 2): (((2, 0), (3, 2), 1j), ((3, 2), (2, 0), -1j)),
    (1, 3): (((2, 1), (3, 2), -1), ((3, 2), (2, 1), -1)),
    (2, 1): (((0, 2), (2, 3), 1j), ((2, 3), (0, 2), 1)),
    (2, 2): (((0, 2), (2, 0), 1), ((2, 0), (0, 2), 1)),
    (2, 3): (((2, 1), (0, 2), 1j), ((0, 2), (2, 1), -1j)),
    (3, 1): (((1, 2), (2, 3), -1), ((2, 3), (1, 2), -1)),
    (3, 2): (((1, 2), (2, 0), 1j), ((2, 0), (1, 2), -1j)),
    (3, 3): (((1, 2), (2, 1), 1), ((2, 1), (1, 2), 1)),
}


def compose_antisym_gl4(a: CoefficientTensor, b: CoefficientTensor,
                        tol: float = DEFAULT_PRUNE_TOL) -> CoefficientTensor:
    """Product of order-2 tensors with antisymmetric support; equals ``compose``.

    Both inputs must be supported on the six antisymmetric basis indices.
    The output generally is not (the class is not closed under products).
    """
    _check_antisym_gl4(a, "left factor")
    _check_antisym_gl4(b, "right factor")
    return compose(a, b, tol)


# -- validation report --------------------------------------------------------

_SCALAR_TEXT = {1 + 0j: ("+", ""), -1 + 0j: ("-", ""),
                1j: ("+", "i*"), -1j: ("-", "i*")}


def _render_terms(terms) -> str:
    parts = []
    for s, t, scalar in terms:
        sign, mag = _SCALAR_TEXT.get(complex(scalar), ("+", f"({scalar})*"))
        body = f"{mag}A{s[0]}{s[1]}*B{t[0]}{t[1]}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f"{sign} {body}")
    return " ".join(parts)


def _term_map(terms) -> dict:
    out: dict[tuple, complex] = {}
    for s, t, scalar in terms:
        key = (s, t)
        out[key] = out.get(key, 0j) + complex(scalar)
    return {k: v for k, v in out.items() if v != 0}


@dataclass(frozen=True)
class FamilyCheck:
    """Random-pair agreement of one family of _gl4_product_array with compose."""
    family: str
    pairs: int
    max_error: float

    @property
    def confirmed(self) -> bool:
        return self.max_error <= 1e-12


@dataclass(frozen=True)
class ComponentCheck:
    """Exact agreement of one tabulated antisymmetric-table component."""
    index: tuple
    tabulated: str
    derived: str
    confirmed: bool


@dataclass(frozen=True)
class ClosedFormReport:
    families: tuple
    components: tuple

    @property
    def families_confirmed(self) -> bool:
        return all(f.confirmed for f in self.families)

    def mismatched_components(self) -> tuple:
        return tuple(c for c in self.components if not c.confirmed)

    def render(self) -> str:
        lines = ["closed-form product law, component families:"]
        for f in self.families:
            verdict = "CONFIRMED" if f.confirmed else "MISMATCH"
            lines.append(
                f"  family {f.family}: {verdict} "
                f"(max error {f.max_error:.3e} over {f.pairs} random pairs)")
        lines.append("antisymmetric-support component table:")
        for c in self.components:
            name = f"C{c.index[0]}{c.index[1]}"
            if c.confirmed:
                lines.append(f"  {name}: CONFIRMED ({c.derived})")
            else:
                lines.append(f"  {name}: MISMATCH tabulated {c.tabulated}; "
                             f"corrected {c.derived}")
        return "\n".join(lines)


#: The four component families of the product law, as slices of the 4x4
#: coefficient array.
_FAMILIES = {"00": np.s_[0, 0], "k0": np.s_[1:, 0], "0l": np.s_[0, 1:],
             "kl": np.s_[1:, 1:]}


def verify_closed_forms(rng: np.random.Generator | None = None,
                        pairs: int = 100) -> ClosedFormReport:
    """Check both closed forms against the general product and report.

    Component-family errors come from random dense coefficient pairs; the
    antisymmetric table is compared term-by-term, which is equivalent to
    brute force over all 36 single-component input pairs.  Mismatches are
    report content, not exceptions: they document the tabulated formulas,
    not this implementation.
    """
    if pairs < 1:
        raise DomainError(f"need at least one random pair, got {pairs}")
    if rng is None:
        rng = np.random.default_rng(0)

    worst = np.zeros((4, 4))
    for _ in range(pairs):
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = CoefficientTensor._from_codes(2, np.arange(16, dtype=np.uint64),
                                          A.reshape(-1), 0.0)
        b = CoefficientTensor._from_codes(2, np.arange(16, dtype=np.uint64),
                                          B.reshape(-1), 0.0)
        d = _gl4_product_array(A, B) - _coeff_matrix(compose(a, b, 0.0))
        # np.hypot is abs() of a Python complex, bit for bit
        np.maximum(worst, np.hypot(d.real, d.imag), out=worst)
    families = tuple(FamilyCheck(fam, pairs, float(worst[part].max()))
                     for fam, part in _FAMILIES.items())

    components = []
    for out in sorted(TABULATED_ANTISYM_COMPONENTS):
        tab = TABULATED_ANTISYM_COMPONENTS[out]
        derived = _DERIVED_ANTISYM_TABLE[out]
        components.append(ComponentCheck(
            index=out,
            tabulated=_render_terms(tab),
            derived=_render_terms(derived),
            confirmed=_term_map(tab) == _term_map(derived),
        ))
    return ClosedFormReport(families=families, components=tuple(components))
