"""Matrix multiplication carried out directly on basis coefficients.

The product of two basis elements is a single phased basis element, so the
product of two coefficient tensors is a bilinear combination over stored
pairs.  ``compose`` is that general path for any tensor order; it works on
the packed codes of ``pauligl.algebra`` and takes the product index and
phase of each term pair from ``code_product``.  Its kernel composes a left
and a right stack of tensors member by member in one pass; ``verify`` passes
whole stacks through it, and ``compose`` is the one-member case.

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

from .algebra import EPSILON, Phase, _checked_integer, code_product, distinct_codes
from .decomposition import (DEFAULT_PRUNE_TOL, MAX_DENSE_BYTES, CoefficientTensor,
                            _checked_tol, _from_dense, _from_tagged, _matrix_stacks,
                            _same_order, _stack)
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


#: Term pairs per block of the compose kernel; its scratch arrays hold about
#: this many entries each, whatever the sizes of the operands.  The first
#: pass merges its product codes once it holds this many, or as many as the
#: output codes found so far.
_BLOCK_PAIRS = 8192

#: The dense accumulator (one complex slot per output code) is used when it
#: takes at most this many bytes, so m <= 8 ...
_DENSE_MAX_BYTES = 1 << 20
#: ... and there is at least one term pair per this many slots; below that,
#: zeroing and scanning the slots costs more than sorting the product codes.
_DENSE_SLOTS_PER_PAIR = 16

#: The most output terms a compose of a whole stack may have: a term takes 8
#: bytes of code and 16 of value, within ``MAX_DENSE_BYTES`` (about 11.2M).
_MAX_OUTPUT_TERMS = MAX_DENSE_BYTES // 24

#: Phase.to_complex() of each exponent, split into real and imaginary parts.
_PHASE_RE = np.array([p.to_complex().real for p in Phase])
_PHASE_IM = np.array([p.to_complex().imag for p in Phase])


def _row_blocks(na: list, nb: list):
    """Yield the term pairs of a stack in blocks of about ``_BLOCK_PAIRS``,
    given the left and right factor sizes of each member.

    A block is an index pair (ia, ib) into the stack's left and right factors
    laid end to end: left[ia] and right[ib] broadcast to the block's pairs.
    It holds either whole small members, gathered, or a range of one
    member's left rows, each against that member's whole right factor (all
    of its rows when the member fits).  Blocks and the pairs in them run in
    member order and then in lexicographic order over input index pairs.
    """
    a_off = list(itertools.accumulate(na, initial=0))
    b_off = list(itertools.accumulate(nb, initial=0))
    # a gathered block holds index arrays and copies of its operands, where
    # a row block holds views, so it takes a quarter of the pairs
    gather = _BLOCK_PAIRS // 4
    k = 0
    while k < len(na):
        end, pairs = k, 0
        while end < len(na) and pairs + na[end] * nb[end] <= gather:
            pairs += na[end] * nb[end]
            end += 1
        if end - k > 1:
            yield _gathered(na[k:end], nb[k:end], a_off[k:end], b_off[k:end])
            k = end
        else:
            rows = max(1, _BLOCK_PAIRS // max(nb[k], 1))
            right = slice(b_off[k], b_off[k + 1])
            for s in range(a_off[k], a_off[k + 1], rows):
                yield np.s_[s:min(s + rows, a_off[k + 1]), None], right
            k += 1


def _gathered(na: list, nb: list, a_start: list, b_start: list) -> tuple:
    """Index arrays of all term pairs of whole members, in pair order, given
    each member's sizes and its first left and right position."""
    # pair j of a member is its left row j // nb, right entry j % nb
    p = np.multiply(na, nb)
    j = np.arange(p.sum()) - np.repeat(np.cumsum(p) - p, p)
    width = np.repeat(nb, p)
    return np.repeat(a_start, p) + j // width, np.repeat(b_start, p) + j % width


def _output_codes(ca: np.ndarray, cb: np.ndarray, blocks) -> np.ndarray:
    """Sorted distinct codes of all products, merged once the blocks since
    the last merge hold max(_BLOCK_PAIRS, codes found so far) pairs, so
    memory stays O(block + output) and merging costs amortized O(block)
    per block.  A merge past ``_MAX_OUTPUT_TERMS`` codes raises
    DimensionError, so memory stays O(block + limit)."""
    found, pending, size = np.empty(0, dtype=np.uint64), [], 0
    for ia, ib in blocks:
        pending.append((ca[ia] ^ cb[ib]).ravel())
        size += len(pending[-1])
        if size >= max(_BLOCK_PAIRS, len(found)):
            found, pending, size = _merged(found, pending), [], 0
    return _merged(found, pending) if pending else found


def _merged(found: np.ndarray, pending: list) -> np.ndarray:
    """Sorted distinct codes of found and the pending arrays, within the limit."""
    codes = distinct_codes(np.concatenate([found, *pending]))
    if len(codes) > _MAX_OUTPUT_TERMS:
        raise DimensionError(f"compose output has at least {len(codes)} terms, "
                             f"past the limit of {_MAX_OUTPUT_TERMS}")
    return codes


def _dense_route(m: int, pairs: int, members: int = 1) -> bool:
    slots = members * 4 ** m
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
    code itself, and every slot is listed for the stack builder to prune.
    Otherwise a first pass collects the sorted distinct output codes and
    each term's slot is found by binary search, so scratch memory is
    O(block + output).  That pass raises DimensionError, before any term is
    summed, once it finds more than ``_MAX_OUTPUT_TERMS`` output codes.
    """
    return _compose(_stack([a]), _stack([b]), tol).tensor()


def _compose(left, right, tol: float):
    """The stack of ``compose(a, b, tol)`` of each member a of ``left`` and the same
    member b of ``right``, bit for bit, in one pass.  Left codes keep their tags and
    right codes lose theirs, so each member's products land in its own slots; the
    accumulator rule of ``compose`` applies to all members * 4^m tagged slots."""
    _same_order(left.m, right.m)
    _checked_tol(tol)
    m, members = left.m, left.members
    na, nb = left.sizes().tolist(), right.sizes().tolist()
    ca, cb, va, vb = left.codes, right.untagged(), left.values, right.values
    dense = _dense_route(m, sum(x * y for x, y in zip(na, nb)), members)
    out = (np.arange(members * 4 ** m, dtype=np.uint64) if dense
           else _output_codes(ca, cb, _row_blocks(na, nb)))
    acc = np.zeros(len(out), dtype=complex)
    # _from_tagged rejects a non-finite sum (an overflow) and prunes the
    # slots that stay 0, whether no term reached them or their terms cancel
    with np.errstate(over="ignore", invalid="ignore"):
        for ia, ib in _row_blocks(na, nb):
            prod, exponent = code_product(ca[ia], cb[ib])
            x, y = va[ia], vb[ib]
            pr = x.real * y.real - x.imag * y.imag
            pi = x.real * y.imag + x.imag * y.real
            fr, fi = _PHASE_RE[exponent], _PHASE_IM[exponent]
            # np.add.at applies repeated indices one after another, in pair order
            pos = (prod.ravel().astype(np.intp) if dense
                   else np.searchsorted(out, prod.ravel()))
            np.add.at(acc.real, pos, (pr * fr - pi * fi).ravel())
            np.add.at(acc.imag, pos, (pr * fi + pi * fr).ravel())
    return _from_tagged(m, out, acc, members, tol)


def _gl4_product_array(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The paper's four-family product law on stacks of 4x4 coefficient arrays
    (a claim): member k of the (n, 4, 4) result is the law on A[k] and B[k].

    Splits each array into the scalar part (0,0), first-slot vector part
    (k,0), second-slot vector part (0,l), and tensor part (k,l), k,l in 1..3.
    Each member gets the bits of the law on its pair alone: products are
    matmuls over unit trailing axes, so numpy makes a lone pair's dot or gemv
    call per member, and a00 * b00 is written out unfused, as numpy's scalar
    multiply was, since its SIMD array multiply fuses multiply-adds.
    """
    E, n = EPSILON, len(A)
    a00, ar, ac, at = A[:, 0, 0], A[:, 1:, 0], A[:, 0, 1:], A[:, 1:, 1:]
    b00, br, bc, bt = B[:, 0, 0], B[:, 1:, 0], B[:, 0, 1:], B[:, 1:, 1:]
    # (n, 1) scalars and (n, 3, 1) columns broadcast against the vector parts
    sa, sb, col = a00[:, None], b00[:, None], np.s_[:, :, None]
    ss = np.empty(n, dtype=complex)
    ss.real = a00.real * b00.real - a00.imag * b00.imag
    ss.imag = a00.real * b00.imag + a00.imag * b00.real

    C = np.zeros((n, 4, 4), dtype=complex)
    C[:, 0, 0] = (ss + (ar[:, None] @ br[col])[:, 0, 0] + (ac[:, None] @ bc[col])[:, 0, 0]
                  + (at * bt).reshape(n, 9).sum(axis=1))
    C[:, 1:, 0] = (sa * br + ar * sb + (bt @ ac[col])[..., 0] + (at @ bc[col])[..., 0]
                   + 1j * (np.einsum("lmk,bl,bm->bk", E, ar, br)
                           + np.einsum("lmk,blj,bmj->bk", E, at, bt)))
    C[:, 0, 1:] = (sa * bc + ac * sb + (at.transpose(0, 2, 1) @ br[col])[..., 0]
                   + (bt.transpose(0, 2, 1) @ ar[col])[..., 0]
                   + 1j * (np.einsum("jkl,bj,bk->bl", E, ac, bc)
                           + np.einsum("jkl,bij,bik->bl", E, at, bt)))
    C[:, 1:, 1:] = (sa[:, None] * bt + br[col] * ac[:, None] + ar[col] * bc[:, None]
                    + at * sb[:, None]
                    + 1j * (np.einsum("klj,bk,bil->bij", E, ac, bt)
                            + np.einsum("klj,bik,bl->bij", E, at, bc))
                    + 1j * (np.einsum("kli,bk,blj->bij", E, ar, bt)
                            + np.einsum("kli,bkj,bl->bij", E, at, br))
                    - np.einsum("kli,mnj,bkm,bln->bij", E, E, at, bt))
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
    return _compose_antisym(_stack([a]), _stack([b]), tol).tensor()


def _compose_antisym(left, right, tol: float):
    """``compose_antisym_gl4`` of each pair of members; the support check reads
    the whole left stack, then the whole right one."""
    _check_antisym_gl4(left, "left factor")
    _check_antisym_gl4(right, "right factor")
    return _compose(left, right, tol)


# -- validation report --------------------------------------------------------

_SCALAR_TEXT = {1 + 0j: ("+", ""), -1 + 0j: ("-", ""),
                1j: ("+", "i*"), -1j: ("-", "i*")}


def _render_terms(terms) -> str:
    parts = []
    for s, t, scalar in terms:
        sign, mag = _SCALAR_TEXT[complex(scalar)]
        body = f"{mag}A{s[0]}{s[1]}*B{t[0]}{t[1]}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f"{sign} {body}")
    return " ".join(parts)


def _term_map(terms) -> dict:
    return {(s, t): complex(scalar) for s, t, scalar in terms}


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
    pairs = _checked_integer(pairs, "pair count")
    if pairs < 1:
        raise DomainError(f"need at least one random pair, got {pairs}")
    if rng is None:
        rng = np.random.default_rng(0)

    worst = np.zeros((4, 4))
    # per pair, A and then B
    for dense in _matrix_stacks(rng, 4, pairs, per=2):
        products = _compose(*_from_dense(2, dense.reshape(-1, 16), 0.0).pairs(), 0.0)
        d = (_gl4_product_array(dense[0::2], dense[1::2])
             - products.dense().reshape(-1, 4, 4))
        # np.hypot is abs() of a Python complex, bit for bit
        np.maximum(worst, np.hypot(d.real, d.imag).max(axis=0), out=worst)
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
