"""Matrix multiplication carried out directly on basis coefficients.

The product of two basis elements is a single phased basis element, so the
product of two coefficient tensors is a bilinear combination over stored
pairs.  ``compose`` is that general path for any tensor order; it works on
the packed codes of ``pauligl.algebra``, where the product index of two terms
is the xor of their codes and the phase is a popcount formula.

For order 2 (4x4 matrices) two closed-form paths are shipped alongside:
``compose_gl4`` evaluates the four component families of the product law
directly, and ``compose_antisym_gl4`` evaluates a 16-component table valid
when both inputs are supported on the six antisymmetric basis indices.
Both closed forms are treated as claims: ``verify_closed_forms`` checks every
component against the general path and reports each tabulated formula as
CONFIRMED or MISMATCH with the derived correction.  The shipped evaluators
always use the derived (structure-constant) terms, which coincide with the
tabulated ones wherever those are confirmed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (EPSILON, Phase, distinct_codes, multi_product, x_bits,
                      y_counts, z_bits)
from .decomposition import (DEFAULT_PRUNE_TOL, CoefficientTensor, _checked_tol,
                            _coeff_matrix)
from .errors import DimensionError
from .symmetry import ANTISYMMETRIC_GL4_SUPPORT, _antisym_gl4_matrix

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


#: Term pairs per block of the compose kernel; its scratch arrays hold
#: about this many entries each, whatever the sizes of the operands.
_BLOCK_PAIRS = 8192

#: Phase.to_complex() of each exponent, split into real and imaginary parts.
_PHASE_RE = np.array([p.to_complex().real for p in Phase])
_PHASE_IM = np.array([p.to_complex().imag for p in Phase])


def _row_blocks(a: CoefficientTensor, b: CoefficientTensor) -> list:
    rows = max(1, _BLOCK_PAIRS // max(len(b), 1))
    return [slice(s, s + rows) for s in range(0, len(a), rows)]


def _output_codes(ca: np.ndarray, cb: np.ndarray, blocks: list) -> np.ndarray:
    """Sorted distinct codes of all products, gathered one row block at a time.

    Block results wait in ``pending`` until they outnumber the codes found so
    far, so memory stays O(block + output) and merging costs amortized
    O(block) per block.
    """
    found, pending, held = np.empty(0, dtype=np.uint64), [], 0
    for blk in blocks:
        pending.append(distinct_codes(ca[blk, None] ^ cb))
        held += len(pending[-1])
        if held > len(found):
            # each part is sorted and distinct, so a lone part needs no merge
            if len(found) or len(pending) > 1:
                found = distinct_codes(np.concatenate([found, *pending]))
            else:
                found = pending[0]
            pending, held = [], 0
    return distinct_codes(np.concatenate([found, *pending])) if pending else found


def compose(a: CoefficientTensor, b: CoefficientTensor,
            tol: float = DEFAULT_PRUNE_TOL) -> CoefficientTensor:
    """Coefficient-space product: reconstruct(compose(a, b)) = reconstruct(a) @ reconstruct(b).

    Cost is O(nnz(a) * nnz(b)), evaluated in row blocks of about
    ``_BLOCK_PAIRS`` term pairs, so scratch memory is O(block + output).
    Each term is a * b * phase, with both complex products written out as
    re = x.re*y.re - x.im*y.im, im = x.re*y.im + x.im*y.re, and terms landing
    on the same output index are summed in lexicographic order over input
    index pairs.  Results are therefore bit-deterministic, and equal bit for
    bit to the same sum done with Python complex numbers.
    """
    if a.m != b.m:
        raise DimensionError(f"tensor orders differ: {a.m} vs {b.m}")
    _checked_tol(tol)
    ca, cb = a.codes, b.codes
    blocks = _row_blocks(a, b)
    out = _output_codes(ca, cb, blocks)
    acc = np.zeros(len(out), dtype=complex)
    # uint8 exponent arithmetic wraps mod 256, which keeps it right mod 4
    ny_a, ny_b = y_counts(ca), y_counts(cb)
    z_a, x_b = z_bits(ca), x_bits(cb)
    ar, ai = a.values.real[:, None], a.values.imag[:, None]
    br, bi = b.values.real, b.values.imag
    # an overflow shows up as a non-finite sum, which _from_codes rejects
    with np.errstate(over="ignore", invalid="ignore"):
        for blk in blocks:
            prod = ca[blk, None] ^ cb
            exponent = (ny_a[blk, None] + ny_b - y_counts(prod)
                        + 2 * np.bitwise_count(z_a[blk, None] & x_b)) & 3
            pr = ar[blk] * br - ai[blk] * bi
            pi = ar[blk] * bi + ai[blk] * br
            fr, fi = _PHASE_RE[exponent], _PHASE_IM[exponent]
            # np.add.at applies repeated indices one after another, in pair order
            pos = np.searchsorted(out, prod.ravel())
            np.add.at(acc.real, pos, (pr * fr - pi * fi).ravel())
            np.add.at(acc.imag, pos, (pr * fi + pi * fr).ravel())
    return CoefficientTensor._from_codes(a.m, out, acc, tol)


# an overflow leaves inf or nan in the result, which CoefficientTensor
# rejects as a DomainError; numpy's warning would only echo it to stderr
@np.errstate(over="ignore", invalid="ignore")
def _gl4_product_array(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Four-family product law on 4x4 coefficient arrays.

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
    """Closed-form product for order-2 tensors; agrees with ``compose``."""
    C = _gl4_product_array(_coeff_matrix(a), _coeff_matrix(b))
    return CoefficientTensor._from_codes(2, np.arange(16, dtype=np.uint64),
                                         C.reshape(-1), tol)


# -- antisymmetric-support closed form ---------------------------------------

def _derived_antisym_table() -> dict[tuple, tuple]:
    """Component terms obtained from the structure constants themselves.

    For each ordered pair (s, t) of antisymmetric basis indices the product
    sigma_s sigma_t is one phased basis element, so each output component is
    a short bilinear form in the input coefficients.
    """
    table: dict[tuple, list] = {(p, q): [] for p in range(4) for q in range(4)}
    for s in sorted(ANTISYMMETRIC_GL4_SUPPORT):
        for t in sorted(ANTISYMMETRIC_GL4_SUPPORT):
            phase, lam = multi_product(s, t)
            table[lam].append((s, t, phase.to_complex()))
    return {k: tuple(v) for k, v in table.items()}


_DERIVED_ANTISYM_TABLE = _derived_antisym_table()

# Tabulated 16-component formulas for products of antisymmetric-support
# tensors, transcribed as term lists (input index A, input index B, scalar).
# These are validation targets, not the executable path: verify_closed_forms
# compares each against the general product.  One component, C21, fails the
# check (its tabulated scalar on the (2,3)x(0,2) term is +1 where the
# structure constants give -i); the derived table above carries the
# correction.
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
    """Closed-form product for order-2 tensors with antisymmetric support.

    Both inputs must be supported on the six antisymmetric basis indices.
    The output generally is not (the class is not closed under products).
    """
    # summed as Python complex numbers, term by term in table order
    A = _antisym_gl4_matrix(a, "left factor").tolist()
    B = _antisym_gl4_matrix(b, "right factor").tolist()
    acc: dict[tuple, complex] = {}
    for out, terms in _DERIVED_ANTISYM_TABLE.items():
        total = 0j
        for (s0, s1), (t0, t1), scalar in terms:
            total += scalar * A[s0][s1] * B[t0][t1]
        acc[out] = total
    return CoefficientTensor(2, acc, tol=tol)


# -- validation report --------------------------------------------------------

_SCALAR_TEXT = {1 + 0j: ("+", ""), -1 + 0j: ("-", ""),
                1j: ("+", "i*"), -1j: ("-", "i*")}


def _render_terms(terms) -> str:
    if not terms:
        return "0"
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
    """Random-pair agreement of one compose_gl4 component family with compose."""
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


def _family_of(p: int, q: int) -> str:
    if p == 0 and q == 0:
        return "00"
    if q == 0:
        return "k0"
    if p == 0:
        return "0l"
    return "kl"


_FAMILIES = ("00", "k0", "0l", "kl")


def verify_closed_forms(rng: np.random.Generator | None = None,
                        pairs: int = 100) -> ClosedFormReport:
    """Check both closed forms against the general product and report.

    Component-family errors come from random dense coefficient pairs; the
    antisymmetric table is compared term-by-term, which is equivalent to
    brute force over all 36 single-component input pairs.  Mismatches are
    report content, not exceptions: they document the tabulated formulas,
    not this implementation.
    """
    if rng is None:
        rng = np.random.default_rng(0)

    worst = {fam: 0.0 for fam in _FAMILIES}
    for _ in range(pairs):
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = CoefficientTensor(2, {(p, q): A[p, q] for p in range(4) for q in range(4)}, tol=0.0)
        b = CoefficientTensor(2, {(p, q): B[p, q] for p in range(4) for q in range(4)}, tol=0.0)
        general = _coeff_matrix(compose(a, b, tol=0.0)).tolist()
        closed = _coeff_matrix(compose_gl4(a, b, tol=0.0)).tolist()
        for p in range(4):
            for q in range(4):
                err = abs(closed[p][q] - general[p][q])
                fam = _family_of(p, q)
                if err > worst[fam]:
                    worst[fam] = err
    families = tuple(FamilyCheck(fam, pairs, worst[fam]) for fam in _FAMILIES)

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
