"""A catalogue of named mutants that the self-verification must catch.

Each row replaces one name, with ``mock.patch``, in every module that looks
it up, and names the ``verify`` suites that fail under it.  A mutant that
``verify`` cannot see names the tier-1 test that catches it instead, and
that test is run under the mutant.  See README *Self-verification*.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import pathlib
import re
from typing import Callable, NamedTuple
from unittest import mock

import numpy as np
import pytest

import test_composition
import test_decomposition
import test_verify
from pauligl import algebra, composition, decomposition, indexing, symmetry, verify
from pauligl.verify import run_verification

from conftest import member_tensors

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

_code_product = algebra.code_product
_antisymmetric_mask = symmetry.antisymmetric_mask
_distinct_codes = algebra.distinct_codes
_qvector_to_dense = symmetry.qvector_to_dense
_block_local_from_global = indexing.block_local_from_global
_matrix_stacks = decomposition._matrix_stacks
_row_blocks = composition._row_blocks
_compose = composition._compose
_tally_check = verify._Tally.check
_from_dense = decomposition._from_dense
_transposed = symmetry._transposed
_interleaved = decomposition._interleaved
_gl4_product_array = composition._gl4_product_array
_radix_columns = indexing._radix_columns


def _modulus(values):
    with np.errstate(over="ignore"):
        return np.hypot(values.real, values.imag)


def swapped_code_product(ca, cb):
    return _code_product(cb, ca)


def inverted_mask(c):
    return ~_antisymmetric_mask(c)


def dropping_last_code(codes):
    return _distinct_codes(codes)[:-1]


def fourth_row_flipped(q):
    dense = _qvector_to_dense(q)
    dense[3] = -dense[3]
    return dense


def row_cut_exclusive(i, j, cuts):
    # i > row_cut for i >= row_cut: a row on the cut stays in the LOW band,
    # one past its last row
    loc = _block_local_from_global(i, j, cuts)
    on_cut = i == cuts.row_cut
    return dataclasses.replace(
        loc, block_row=np.where(on_cut, indexing.Half.LOW, loc.block_row),
        local_row=np.where(on_cut, cuts.row_cut, loc.local_row))


def unpruned_from_dense(m, flat, tol):
    return decomposition._Stack(m, np.arange(flat.size, dtype=np.uint64),
                                flat.ravel().copy(), len(flat))


def built_last_first(m, flat, tol):
    return decomposition._stack(member_tensors(_from_dense(m, flat, tol))[::-1])


def parts_swapped(rng, n, count, per=1):
    for a in _matrix_stacks(rng, n, count, per):
        yield a.imag + 1j * a.real


def blocks_last_first(na, nb):
    return list(_row_blocks(na, nb))[::-1]


def tag_off_by_one(left, right, tol):
    # member k's terms land in member k + 1's slots
    shifted = left.codes + (np.uint64(1) << np.uint64(2 * left.m))
    return _compose(decomposition._Stack(left.m, shifted, left.values, left.members),
                    right, tol)


def transposed_by_tagged_digits(stack):
    # the sign flip reads the digit-2 parity of the whole tagged code
    flip = (algebra.y_counts(stack.codes) & 1).astype(bool)
    return decomposition._Stack(stack.m, stack.codes,
                                np.where(flip, -stack.values, stack.values),
                                stack.members)


def factor_bits_swapped(stack, m):
    # each factor's column bit ahead of its row bit, in both directions
    view = _interleaved(stack, m)
    return view.transpose([0] + [ax for k in range(m) for ax in (2 + 2 * k, 1 + 2 * k)])


def law_tensor_part_off_by_one(A, B):
    # the tensor part of member k reads member k + 1 of B
    C = _gl4_product_array(A, B)
    C[:, 1:, 1:] = _gl4_product_array(A, np.roll(B, -1, axis=0))[:, 1:, 1:]
    return C


def places_fastest_first(a, what, shape, size, ndim):
    # the first listed factor gets place value 1, as if it varied fastest
    sizes, _ = _radix_columns(a, what, shape, size, ndim)
    return sizes, np.cumprod((1,) + shape[:-1]).reshape(sizes.shape)


def failed_counted_as_passed(self, ok, error=None, count=1, part=None):
    _tally_check(self, count, error, count, part)


def kept_at_tol(values, tol):
    return _modulus(values) >= tol


def kept_at_positive_tol(values, tol):
    modulus = _modulus(values)
    return modulus >= tol if tol > 0 else modulus > tol


class Mutant(NamedTuple):
    name: str
    patches: tuple  # (module, attribute, replacement) for each lookup site
    suites: frozenset  # the verify suites that fail; empty for a survivor
    test: Callable | None = None  # the tier-1 test that catches a survivor


MUTANTS = [
    Mutant("code_product swaps its operands",
           ((composition, "code_product", swapped_code_product),
            (algebra, "code_product", swapped_code_product)),
           frozenset({"homomorphism", "orthogonality", "closed-form"})),
    Mutant("antisymmetric_mask inverted",
           ((symmetry, "antisymmetric_mask", inverted_mask),
            (verify, "antisymmetric_mask", inverted_mask)),
           frozenset({"transpose", "closed-form", "q-vector", "closed-classes"})),
    Mutant("_INVERSE conjugated",
           ((decomposition, "_INVERSE", decomposition._INVERSE.conj()),),
           frozenset({"round-trip"})),
    Mutant("distinct_codes drops its last code",
           ((composition, "distinct_codes", dropping_last_code),
            (decomposition, "distinct_codes", dropping_last_code)),
           frozenset({"homomorphism", "transpose", "closed-form", "q-vector"})),
    Mutant("qvector_to_dense flips the sign of its fourth row",
           ((verify, "qvector_to_dense", fourth_row_flipped),),
           frozenset({"q-vector"})),
    Mutant("_kept keeps |c| == tol at every tol",
           ((decomposition, "_kept", kept_at_tol),),
           frozenset({"closed-form", "closed-classes"})),
    Mutant("_kept keeps |c| == tol when tol > 0",
           ((decomposition, "_kept", kept_at_positive_tol),),
           frozenset(),
           test_decomposition.TestPruneRule().test_dropped_at_its_modulus),
    Mutant("array block map compares the row cut with > instead of >=",
           ((verify, "block_local_from_global", row_cut_exclusive),
            (indexing, "block_local_from_global", row_cut_exclusive)),
           frozenset({"bijection"})),
    Mutant("_from_dense skips its prune",
           ((decomposition, "_from_dense", unpruned_from_dense),
            (composition, "_from_dense", unpruned_from_dense),
            (verify, "_from_dense", unpruned_from_dense)),
           frozenset({"closed-form"})),
    Mutant("the stacked builder returns its tensors last-first",
           ((decomposition, "_from_dense", built_last_first),
            (composition, "_from_dense", built_last_first),
            (verify, "_from_dense", built_last_first)),
           frozenset({"round-trip", "homomorphism", "closed-form", "q-vector"})),
    Mutant("random matrix draw swaps real and imaginary parts",
           ((decomposition, "_matrix_stacks", parts_swapped),
            (verify, "_matrix_stacks", parts_swapped),
            (composition, "_matrix_stacks", parts_swapped)),
           frozenset(),
           test_verify.test_random_matrices_match_two_call_stream),
    Mutant("_PHASE_IM negated: compose conjugates its phases",
           ((composition, "_PHASE_IM", -composition._PHASE_IM),),
           frozenset({"homomorphism", "closed-form"})),
    Mutant("x_bits and z_bits swapped",
           ((algebra, "x_bits", algebra.z_bits),
            (algebra, "z_bits", algebra.x_bits)),
           frozenset({"homomorphism", "orthogonality", "closed-form"})),
    Mutant("_FORWARD conjugated",
           ((decomposition, "_FORWARD", decomposition._FORWARD.conj()),),
           frozenset({"round-trip", "homomorphism", "closed-form", "q-vector"})),
    Mutant("_interleaved swaps each factor's row and column bit",
           ((decomposition, "_interleaved", factor_bits_swapped),),
           frozenset({"homomorphism", "closed-form", "q-vector"})),
    Mutant("_row_blocks returns its blocks last-first",
           ((composition, "_row_blocks", blocks_last_first),),
           frozenset(),
           test_composition.TestRoutes().test_blocks_add_onto_running_sums),
    Mutant("the member tag of compose is off by one",
           ((composition, "_compose", tag_off_by_one),
            (verify, "_compose", tag_off_by_one)),
           frozenset({"homomorphism", "closed-form", "closed-classes"})),
    Mutant("the stacked transpose reads the tag's digits",
           ((symmetry, "_transposed", transposed_by_tagged_digits),
            (verify, "_transposed", transposed_by_tagged_digits)),
           frozenset({"transpose"})),
    Mutant("the tally counts a failed check as passed",
           ((verify._Tally, "check", failed_counted_as_passed),),
           frozenset(),
           test_verify.test_the_runner_counts_failed_checks),
    Mutant("stacked law pairs member k of A with member k+1 of B in the tensor-part term",
           ((composition, "_gl4_product_array", law_tensor_part_off_by_one),),
           frozenset({"closed-form"})),
    Mutant("lex place values built fastest factor first",
           ((indexing, "_radix_columns", places_fastest_first),),
           frozenset({"bijection"})),
    Mutant("block map Half table swapped",
           ((indexing, "_HALVES", indexing._HALVES[::-1].copy()),),
           frozenset({"bijection"})),
]


def readme_suites() -> list:
    """The suites column of each row of README's mutant table, in row order."""
    lines = README.read_text().splitlines()
    start = lines.index("| mutant | patched in | suites that fail |") + 2
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines[start:])
    # a cell may hold an escaped \| (as in |c|), which does not end it
    last = [re.split(r"(?<!\\)\|", row)[-2].strip() for row in rows]
    return [frozenset() if cell == "none" else frozenset(cell.split(", "))
            for cell in last]


def test_readme_table_names_each_mutants_suites():
    assert readme_suites() == [m.suites for m in MUTANTS]


@contextlib.contextmanager
def applied(mutant):
    with contextlib.ExitStack() as stack:
        for module, name, value in mutant.patches:
            stack.enter_context(mock.patch.object(module, name, value))
        yield


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_verify_fails_the_named_suites(mutant):
    with applied(mutant):
        report = run_verification(0)
    assert {s.name for s in report.suites if not s.ok} == mutant.suites
    assert report.ok == (not mutant.suites)


@pytest.mark.parametrize("mutant", [m for m in MUTANTS if not m.suites],
                         ids=lambda m: m.name)
def test_a_survivor_fails_its_named_test(mutant):
    with applied(mutant), pytest.raises(AssertionError):
        mutant.test()


def test_orthogonality_detail_counts_the_failed_products():
    # the six anticommuting generator products change sign under swapped
    # operands; they are the suite's only failed checks
    swapped, = (m for m in MUTANTS if m.name == "code_product swaps its operands")
    with applied(swapped):
        suite, = (s for s in run_verification(0).suites if s.name == "orthogonality")
    products = int(re.search(r"products (\d+)/16", suite.detail).group(1))
    assert products < 16
    assert 16 - products == suite.total - suite.passed


def test_closed_form_detail_counts_only_what_passed():
    # under conjugated phases only the 00 family, the 24 exhaustive pairs
    # whose product phase is real, and no random pair agree
    conjugated, = (m for m in MUTANTS if m.name.startswith("_PHASE_IM negated"))
    with applied(conjugated):
        lines = run_verification(0).render().splitlines()
    line, = (line for line in lines if line.startswith("suite closed-form: "))
    assert re.fullmatch(
        r"suite closed-form: FAIL 25/90 \(families 1, exhaustive antisym pairs 24, "
        r"random antisym pairs 0 \(worst error \d\.\d{3}e[+-]\d\d\)\)", line), line
