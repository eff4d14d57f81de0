"""A catalogue of named mutants that the self-verification must catch.

Each row replaces one name, with ``mock.patch``, in every module that looks
it up, and names the ``verify`` suites that fail under it.  A mutant that
``verify`` cannot see names the tier-1 test that catches it instead, and
that test is run under the mutant.  See README *Self-verification*.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Callable, NamedTuple
from unittest import mock

import numpy as np
import pytest

import test_composition
import test_decomposition
import test_verify
from pauligl import algebra, composition, decomposition, indexing, symmetry, verify
from pauligl.verify import run_verification

_code_product = algebra.code_product
_antisymmetric_mask = symmetry.antisymmetric_mask
_distinct_codes = algebra.distinct_codes
_qvector_to_dense = symmetry.qvector_to_dense
_block_local_from_global = indexing.block_local_from_global
_random_matrices = verify._random_matrices
_row_blocks = composition._row_blocks
_tally_check = verify._Tally.check


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


def unpruned_from_dense(cls, m, flat, tol):
    out = cls.__new__(cls)
    out.m, out.codes, out.values = m, np.arange(flat.size, dtype=np.uint64), flat.copy()
    return out


def parts_swapped(rng, n, count):
    a = _random_matrices(rng, n, count)
    return a.imag + 1j * a.real


def blocks_last_first(a, b):
    return _row_blocks(a, b)[::-1]


def failed_counted_as_passed(self, ok, error=None, count=1):
    _tally_check(self, count, error, count)


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
           frozenset({"closed-form"})),
    Mutant("_kept keeps |c| == tol when tol > 0",
           ((decomposition, "_kept", kept_at_positive_tol),),
           frozenset(),
           test_decomposition.TestPruneRule().test_dropped_at_its_modulus),
    Mutant("array block map compares the row cut with > instead of >=",
           ((verify, "block_local_from_global", row_cut_exclusive),
            (indexing, "block_local_from_global", row_cut_exclusive)),
           frozenset({"bijection"})),
    Mutant("_from_dense skips its prune",
           ((decomposition.CoefficientTensor, "_from_dense",
             classmethod(unpruned_from_dense)),),
           frozenset({"closed-form"})),
    Mutant("random matrix draw swaps real and imaginary parts",
           ((verify, "_random_matrices", parts_swapped),),
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
    Mutant("_row_blocks returns its blocks last-first",
           ((composition, "_row_blocks", blocks_last_first),),
           frozenset(),
           test_composition.TestRoutes().test_blocks_add_onto_running_sums),
    Mutant("the tally counts a failed check as passed",
           ((verify._Tally, "check", failed_counted_as_passed),),
           frozenset(),
           test_verify.test_the_runner_counts_failed_checks),
]


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
