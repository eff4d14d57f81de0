"""A catalogue of named mutants that the self-verification must catch.

Each row replaces one name, with ``mock.patch``, in every module that looks
it up, and names the ``verify`` suites that fail under it.  A mutant that
``verify`` cannot see names the tier-1 test that catches it instead, and
that test is run under the mutant.  See README *Self-verification*.
"""

from __future__ import annotations

import contextlib
from typing import Callable, NamedTuple
from unittest import mock

import numpy as np
import pytest

import test_decomposition
from pauligl import algebra, composition, decomposition, symmetry, verify
from pauligl.verify import run_verification

_code_product = algebra.code_product
_antisymmetric_mask = symmetry.antisymmetric_mask
_distinct_codes = algebra.distinct_codes
_qvector_to_dense = symmetry.qvector_to_dense


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
