import contextlib
import itertools
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pauligl import composition
from pauligl.algebra import distinct_codes
from pauligl.decomposition import _stack
from pauligl import (ANTISYMMETRIC_GL4_SUPPORT, DEFAULT_PRUNE_TOL,
                     CoefficientTensor, DimensionError, DomainError,
                     TABULATED_ANTISYM_COMPONENTS, coeff_distance, compose,
                     compose_antisym_gl4, compose_gl4, decompose,
                     multi_product, reconstruct, verify_closed_forms)

from conftest import (coefficient_tensors, complex_coeffs, edge_floats,
                      member_tensors, multi_indices, random_complex_matrix,
                      stacks, tensor_outcome)
from reference import (reference_compose, reference_compose_antisym_gl4,
                       reference_derived_antisym_table, reference_family_errors,
                       reference_gl4_product_array)

ANTISYM_SORTED = sorted(ANTISYMMETRIC_GL4_SUPPORT)
ORDER_TWO_SORTED = list(itertools.product(range(4), repeat=2))


def indicator(idx):
    return CoefficientTensor(len(idx), {idx: 1.0})


def dense_product_oracle(a, b):
    return decompose(reconstruct(a) @ reconstruct(b), 0.0)


def random_supported(rng, support):
    return CoefficientTensor(2, {
        idx: complex(rng.standard_normal(), rng.standard_normal())
        for idx in sorted(support)}, tol=0.0)


class TestCompose:
    def test_single_factor_product(self):
        got = compose(indicator((1,)), indicator((2,)))
        assert got.coeffs == {(3,): 1j}

    def test_identity_is_neutral(self):
        e = CoefficientTensor(2, {(0, 0): 1.0})
        a = CoefficientTensor(2, {(1, 3): 2.5 - 1j, (2, 0): 0.25j})
        assert compose(e, a).coeffs == a.coeffs
        assert compose(a, e).coeffs == a.coeffs

    def test_matches_dense_oracle_m2(self, rng):
        for _ in range(10):
            a = decompose(random_complex_matrix(rng, 4), 0.0)
            b = decompose(random_complex_matrix(rng, 4), 0.0)
            d = coeff_distance(compose(a, b, tol=0.0), dense_product_oracle(a, b))
            assert d < 1e-10

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_homomorphism(self, rng, m):
        n = 2 ** m
        for _ in range(50):
            ad, bd = random_complex_matrix(rng, n), random_complex_matrix(rng, n)
            a, b = decompose(ad, 0.0), decompose(bd, 0.0)
            d = coeff_distance(compose(a, b, tol=0.0), decompose(ad @ bd, 0.0))
            assert d < 1e-10

    def test_associativity(self, rng):
        for m in (1, 2):
            n = 2 ** m
            for _ in range(10):
                a = decompose(random_complex_matrix(rng, n), 0.0)
                b = decompose(random_complex_matrix(rng, n), 0.0)
                c = decompose(random_complex_matrix(rng, n), 0.0)
                left = compose(compose(a, b, tol=0.0), c, tol=0.0)
                right = compose(a, compose(b, c, tol=0.0), tol=0.0)
                assert coeff_distance(left, right) < 1e-10

    def test_order_mismatch(self):
        with pytest.raises(DimensionError):
            compose(indicator((1,)), indicator((1, 0)))

    def test_deterministic(self, rng):
        a = decompose(random_complex_matrix(rng, 4), 0.0)
        b = decompose(random_complex_matrix(rng, 4), 0.0)
        first = compose(a, b, tol=0.0)
        second = compose(a, b, tol=0.0)
        assert first.coeffs == second.coeffs

    @given(coefficient_tensors(max_m=2, max_terms=5),
           coefficient_tensors(max_m=2, max_terms=5))
    @settings(max_examples=60)
    def test_homomorphism_property(self, a, b):
        if a.m != b.m:
            with pytest.raises(DimensionError):
                compose(a, b)
            return
        d = coeff_distance(compose(a, b, tol=0.0), dense_product_oracle(a, b))
        assert d < 1e-10


# values whose products and sums are exact, so that terms cancel to exactly
# zero, plus signed zeros in either part
exact_values = st.sampled_from([
    1, -1, 1j, -1j, 0.5, -2, 1 + 1j,
    complex(-0.0, 1.0), complex(1.0, -0.0), complex(-0.0, -0.5),
    complex(-1.0, -0.0)])


@st.composite
def composable_pairs(draw, min_m=1, max_m=3, max_terms=8):
    m = draw(st.integers(min_m, max_m))
    values = st.one_of(exact_values, complex_coeffs)
    a, b = (CoefficientTensor(m, draw(st.dictionaries(multi_indices(m), values,
                                                      max_size=max_terms)),
                              tol=0.0)
            for _ in range(2))
    return a, b


def float_bits(mapping):
    return {idx: (v.real.hex(), v.imag.hex()) for idx, v in mapping.items()}


def assert_matches_reference(a, b, tol):
    got = compose(a, b, tol=tol)
    want = reference_compose(a, b, tol)
    assert list(got.coeffs) == list(want)
    assert float_bits(got.coeffs) == float_bits(want)
    return got


class TestKernelMatchesReference:
    """The packed kernel against the per-pair dict loop and the dense route."""

    @given(composable_pairs(),
           st.sampled_from([0.0, DEFAULT_PRUNE_TOL, 0.5, 4.0]))
    @settings(max_examples=200)
    def test_bit_identical_to_reference(self, pair, tol):
        a, b = pair
        assert_matches_reference(a, b, tol)

    @given(composable_pairs())
    @settings(max_examples=100)
    def test_agrees_with_dense_route(self, pair):
        a, b = pair
        got = assert_matches_reference(a, b, 0.0)
        scale = 1.0 + np.abs(a.values).sum() * np.abs(b.values).sum()
        assert coeff_distance(got, dense_product_oracle(a, b)) <= 1e-13 * scale

    @given(composable_pairs(min_m=32, max_m=32, max_terms=3))
    @settings(max_examples=50)
    def test_few_terms_at_largest_order(self, pair):
        a, b = pair
        assert_matches_reference(a, b, 0.0)

    def test_single_terms_at_largest_order(self):
        mu = (3, 2, 1, 0) * 8
        nu = (2, 2, 3, 1) * 8
        a = CoefficientTensor(32, {mu: 1.5 - 0.5j})
        b = CoefficientTensor(32, {nu: complex(-0.0, 2.0)})
        got = assert_matches_reference(a, b, 0.0)
        phase, lam = multi_product(mu, nu)
        assert list(got.coeffs) == [lam]

    def test_exact_cancellation_is_pruned(self):
        # (s1 + s2)(s1 - s2) = -2i s3: the two identity terms cancel exactly
        a = CoefficientTensor(1, {(1,): 1, (2,): 1})
        b = CoefficientTensor(1, {(1,): 1, (2,): -1})
        got = assert_matches_reference(a, b, 0.0)
        assert got.coeffs == {(3,): -2j}

    def test_signed_zero_parts(self):
        a = CoefficientTensor(2, {(1, 0): complex(-0.0, 1.0), (2, 3): complex(1.0, -0.0)})
        b = CoefficientTensor(2, {(2, 0): complex(-1.0, -0.0), (0, 3): complex(-0.0, -1.0)})
        assert_matches_reference(a, b, 0.0)
        assert_matches_reference(b, a, 0.0)

    @pytest.mark.parametrize("m", [1, 4])
    def test_empty_operands(self, m):
        empty = CoefficientTensor(m, {})
        full = CoefficientTensor(m, {(1,) * m: 2.0, (0,) * m: 1j})
        for a, b in ((empty, full), (full, empty), (empty, empty)):
            got = assert_matches_reference(a, b, 0.0)
            assert len(got) == 0 and got.m == m

    def test_many_blocks(self, rng):
        # 300 x 300 pairs span several row blocks
        a = decompose(random_complex_matrix(rng, 32), 0.0)
        b = decompose(random_complex_matrix(rng, 32), 0.0)
        keep = rng.choice(len(a), size=300, replace=False)
        a = CoefficientTensor._from_codes(5, a.codes[keep], a.values[keep], 0.0)
        b = CoefficientTensor._from_codes(5, b.codes[keep], b.values[keep], 0.0)
        assert_matches_reference(a, b, 0.0)

    def test_overflow_is_rejected(self):
        a = CoefficientTensor(1, {(1,): 1e200})
        with pytest.raises(DomainError):
            compose(a, a)
        with pytest.raises(DomainError):
            reference_compose(a, a)

    def test_memory_is_bounded(self, rng):
        # a full outer product of 1024 x 1024 codes alone would take 8 MiB
        a = decompose(random_complex_matrix(rng, 32), 0.0)
        b = decompose(random_complex_matrix(rng, 32), 0.0)
        assert len(a) == len(b) == 1024
        compose(a, CoefficientTensor(5, {(0,) * 5: 1.0}))  # first-call setup
        tracemalloc.start()
        try:
            compose(a, b, tol=0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_memory_is_bounded_by_a_large_output(self, rng):
        def operand():
            codes = rng.choice(4 ** 10, size=512, replace=False).astype(np.uint64)
            values = rng.standard_normal(512) + 1j * rng.standard_normal(512)
            return CoefficientTensor._from_codes(10, codes, values, 0.0)

        a, b = operand(), operand()
        compose(a, CoefficientTensor(10, {(0,) * 10: 1.0}))  # first-call setup
        tracemalloc.start()
        try:
            out = compose(a, b, tol=0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) > 200_000
        # the output's codes and values take 24 bytes a term
        assert peak < 2 * 24 * len(out) + 2 ** 20

    def test_rejects_nan_tol(self):
        a = indicator((1,))
        with pytest.raises(DomainError):
            compose(a, a, tol=float("nan"))


BLOCK_PAIRS = [1, 4, 8192]


def fixed_operand_pairs(rng):
    full = decompose(random_complex_matrix(rng, 8), 0.0)
    sparse = CoefficientTensor._from_codes(3, full.codes[::7],
                                           full.values[::7], 0.0)
    single = CoefficientTensor(3, {(2, 0, 3): 1.5 - 0.5j})
    empty = CoefficientTensor(3, {})
    # the first two rows of a give two distinct products, the next two
    # four: a later block can hold more codes than all earlier ones
    a = CoefficientTensor(3, {(0, 0, 0): 1, (0, 0, 1): 2, (0, 1, 0): 3j,
                              (0, 2, 0): -4})
    b = CoefficientTensor(3, {(0, 0, 0): 1j, (0, 0, 1): -1})
    return [(a, b), *itertools.product([full, sparse, single, empty], repeat=2)]


class TestBlockSizes:
    """Any block size gives the reference bits: blocks only split the work."""

    @pytest.mark.parametrize("block_pairs", BLOCK_PAIRS)
    def test_fixed_operands(self, rng, block_pairs):
        with mock.patch.object(composition, "_BLOCK_PAIRS", block_pairs):
            for a, b in fixed_operand_pairs(rng):
                assert_matches_reference(a, b, 0.0)

    @given(composable_pairs(max_terms=20), st.sampled_from(BLOCK_PAIRS))
    @settings(max_examples=100)
    def test_any_operands(self, pair, block_pairs):
        a, b = pair
        with mock.patch.object(composition, "_BLOCK_PAIRS", block_pairs):
            assert_matches_reference(a, b, 0.0)


#: Patches that make compose take one accumulator for any nonempty operands
#: at m <= 8 (the dense one needs 16 * 4**m <= _DENSE_MAX_BYTES).
ROUTES = {"dense": ("_DENSE_SLOTS_PER_PAIR", 4 ** 32),
          "sparse": ("_DENSE_MAX_BYTES", 0)}


@contextlib.contextmanager
def forced(route, block_pairs):
    with mock.patch.object(composition, *ROUTES[route]), \
            mock.patch.object(composition, "_BLOCK_PAIRS", block_pairs):
        yield


def random_operand(rng, m, n):
    codes = rng.choice(4 ** m, size=n, replace=False).astype(np.uint64)
    values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return CoefficientTensor._from_codes(m, codes, values, 0.0)


@pytest.mark.bits
class TestRoutes:
    """The dense-slot and the sorted-code accumulator give the same bits."""

    @pytest.mark.parametrize("m, pairs, dense", [
        (6, 256 * 256, True),   # the compose-dense-m6 benchmark
        (12, 128 * 128, False),  # compose-sparse-m12: above the cap
        (10, 512 * 512, False),  # test_memory_is_bounded_by_a_large_output
        (9, 4 ** 9, False),
        (8, 4 ** 8 // 16, True),
        (8, 4 ** 8 // 16 - 1, False),
        (1, 1, True),
        (1, 0, False)])
    def test_rule(self, m, pairs, dense):
        assert composition._dense_route(m, pairs) is dense

    @pytest.mark.parametrize("route", ROUTES)
    def test_forced_route_is_taken(self, route):
        # only the sorted-code accumulator collects the output codes first
        a = CoefficientTensor(2, {(1, 0): 1.0, (2, 3): 2j})
        with forced(route, 8192), mock.patch.object(
                composition, "_output_codes",
                wraps=composition._output_codes) as collect:
            compose(a, a)
        assert collect.called is (route == "sparse")

    @pytest.mark.parametrize("block_pairs", BLOCK_PAIRS)
    @pytest.mark.parametrize("route", ROUTES)
    def test_fixed_corpora(self, rng, route, block_pairs):
        signed = (CoefficientTensor(2, {(1, 0): complex(-0.0, 1.0),
                                        (2, 3): complex(1.0, -0.0)}),
                  CoefficientTensor(2, {(2, 0): complex(-1.0, -0.0),
                                        (0, 3): complex(-0.0, -1.0)}))
        # (s1 + s2)(s1 - s2) = -2i s3: the two identity terms cancel exactly
        cancel = (CoefficientTensor(1, {(1,): 1, (2,): 1}),
                  CoefficientTensor(1, {(1,): 1, (2,): -1}))
        pairs = [signed, signed[::-1], cancel, *fixed_operand_pairs(rng)]
        with forced(route, block_pairs):
            for a, b in pairs:
                assert_matches_reference(a, b, 0.0)
            assert compose(*cancel, tol=0.0).coeffs == {(3,): -2j}

    @pytest.mark.parametrize("block_pairs", BLOCK_PAIRS)
    @pytest.mark.parametrize("route", ROUTES)
    def test_overflow_names_the_first_code(self, route, block_pairs):
        cases = [
            # the first pair to overflow lands on (0, 2), but (0, 1) comes
            # first in index order, and the error names it
            (CoefficientTensor(2, {(0, 0): 1.0, (0, 1): 1e200, (0, 2): 1e200}),
             CoefficientTensor(2, {(0, 0): 1.0, (0, 3): 1e200}), "(0, 1)"),
            # inf - inf: both slots hold nan + 0j, which is not zero
            (CoefficientTensor(1, {(0,): 1e200, (1,): 1e200}),
             CoefficientTensor(1, {(0,): 1e200, (1,): -1e200}), "(0,)")]
        for a, b, first in cases:
            message = f"^non-finite coefficient at {re.escape(first)}$"
            with pytest.raises(DomainError, match=message):
                reference_compose(a, b, 0.0)
            with forced(route, block_pairs), pytest.raises(DomainError,
                                                           match=message):
                compose(a, b, 0.0)

    @given(composable_pairs(max_terms=20), st.sampled_from(list(ROUTES)),
           st.sampled_from(BLOCK_PAIRS),
           st.sampled_from([0.0, DEFAULT_PRUNE_TOL, 0.5, 4.0]))
    @settings(max_examples=100)
    def test_any_operands(self, pair, route, block_pairs, tol):
        a, b = pair
        with forced(route, block_pairs):
            assert_matches_reference(a, b, tol)

    def test_blocks_add_onto_running_sums(self):
        # two row blocks (81 and 19 rows) of random terms, ~10 per slot: a
        # block summed on its own (say by np.bincount) and then added to the
        # slot rounds differently from adding its terms one by one
        rng = np.random.default_rng(5)
        a, b = random_operand(rng, 5, 100), random_operand(rng, 5, 100)
        assert len(list(composition._row_blocks([len(a)], [len(b)]))) == 2
        assert composition._dense_route(5, len(a) * len(b))
        assert_matches_reference(a, b, 0.0)

    def test_dense_memory_at_the_cap(self, rng):
        # the 1 MiB slot array at m = 8, the 0.5 MiB of its listed slot codes,
        # the block and the output
        a, b = random_operand(rng, 8, 256), random_operand(rng, 8, 256)
        assert composition._dense_route(8, len(a) * len(b))
        compose(a, b)  # first-call setup
        tracemalloc.start()
        try:
            out = compose(a, b, tol=0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 4 ** 8 + 2 * 24 * len(out) + 2 ** 20


def assert_stack_matches(pairs, tol):
    """Each member of one stacked call has the bits of its own one-pair call
    and of the reference."""
    got = member_tensors(composition._compose(*stacks(pairs), tol))
    assert len(got) == len(pairs)
    for c, (a, b) in zip(got, pairs):
        assert tensor_outcome(lambda: c) == tensor_outcome(compose, a, b, tol)
        want = reference_compose(a, b, tol)
        assert list(c.coeffs) == list(want)
        assert float_bits(c.coeffs) == float_bits(want)


def fixed_stacks(rng):
    """Stacks of one order each, mixing empty and one-term members, unequal
    sizes, the signed-zero pairs and the exact-cancel pair."""
    signed = (CoefficientTensor(2, {(1, 0): complex(-0.0, 1.0),
                                    (2, 3): complex(1.0, -0.0)}),
              CoefficientTensor(2, {(2, 0): complex(-1.0, -0.0),
                                    (0, 3): complex(-0.0, -1.0)}))
    # (s1 + s2)(s1 - s2) = -2i s3: the two identity terms cancel exactly
    cancel = (CoefficientTensor(1, {(1,): 1, (2,): 1}),
              CoefficientTensor(1, {(1,): 1, (2,): -1}))
    empty1, empty2 = CoefficientTensor(1, {}), CoefficientTensor(2, {})
    one1 = CoefficientTensor(1, {(3,): 0.5 - 2j})
    full2 = decompose(random_complex_matrix(rng, 4), 0.0)
    one2 = CoefficientTensor(2, {(2, 1): -1.5j})
    return [
        [cancel, (empty1, one1), (one1, one1), cancel[::-1], (one1, empty1),
         (empty1, empty1), cancel],
        [(empty2, full2), signed, (full2, one2), signed[::-1], (one2, full2),
         (full2, full2), (one2, one2), (full2, empty2)],
        fixed_operand_pairs(rng),
    ]


@st.composite
def composable_stacks(draw, max_m=3, max_terms=8, max_members=8):
    m = draw(st.integers(1, max_m))
    values = st.one_of(exact_values, complex_coeffs)
    tensors = st.builds(lambda d: CoefficientTensor(m, d, tol=0.0),
                        st.dictionaries(multi_indices(m), values,
                                        max_size=max_terms))
    return draw(st.lists(st.tuples(tensors, tensors), min_size=1,
                         max_size=max_members))


def distinct_random_codes(rng, m, n):
    return distinct_codes(rng.integers(0, 4 ** m, size=n, dtype=np.uint64))


@pytest.mark.bits
class TestStackedCompose:
    """One stacked call gives each member the bits of its own call."""

    @pytest.mark.parametrize("tol", [0.0, DEFAULT_PRUNE_TOL, 0.5])
    @pytest.mark.parametrize("block_pairs", BLOCK_PAIRS)
    @pytest.mark.parametrize("route", ROUTES)
    def test_fixed_stacks(self, rng, route, block_pairs, tol):
        with forced(route, block_pairs):
            for pairs in fixed_stacks(rng):
                assert_stack_matches(pairs, tol)

    @given(composable_stacks(), st.sampled_from(list(ROUTES)),
           st.sampled_from(BLOCK_PAIRS),
           st.sampled_from([0.0, DEFAULT_PRUNE_TOL, 0.5]))
    @settings(max_examples=100)
    def test_any_stacks(self, pairs, route, block_pairs, tol):
        with forced(route, block_pairs):
            assert_stack_matches(pairs, tol)

    @pytest.mark.parametrize("block_pairs", BLOCK_PAIRS)
    def test_default_route(self, rng, block_pairs):
        # the route the rule picks for the tagged space, dense slots for
        # small stacks and sorted codes for sparse m = 5 members
        pairs = [(random_operand(rng, 5, 15), random_operand(rng, 5, n))
                 for n in (10, 0, 1, 2)]
        assert not composition._dense_route(
            5, sum(len(a) * len(b) for a, b in pairs), len(pairs))
        with mock.patch.object(composition, "_BLOCK_PAIRS", block_pairs):
            for stack in (*fixed_stacks(rng), pairs):
                assert_stack_matches(stack, 0.0)

    @pytest.mark.parametrize("m, members", [(31, 4), (31, 5), (32, 1), (32, 3)])
    def test_tags_at_the_largest_orders(self, m, members):
        # tags k << 62 of four members fill the 64 bits; a stack past that,
        # and at m = 32 with more than one member, is refused when built
        rng = np.random.default_rng(m * members)
        pairs = [tuple(CoefficientTensor._from_codes(
            m, distinct_random_codes(rng, m, n), rng.standard_normal(n) + 0j, 0.0)
            for n in (3, 2)) for _ in range(members)]
        if members <= 4 ** (32 - m):
            assert_stack_matches(pairs, 0.0)
        else:
            with pytest.raises(DimensionError, match=f"^a stack of {members} "
                               f"order-{m} tensors does not fit"):
                stacks(pairs)

    def test_stack_sizes_for_the_rule(self):
        # the rule reads the whole tagged space, and one member is the old rule
        assert composition._dense_route(3, 64 * 64 * 32, 32)
        assert not composition._dense_route(6, 4096 * 100, 100)
        assert composition._dense_route(2, 36, 36)
        assert not composition._dense_route(2, 35, 36)

    @pytest.mark.parametrize("block_pairs", BLOCK_PAIRS)
    @pytest.mark.parametrize("route", ROUTES)
    def test_errors_name_the_first_bad_member(self, route, block_pairs):
        fine = (indicator((1,)), indicator((2,)))
        # inf - inf: the first non-finite slot of this member is (0,)
        cancel = (CoefficientTensor(1, {(0,): 1e200, (1,): 1e200}),
                  CoefficientTensor(1, {(0,): 1e200, (1,): -1e200}))
        # s1 s2 = i s3 overflows at (3,)
        over = (CoefficientTensor(1, {(1,): 1e200}),
                CoefficientTensor(1, {(2,): 1e200}))
        # (stack, its first bad pair)
        for pairs, first in [([fine, over, fine, cancel], over),
                             ([fine, cancel, over], cancel)]:
            want = tensor_outcome(compose, *first, 0.0)
            assert want[0] is DomainError
            with forced(route, block_pairs):
                assert tensor_outcome(composition._compose, *stacks(pairs), 0.0) == want

    def test_a_member_of_another_order_is_refused(self):
        # a stack has one order, so two orders in one stack are refused when
        # it is built; stacks of two orders fail as a lone call does
        fine = (indicator((1,)), indicator((2,)))
        left = (indicator((1,)), indicator((1, 0)))
        right = (indicator((1, 0)), indicator((1,)))
        for pairs in ([fine, left, right], [fine, right, fine, left], [fine, left]):
            with pytest.raises(DimensionError, match=r"^tensor orders differ: 1 vs 2$"):
                stacks(pairs)
        with pytest.raises(DimensionError, match=r"^tensor orders differ: 1 vs 2$"):
            composition._compose(_stack([fine[0]]), _stack([left[1]]), 0.0)

    def test_tol_is_checked_once_for_the_stack(self):
        a = indicator((1,))
        with pytest.raises(DomainError, match="prune tolerance"):
            composition._compose(*stacks([(a, a), (a, a)]), float("nan"))


class TestComposeGl4:
    def test_vector_part_product(self):
        got = compose_gl4(indicator((1, 0)), indicator((2, 0)))
        assert got.coeffs == {(3, 0): 1j}

    def test_scalar_identity(self):
        a = CoefficientTensor(2, {(0, 3): 5.0})
        got = compose_gl4(CoefficientTensor(2, {(0, 0): 1.0}), a)
        assert got.coeffs == {(0, 3): 5.0}

    def test_exhaustive_basis_pairs(self):
        for mu in itertools.product(range(4), repeat=2):
            for nu in itertools.product(range(4), repeat=2):
                phase, lam = multi_product(mu, nu)
                got = compose_gl4(indicator(mu), indicator(nu), tol=0.0)
                want = {lam: phase.to_complex()}
                assert set(got.coeffs) == set(want)
                assert abs(got.coeffs[lam] - want[lam]) < 1e-15

    def test_matches_general_path(self, rng):
        worst = 0.0
        for _ in range(100):
            a = decompose(random_complex_matrix(rng, 4), 0.0)
            b = decompose(random_complex_matrix(rng, 4), 0.0)
            worst = max(worst, coeff_distance(compose_gl4(a, b, tol=0.0),
                                              compose(a, b, tol=0.0)))
        assert worst < 1e-12

    def test_requires_order_two(self):
        with pytest.raises(DimensionError):
            compose_gl4(indicator((1,)), indicator((2,)))

    @pytest.mark.parametrize("a, b, m", [((1,), (2, 2), 1), ((1, 1), (2, 2, 2), 3)])
    def test_checks_both_orders_first(self, a, b, m):
        # before compose's order-mismatch and tol checks
        with pytest.raises(DimensionError,
                           match=f"^closed form requires tensor order 2, got {m}$"):
            compose_gl4(indicator(a), indicator(b), tol=float("nan"))

    @given(st.lists(st.one_of(st.builds(complex, edge_floats, edge_floats),
                              complex_coeffs), min_size=32, max_size=32),
           st.lists(st.booleans(), min_size=32, max_size=32),
           st.sampled_from([0.0, 1e-12, 0.5, 1e308]))
    def test_bits_match_compose(self, values, stored, tol):
        # random supports over all 16 indices; rounded sums, signed zeros,
        # subnormals and values that overflow
        a, b = (CoefficientTensor(2, {i: v for i, v, keep in zip(
            ORDER_TWO_SORTED, values[k:k + 16], stored[k:k + 16]) if keep}, tol=0.0)
            for k in (0, 16))
        assert (tensor_outcome(compose_gl4, a, b, tol=tol)
                == tensor_outcome(compose, a, b, tol=tol))


class TestComposeAntisymGl4:
    def test_scalar_component(self):
        got = compose_antisym_gl4(indicator((2, 0)), indicator((2, 0)))
        assert got.coeffs == {(0, 0): 1.0}

    def test_cross_component(self):
        got = compose_antisym_gl4(indicator((2, 0)), indicator((2, 1)))
        assert got.coeff((0, 1)) == 1.0

    def test_exhaustive_pairs_vs_general(self):
        for s in ANTISYM_SORTED:
            for t in ANTISYM_SORTED:
                a, b = indicator(s), indicator(t)
                assert (compose_antisym_gl4(a, b, tol=0.0).coeffs
                        == compose(a, b, tol=0.0).coeffs)

    def test_exhaustive_pairs_vs_dense(self):
        # fully independent route: dense multiply, then expand
        for s in ANTISYM_SORTED:
            for t in ANTISYM_SORTED:
                a, b = indicator(s), indicator(t)
                d = coeff_distance(compose_antisym_gl4(a, b, tol=0.0),
                                   dense_product_oracle(a, b))
                assert d < 1e-15

    def test_random_pairs(self, rng):
        for _ in range(50):
            a = random_supported(rng, ANTISYMMETRIC_GL4_SUPPORT)
            b = random_supported(rng, ANTISYMMETRIC_GL4_SUPPORT)
            d = coeff_distance(compose_antisym_gl4(a, b, tol=0.0),
                               compose(a, b, tol=0.0))
            assert d < 1e-12

    @given(st.lists(st.builds(complex, edge_floats, edge_floats),
                    min_size=12, max_size=12),
           st.lists(st.booleans(), min_size=12, max_size=12),
           st.sampled_from([0.0, 1e-12, 0.5, 1e308]))
    def test_bits_match_dict_build(self, values, stored, tol):
        # random supports within the six, values that overflow included
        a, b = (CoefficientTensor(2, {i: v for i, v, keep in zip(
            ANTISYM_SORTED, values[k:k + 6], stored[k:k + 6]) if keep}, tol=0.0)
            for k in (0, 6))
        assert (tensor_outcome(compose_antisym_gl4, a, b, tol=tol)
                == tensor_outcome(reference_compose_antisym_gl4, a, b, tol=tol))

    def test_derived_table_matches_multi_product_build(self):
        # keys, term order, and each scalar's type and bits (signed zeros too)
        def exact(table):
            return [(out, [(s, t, [type(d) for d in s + t], type(x),
                            x.real.hex(), x.imag.hex()) for s, t, x in terms])
                    for out, terms in table.items()]
        assert (exact(composition._DERIVED_ANTISYM_TABLE)
                == exact(reference_derived_antisym_table()))

    def test_stacked_members_match_lone_calls(self, rng):
        # the closed-form suite's stacks: all 36 basis pairs, and random
        # pairs on the six
        basis = [indicator(s) for s in ANTISYM_SORTED]
        random = [(random_supported(rng, ANTISYMMETRIC_GL4_SUPPORT),
                   random_supported(rng, ANTISYMMETRIC_GL4_SUPPORT))
                  for _ in range(20)]
        for pairs in (list(itertools.product(basis, repeat=2)), random):
            for tol in (0.0, 0.5):
                got = member_tensors(composition._compose_antisym(*stacks(pairs), tol))
                assert [tensor_outcome(lambda: c) for c in got] == [
                    tensor_outcome(compose_antisym_gl4, a, b, tol) for a, b in pairs]

    def test_stacked_support_error_names_the_first_bad_side(self):
        # the lone check reads a whole stack: any bad left member is named
        # before a bad right one, with every outside index of its side, in
        # stack order
        good = indicator((2, 0))
        bad = CoefficientTensor(2, {(1, 1): 1.0})
        worse = CoefficientTensor(2, {(0, 0): 2.0, (3, 3): 1.0})
        for pairs, side, outside in (
                ([(good, good), (good, bad), (worse, good)], "left", "(0, 0), (3, 3)"),
                ([(good, good), (worse, bad), (bad, good)], "left",
                 "(0, 0), (3, 3), (1, 1)"),
                ([(good, bad), (good, good), (good, worse)], "right",
                 "(1, 1), (0, 0), (3, 3)")):
            got = tensor_outcome(composition._compose_antisym, *stacks(pairs), 0.0)
            assert got == (DomainError, f"{side} factor has support outside the "
                           f"six antisymmetric indices: [{outside}]")
        # one pair raises what it raises alone
        for pair in ((good, bad), (worse, bad), (bad, indicator((2,)))):
            assert (tensor_outcome(composition._compose_antisym, *stacks([pair]), 0.0)
                    == tensor_outcome(compose_antisym_gl4, *pair))
        # a stack has one order: a list of two is refused when it is built,
        # and a stack of order 1 fails as its first pair does alone
        with pytest.raises(DimensionError, match=r"^tensor orders differ: 2 vs 1$"):
            stacks([(good, good), (good, indicator((2,)))])
        pairs = [(good, indicator((2,))), (good, indicator((1,)))]
        assert (tensor_outcome(composition._compose_antisym, *stacks(pairs), 0.0)
                == tensor_outcome(compose_antisym_gl4, *pairs[0]))

    def test_rejects_outside_support(self):
        good = indicator((2, 0))
        bad = CoefficientTensor(2, {(1, 1): 1.0})
        with pytest.raises(DomainError):
            compose_antisym_gl4(bad, good)
        with pytest.raises(DomainError):
            compose_antisym_gl4(good, bad)

    def test_requires_order_two(self):
        with pytest.raises(DimensionError):
            compose_antisym_gl4(indicator((2,)), indicator((2,)))


class TestClosedClasses:
    FIRST_SLOT = frozenset({(0, 0), (1, 0), (2, 0), (3, 0)})
    SECOND_SLOT = frozenset({(0, 0), (0, 1), (0, 2), (0, 3)})

    @pytest.mark.parametrize("support", [FIRST_SLOT, SECOND_SLOT],
                             ids=["first-slot", "second-slot"])
    def test_support_closure(self, rng, support):
        for _ in range(100):
            a = random_supported(rng, support)
            b = random_supported(rng, support)
            assert set(compose(a, b, tol=0.0).coeffs) <= support

    def test_antisymmetric_support_is_open(self):
        # a single pair of antisymmetric basis elements escapes the six
        out = compose(indicator((2, 0)), indicator((2, 1)), tol=0.0)
        assert out.coeffs == {(0, 1): 1.0}
        assert not set(out.coeffs) <= ANTISYMMETRIC_GL4_SUPPORT


@pytest.mark.bits
@pytest.mark.parametrize("count", [1, 7, 100])
def test_stacked_law_matches_per_pair_law(count):
    # each member gets the bits of the law on its pair alone; A and B are the
    # even and odd members of one draw, as verify_closed_forms passes them,
    # and rounding the draw adds signed zeros and exact products
    for seed in range(5):
        rng = np.random.default_rng(seed)
        dense = (rng.standard_normal((2 * count, 4, 4))
                 + 1j * rng.standard_normal((2 * count, 4, 4)))
        for d in (dense, np.round(dense)):
            A, B = d[0::2], d[1::2]
            got = composition._gl4_product_array(A, B)
            want = np.array([reference_gl4_product_array(a, b) for a, b in zip(A, B)])
            assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@pytest.fixture(scope="module")
def report():
    return verify_closed_forms(np.random.default_rng(7), pairs=50)


class TestVerifyClosedForms:
    def test_all_families_confirmed(self, report):
        assert report.families_confirmed
        assert sorted(f.family for f in report.families) == ["00", "0l", "k0", "kl"]
        for fam in report.families:
            assert fam.max_error <= 1e-12

    @pytest.mark.parametrize("pairs", [1, 20])
    def test_family_errors_match_reference(self, pairs):
        # the array check gives the per-entry loop's worst errors bit for bit
        for seed in range(30):
            got = verify_closed_forms(np.random.default_rng(seed), pairs)
            want = reference_family_errors(np.random.default_rng(seed), pairs)
            assert [(f.family, f.max_error.hex()) for f in got.families] == [
                (fam, err.hex()) for fam, err in want.items()]
            assert all(type(f.max_error) is float for f in got.families)

    def test_default_generator_is_seed_zero(self):
        got = verify_closed_forms()
        want = verify_closed_forms(np.random.default_rng(0))
        assert got.families == want.families

    @pytest.mark.parametrize("pairs", [0, -3])
    def test_needs_a_pair(self, pairs):
        # over no pairs every family would read CONFIRMED with error 0
        with pytest.raises(DomainError):
            verify_closed_forms(np.random.default_rng(0), pairs)

    @pytest.mark.parametrize("pairs, count", [(np.float64(3.0), 3), (True, 1)])
    def test_integral_pair_count(self, pairs, count):
        # read by the package's integer rule, and printed as that integer
        got = verify_closed_forms(np.random.default_rng(0), pairs)
        assert got == verify_closed_forms(np.random.default_rng(0), count)
        assert all(type(f.pairs) is int for f in got.families)
        assert f"over {count} random pairs" in got.render()

    @pytest.mark.parametrize("pairs", [2.5, "3"])
    def test_non_integral_pair_count(self, pairs):
        with pytest.raises(DomainError, match="pair count must be an integer"):
            verify_closed_forms(np.random.default_rng(0), pairs)

    @pytest.mark.parametrize("table", [TABULATED_ANTISYM_COMPONENTS,
                                       composition._DERIVED_ANTISYM_TABLE],
                             ids=["tabulated", "derived"])
    def test_tables_hold_only_what_the_ledger_reads(self, table):
        # _term_map keeps one scalar per input pair and drops none, and
        # _render_terms spells only +-1 and +-i (so no scalar is zero)
        for terms in table.values():
            pairs = [(s, t) for s, t, _ in terms]
            assert len(set(pairs)) == len(pairs)
            assert all(complex(x) in composition._SCALAR_TEXT for _, _, x in terms)

    def test_sixteen_components_reported(self, report):
        assert len(report.components) == 16
        assert {c.index for c in report.components} == set(
            itertools.product(range(4), repeat=2))

    def test_exactly_one_mismatch(self, report):
        mismatched = report.mismatched_components()
        assert [c.index for c in mismatched] == [(2, 1)]

    def test_mismatch_correction_is_oracle_derived(self, report):
        # derived terms for output (2, 1), frozen from the dense brute force:
        # products of the six antisymmetric basis elements land on (2, 1)
        # only from (0,2)x(2,3) with weight +i and (2,3)x(0,2) with weight -i
        want = {}
        for s in ANTISYM_SORTED:
            for t in ANTISYM_SORTED:
                prod = dense_product_oracle(indicator(s), indicator(t))
                w = prod.coeff((2, 1))
                if w != 0:
                    want[(s, t)] = w
        assert want == {((0, 2), (2, 3)): 1j, ((2, 3), (0, 2)): -1j}
        bad = next(c for c in report.components if c.index == (2, 1))
        assert bad.derived == "i*A02*B23 - i*A23*B02"
        assert bad.tabulated == "i*A02*B23 + A23*B02"

    def test_tabulated_terms_match_oracle_except_c21(self):
        for out, terms in TABULATED_ANTISYM_COMPONENTS.items():
            oracle = {}
            for s in ANTISYM_SORTED:
                for t in ANTISYM_SORTED:
                    w = dense_product_oracle(indicator(s), indicator(t)).coeff(out)
                    if w != 0:
                        oracle[(s, t)] = w
            tabulated = {(s, t): complex(w) for s, t, w in terms}
            if out == (2, 1):
                assert tabulated != oracle
            else:
                assert tabulated == oracle

    def test_render_mentions_every_component(self, report):
        text = report.render()
        for p in range(4):
            for q in range(4):
                assert f"C{p}{q}:" in text
        assert text.count("MISMATCH") == 1
        assert "corrected" in text
