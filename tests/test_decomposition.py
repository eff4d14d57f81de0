import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from pauligl import (CoefficientTensor, DimensionError, DomainError,
                     basis_element, coeff_distance, compose, decompose,
                     lex_local_from_global, pauli_matrix, reconstruct)
from pauligl.decomposition import (MAX_DENSE_BYTES, MAX_ORDER, _coeff_distances,
                                   _coefficients, _decompose_stack, _kept,
                                   _matrix_stacks, _reconstruct_stack, _stack,
                                   coefficient_array)

NAN = float("nan")
BIG = 1.7976931348623157e308

from conftest import (coefficient_tensors, edge_floats, member_tensors,
                      random_complex_matrix, stacks, tensor_outcome)
from reference import (reference_coefficient_array,
                       reference_decompose_via_traces, reference_reconstruct)


class TestCoefficientTensor:
    def test_prunes_small_entries(self):
        c = CoefficientTensor(1, {(1,): 1.0, (2,): 1e-13}, tol=1e-12)
        assert c.coeffs == {(1,): 1.0}

    def test_keeps_everything_at_zero_tol(self):
        c = CoefficientTensor(1, {(1,): 1e-15}, tol=0.0)
        assert len(c) == 1

    def test_sorted_storage(self):
        c = CoefficientTensor(2, {(3, 1): 1.0, (0, 2): 2.0, (1, 0): 3.0})
        assert list(c.coeffs) == [(0, 2), (1, 0), (3, 1)]

    def test_identity(self):
        e = CoefficientTensor(3, {(0, 0, 0): 1.0})
        assert e.coeffs == {(0, 0, 0): 1.0}

    def test_coeff_default(self):
        assert CoefficientTensor(2, {}).coeff((1, 1)) == 0j

    def test_coeff_validates_index(self):
        c = CoefficientTensor(2, {(1, 3): 2.0})
        assert c.coeff([1, 3]) == c.coeff((np.int64(1), 3.0)) == 2.0
        with pytest.raises(DomainError):
            c.coeff((1, 7))
        with pytest.raises(DomainError):
            c.coeff("10")
        with pytest.raises(DimensionError,
                           match=r"multi-index \(1,\) has 1 factors, expected 2"):
            c.coeff((1,))

    def test_wrong_index_length(self):
        with pytest.raises(DimensionError):
            CoefficientTensor(2, {(1,): 1.0})

    def test_bad_digit(self):
        with pytest.raises(DomainError):
            CoefficientTensor(1, {(4,): 1.0})

    def test_non_finite(self):
        with pytest.raises(DomainError):
            CoefficientTensor(1, {(1,): float("nan")})

    def test_order_floor(self):
        with pytest.raises(DimensionError):
            CoefficientTensor(0, {})

    @pytest.mark.parametrize("m", [2.5, "2", 1.999])
    def test_non_integral_order(self, m):
        # int() made each of these an order-1 or order-2 tensor
        with pytest.raises(DomainError,
                           match="tensor order must be an integer, got "):
            CoefficientTensor(m, {(1, 1): 1.0})

    def test_integral_order_accepted(self):
        for m in (2.0, np.int64(2)):
            c = CoefficientTensor(m, {(1, 1): 1.0})
            assert type(c.m) is int and c.coeffs == {(1, 1): 1.0}

    def test_negative_tol(self):
        with pytest.raises(DomainError):
            CoefficientTensor(1, {}, tol=-1.0)

    def test_nan_tol(self):
        with pytest.raises(DomainError):
            CoefficientTensor(1, {(1,): 1.0}, tol=NAN)

    def test_order_ceiling(self):
        assert MAX_ORDER == 32
        c = CoefficientTensor(32, {(3,) * 32: 1.0, (2,) * 32: -1.0})
        assert list(c.coeffs) == [(2,) * 32, (3,) * 32]
        with pytest.raises(DimensionError):
            CoefficientTensor(33, {})

    def test_packed_storage(self):
        c = CoefficientTensor(2, {(3, 1): 1.0, (0, 2): 2j})
        assert c.codes.dtype == np.uint64 and c.codes.tolist() == [2, 13]
        assert c.values.tolist() == [2j, 1.0]
        assert not c.codes.flags.writeable and not c.values.flags.writeable

    def test_coeffs_is_read_only(self):
        c = CoefficientTensor(2, {(1, 1): 1.0})
        with pytest.raises(TypeError):
            c.coeffs[(9, 9)] = 5
        assert c.coeffs == {(1, 1): 1.0}

    def test_last_duplicate_wins(self):
        c = CoefficientTensor(1, [((1,), 1.0), ((1,), 2.0), ((2,), 3.0), ((2,), 0.0)])
        assert c.coeffs == {(1,): 2.0}
        # values are checked after duplicates resolve
        c = CoefficientTensor(1, [((1,), float("inf")), ((1,), 2.0)])
        assert c.coeffs == {(1,): 2.0}

    def test_coeff_matches_mapping(self):
        c = CoefficientTensor(3, {(0, 0, 0): 1.5, (0, 2, 1): complex(-0.0, 2.0),
                                  (1, 3, 3): complex(3.0, -0.0), (2, 2, 2): -1j,
                                  (3, 0, 1): complex(-0.0, -4.0),
                                  (3, 3, 3): 0.0}, tol=0.0)
        mapping = c.coeffs
        assert len(mapping) == 5
        for idx in itertools.product(range(4), repeat=3):
            got, want = c.coeff(idx), mapping.get(idx, 0j)
            assert type(got) is complex
            assert (np.array([got]).view(np.uint64).tolist()
                    == np.array([want]).view(np.uint64).tolist()), idx

    def test_coeff_memory(self, rng):
        c = decompose(random_complex_matrix(rng, 256), 0.0)
        assert len(c) == 4 ** 8
        # first-call setup on another tensor, so no per-tensor cache can
        # hide the cost of the call measured
        CoefficientTensor(8, {(0,) * 8: 1.0}).coeff((0,) * 8)
        tracemalloc.start()
        try:
            c.coeff((1, 2, 3, 0, 1, 2, 3, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the code array alone is 512 KiB
        assert peak < 2 ** 16

    def test_equality_and_repr(self):
        a = CoefficientTensor(1, {(2,): 1j})
        b = CoefficientTensor(1, {(2,): 1j})
        assert a == b
        assert repr(a) == "CoefficientTensor(m=1, nnz=1)"

    def test_not_equal_to_a_non_tensor(self):
        a = CoefficientTensor(1, {(2,): 1j})
        assert a.__eq__(a.coeffs) is NotImplemented
        assert a != a.coeffs and a != 1j


class TestPruneRule:
    """Every constructor drops a coefficient exactly when abs(value) <= tol."""

    # np.abs(Z) is one ulp above abs(Z) on numpy 2.4, so a prune written with
    # np.abs keeps Z at tol = abs(Z)
    Z = -0.1321048632913019 + 1.3168225133390905j

    def routes(self, tol):
        one = CoefficientTensor(1, {(0,): 1.0})
        return {
            "decompose": decompose(self.Z * np.eye(2), tol),
            "mapping": CoefficientTensor(1, {(0,): self.Z}, tol=tol),
            "compose": compose(one, CoefficientTensor(1, {(0,): self.Z}, tol=0.0),
                               tol),
            "_from_codes": CoefficientTensor._from_codes(
                1, np.zeros(1, dtype=np.uint64), np.array([self.Z]), tol),
        }

    def test_dropped_at_its_modulus(self):
        for route, c in self.routes(abs(self.Z)).items():
            assert c.coeffs == {}, route

    def test_kept_just_below_its_modulus(self):
        tol = float(np.nextafter(abs(self.Z), 0.0))
        for route, c in self.routes(tol).items():
            assert c.coeffs == {(0,): self.Z}, route

    @given(st.lists(st.builds(complex, edge_floats, edge_floats), min_size=1, max_size=6),
           st.sampled_from([0.0, -0.0]))
    def test_zero_tol_keeps_every_nonzero_modulus(self, values, tol):
        # at tol = 0, _kept tests the parts for nonzero and computes no modulus
        values = np.array(values)
        with np.errstate(over="ignore"):
            want = np.hypot(values.real, values.imag) > tol
        assert _kept(values, tol).tolist() == want.tolist()


class TestDecompose:
    def test_identity_4x4(self):
        assert decompose(np.eye(4)).coeffs == {(0, 0): 1.0}

    def test_basis_element_unit_coefficient(self):
        dense = np.kron(pauli_matrix(2), pauli_matrix(1))
        assert decompose(dense).coeffs == {(2, 1): 1.0}

    def test_matrix_unit_splits(self):
        e11 = np.array([[1, 0], [0, 0]], dtype=complex)
        assert decompose(e11).coeffs == {(0,): 0.5, (3,): 0.5}

    def test_round_trip_8x8(self, rng):
        a = random_complex_matrix(rng, 8)
        assert np.max(np.abs(reconstruct(decompose(a, 0.0)) - a)) < 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_round_trip_all_orders(self, rng, m):
        n = 2 ** m
        for _ in range(20):
            a = random_complex_matrix(rng, n)
            err = np.max(np.abs(reconstruct(decompose(a, 0.0)) - a))
            assert err < 1e-12 * n

    def test_agrees_with_trace_formula(self, rng):
        for m in (1, 2, 3):
            a = random_complex_matrix(rng, 2 ** m)
            d = coeff_distance(decompose(a, 0.0),
                               reference_decompose_via_traces(a, 0.0))
            assert d < 1e-13

    def test_linearity(self, rng):
        a = random_complex_matrix(rng, 4)
        b = random_complex_matrix(rng, 4)
        alpha, beta = 0.7 - 0.2j, -1.5 + 1j
        combined = decompose(alpha * a + beta * b, 0.0)
        ca, cb = decompose(a, 0.0), decompose(b, 0.0)
        for idx in combined.coeffs:
            want = alpha * ca.coeff(idx) + beta * cb.coeff(idx)
            assert abs(combined.coeff(idx) - want) < 1e-12

    def test_standard_entry_recovery(self, rng):
        # summing coefficient * factored generator entries reproduces A[i, j]
        for m in (1, 2):
            a = random_complex_matrix(rng, 2 ** m)
            c = decompose(a, 0.0)
            shape = (2,) * m
            for i in range(2 ** m):
                rows = lex_local_from_global(i, shape)
                for j in range(2 ** m):
                    cols = lex_local_from_global(j, shape)
                    total = 0j
                    for idx, v in c.coeffs.items():
                        prod = v
                        for k in range(m):
                            prod *= pauli_matrix(idx[k])[rows[k], cols[k]]
                        total += prod
                    assert abs(total - a[i, j]) < 1e-12

    def test_symmetric_antisymmetric_split_recomposes(self, rng):
        a = random_complex_matrix(rng, 4)
        sym = decompose((a + a.T) / 2, 0.0)
        anti = decompose((a - a.T) / 2, 0.0)
        merged = {idx: sym.coeff(idx) + anti.coeff(idx)
                  for idx in set(sym.coeffs) | set(anti.coeffs)}
        d = coeff_distance(CoefficientTensor(2, merged, tol=0.0),
                           decompose(a, 0.0))
        assert d < 1e-12

    def test_pruning(self):
        a = np.eye(4) + 1e-14 * np.ones((4, 4))
        assert set(decompose(a, tol=1e-12).coeffs) == {(0, 0)}

    def test_rejects_non_power_of_two(self):
        with pytest.raises(DimensionError):
            decompose(np.eye(3))

    def test_rejects_1x1(self):
        with pytest.raises(DimensionError):
            decompose(np.eye(1))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            decompose(np.zeros((2, 4)))

    def test_rejects_negative_tol(self):
        with pytest.raises(DomainError):
            decompose(np.eye(2), tol=-1e-3)

    def test_rejects_nan_tol(self):
        with pytest.raises(DomainError):
            decompose(np.eye(2), tol=NAN)
        with pytest.raises(DomainError):
            reference_decompose_via_traces(np.eye(2), tol=NAN)

    def test_rejects_non_finite_entry(self):
        for bad in (NAN, float("inf")):
            a = np.eye(4, dtype=complex)
            a[1, 2] = bad
            with pytest.raises(DomainError):
                decompose(a)

    def test_coefficient_array_of_inf_entry_warns_nothing(self):
        a = np.eye(4, dtype=complex)
        a[1, 2] = float("inf")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = coefficient_array(a)
        assert c.shape == (4, 4) and not np.isfinite(c).all()

    @given(coefficient_tensors())
    def test_completeness(self, c):
        back = decompose(reconstruct(c), 0.0)
        assert coeff_distance(back, c) < 1e-12

    @given(st.integers(1, 3).flatmap(lambda m: st.lists(
        st.builds(complex, edge_floats, edge_floats),
        min_size=4 ** m, max_size=4 ** m)), st.integers(0, 63))
    def test_one_pass_build_matches_two_pass(self, values, k):
        # the route decompose took before it built its tensor in one pass:
        # prune, then _from_codes' checks and a second prune at tol 0
        def two_pass(a, tol):
            flat = coefficient_array(a).reshape(-1)
            if not np.isfinite(flat).all():
                raise DomainError("non-finite coefficient: the matrix has a "
                                  "non-finite or overflowing entry")
            keep = np.flatnonzero(_kept(flat, tol))
            return CoefficientTensor._from_codes(
                flat.size.bit_length() // 2, keep.astype(np.uint64),
                flat[keep], 0.0)

        def modulus(z):
            with np.errstate(over="ignore"):
                return float(np.hypot(z.real, z.imag))

        side = int(len(values) ** 0.5)
        a = np.array(values).reshape(side, side)
        coeff = coefficient_array(a).flat[k % len(values)]
        # the last two sit on the |c| == tol boundary of an entry and of a
        # coefficient
        for tol in (0.0, 1e-12, 0.5, modulus(values[k % len(values)]),
                    modulus(coeff)):
            assert (tensor_outcome(decompose, a, tol)
                    == tensor_outcome(two_pass, a, tol))


class TestReconstruct:
    def test_identity(self):
        c = CoefficientTensor(2, {(0, 0): 1.0})
        assert np.array_equal(reconstruct(c), np.eye(4))

    def test_empty_is_zero(self):
        assert np.array_equal(reconstruct(CoefficientTensor(2, {})),
                              np.zeros((4, 4)))

    def test_dense_size_limit(self):
        # checked before allocating, so these fail at once
        assert 16 * 4 ** 12 <= MAX_DENSE_BYTES < 16 * 4 ** 14
        for m in (14, 20):
            with pytest.raises(DimensionError):
                reconstruct(CoefficientTensor(m, {(1,) * m: 1.0}))

    def test_two_term_sum(self):
        c = CoefficientTensor(2, {(1, 0): 1.0, (0, 2): 1.0})
        want = (np.kron(pauli_matrix(1), np.eye(2))
                + np.kron(np.eye(2), pauli_matrix(2)))
        assert np.max(np.abs(reconstruct(c) - want)) < 1e-15


class TestTraceFromCoeffs:
    """Tr A = 2^m * c(0...0): the trace is read off one coefficient."""

    def test_identity_trace(self):
        c = CoefficientTensor(2, {(0, 0): 1.0})
        assert np.trace(reconstruct(c)) == 4 == 2 ** c.m * c.coeff((0, 0))

    def test_traceless_basis(self):
        c = CoefficientTensor(2, {(3, 1): 7.0})
        assert np.trace(reconstruct(c)) == 0 == c.coeff((0, 0))

    def test_matches_dense_trace(self, rng):
        a = random_complex_matrix(rng, 8)
        c = decompose(a, 0.0)
        assert abs(2 ** c.m * c.coeff((0, 0, 0)) - np.trace(a)) < 1e-12


class TestCoeffDistance:
    def test_union_support(self):
        a = CoefficientTensor(1, {(1,): 1.0})
        b = CoefficientTensor(1, {(2,): 1.0})
        assert coeff_distance(a, b) == 1.0

    def test_order_mismatch(self):
        with pytest.raises(DimensionError):
            coeff_distance(CoefficientTensor(1, {}), CoefficientTensor(2, {}))

    def test_overflowing_distance_is_inf(self):
        # no RuntimeWarning either: the test run turns those into errors
        a = CoefficientTensor(1, {(1,): complex(BIG, BIG)})
        b = CoefficientTensor(1, {(1,): -BIG})
        assert coeff_distance(a, b) == float("inf")


def python_modulus(z: complex) -> float:
    # abs() is C hypot, which np.hypot is too (math.hypot may differ by an
    # ulp); past the largest float it raises where np.hypot gives inf
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def distance_by_index(a, b) -> float:
    """The distance as one Python modulus per index of the union support."""
    union = set(a.coeffs) | set(b.coeffs)
    return max((python_modulus(a.coeff(i) - b.coeff(i)) for i in union),
               default=0.0)


@st.composite
def distance_stacks(draw, max_m=3, max_members=8,
                    values=st.builds(complex, edge_floats, edge_floats)):
    m = draw(st.integers(1, max_m))
    tensors = st.builds(lambda d: CoefficientTensor(m, d, tol=0.0),
                        st.dictionaries(st.tuples(*[st.integers(0, 3)] * m),
                                        values, max_size=6))
    return draw(st.lists(st.tuples(tensors, tensors), min_size=1,
                         max_size=max_members))


@pytest.mark.bits
class TestStackedDistances:
    """One stacked call gives each pair the distance of its own call."""

    @given(distance_stacks())
    def test_members_match_lone_calls(self, pairs):
        got = _coeff_distances(*stacks(pairs)).tolist()
        assert got == [coeff_distance(a, b) for a, b in pairs]
        assert got == [distance_by_index(a, b) for a, b in pairs]

    # verify reads a distance of 0 as ==; small supports over signed zeros
    # and subnormals make equal pairs and pairs one sign or ulp apart common
    @given(st.one_of(distance_stacks(), distance_stacks(max_m=1, values=st.builds(
        complex, *[st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0])] * 2))))
    def test_zero_distance_is_equality(self, pairs):
        assert ((_coeff_distances(*stacks(pairs)) == 0).tolist()
                == [a == b for a, b in pairs])

    def test_fixed_stack(self):
        empty = CoefficientTensor(2, {})
        a = CoefficientTensor(2, {(1, 0): 1.0, (3, 3): complex(BIG, BIG)})
        b = CoefficientTensor(2, {(1, 0): -0.5, (0, 2): 2j})
        pairs = [(empty, empty), (a, b), (b, a), (b, b), (empty, b), (a, a)]
        got = _coeff_distances(*stacks(pairs)).tolist()
        assert got == [coeff_distance(x, y) for x, y in pairs]
        assert got == [0.0, float("inf"), float("inf"), 0.0, 2.0, 0.0]

    @pytest.mark.parametrize("m, members", [(31, 4), (31, 5), (32, 1), (32, 3)])
    def test_tags_at_the_largest_orders(self, m, members):
        # tags k << 62 of four members fill the 64 bits; a stack past that
        # is refused when it is built
        rng = np.random.default_rng(m + members)
        pairs = [tuple(CoefficientTensor(m, {tuple(rng.integers(0, 4, m).tolist()):
                                             complex(*rng.standard_normal(2))
                                             for _ in range(3)}, tol=0.0)
                       for _ in range(2)) for _ in range(members)]
        if members > 4 ** (32 - m):
            with pytest.raises(DimensionError, match=f"^a stack of {members} "
                               f"order-{m} tensors does not fit"):
                stacks(pairs)
            return
        assert _coeff_distances(*stacks(pairs)).tolist() == [
            distance_by_index(a, b) for a, b in pairs]

    def test_first_order_mismatch_is_named(self):
        # a stack has one order: the list builder names the first other
        # order, and two stacks of different orders fail as a lone call does
        one, two = CoefficientTensor(1, {}), CoefficientTensor(2, {})
        with pytest.raises(DimensionError, match=r"^tensor orders differ: 2 vs 1$"):
            _stack([two, two, one, two])
        with pytest.raises(DimensionError, match=r"^tensor orders differ: 2 vs 1$"):
            _coeff_distances(_stack([two, two]), _stack([one, one]))


class TestStack:
    """The stack type at the boundary: what a conversion shares, copies and
    refuses."""

    def test_pairs_split_a_stack_of_pairs(self, rng):
        # verify draws each pair left then right, builds the draw as one stack
        # and splits it; empty members must keep their places
        tensors = [decompose(random_complex_matrix(rng, 4), 0.0) for _ in range(4)]
        tensors[1:1] = [CoefficientTensor(2), CoefficientTensor(2, {(2, 1): 1.0})]
        left, right = _stack(tensors).pairs()
        for half, want in ((left, tensors[0::2]), (right, tensors[1::2])):
            assert (half.m, half.members) == (2, 3)
            assert [tensor_outcome(lambda: c) for c in member_tensors(half)] == [
                tensor_outcome(lambda: c) for c in want]
            assert not half.codes.flags.writeable and not half.values.flags.writeable

    def test_one_member_shares_its_arrays(self):
        c = CoefficientTensor(2, {(1, 0): 1.0, (3, 2): -2j})
        stack = _stack([c])
        assert stack.codes is c.codes and stack.values is c.values
        back = stack.tensor()
        assert back == c
        assert back.codes is c.codes and back.values is c.values


def transform_corpus(rng, m):
    """Named 2^m x 2^m inputs whose transforms must match the oracle's bits."""
    n = 2 ** m
    signs = rng.choice([-1.0, 1.0], size=(2, n, n))
    ints = rng.integers(-3, 4, size=(2, n, n)).astype(float)
    return {
        "identity": np.eye(n, dtype=complex),
        "basis": basis_element(tuple(rng.integers(0, 4, size=m).tolist())),
        "random": random_complex_matrix(rng, n),
        "real": rng.standard_normal((n, n)) + 0j,
        # mostly zeros of either sign, in both parts
        "integer": (np.copysign(ints[0], signs[0])
                    + 1j * np.copysign(ints[1], signs[1])),
        "signed_zero": signs[0] * 0.0 + 1j * (signs[1] * 0.0),
        "subnormal": (rng.choice([5e-324, 1e-320, 1e-310, 0.0], size=(n, n))
                      * signs[0] + 1j * 1e-310 * rng.standard_normal((n, n))),
        # sums overflow to inf, and inf - inf is nan
        "near_overflow": (rng.choice([BIG, 1e308, 0.0, 1.0], size=(n, n))
                          * signs[0] + 1j * BIG * signs[1]),
    }


def float_bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(float_bits(got), float_bits(want))


def assert_reconstructs_like_oracle(c):
    """The oracle's bits, or DomainError where the oracle's sums overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        want = reference_reconstruct(c)
    if np.isfinite(want).all():
        assert_same_bits(reconstruct(c), want)
    else:
        with pytest.raises(DomainError, match="non-finite matrix entry"):
            reconstruct(c)


def dense_tensor(m, values):
    """All 4^m coefficients in code order; zeros are pruned as usual."""
    return CoefficientTensor._from_codes(
        m, np.arange(4 ** m, dtype=np.uint64), values.reshape(-1), 0.0)


@pytest.mark.bits
class TestTransformMatchesReference:
    """The one-matmul-per-factor transform against the tensordot oracle."""

    @pytest.mark.parametrize("m", range(1, 9))
    def test_corpus(self, rng, m):
        for a in transform_corpus(rng, m).values():
            c = dense_tensor(m, a)
            with np.errstate(over="ignore", invalid="ignore"):
                assert_same_bits(coefficient_array(a), reference_coefficient_array(a))
            assert_reconstructs_like_oracle(c)

    @given(st.integers(1, 4).flatmap(lambda m: st.lists(
        st.floats(allow_nan=False, allow_infinity=False),
        min_size=2 * 4 ** m, max_size=2 * 4 ** m)))
    def test_any_finite_input(self, reals):
        values = np.array(reals).view(complex)
        m = (len(values).bit_length() - 1) // 2
        a = values.reshape(2 ** m, 2 ** m)
        c = dense_tensor(m, values)
        with np.errstate(over="ignore", invalid="ignore"):
            assert_same_bits(coefficient_array(a), reference_coefficient_array(a))
        assert_reconstructs_like_oracle(c)

    @pytest.mark.parametrize("transform, oracle", [
        (coefficient_array, reference_coefficient_array),
        (reconstruct, reference_reconstruct)])
    def test_memory_at_order_8(self, rng, transform, oracle):
        a = random_complex_matrix(rng, 256)
        arg = a if transform is coefficient_array else decompose(a, 0.0)

        def peak(f):
            f(arg)  # first-call setup
            tracemalloc.start()
            try:
                f(arg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # one (4,)*8 complex array is 1 MiB; the slack covers Python objects
        assert peak(transform) <= peak(oracle) + 2 ** 16


def raised(f, *args):
    """The message of the DomainError that f(*args) raises."""
    with pytest.raises(DomainError) as info:
        f(*args)
    return str(info.value)


@pytest.mark.bits
class TestStackedTransforms:
    """A stack through one transform gives each member the bits of its own call."""

    @pytest.mark.parametrize("m", range(1, 7))
    def test_corpus(self, rng, m):
        corpus = transform_corpus(rng, m)
        stack = np.array(list(corpus.values()))
        for row, a in zip(_coefficients(stack, m), stack):
            assert_same_bits(row.reshape((4,) * m), coefficient_array(a))

        finite = [a for name, a in corpus.items() if name != "near_overflow"]
        got = member_tensors(_decompose_stack(np.array(finite)))
        assert ([tensor_outcome(lambda: c) for c in got]
                == [tensor_outcome(decompose, a, 0.0) for a in finite])
        tensors = [dense_tensor(m, a) for a in finite]
        for back, c in zip(_reconstruct_stack(_stack(tensors)), tensors):
            assert_same_bits(back, reconstruct(c))

    @pytest.mark.parametrize("m", range(1, 5))
    def test_a_bad_member_raises_as_alone(self, rng, m):
        corpus = transform_corpus(rng, m)
        # no finite matrix overflows the forward transform, whose outputs are
        # halved sums; its sums overflow backwards
        overflowing = dense_tensor(m, corpus.pop("near_overflow"))
        infinite = corpus["random"].copy()
        infinite[-1, 0] = float("inf")
        for at in (0, len(corpus)):
            members = list(corpus.values())
            members.insert(at, infinite)
            assert (raised(_decompose_stack, np.array(members))
                    == raised(decompose, infinite, 0.0))
            tensors = [dense_tensor(m, a) for a in corpus.values()]
            tensors.insert(at, overflowing)
            assert (raised(_reconstruct_stack, _stack(tensors))
                    == raised(reconstruct, overflowing))

    @given(st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
        lambda mc: st.lists(st.builds(complex, edge_floats, edge_floats),
                            min_size=mc[1] * 4 ** mc[0],
                            max_size=mc[1] * 4 ** mc[0]).map(
            lambda v: np.array(v).reshape(mc[1], 2 ** mc[0], 2 ** mc[0]))))
    # a tall product of the whole stack rounds this underflow to -0.0 on
    # some BLAS kernels, where the member alone gets +0.0
    @example(stack=np.array([0j] * 7 + [5e-324 + 0j]).reshape(2, 2, 2))
    def test_any_finite_members(self, stack):
        # signed zeros, subnormals and the largest floats, whose sums overflow
        # when reconstructed
        m = stack.shape[-1].bit_length() - 1
        for row, a in zip(_coefficients(stack, m), stack):
            assert_same_bits(row.reshape((4,) * m), coefficient_array(a))
        got = member_tensors(_decompose_stack(stack))
        assert ([tensor_outcome(lambda: c) for c in got]
                == [tensor_outcome(decompose, a, 0.0) for a in stack])
        tensors = [dense_tensor(m, a) for a in stack]
        alone = []
        for c in tensors:
            try:
                alone.append(reconstruct(c))
            except DomainError as exc:
                alone.append(str(exc))
        messages = [a for a in alone if isinstance(a, str)]
        if messages:
            assert raised(_reconstruct_stack, _stack(tensors)) == messages[0]
        else:
            for back, want in zip(_reconstruct_stack(_stack(tensors)), alone):
                assert_same_bits(back, want)


def test_stack_sizes():
    def sizes(n, count, per=1):
        rng = np.random.default_rng(0)
        return [len(stack) for stack in _matrix_stacks(rng, n, count, per)]

    assert sizes(32, 100) == [4] * 25
    assert sizes(8, 50, per=2) == [64, 36]
    assert sizes(4, 100) == [100]
    assert sizes(128, 3) == [1, 1, 1]
    assert sizes(4, 0) == []
