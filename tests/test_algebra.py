import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pauligl import (EPSILON, DimensionError, DomainError, Phase,
                     basis_element, multi_product, pauli_matrix,
                     single_product, validate_multi_index)
from pauligl.algebra import (BASIS_CACHE_SIZE, _basis_element_cached,
                             code_digits, distinct_codes, pack_index, x_bits,
                             y_counts, z_bits)

from conftest import multi_indices


# frozen generator entries; everything downstream hangs on these four
GENERATORS = {
    0: np.array([[1, 0], [0, 1]], dtype=complex),
    1: np.array([[0, 1], [1, 0]], dtype=complex),
    2: np.array([[0, -1j], [1j, 0]], dtype=complex),
    3: np.array([[1, 0], [0, -1]], dtype=complex),
}


class TestPauliMatrix:
    @pytest.mark.parametrize("mu", range(4))
    def test_exact_entries(self, mu):
        assert np.array_equal(pauli_matrix(mu), GENERATORS[mu])

    def test_read_only(self):
        with pytest.raises((ValueError, RuntimeError)):
            pauli_matrix(1)[0, 0] = 5

    def test_bad_index(self):
        with pytest.raises(DomainError):
            pauli_matrix(4)


class TestEpsilon:
    def test_totally_antisymmetric(self):
        for i, j, k in itertools.product(range(3), repeat=3):
            assert EPSILON[i, j, k] == -EPSILON[j, i, k]
            assert EPSILON[i, j, k] == -EPSILON[i, k, j]
        assert EPSILON[0, 1, 2] == 1


class TestPhase:
    def test_group_is_cyclic_of_order_four(self):
        values = [Phase.PLUS_ONE, Phase.PLUS_I, Phase.MINUS_ONE, Phase.MINUS_I]
        for a in values:
            for b in values:
                assert (a * b).to_complex() == a.to_complex() * b.to_complex()

    def test_associativity_exhaustive(self):
        for a, b, c in itertools.product(Phase, repeat=3):
            assert (a * b) * c == a * (b * c)

    def test_unit_modulus_exact(self):
        for p in Phase:
            z = p.to_complex()
            assert abs(z.real) + abs(z.imag) == 1.0


class TestSingleProduct:
    # (mu, nu) -> (phase, lambda), spot values frozen up front
    FROZEN = {
        (1, 2): (Phase.PLUS_I, 3),
        (0, 2): (Phase.PLUS_ONE, 2),
        (3, 3): (Phase.PLUS_ONE, 0),
        (2, 1): (Phase.MINUS_I, 3),
    }

    @pytest.mark.parametrize("pair,expected", sorted(FROZEN.items()))
    def test_frozen_cases(self, pair, expected):
        phase, lam = single_product(*pair)
        assert (phase, lam) == (expected[0], (expected[1],))

    def test_exhaustive_against_dense(self):
        for mu in range(4):
            for nu in range(4):
                phase, lam = single_product(mu, nu)
                dense = pauli_matrix(mu) @ pauli_matrix(nu)
                assert np.array_equal(
                    dense, phase.to_complex() * pauli_matrix(lam[0]))


class TestMultiProduct:
    def test_identity_factors(self):
        phase, idx = multi_product((0, 0), (3, 1))
        assert phase is Phase.PLUS_ONE and idx == (3, 1)

    def test_mixed_factors(self):
        phase, idx = multi_product((1, 2), (1, 1))
        assert phase is Phase.MINUS_I and idx == (0, 3)
        dense = basis_element((1, 2)) @ basis_element((1, 1))
        assert np.array_equal(dense, phase.to_complex() * basis_element(idx))

    def test_squares_are_identity(self):
        phase, idx = multi_product((2, 2), (2, 2))
        assert phase is Phase.PLUS_ONE and idx == (0, 0)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            multi_product((1, 2), (1,))

    @given(st.integers(1, 3).flatmap(
        lambda m: st.tuples(multi_indices(m), multi_indices(m))))
    def test_dense_agreement(self, pair):
        a, b = pair
        phase, idx = multi_product(a, b)
        dense = basis_element(a) @ basis_element(b)
        assert np.array_equal(dense, phase.to_complex() * basis_element(idx))


class TestBasisElement:
    def test_identity_pair(self):
        assert np.array_equal(basis_element((0, 0)), np.eye(4))

    def test_single_factor(self):
        assert np.array_equal(basis_element((2,)), pauli_matrix(2))

    def test_matches_kron(self):
        assert np.array_equal(basis_element((3, 2)),
                              np.kron(pauli_matrix(3), pauli_matrix(2)))

    def test_trace_picks_out_identity(self):
        for m in (1, 2, 3):
            for idx in itertools.product(range(4), repeat=m):
                want = 2 ** m if idx == (0,) * m else 0
                assert np.trace(basis_element(idx)) == want

    def test_orthogonality_exact(self):
        for m in (1, 2, 3):
            indices = list(itertools.product(range(4), repeat=m))
            stack = np.array([basis_element(idx) for idx in indices])
            gram = np.einsum("aij,bji->ab", stack, stack)
            assert np.array_equal(gram, (2 ** m) * np.eye(len(indices)))


class TestValidateMultiIndex:
    def test_accepts_lists(self):
        assert validate_multi_index([0, 3]) == (0, 3)

    def test_rejects_bad_digit(self):
        with pytest.raises(DomainError):
            validate_multi_index((0, 4))

    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            validate_multi_index(())


class TestBasisCache:
    def test_cache_is_bounded(self):
        assert _basis_element_cached.cache_info().maxsize == BASIS_CACHE_SIZE
        assert BASIS_CACHE_SIZE is not None and BASIS_CACHE_SIZE <= 1024


def packed_phase(code_a, code_b):
    """Product phase from the (x, z) popcount formula on packed codes."""
    a = np.array([code_a], dtype=np.uint64)
    b = np.array([code_b], dtype=np.uint64)
    exponent = (int(y_counts(a)[0]) + int(y_counts(b)[0]) - int(y_counts(a ^ b)[0])
                + 2 * int(np.bitwise_count(z_bits(a) & x_bits(b))[0]))
    return Phase(exponent % 4)


class TestPackedCodes:
    def test_digits_round_trip(self):
        idx = (3, 0, 2, 1)
        code = pack_index(idx)
        assert code == int("3021", 4)
        assert tuple(code_digits(np.array([code], dtype=np.uint64), 4)[0]) == idx

    def test_code_order_is_lexicographic(self):
        indices = list(itertools.product(range(4), repeat=3))
        assert [pack_index(i) for i in indices] == list(range(64))

    def test_largest_order(self):
        idx = (3,) * 32
        assert pack_index(idx) == 2 ** 64 - 1
        codes = np.array([pack_index(idx)], dtype=np.uint64)
        assert tuple(code_digits(codes, 32)[0]) == idx
        assert int(y_counts(codes)[0]) == 0

    def test_y_counts(self):
        codes = np.array([pack_index(i) for i in [(2, 2, 0), (1, 2, 3), (0, 0, 0)]],
                         dtype=np.uint64)
        assert y_counts(codes).tolist() == [2, 1, 0]

    def test_distinct_codes(self):
        codes = np.array([5, 1, 5, 3, 1], dtype=np.uint64)
        assert distinct_codes(codes).tolist() == [1, 3, 5]
        assert distinct_codes(np.empty(0, dtype=np.uint64)).size == 0

    def test_xor_and_phase_exhaustive_m2(self):
        for mu in itertools.product(range(4), repeat=2):
            for nu in itertools.product(range(4), repeat=2):
                phase, lam = multi_product(mu, nu)
                assert pack_index(mu) ^ pack_index(nu) == pack_index(lam)
                assert packed_phase(pack_index(mu), pack_index(nu)) is phase

    @given(st.integers(1, 32).flatmap(lambda m: st.tuples(multi_indices(m),
                                                          multi_indices(m))))
    def test_xor_and_phase_property(self, pair):
        mu, nu = pair
        phase, lam = multi_product(mu, nu)
        assert pack_index(mu) ^ pack_index(nu) == pack_index(lam)
        assert packed_phase(pack_index(mu), pack_index(nu)) is phase
