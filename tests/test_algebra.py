import functools
import itertools
import operator
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pauligl import (EPSILON, BlockCuts, CoefficientTensor, DimensionError,
                     DomainError, Phase, basis_element, lex_global_from_local,
                     multi_product, pauli_matrix, single_product,
                     validate_multi_index, verify_closed_forms)
from pauligl.algebra import (code_digits, code_product, distinct_codes,
                             pack_index, y_counts)

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
        # all 16 products of Phase.__mul__ against those of to_complex()
        values = [Phase.PLUS_ONE, Phase.PLUS_I, Phase.MINUS_ONE, Phase.MINUS_I]
        for a in values:
            for b in values:
                assert (a * b).to_complex() == a.to_complex() * b.to_complex()
        # +i generates the group: its powers run through every member once
        powers = [Phase.PLUS_ONE]
        for _ in range(4):
            powers.append(powers[-1] * Phase.PLUS_I)
        assert powers == [*values, Phase.PLUS_ONE]

    def test_associativity_exhaustive(self):
        for a, b, c in itertools.product(Phase, repeat=3):
            assert (a * b) * c == a * (b * c)

    def test_unit_modulus_exact(self):
        for p in Phase:
            z = p.to_complex()
            assert abs(z.real) + abs(z.imag) == 1.0

    def test_repr_is_the_phase(self):
        assert [repr(p) for p in Phase] == ["+1", "+i", "-1", "-i"]


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

    def test_pinned_to_epsilon(self):
        # the Levi-Civita case analysis: for distinct nonzero digits the
        # product is i * epsilon times the remaining generator; digit 0 and
        # equal digits multiply to phase +1
        for mu, nu in itertools.product(range(4), repeat=2):
            phase, idx = single_product(mu, nu)
            if mu and nu and mu != nu:
                lam = 6 - mu - nu
                assert idx == (lam,)
                assert phase.to_complex() == 1j * EPSILON[mu - 1, nu - 1, lam - 1]
            else:
                assert phase is Phase.PLUS_ONE
                assert idx == (mu + nu if 0 in (mu, nu) else 0,)

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

    @given(st.tuples(multi_indices(40), multi_indices(40)))
    def test_factorwise_beyond_packed_order(self, pair):
        # 40 factors do not fit one 64-bit code; the product is per factor
        a, b = pair
        phase, idx = multi_product(a, b)
        singles = [single_product(mu, nu) for mu, nu in zip(a, b)]
        assert idx == tuple(lam for _, (lam,) in singles)
        assert phase is functools.reduce(operator.mul, [p for p, _ in singles])


class TestBasisElement:
    def test_identity_pair(self):
        assert np.array_equal(basis_element((0, 0)), np.eye(4))

    def test_single_factor(self):
        assert np.array_equal(basis_element((2,)), pauli_matrix(2))

    def test_matches_kron(self):
        got = basis_element((3, 2))
        assert np.array_equal(got, np.kron(pauli_matrix(3), pauli_matrix(2)))
        assert not got.flags.writeable
        # np.kron's bits, signed zeros included, for every index up to m = 4
        for m in (1, 2, 3, 4):
            for idx in itertools.product(range(4), repeat=m):
                want = pauli_matrix(idx[0])
                for mu in idx[1:]:
                    want = np.kron(want, pauli_matrix(mu))
                got = basis_element(idx)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()

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

    @pytest.mark.parametrize("digit", [2.9, 1.5, -0.5, "1"])
    def test_rejects_non_integral(self, digit):
        with pytest.raises(DomainError, match="must be an integer"):
            validate_multi_index((1, digit))
        with pytest.raises(DomainError):
            basis_element((digit,))
        with pytest.raises(DomainError):
            multi_product((digit,), (1,))
        with pytest.raises(DomainError):
            CoefficientTensor(1, {(digit,): 1.0})

    def test_accepts_integral_values(self):
        assert validate_multi_index((1, 1.0, np.int64(1))) == (1, 1, 1)
        assert all(type(mu) is int for mu in validate_multi_index((1.0, np.int64(2))))

    def test_out_of_range_message(self):
        for digit in (7, np.int64(7)):
            with pytest.raises(DomainError) as err:
                validate_multi_index((digit,))
            assert str(err.value) == "generator index must be in 0..3, got 7"


NON_FINITE = [float("nan"), float("inf"), float("-inf"), np.float64("nan"),
              np.float32("inf")]


class TestNonFiniteIntegers:
    """NaN and +-inf are refused with the package's error, not int()'s
    ValueError or OverflowError."""

    @pytest.mark.parametrize("value", NON_FINITE, ids=repr)
    def test_refused_with_domain_error(self, value):
        calls = {
            "pair count": lambda: verify_closed_forms(np.random.default_rng(0), value),
            "factor size": lambda: lex_global_from_local((1, 0), (2, value)),
            "n": lambda: BlockCuts(value, 1, 1),
            "tensor order": lambda: CoefficientTensor(value),
            "generator index": lambda: validate_multi_index((1, value)),
        }
        for what, call in calls.items():
            message = f"^{what} must be an integer, got {re.escape(repr(value))}$"
            with pytest.raises(DomainError, match=message):
                call()

    @pytest.mark.parametrize("value, error", [
        (None, TypeError), ("x", ValueError), ([2], TypeError),
        (2 + 0j, TypeError), (complex("nan"), TypeError)], ids=repr)
    def test_other_non_numbers_keep_int_errors(self, value, error):
        with pytest.raises(error):
            CoefficientTensor(value)
        with pytest.raises(error):
            validate_multi_index((1, value))


def packed(idx):
    return np.array([pack_index(idx)], dtype=np.uint64)


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

    # code_product on whole packed codes against multi_product, which applies
    # it to one-digit codes factor by factor
    def test_xor_and_phase_exhaustive_m2(self):
        for mu in itertools.product(range(4), repeat=2):
            for nu in itertools.product(range(4), repeat=2):
                phase, lam = multi_product(mu, nu)
                prod, exponent = code_product(packed(mu), packed(nu))
                assert prod.tolist() == [pack_index(lam)]
                assert Phase(int(exponent[0])) is phase

    @given(st.integers(1, 32).flatmap(lambda m: st.tuples(multi_indices(m),
                                                          multi_indices(m))))
    def test_xor_and_phase_property(self, pair):
        mu, nu = pair
        phase, lam = multi_product(mu, nu)
        prod, exponent = code_product(packed(mu), packed(nu))
        assert prod.tolist() == [pack_index(lam)]
        assert Phase(int(exponent[0])) is phase
