import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pauligl import (ANTISYMMETRIC_GL4_SUPPORT, CoefficientTensor,
                     DimensionError, DomainError, QVector, SymmetryKind,
                     basis_element, classify_basis, coeff_distance,
                     coeffs_to_qvector, compose_antisym_gl4, decompose,
                     project, qvector_to_coeffs, qvector_to_dense,
                     reconstruct, transpose_coeffs)

from conftest import (coefficient_tensors, edge_floats, random_complex_matrix,
                      tensor_outcome)
from reference import reference_qvector_to_coeffs


class TestClassifyBasis:
    def test_single_index_two_is_antisymmetric(self):
        assert classify_basis((2, 1)) is SymmetryKind.ANTISYMMETRIC

    def test_no_index_two_is_symmetric(self):
        assert classify_basis((1, 1)) is SymmetryKind.SYMMETRIC

    def test_even_count_cancels(self):
        assert classify_basis((2, 2)) is SymmetryKind.SYMMETRIC
        dense = basis_element((2, 2))
        assert np.array_equal(dense.T, dense)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_dense_transpose(self, m):
        for idx in itertools.product(range(4), repeat=m):
            dense = basis_element(idx)
            if classify_basis(idx) is SymmetryKind.ANTISYMMETRIC:
                assert np.array_equal(dense.T, -dense)
            else:
                assert np.array_equal(dense.T, dense)

    def test_exactly_six_antisymmetric_at_order_two(self):
        assert ANTISYMMETRIC_GL4_SUPPORT == {
            (0, 2), (1, 2), (2, 0), (2, 1), (2, 3), (3, 2)}


class TestTransposeCoeffs:
    def test_sign_flip(self):
        c = CoefficientTensor(2, {(2, 0): 1.0})
        assert transpose_coeffs(c).coeffs == {(2, 0): -1.0}

    def test_double_two_keeps_sign(self):
        c = CoefficientTensor(2, {(2, 2): 1.0})
        assert transpose_coeffs(c).coeffs == {(2, 2): 1.0}

    def test_dense_agreement(self, rng):
        for m in (1, 2, 3, 4):
            a = random_complex_matrix(rng, 2 ** m)
            c = decompose(a, 0.0)
            d = coeff_distance(transpose_coeffs(c), decompose(a.T, 0.0))
            assert d < 1e-12

    @given(coefficient_tensors(max_m=4))
    def test_involution_exact(self, c):
        assert transpose_coeffs(transpose_coeffs(c)).coeffs == c.coeffs

    @given(coefficient_tensors(max_m=3))
    def test_reconstruct_commutes(self, c):
        got = reconstruct(transpose_coeffs(c))
        assert np.max(np.abs(got - reconstruct(c).T)) < 1e-12


class TestProject:
    def test_mask_semantics(self):
        c = CoefficientTensor(2, {(2, 0): 1.0, (1, 1): 1.0})
        assert project(c, SymmetryKind.ANTISYMMETRIC).coeffs == {(2, 0): 1.0}
        assert project(c, SymmetryKind.SYMMETRIC).coeffs == {(1, 1): 1.0}

    @given(coefficient_tensors(max_m=3))
    def test_partition(self, c):
        sym = project(c, SymmetryKind.SYMMETRIC)
        anti = project(c, SymmetryKind.ANTISYMMETRIC)
        assert set(sym.coeffs) & set(anti.coeffs) == set()
        merged = dict(sym.coeffs)
        merged.update(anti.coeffs)
        assert merged == c.coeffs

    def test_matches_dense_projections(self, rng):
        a = random_complex_matrix(rng, 4)
        c = decompose(a, 0.0)
        sym = project(c, SymmetryKind.SYMMETRIC)
        anti = project(c, SymmetryKind.ANTISYMMETRIC)
        assert coeff_distance(sym, decompose((a + a.T) / 2, 0.0)) < 1e-12
        assert coeff_distance(anti, decompose((a - a.T) / 2, 0.0)) < 1e-12


ZERO = QVector((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))


class TestQVector:
    def test_zero(self):
        q = QVector((0, 0, 0), [0, 0, 0])
        assert q == ZERO
        assert q.a == (0.0, 0.0, 0.0) and q.b == (0.0, 0.0, 0.0)

    def test_wrong_arity(self):
        with pytest.raises(DimensionError):
            QVector((1.0, 2.0), (0.0, 0.0, 0.0))

    def test_non_finite(self):
        with pytest.raises(DomainError):
            QVector((float("inf"), 0.0, 0.0), (0.0, 0.0, 0.0))

    def test_negative_zero_normalized(self):
        q = QVector((-0.0, 0.0, 0.0), (0.0, -0.0, 0.0))
        assert all(str(x) == "0.0" for x in (*q.a, *q.b))


class TestQVectorMaps:
    def test_zero_round_trips(self):
        assert coeffs_to_qvector(CoefficientTensor(2, {})) == ZERO
        assert qvector_to_coeffs(ZERO).coeffs == {}

    def test_first_axis_coefficients(self):
        # a = (1,0,0): only the (2,1)/(1,2) pair carries weight -+i/2
        c = qvector_to_coeffs(QVector((1.0, 0.0, 0.0), (0.0, 0.0, 0.0)))
        assert set(c.coeffs) == {(2, 1), (1, 2)}
        assert c.coeff((2, 1)) == -0.5j
        assert c.coeff((1, 2)) == 0.5j

    def test_third_axis_coefficients(self):
        c = qvector_to_coeffs(QVector((0.0, 0.0, 1.0), (0.0, 0.0, 0.0)))
        assert c.coeff((0, 2)) == -0.5j
        assert c.coeff((3, 2)) == -0.5j

    def test_dense_round_trip_through_coeffs(self):
        q = QVector((1.0, 0.0, 0.0), (0.0, 0.0, 0.0))
        got = coeffs_to_qvector(decompose(qvector_to_dense(q), 0.0))
        assert got == q

    def test_round_trip_random(self, rng):
        for _ in range(100):
            q = QVector(tuple(rng.standard_normal(3)),
                        tuple(rng.standard_normal(3)))
            back = coeffs_to_qvector(qvector_to_coeffs(q, tol=0.0))
            err = max(abs(x - y) for x, y in zip((*back.a, *back.b),
                                                 (*q.a, *q.b)))
            assert err < 1e-12

    @given(st.lists(edge_floats, min_size=6, max_size=6),
           st.sampled_from([0.0, 1e-12, 0.5, 1e308]))
    def test_bits_match_dict_build(self, values, tol):
        q = QVector(tuple(values[:3]), tuple(values[3:]))
        assert (tensor_outcome(qvector_to_coeffs, q, tol=tol)
                == tensor_outcome(reference_qvector_to_coeffs, q, tol=tol))

    def test_realness_enforced(self):
        # A21 = 1, A12 = -1 forces a1 = 2i, which no real pair produces
        c = CoefficientTensor(2, {(2, 1): 1.0, (1, 2): -1.0})
        with pytest.raises(DomainError):
            coeffs_to_qvector(c)

    def test_support_enforced(self):
        with pytest.raises(DomainError):
            coeffs_to_qvector(CoefficientTensor(2, {(1, 1): 1.0}))

    def test_order_enforced(self):
        with pytest.raises(DimensionError):
            coeffs_to_qvector(CoefficientTensor(1, {(2,): 1.0}))


class TestQVectorDense:
    def test_zero(self):
        assert np.array_equal(qvector_to_dense(ZERO),
                              np.zeros((4, 4)))

    def test_cross_block_layout(self):
        m = qvector_to_dense(QVector((1.0, 0.0, 0.0), (0.0, 0.0, 0.0)))
        want = np.zeros((4, 4), dtype=complex)
        want[1, 2], want[2, 1] = -1.0, 1.0
        assert np.array_equal(m, want)

    def test_border_layout(self):
        m = qvector_to_dense(QVector((0.0, 0.0, 0.0), (5.0, 0.0, 0.0)))
        want = np.zeros((4, 4), dtype=complex)
        want[0, 3], want[3, 0] = 5j, -5j
        assert np.array_equal(m, want)

    def test_cross_action(self, rng):
        a = rng.standard_normal(3)
        v = rng.standard_normal(3)
        m = qvector_to_dense(QVector(tuple(a), (0.0, 0.0, 0.0)))
        assert np.max(np.abs(m[:3, :3].real @ v - np.cross(a, v))) < 1e-12

    def test_antisymmetric_exact(self, rng):
        for _ in range(20):
            q = QVector(tuple(rng.standard_normal(3)),
                        tuple(rng.standard_normal(3)))
            m = qvector_to_dense(q)
            assert np.all(m + m.T == 0)

    def test_cross_path_consistency(self, rng):
        for _ in range(50):
            q = QVector(tuple(rng.standard_normal(3)),
                        tuple(rng.standard_normal(3)))
            d = coeff_distance(decompose(qvector_to_dense(q), 0.0),
                               qvector_to_coeffs(q, tol=0.0))
            assert d < 1e-12


_ANTISYM = CoefficientTensor(2, {(2, 0): 1.0})


class TestAntisymmetricOperandCheck:
    CALLS = [
        ("left factor", lambda c: compose_antisym_gl4(c, _ANTISYM)),
        ("right factor", lambda c: compose_antisym_gl4(_ANTISYM, c)),
        ("q-vector input", coeffs_to_qvector),
    ]

    @pytest.mark.parametrize("operand,call", CALLS, ids=[o for o, _ in CALLS])
    @pytest.mark.parametrize("m", [1, 3])
    def test_order(self, operand, call, m):
        with pytest.raises(DimensionError,
                           match=f"^{operand} must have tensor order 2, got {m}$"):
            call(CoefficientTensor(m, {(2,) * m: 1.0}))

    @pytest.mark.parametrize("operand,call", CALLS, ids=[o for o, _ in CALLS])
    def test_support(self, operand, call):
        c = CoefficientTensor(2, {(3, 3): 2.0, (2, 0): 1.0, (1, 1): 1.0})
        with pytest.raises(DomainError) as exc:
            call(c)
        assert str(exc.value) == (f"{operand} has support outside the six "
                                  "antisymmetric indices: [(1, 1), (3, 3)]")

    # both operands bad: the left one is named, its order before its support
    @pytest.mark.parametrize("left, right, error, text", [
        ({(1, 1): 1.0}, {(3, 3): 1.0}, DomainError,
         "left factor has support outside the six antisymmetric indices: [(1, 1)]"),
        ({(1, 1): 1.0}, {(2, 2, 2): 1.0}, DomainError,
         "left factor has support outside the six antisymmetric indices: [(1, 1)]"),
        ({(2,): 1.0}, {(3, 3): 1.0}, DimensionError,
         "left factor must have tensor order 2, got 1"),
        ({(2,): 1.0}, {(2, 2, 2): 1.0}, DimensionError,
         "left factor must have tensor order 2, got 1"),
    ], ids=["support-support", "support-order", "order-support", "order-order"])
    def test_left_operand_first(self, left, right, error, text):
        a, b = (CoefficientTensor(len(next(iter(c))), c) for c in (left, right))
        with pytest.raises(error) as exc:
            compose_antisym_gl4(a, b)
        assert str(exc.value) == text
