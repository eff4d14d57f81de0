"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single ``criterion NN <name>: PASS|FAIL`` verdict (echoed
in a summary block after the run) and asserts it.  Oracles are brute-force
dense linear algebra throughout; the library paths under test never feed
their own expected values.
"""

import functools
import itertools
import time

import numpy as np

from pauligl import (ANTISYMMETRIC_GL4_SUPPORT, BlockCuts, CoefficientTensor,
                     QVector, SymmetryKind, basis_element,
                     block_global_from_local, block_local_from_global,
                     classify_basis, coeff_distance, coeffs_to_qvector,
                     compose, compose_gl4, decompose,
                     lex_global_from_local, lex_local_from_global,
                     pauli_matrix, project, qvector_to_coeffs,
                     qvector_to_dense, reconstruct, single_product,
                     transpose_coeffs, verify_closed_forms)
from pauligl.cli import dispatch
from pauligl.composition import (_DERIVED_ANTISYM_TABLE,
                                 TABULATED_ANTISYM_COMPONENTS, _term_map)

from conftest import record_verdict, random_complex_matrix


def _verdict(num, name, ok):
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    record_verdict(line)
    print(line)
    assert ok, line


def _random_tensor(rng, m):
    return decompose(random_complex_matrix(rng, 2 ** m), tol=0.0)


def test_criterion_01_round_trip():
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    worst_ok = True
    for m in range(1, 6):
        n = 2 ** m
        for _ in range(100):
            a = random_complex_matrix(rng, n)
            err = np.max(np.abs(reconstruct(decompose(a, tol=0.0)) - a))
            worst_ok = worst_ok and err < 1e-12 * n
    elapsed = time.perf_counter() - start
    _verdict(1, "round trip", worst_ok and elapsed < 10.0)


def test_criterion_02_homomorphism():
    rng = np.random.default_rng(22)
    ok = True
    for m in range(1, 4):
        n = 2 ** m
        for _ in range(50):
            a = random_complex_matrix(rng, n)
            b = random_complex_matrix(rng, n)
            lhs = compose(decompose(a, tol=0.0), decompose(b, tol=0.0),
                          tol=0.0)
            rhs = decompose(a @ b, tol=0.0)
            ok = ok and coeff_distance(lhs, rhs) < 1e-10
    _verdict(2, "homomorphism", ok)


def test_criterion_03_structure_constant_exactness():
    ok = True
    for mu, nu in itertools.product(range(4), repeat=2):
        phase, lam = single_product(mu, nu)
        ok = ok and np.array_equal(pauli_matrix(mu) @ pauli_matrix(nu),
                                   phase.to_complex() * basis_element(lam))
    for m in range(1, 4):
        elements = np.array([basis_element(idx) for idx in
                             itertools.product(range(4), repeat=m)])
        gram = np.einsum("aij,bji->ab", elements, elements)
        ok = ok and np.array_equal(gram, 2 ** m * np.eye(len(elements)))
    _verdict(3, "structure-constant exactness", ok)


def test_criterion_04_four_by_four_closed_form():
    rng = np.random.default_rng(44)
    ok = True
    for _ in range(100):
        a = _random_tensor(rng, 2)
        b = _random_tensor(rng, 2)
        ok = ok and coeff_distance(compose_gl4(a, b),
                                   compose(a, b, tol=0.0)) <= 1e-12
    report = verify_closed_forms(np.random.default_rng(45), pairs=50)
    ok = ok and report.families_confirmed
    ok = ok and sorted(f.family for f in report.families) == \
        ["00", "0l", "k0", "kl"]
    _verdict(4, "4x4 closed form", ok)


def test_criterion_05_antisymmetric_component_table():
    support = sorted(ANTISYMMETRIC_GL4_SUPPORT)
    # Brute-force oracle: the term map of every output component, from dense
    # products of basis elements over all 36 ordered input pairs.
    oracle = {idx: {} for idx in itertools.product(range(4), repeat=2)}
    for s, t in itertools.product(support, repeat=2):
        product = decompose(basis_element(s) @ basis_element(t), tol=0.0)
        for idx in product.coeffs:
            oracle[idx][(s, t)] = product.coeff(idx)

    ok = all(_term_map(_DERIVED_ANTISYM_TABLE.get(idx, ())) == oracle[idx]
             for idx in oracle)
    mismatched = [idx for idx in sorted(TABULATED_ANTISYM_COMPONENTS)
                  if _term_map(TABULATED_ANTISYM_COMPONENTS[idx])
                  != oracle[idx]]
    ok = ok and mismatched == [(2, 1)]
    ok = ok and oracle[(2, 1)] == {((0, 2), (2, 3)): 1j,
                                   ((2, 3), (0, 2)): -1j}

    report = verify_closed_forms(np.random.default_rng(55), pairs=20)
    ok = ok and len(report.components) == 16
    ok = ok and [c.index for c in report.mismatched_components()] == [(2, 1)]
    bad = next(c for c in report.components if c.index == (2, 1))
    ok = ok and bad.derived == "i*A02*B23 - i*A23*B02"
    _verdict(5, "antisymmetric component table", ok)


def test_criterion_06_transpose():
    rng = np.random.default_rng(66)
    ok = True
    for m in range(1, 5):
        n = 2 ** m
        for _ in range(100):
            a = random_complex_matrix(rng, n)
            tensor = decompose(a, tol=0.0)
            flipped = transpose_coeffs(tensor)
            ok = ok and coeff_distance(flipped,
                                       decompose(a.T, tol=0.0)) <= 1e-12
            ok = ok and transpose_coeffs(flipped) == tensor
    _verdict(6, "transpose", ok)


def test_criterion_07_symmetry_split():
    rng = np.random.default_rng(77)
    antisym_m2 = {idx for idx in itertools.product(range(4), repeat=2)
                  if classify_basis(idx) is SymmetryKind.ANTISYMMETRIC}
    ok = antisym_m2 == ANTISYMMETRIC_GL4_SUPPORT and len(antisym_m2) == 6
    for m in range(1, 4):
        n = 2 ** m
        for _ in range(25):
            a = random_complex_matrix(rng, n)
            tensor = decompose(a, tol=0.0)
            sym = project(tensor, SymmetryKind.SYMMETRIC)
            antisym = project(tensor, SymmetryKind.ANTISYMMETRIC)
            merged = dict(sym.coeffs)
            merged.update(antisym.coeffs)
            ok = ok and merged == tensor.coeffs
            ok = ok and np.max(np.abs(reconstruct(sym)
                                      - (a + a.T) / 2)) <= 1e-12
            ok = ok and np.max(np.abs(reconstruct(antisym)
                                      - (a - a.T) / 2)) <= 1e-12
    _verdict(7, "symmetry split", ok)


def test_criterion_08_qvector_map():
    rng = np.random.default_rng(88)
    ok = True
    for _ in range(100):
        q = QVector(tuple(rng.standard_normal(3)),
                    tuple(rng.standard_normal(3)))
        back = coeffs_to_qvector(qvector_to_coeffs(q))
        ok = ok and max(abs(x - y) for x, y in
                        zip(back.a + back.b, q.a + q.b)) <= 1e-12
        dense = qvector_to_dense(q)
        ok = ok and np.array_equal(dense.T, -dense)
        ok = ok and np.max(np.abs(reconstruct(qvector_to_coeffs(q))
                                  - dense)) <= 1e-12
    _verdict(8, "q-vector map", ok)


def _factor_shapes(limit):
    yield ()
    for first in range(2, limit + 1):
        for rest in _factor_shapes(limit // first):
            yield (first,) + rest


def test_criterion_09_index_maps():
    ok = True
    for shape in _factor_shapes(64):
        if not shape:
            continue
        size = np.prod(shape)
        seen = []
        for locals_ in itertools.product(*(range(s) for s in shape)):
            g = lex_global_from_local(locals_, shape)
            ok = ok and lex_local_from_global(g, shape) == locals_
            seen.append(g)
        ok = ok and sorted(seen) == list(range(size))
    for n in range(2, 9):
        for row_cut, col_cut in itertools.product(range(1, n), repeat=2):
            cuts = BlockCuts(n, row_cut, col_cut)
            for i, j in itertools.product(range(n), repeat=2):
                loc = block_local_from_global(i, j, cuts)
                ok = ok and block_global_from_local(loc, cuts) == (i, j)
    for m in range(1, 4):
        shape = (2,) * m
        for idx in itertools.product(range(4), repeat=m):
            factors = [pauli_matrix(mu) for mu in idx]
            big = functools.reduce(np.kron, factors)
            ok = ok and np.array_equal(big, basis_element(idx))
            for i, j in itertools.product(range(2 ** m), repeat=2):
                rows = lex_local_from_global(i, shape)
                cols = lex_local_from_global(j, shape)
                entries = [f[r, c] for f, r, c in zip(factors, rows, cols)]
                ok = ok and big[i, j] == functools.reduce(
                    lambda x, y: x * y, entries)
    _verdict(9, "index maps", ok)


def test_criterion_10_closed_classes():
    rng = np.random.default_rng(1010)
    first_slot = frozenset({(0, 0)} | {(k, 0) for k in range(1, 4)})
    second_slot = frozenset({(0, 0)} | {(0, k) for k in range(1, 4)})
    ok = True
    for support in (first_slot, second_slot):
        indices = sorted(support)
        for _ in range(100):
            a = CoefficientTensor(
                2, {idx: complex(*rng.standard_normal(2))
                    for idx in indices}, tol=0.0)
            b = CoefficientTensor(
                2, {idx: complex(*rng.standard_normal(2))
                    for idx in indices}, tol=0.0)
            ok = ok and set(compose(a, b, tol=0.0).coeffs) <= support
    counter = compose(CoefficientTensor(2, {(2, 0): 1.0}),
                      CoefficientTensor(2, {(2, 1): 1.0}))
    ok = ok and counter.coeffs == {(0, 1): (1 + 0j)}
    ok = ok and not set(counter.coeffs) <= ANTISYMMETRIC_GL4_SUPPORT
    _verdict(10, "closed classes", ok)


def test_criterion_11_verify_determinism(capsys):
    code_one = dispatch(["verify", "--seed", "42"])
    first = capsys.readouterr().out
    code_two = dispatch(["verify", "--seed", "42"])
    second = capsys.readouterr().out
    ok = (code_one, code_two) == (0, 0) and first == second and first
    _verdict(11, "verify determinism", bool(ok))
