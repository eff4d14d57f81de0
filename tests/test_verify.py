from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pauligl import (ANTISYMMETRIC_GL4_SUPPORT, CoefficientTensor, composition,
                     decomposition, symmetry, verify)
from pauligl.cli import dispatch
from pauligl.verify import _codes, _random_pairs, run_verification

from conftest import edge_floats, member_tensors, tensor_outcome
from reference import reference_gl4_product_array

# The counts each suite reports whatever the seed and the BLAS: every check
# of these suites is exact or far inside its bound.
COUNTS = [
    "suite orthogonality: PASS 4384/4384 (exact; products 16/16, traces "
    "m=1 16/16, m=2 256/256, m=3 4096/4096)",
    "suite bijection: PASS 24789/24789 (lex 18321, block 6384, "
    "kron factorization 84; all exact)",
    "suite closed-form: PASS 90/90 ",
    "suite q-vector: PASS 300/300 ",
    "suite closed-classes: PASS 201/201 ",
]


@pytest.mark.parametrize("seed", [0, 42])
def test_suite_counts(seed):
    report = run_verification(seed)
    lines = report.render().splitlines()
    for want in COUNTS:
        assert any(line.startswith(want) for line in lines), want
    assert report.ok and lines[-1] == "overall: PASS"


@pytest.mark.parametrize("seed", [0, 42, 7])
def test_stack_size_cannot_change_the_report(seed, monkeypatch):
    # one sample per stack is the per-sample loop the stacks replaced
    default = run_verification(seed).render()
    monkeypatch.setattr(decomposition, "_STACK_ENTRIES", 1)
    assert run_verification(seed).render() == default


@pytest.mark.bits
@pytest.mark.parametrize("seed", [0, 42, 7, 3])
def test_per_pair_law_prints_the_same_report(seed, monkeypatch):
    # the product law over one stack prints what it printed one pair at a time
    default = run_verification(seed).render()
    monkeypatch.setattr(composition, "_gl4_product_array", lambda A, B: np.array(
        [reference_gl4_product_array(a, b) for a, b in zip(A, B)]))
    assert run_verification(seed).render() == default


SUITES = ["round-trip", "homomorphism", "orthogonality", "transpose",
          "bijection", "closed-form", "q-vector", "closed-classes"]


def suite_lines(out):
    return {line.split(":")[0][len("suite "):]: line
            for line in out.splitlines() if line.startswith("suite ")}


def test_raising_suite_fails_and_the_rest_still_run(monkeypatch, capsys):
    # array digit rows in the wrong order: the bijection suite's round trip
    # then meets a digit outside its factor and raises
    lex = verify._lex_stack
    monkeypatch.setattr(verify, "_lex_stack", lambda x, shapes, ids, to_local: (
        lex(x, shapes, ids, to_local)[::-1] if to_local else lex(x, shapes, ids, to_local)))
    assert dispatch(["verify", "--seed", "0"]) == 3
    out = capsys.readouterr().out
    lines = suite_lines(out)
    assert list(lines) == SUITES
    assert lines["bijection"].startswith(
        "suite bijection: FAIL 0/1 (raised DomainError: local index ")
    assert all(": PASS " in lines[name] for name in SUITES if name != "bijection")
    assert "antisymmetric-support component table:" in out
    assert out.splitlines()[-1] == "overall: FAIL"


def test_ledger_line_when_closed_forms_raise(monkeypatch, capsys):
    def broken(rng, pairs):
        raise ValueError("no ledger")

    monkeypatch.setattr(verify, "verify_closed_forms", broken)
    assert dispatch(["verify", "--seed", "0"]) == 3
    out = capsys.readouterr().out
    lines = suite_lines(out)
    assert list(lines) == SUITES
    assert lines["closed-form"] == (
        "suite closed-form: FAIL 0/1 (raised ValueError: no ledger)")
    assert "closed-form ledger: not built, its suite raised" in out.splitlines()
    assert "component families" not in out
    assert out.splitlines()[-1] == "overall: FAIL"


def test_closed_form_pairs_catch_a_wrong_kernel_phase(monkeypatch):
    # conjugate every phase compose applies: the antisymmetric pair checks
    # must fail too, not only the family checks of the product law
    monkeypatch.setattr(composition, "_PHASE_IM", -composition._PHASE_IM)
    ledger = []
    result = verify._run("closed-form", verify._suite_closed_form,
                         np.random.default_rng(0), ledger)
    family_failures = sum(not f.confirmed for f in ledger[0].families)
    assert result.total == 90
    assert result.total - result.passed > family_failures


def test_the_runner_counts_failed_checks():
    # a suite's failed checks must reach its result; a fixture-free test, so
    # the mutant table can run it under a mutant tally
    with mock.patch.object(composition, "_PHASE_IM", -composition._PHASE_IM):
        result = verify._run("closed-form", verify._suite_closed_form,
                             np.random.default_rng(0), [])
    assert result.name == "closed-form"
    assert result.passed < result.total == 90


SUPPORTS = {
    "antisymmetric": ANTISYMMETRIC_GL4_SUPPORT,
    "first slot": {(0, 0), (1, 0), (2, 0), (3, 0)},
    "second slot": {(0, 0), (0, 1), (0, 2), (0, 3)},
}


@pytest.mark.parametrize("name", SUPPORTS)
def test_random_tensor_matches_dict_build(name):
    # the same generator stream as one scalar draw per real and imaginary
    # part, however many pairs one call draws
    support = sorted(SUPPORTS[name])
    for seed in range(20):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        pairs = [p for count in (1, 3, 2) for p in zip(
            *map(member_tensors, _random_pairs(rng, _codes(support), count)))]
        for pair in pairs:
            for got in pair:
                want = tensor_outcome(CoefficientTensor, 2, {
                    i: complex(ref_rng.standard_normal(), ref_rng.standard_normal())
                    for i in support}, tol=0.0)
                assert tensor_outcome(lambda: got) == want
        assert rng.standard_normal() == ref_rng.standard_normal()


def test_random_matrices_match_two_call_stream():
    # one draw per stack is the stream of two standard_normal calls per
    # matrix, real part first, bit for bit; verify's suites cannot see a draw
    # that swaps the parts, so this test is what catches it
    for seed in range(200):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for n, count, per in ((2, 1, 1), (4, 2, 2), (8, 1, 1), (3, 2, 1), (32, 5, 1)):
            got = np.concatenate(list(verify._matrix_stacks(rng, n, count, per)))
            assert got.shape == (count * per, n, n)
            for a in got:
                want = (ref_rng.standard_normal((n, n))
                        + 1j * ref_rng.standard_normal((n, n)))
                assert a.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        assert rng.standard_normal() == ref_rng.standard_normal()


@pytest.mark.bits
def test_stacked_pair_products_match_per_pair():
    # verify forms each pair's dense product x @ y in one stacked @; numpy
    # makes one product per member, of the shape a lone call makes, so the
    # bits must be those of one 2-D @ per pair, whatever the BLAS kernel
    rngs = [np.random.default_rng(seed) for seed in range(10)]
    # the homomorphism suite's stacks, a then b
    factors = [(dense[0::2], dense[1::2]) for rng in rngs for n in (2, 4, 8)
               for dense in verify._matrix_stacks(rng, n, 50, per=2)]
    # the closed-form suite's dense route: the 36 exhaustive antisymmetric
    # pairs, and random antisymmetric pairs
    basis = [CoefficientTensor(2, {s: 1}) for s in sorted(ANTISYMMETRIC_GL4_SUPPORT)]
    routes = [(decomposition._stack([a for a in basis for _ in basis]),
               decomposition._stack(basis * len(basis)))]
    routes += [_random_pairs(rng, symmetry._ANTISYM_GL4_CODES, 50) for rng in rngs]
    factors += [tuple(map(decomposition._reconstruct_stack, route)) for route in routes]
    for left, right in factors:
        got = left @ right
        want = np.array([x @ y for x, y in zip(left, right)])
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@given(st.lists(st.builds(complex, edge_floats, edge_floats),
                min_size=16, max_size=16))
def test_dense_pair_matches_dict_build(values):
    # verify_closed_forms builds its random 4x4 operands from all 16 codes
    A = np.array(values).reshape(4, 4)
    want = tensor_outcome(CoefficientTensor, 2, {
        (p, q): A[p, q] for p in range(4) for q in range(4)}, tol=0.0)
    assert tensor_outcome(lambda: member_tensors(decomposition._from_dense(
        2, A.reshape(1, -1), 0.0))[0]) == want
    assert tensor_outcome(CoefficientTensor._from_codes, 2,
                          np.arange(16, dtype=np.uint64), A.reshape(-1), 0.0) == want
