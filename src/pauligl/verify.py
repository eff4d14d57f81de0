"""Self-verification: the library's invariants re-checked at runtime.

``run_verification`` executes every module's property suite against brute
force oracles (dense matrix algebra, exhaustive enumeration) with one seeded
generator threaded through in a fixed order, so reports for a given seed are
byte-identical across runs.  A suite that raises is reported as failed, with
what it raised, and the later suites still run.  Closed-form
CONFIRMED/MISMATCH entries describe the tabulated formulas being validated,
not this implementation, and do not affect the pass verdict.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import basis_element, pack_index, pauli_matrix, single_product
from .composition import ClosedFormReport, compose, compose_antisym_gl4, verify_closed_forms
from .decomposition import CoefficientTensor, coeff_distance, decompose, reconstruct
from .indexing import (BlockCuts, block_global_from_local, block_local_from_global,
                       lex_global_from_local, lex_local_from_global)
from .symmetry import (_ANTISYM_GL4_CODES, ANTISYMMETRIC_GL4_SUPPORT, QVector,
                       antisymmetric_mask, coeffs_to_qvector, qvector_to_coeffs,
                       qvector_to_dense, transpose_coeffs)

__all__ = ["SuiteResult", "VerificationReport", "run_verification"]


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: int
    total: int
    detail: str

    @property
    def ok(self) -> bool:
        return self.passed == self.total


@dataclass(frozen=True)
class VerificationReport:
    seed: int
    suites: tuple
    closed_forms: ClosedFormReport | None

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.suites)

    def render(self) -> str:
        lines = [f"verification (seed {self.seed})"]
        for s in self.suites:
            verdict = "PASS" if s.ok else "FAIL"
            lines.append(f"suite {s.name}: {verdict} {s.passed}/{s.total} ({s.detail})")
        if self.closed_forms is None:
            lines.append("closed-form ledger: not built, its suite raised")
        else:
            lines.append(self.closed_forms.render())
        lines.append(f"overall: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def _random_matrices(rng, n: int, count: int) -> np.ndarray:
    """count complex n x n matrices from one draw, on the stream of two
    standard_normal((n, n)) calls per matrix: its real part, then imaginary."""
    parts = rng.standard_normal((count, 2, n, n))
    return parts[:, 0] + 1j * parts[:, 1]


class _Tally:
    """One suite's checks: how many passed, how many ran, the worst error."""

    def __init__(self):
        self.passed = self.total = 0
        self.worst = 0.0

    def check(self, ok, error=None, count=1) -> None:
        """Record one check, or ``count`` checks of which ``ok`` passed."""
        self.passed += int(ok)
        self.total += count
        if error is not None:
            self.worst = max(self.worst, error)


def _suite_round_trip(tally, rng) -> str:
    for m in range(1, 6):
        n = 2 ** m
        for _ in range(100):
            a = _random_matrices(rng, n, 1)[0]
            err = float(np.max(np.abs(reconstruct(decompose(a, 0.0)) - a)))
            tally.check(err < 1e-12 * n, err)
    return f"worst error {tally.worst:.3e}, bound 1e-12*side"


def _suite_homomorphism(tally, rng) -> str:
    for m in range(1, 4):
        n = 2 ** m
        for _ in range(50):
            a_dense, b_dense = _random_matrices(rng, n, 2)
            a, b = decompose(a_dense, 0.0), decompose(b_dense, 0.0)
            err = coeff_distance(compose(a, b, tol=0.0),
                                 decompose(a_dense @ b_dense, 0.0))
            tally.check(err < 1e-10, err)
    return f"worst error {tally.worst:.3e}, bound 1e-10"


def _suite_orthogonality(tally) -> str:
    for mu in range(4):
        for nu in range(4):
            phase, lam = single_product(mu, nu)
            expected = phase.to_complex() * pauli_matrix(lam[0])
            tally.check(np.array_equal(pauli_matrix(mu) @ pauli_matrix(nu), expected))
    per_m = []
    for m in range(1, 4):
        dense = np.array([basis_element(idx)
                          for idx in itertools.product(range(4), repeat=m)])
        # every Tr(a @ b) at once; entries are 0, +-1, +-i, so sums are exact
        traces = np.einsum("aij,bji->ab", dense, dense)
        count = int(np.count_nonzero(traces == 2 ** m * np.eye(len(dense))))
        tally.check(count, count=traces.size)
        per_m.append(f"m={m} {count}/{traces.size}")
    return "exact; products 16/16, traces " + ", ".join(per_m)


def _suite_transpose(tally, rng) -> str:
    for m in range(1, 5):
        n = 2 ** m
        for _ in range(25):
            a = _random_matrices(rng, n, 1)[0]
            c = decompose(a, 0.0)
            err = coeff_distance(transpose_coeffs(c), decompose(a.T, 0.0))
            tally.check(err < 1e-12, err)
            tally.check(transpose_coeffs(transpose_coeffs(c)) == c)
    return f"worst error {tally.worst:.3e}, bound 1e-12; involution exact"


def _factor_shapes(limit: int = 64) -> list:
    shapes = []

    def grow(prefix, prod):
        for size in range(2, limit // prod + 1):
            shape = prefix + (size,)
            shapes.append(shape)
            grow(shape, prod * size)

    grow((), 1)
    return shapes


def _suite_bijection(tally) -> str:
    for shape in _factor_shapes(64):
        g = np.arange(math.prod(shape))
        back = lex_global_from_local(lex_local_from_global(g, shape), shape)
        tally.check(np.count_nonzero(back == g), count=len(g))
    lex = tally.passed
    for n in range(2, 9):
        i, j = np.divmod(np.arange(n * n), n)
        for rc in range(1, n):
            for cc in range(1, n):
                cuts = BlockCuts(n, rc, cc)
                bi, bj = block_global_from_local(
                    block_local_from_global(i, j, cuts), cuts)
                tally.check(np.count_nonzero((bi == i) & (bj == j)), count=n * n)
    block = tally.passed - lex
    for m in range(1, 4):
        # entry (i, j) is the product over k of factor k's entry at the
        # k-th digits of i and j
        digits = lex_local_from_global(np.arange(2 ** m), (2,) * m)
        rows, cols = digits[:, :, None], digits[:, None, :]
        for idx in itertools.product(range(4), repeat=m):
            prod = np.ones((2 ** m, 2 ** m), dtype=complex)
            for k, mu in enumerate(idx):
                prod *= pauli_matrix(mu)[rows[k], cols[k]]
            tally.check(np.array_equal(basis_element(idx), prod))
    kron = tally.passed - lex - block
    return f"lex {lex}, block {block}, kron factorization {kron}; all exact"


def _codes(support) -> np.ndarray:
    """Sorted codes of a set of order-2 multi-indices."""
    return np.array(sorted(map(pack_index, support)), dtype=np.uint64)


def _indicator(idx) -> CoefficientTensor:
    return CoefficientTensor._from_codes(2, _codes([idx]), np.ones(1, complex), 0.0)


def _random_pair(rng, codes: np.ndarray) -> tuple:
    """Two order-2 tensors on the given codes from one draw: for each tensor
    in turn, a standard normal real and then imaginary part per code."""
    values = rng.standard_normal((2, 2 * len(codes))).view(complex)
    return tuple(CoefficientTensor._from_codes(2, codes, v, 0.0) for v in values)


def _suite_closed_form(tally, rng, ledger: list) -> str:
    report = verify_closed_forms(rng, pairs=100)
    ledger.append(report)
    for fam in report.families:
        tally.check(fam.confirmed)
    # against the dense route, which shares no code with the compose kernel
    for s, t in itertools.product(sorted(ANTISYMMETRIC_GL4_SUPPORT), repeat=2):
        a, b = _indicator(s), _indicator(t)
        dense = decompose(reconstruct(a) @ reconstruct(b), 0.0)
        tally.check(compose_antisym_gl4(a, b, tol=0.0) == dense)
    for _ in range(50):
        a, b = _random_pair(rng, _ANTISYM_GL4_CODES)
        dense = decompose(reconstruct(a) @ reconstruct(b), 0.0)
        err = coeff_distance(compose_antisym_gl4(a, b, tol=0.0), dense)
        tally.check(err <= 1e-12, err)
    return (f"families 4, exhaustive antisym pairs 36, random antisym pairs 50 "
            f"(worst error {tally.worst:.3e})")


def _suite_qvector(tally, rng) -> str:
    for _ in range(100):
        a, b = rng.standard_normal((2, 3))
        q = QVector(tuple(a), tuple(b))
        c = qvector_to_coeffs(q, tol=0.0)
        back = coeffs_to_qvector(c)
        err = max(abs(x - y) for x, y in zip((*back.a, *back.b), (*q.a, *q.b)))
        tally.check(err < 1e-12, err)

        dense = qvector_to_dense(q)
        tally.check(np.all(dense + dense.T == 0))

        cross = coeff_distance(decompose(dense, 0.0), c)
        tally.check(cross < 1e-12, cross)
    return f"round trip, exact antisymmetry, cross-path; worst error {tally.worst:.3e}"


def _suite_closed_classes(tally, rng) -> str:
    first_slot = {(0, 0), (1, 0), (2, 0), (3, 0)}
    second_slot = {(0, 0), (0, 1), (0, 2), (0, 3)}
    for support in (first_slot, second_slot):
        codes = _codes(support)
        allowed = set(codes.tolist())
        for _ in range(100):
            a, b = _random_pair(rng, codes)
            tally.check(set(compose(a, b, tol=0.0).codes.tolist()) <= allowed)
    # one antisymmetric-support pair escaping the six proves that class open
    escape = compose(_indicator((2, 0)), _indicator((2, 1)), tol=0.0)
    tally.check(not antisymmetric_mask(escape).all())
    return "two closed supports, 100 pairs each; one open-class counterexample"


def _run(name: str, suite, *args) -> SuiteResult:
    """The result of suite(tally, *args) under ``name``, or a failed result
    that names what it raised."""
    tally = _Tally()
    try:
        detail = suite(tally, *args)
    except Exception as exc:  # a fault in the checked code fails its suite
        return SuiteResult(name, 0, 1, f"raised {type(exc).__name__}: {exc}")
    return SuiteResult(name, tally.passed, tally.total, detail)


def run_verification(seed: int = 0) -> VerificationReport:
    rng = np.random.default_rng(seed)
    ledger = []  # the closed-form report, once its suite has built it
    suites = (
        _run("round-trip", _suite_round_trip, rng),
        _run("homomorphism", _suite_homomorphism, rng),
        _run("orthogonality", _suite_orthogonality),
        _run("transpose", _suite_transpose, rng),
        _run("bijection", _suite_bijection),
        _run("closed-form", _suite_closed_form, rng, ledger),
        _run("q-vector", _suite_qvector, rng),
        _run("closed-classes", _suite_closed_classes, rng),
    )
    return VerificationReport(seed=seed, suites=suites,
                              closed_forms=ledger[0] if ledger else None)
