"""Self-verification: the library's invariants re-checked at runtime.

``run_verification`` executes every module's property suite against brute
force oracles (dense matrix algebra, exhaustive enumeration) with one seeded
generator threaded through in a fixed order, so reports for a given seed are
byte-identical across runs on one BLAS kernel and SIMD target; the printed
errors may change with either.  A suite that raises is reported as failed, with
what it raised, and the later suites still run.  Closed-form
CONFIRMED/MISMATCH entries describe the tabulated formulas being validated,
not this implementation, and do not affect the pass verdict.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import basis_element, pauli_matrix, single_product
from .composition import (ClosedFormReport, _compose, _compose_antisym, compose,
                          verify_closed_forms)
from .decomposition import (CoefficientTensor, _coeff_distances, _decompose_stack,
                            _from_dense, _matrix_stacks, _reconstruct_stack, _stack)
from .indexing import (BlockCuts, block_global_from_local, block_local_from_global,
                       lex_global_from_local, lex_local_from_global)
from .symmetry import (_ANTISYM_GL4_CODES, ANTISYMMETRIC_GL4_SUPPORT, QVector, _codes,
                       _transposed, antisymmetric_mask, coeffs_to_qvector,
                       qvector_to_coeffs, qvector_to_dense)

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


class _Tally:
    """One suite's checks: how many passed and how many ran in each named
    part, in the order each part is first checked, and the worst error."""

    def __init__(self):
        self.parts = {}
        self.worst = 0.0

    def check(self, ok, error=None, count=1, part=None) -> None:
        """Record one check, or ``count`` checks of which ``ok`` passed, in ``part``."""
        counts = self.parts.setdefault(part, [0, 0])
        counts[0] += int(ok)
        counts[1] += count
        if error is not None:
            self.worst = max(self.worst, error)

    def part_counts(self) -> str:
        """Each part's name and passed count, comma-separated."""
        return ", ".join(f"{part} {passed}" for part, (passed, _) in self.parts.items())


def _suite_round_trip(tally, rng) -> str:
    for m in range(1, 6):
        n = 2 ** m
        for a in _matrix_stacks(rng, n, 100):
            back = _reconstruct_stack(_decompose_stack(a))
            err = np.abs(back - a).max(axis=(1, 2))
            tally.check(np.count_nonzero(err < 1e-12 * n), float(err.max()), len(a))
    return f"worst error {tally.worst:.3e}, bound 1e-12*side"


def _suite_homomorphism(tally, rng) -> str:
    for m in range(1, 4):
        n = 2 ** m
        # each pair is drawn a then b
        for dense in _matrix_stacks(rng, n, 50, per=2):
            left, right = _decompose_stack(dense).pairs()
            products = _decompose_stack(dense[0::2] @ dense[1::2])
            errors = _coeff_distances(_compose(left, right, 0.0), products)
            tally.check(np.count_nonzero(errors < 1e-10), errors.max(), len(errors))
    return f"worst error {tally.worst:.3e}, bound 1e-10"


def _suite_orthogonality(tally) -> str:
    for mu in range(4):
        for nu in range(4):
            phase, lam = single_product(mu, nu)
            expected = phase.to_complex() * pauli_matrix(lam[0])
            tally.check(np.array_equal(pauli_matrix(mu) @ pauli_matrix(nu), expected),
                        part="products")
    for m in range(1, 4):
        dense = np.array([basis_element(idx)
                          for idx in itertools.product(range(4), repeat=m)])
        # every Tr(a @ b) at once; entries are 0, +-1, +-i, so sums are exact
        traces = np.einsum("aij,bji->ab", dense, dense)
        tally.check(np.count_nonzero(traces == 2 ** m * np.eye(len(dense))),
                    count=traces.size, part=f"m={m}")
    products, *traces = (f"{part} {passed}/{total}"
                         for part, (passed, total) in tally.parts.items())
    return f"exact; {products}, traces " + ", ".join(traces)


def _suite_transpose(tally, rng) -> str:
    for m in range(1, 5):
        n = 2 ** m
        for a in _matrix_stacks(rng, n, 25):
            cs = _decompose_stack(a)
            ts = _transposed(cs)
            errors = _coeff_distances(ts, _decompose_stack(a.transpose(0, 2, 1)))
            tally.check(np.count_nonzero(errors < 1e-12), errors.max(), len(errors))
            # distance 0 is == for pruned tensors: finite x - y is 0 iff x == y
            same = _coeff_distances(_transposed(ts), cs) == 0
            tally.check(np.count_nonzero(same), count=len(same))
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
    g = [(np.arange(math.prod(shape)), shape) for shape in _factor_shapes(64)]
    same = (np.concatenate([lex_global_from_local(lex_local_from_global(x, s), s)
                            for x, s in g]) == np.concatenate([x for x, _ in g]))
    tally.check(np.count_nonzero(same), count=len(same), part="lex")
    want, got = [], []
    for n in range(2, 9):
        ij = np.divmod(np.arange(n * n), n)
        for rc, cc in itertools.product(range(1, n), repeat=2):
            cuts = BlockCuts(n, rc, cc)
            want.append(ij)
            got.append(block_global_from_local(block_local_from_global(*ij, cuts), cuts))
    # an entry passes when both its row and its column come back
    same = (np.concatenate(got, axis=1) == np.concatenate(want, axis=1)).all(axis=0)
    tally.check(np.count_nonzero(same), count=len(same), part="block")
    paulis = np.array([pauli_matrix(mu) for mu in range(4)])
    for m in range(1, 4):
        # entry (i, j) is the product over k of factor k's entry at the
        # k-th digits of i and j
        digits = lex_local_from_global(np.arange(2 ** m), (2,) * m)
        rows, cols = digits[:, :, None], digits[:, None, :]
        indices = list(itertools.product(range(4), repeat=m))
        prod = np.ones((len(indices), 2 ** m, 2 ** m), dtype=complex)
        for k, mu in enumerate(np.array(indices).T):
            prod *= paulis[mu][:, rows[k], cols[k]]
        same = (np.array([basis_element(idx) for idx in indices]) == prod).all(axis=(1, 2))
        tally.check(np.count_nonzero(same), count=len(same), part="kron factorization")
    return f"{tally.part_counts()}; all exact"


def _random_pairs(rng, codes: np.ndarray, count: int) -> tuple:
    """Left and right stacks of count order-2 tensors on the given codes from
    one draw: per pair, left then right, a normal real and imaginary part per code."""
    values = rng.standard_normal((2 * count, 2 * len(codes))).view(complex)
    flat = np.zeros((2 * count, 16), dtype=complex)
    flat[:, codes.astype(np.intp)] = values
    return _from_dense(2, flat, 0.0).pairs()


def _dense_products(left, right):
    """The stack of decompose(reconstruct(a) @ reconstruct(b), 0.0) of each
    pair of members, with one stacked transform each way."""
    return _decompose_stack(_reconstruct_stack(left) @ _reconstruct_stack(right))


def _suite_closed_form(tally, rng, ledger: list) -> str:
    report = verify_closed_forms(rng, pairs=100)
    ledger.append(report)
    for fam in report.families:
        tally.check(fam.confirmed, part="families")
    # against the dense route, which shares no code with the compose kernel
    basis = [CoefficientTensor(2, {s: 1}) for s in sorted(ANTISYMMETRIC_GL4_SUPPORT)]
    left, right = _stack([a for a in basis for _ in basis]), _stack(basis * len(basis))
    same = _coeff_distances(_compose_antisym(left, right, 0.0),
                            _dense_products(left, right)) == 0
    tally.check(np.count_nonzero(same), count=len(same), part="exhaustive antisym pairs")
    left, right = _random_pairs(rng, _ANTISYM_GL4_CODES, 50)
    errors = _coeff_distances(_compose_antisym(left, right, 0.0),
                              _dense_products(left, right))
    tally.check(np.count_nonzero(errors <= 1e-12), errors.max(), len(errors),
                part="random antisym pairs")
    return f"{tally.part_counts()} (worst error {tally.worst:.3e})"


def _suite_qvector(tally, rng) -> str:
    qs = [QVector(tuple(a), tuple(b)) for a, b in rng.standard_normal((100, 2, 3))]
    dense = [qvector_to_dense(q) for q in qs]
    cs = [qvector_to_coeffs(q, tol=0.0) for q in qs]
    for q, d, c in zip(qs, dense, cs):
        back = coeffs_to_qvector(c)
        err = max(abs(x - y) for x, y in zip((*back.a, *back.b), (*q.a, *q.b)))
        tally.check(err < 1e-12, err)

        tally.check(np.all(d + d.T == 0))

    cross = _coeff_distances(_decompose_stack(np.array(dense)), _stack(cs))
    tally.check(np.count_nonzero(cross < 1e-12), cross.max(), len(cross))
    return f"round trip, exact antisymmetry, cross-path; worst error {tally.worst:.3e}"


def _suite_closed_classes(tally, rng) -> str:
    first_slot = {(0, 0), (1, 0), (2, 0), (3, 0)}
    second_slot = {(0, 0), (0, 1), (0, 2), (0, 3)}
    for support in (first_slot, second_slot):
        codes = _codes(support)
        out = _compose(*_random_pairs(rng, codes, 100), 0.0)
        outside = out.member()[~np.isin(out.untagged(), codes)]
        closed = np.bincount(outside, minlength=out.members) == 0
        tally.check(np.count_nonzero(closed), count=len(closed))
    # one antisymmetric-support pair escaping the six proves that class open
    escape = compose(*(CoefficientTensor(2, {i: 1}) for i in [(2, 0), (2, 1)]), tol=0.0)
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
    passed, total = map(sum, zip([0, 0], *tally.parts.values()))
    return SuiteResult(name, passed, total, detail)


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
