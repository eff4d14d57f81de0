"""Seeded inputs, command lists and output checks for the benchmark workloads.

The program under test only ever sees the files written here.  The checks
use their own file parsers and an independent operator action, so a broken
``fileio`` or ``compose`` cannot vouch for itself.  The one exception is the
dense oracle of compose-dense-m6, ``decompose(reconstruct(a) @ reconstruct(b))``,
which routes through different code (the factorized transform and a matrix
product) than the coefficient-space kernel it checks.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass

import numpy as np

# Why each workload is in the benchmark (also in BENCHMARK.json).
WORKLOADS = {
    "dense-roundtrip-m8":
        "decompose a seeded dense 256x256 matrix file, then reconstruct it: text "
        "parse/format and the sparse-dict build dominate; composition does no "
        "work",
    "compose-sparse-m12":
        "compose two m=12 files of 128 terms, pairs/4^m ~ 0.001: sparse side of "
        "the route crossover, where the compose kernel and multi_product dominate",
    "compose-dense-m6":
        "compose two m=6 files of 256 terms, pairs/4^m = 16: dense side of the "
        "route crossover, with heavy accumulation collisions onto 4096 outputs",
    "verify-seed0":
        "verify --seed 0: thousands of tiny calls at m <= 5 measure per-call "
        "overhead; the only workload reaching symmetry, indexing and the closed "
        "forms",
}


@dataclass
class Command:
    """One CLI invocation: ``argv`` for ``pauligl``, stdout written to ``out``."""
    kind: str
    argv: list
    out: str


@dataclass
class Prepared:
    """A workload's generated inputs and the commands that make up one op."""
    commands: list
    properties: dict
    check: object  # callable(first_outputs: dict kind -> path) -> dict kind -> reason|None
    dense_route: object = None  # callable() -> seconds, or None where it does not fit


# -- text formats, written and read without pauligl --------------------------

def _digits(code: int, m: int) -> str:
    return np.base_repr(code, 4).zfill(m)


def _write_coefficients(path: str, m: int, codes, values) -> None:
    lines = [str(m)]
    for code, v in zip(codes.tolist(), values.tolist()):
        lines.append(f"{_digits(code, m)} {v.real!r} {v.imag!r}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_matrix(path: str, a: np.ndarray) -> None:
    lines = [str(a.shape[0])]
    for row in a.tolist():
        lines.append(" ".join(f"{z.real!r},{z.imag!r}" for z in row))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_coefficients(path: str):
    """(m, base-4 codes in file order, complex values) of a coefficient file."""
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    m = int(lines[0])
    codes = np.empty(len(lines) - 1, dtype=np.int64)
    values = np.empty(len(lines) - 1, dtype=complex)
    for i, line in enumerate(lines[1:]):
        digits, re, im = line.split()
        if len(digits) != m:
            raise ValueError(f"line {i + 2}: index {digits!r} is not {m} digits")
        codes[i] = int(digits, 4)
        values[i] = complex(float(re), float(im))
    return m, codes, values


def read_matrix(path: str) -> np.ndarray:
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    n = int(lines[0])
    out = np.empty((n, n), dtype=complex)
    for i, line in enumerate(lines[1:n + 1]):
        for j, token in enumerate(line.split()):
            re, im = token.split(",")
            out[i, j] = complex(float(re), float(im))
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} rows, found {len(lines) - 1}")
    return out


# -- operator action of a coefficient list, independent of compose -----------

def _masks(codes: np.ndarray, m: int):
    """Bit masks of a Kronecker product of generators, leftmost factor = top bit.

    Factor digit 1 flips the bit (x), 3 signs by it (z), 2 does both with a
    factor -i; so basis_element(d) @ v = (-i)^ny * (-1)^|r & z| * v[r ^ x].
    """
    x = np.zeros(codes.shape, dtype=np.int64)
    z = np.zeros(codes.shape, dtype=np.int64)
    ny = np.zeros(codes.shape, dtype=np.int64)
    for k in range(m):
        d = (codes >> (2 * (m - 1 - k))) & 3
        bit = np.int64(1) << (m - 1 - k)
        x |= np.where((d == 1) | (d == 2), bit, 0)
        z |= np.where((d == 2) | (d == 3), bit, 0)
        ny += d == 2
    return x, z, (-1j) ** ny


def apply_terms(m: int, codes, values, v: np.ndarray, chunk: int = 256) -> np.ndarray:
    """sum_k values[k] * basis_element(codes[k]) @ v, one factor action per term."""
    r = np.arange(2 ** m, dtype=np.int64)
    out = np.zeros(2 ** m, dtype=complex)
    for s in range(0, len(codes), chunk):
        x, z, phase = _masks(codes[s:s + chunk], m)
        sign = 1 - 2 * (np.bitwise_count(r[None, :] & z[:, None]) & 1).astype(np.int64)
        terms = (values[s:s + chunk] * phase)[:, None] * sign * v[r[None, :] ^ x[:, None]]
        out += terms.sum(axis=0)
    return out


_GENERATORS = (np.eye(2), np.array([[0, 1], [1, 0]]),
               np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))


def check_action() -> None:
    """apply_terms against explicit Kronecker products at m=2 (guards the oracle)."""
    eye = np.eye(4, dtype=complex)
    for code in range(16):
        dense = np.kron(_GENERATORS[code >> 2], _GENERATORS[code & 3])
        got = np.stack([apply_terms(2, np.array([code]), np.array([1 + 0j]), eye[:, j])
                        for j in range(4)], axis=1)
        if not np.array_equal(got, dense):
            raise AssertionError(f"operator action disagrees with kron at {code:02d}")


def _random_vector(rng, n: int) -> np.ndarray:
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _canonical(codes: np.ndarray) -> bool:
    return bool(np.all(np.diff(codes) > 0))


def _close(got: np.ndarray, want: np.ndarray) -> bool:
    # random inputs keep |want| well away from 0; rounding stays near 1e-15 of it
    return float(np.max(np.abs(got - want))) <= 1e-9 * float(np.max(np.abs(want)))


# -- workloads ---------------------------------------------------------------

def _random_terms(rng, m: int, n: int):
    codes = np.sort(rng.choice(4 ** m, size=n, replace=False)).astype(np.int64)
    values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return codes, values


def _xz_codes(codes: np.ndarray, m: int) -> np.ndarray:
    """Per-factor (x, z) pairs packed so that a product's index is an xor."""
    out = np.zeros(codes.shape, dtype=np.int64)
    xz = np.array([0, 1, 3, 2], dtype=np.int64)  # digit -> x | z << 1
    for k in range(m):
        shift = 2 * (m - 1 - k)
        out |= xz[(codes >> shift) & 3] << shift
    return out


def _compose_properties(m, ca, cb):
    pairs = len(ca) * len(cb)
    products = np.bitwise_xor.outer(_xz_codes(ca, m), _xz_codes(cb, m))
    return {"m": m, "nnz_a": len(ca), "nnz_b": len(cb), "term_pairs": pairs,
            "pairs_per_4m": pairs / 4 ** m,
            "distinct_products": int(np.unique(products).size)}


def _prepare_dense_roundtrip(seed, work):
    rng = np.random.default_rng(seed)
    m, n = 8, 256
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    mat = os.path.join(work, "a.mat")
    _write_matrix(mat, a)
    coef_out = os.path.join(work, "decompose.out")
    mat_out = os.path.join(work, "reconstruct.out")
    commands = [Command("decompose", ["decompose", mat], coef_out),
                Command("reconstruct", ["reconstruct", coef_out], mat_out)]
    props = {"m": m, "side": n, "matrix_entries": n * n,
             "input_bytes": os.path.getsize(mat)}
    v = _random_vector(rng, n)

    def check(first):
        reasons = {}
        om, codes, values = read_coefficients(first["decompose"])
        props["nnz_out"] = len(codes)
        props["pruned_share"] = 1 - len(codes) / 4 ** m
        ok = (om == m and _canonical(codes)
              and _close(apply_terms(m, codes, values, v), a @ v))
        reasons["decompose"] = None if ok else "coefficients do not act as the matrix"
        back = read_matrix(first["reconstruct"])
        ok = back.shape == a.shape and _close(back, a)
        reasons["reconstruct"] = None if ok else "reconstruct(decompose(A)) != A"
        return reasons

    return Prepared(commands, props, check)


def _prepare_compose(seed, work, m, terms):
    rng = np.random.default_rng(seed)
    ca, va = _random_terms(rng, m, terms)
    cb, vb = _random_terms(rng, m, terms)
    pa, pb = os.path.join(work, "a.coef"), os.path.join(work, "b.coef")
    _write_coefficients(pa, m, ca, va)
    _write_coefficients(pb, m, cb, vb)
    out = os.path.join(work, "compose.out")
    props = _compose_properties(m, ca, cb)
    v = _random_vector(rng, 2 ** m)

    def record(codes):
        props["nnz_out"] = len(codes)
        props["pruned_share"] = 1 - len(codes) / props["distinct_products"]

    def check_by_action(first):
        om, codes, values = read_coefficients(first["compose"])
        record(codes)
        want = apply_terms(m, ca, va, apply_terms(m, cb, vb, v))
        ok = om == m and _canonical(codes) and _close(apply_terms(m, codes, values, v), want)
        return {"compose": None if ok else "product does not act as A(Bv)"}

    def tensors():
        from pauligl import CoefficientTensor
        return (CoefficientTensor(m, {tuple(int(d) for d in _digits(c, m)): val
                                      for c, val in zip(codes.tolist(), vals.tolist())},
                                  tol=0.0)
                for codes, vals in ((ca, va), (cb, vb)))

    def dense_oracle():
        from pauligl import decompose, reconstruct
        a, b = tensors()
        return decompose(reconstruct(a) @ reconstruct(b), 0.0)

    def check_by_dense(first):
        om, codes, values = read_coefficients(first["compose"])
        record(codes)
        want = np.zeros(4 ** m, dtype=complex)
        for idx, val in dense_oracle().coeffs.items():
            want[int("".join(map(str, idx)), 4)] = val
        got = np.zeros(4 ** m, dtype=complex)
        got[codes] = values
        ok = om == m and _canonical(codes) and _close(got, want)
        return {"compose": None if ok else "product differs from the dense route"}

    def dense_route(reps=5):
        samples = []
        for _ in range(reps):
            start = time.perf_counter()
            dense_oracle()
            samples.append(time.perf_counter() - start)
        return statistics.median(samples)

    dense = 4 ** m * 16 <= 2 ** 24  # the (4,)*m complex array stays small
    return Prepared([Command("compose", ["compose", pa, pb], out)], props,
                    check_by_dense if dense else check_by_action,
                    dense_route if dense else None)


def _prepare_verify(seed, work):
    # The verify seed is part of the workload's definition, not of --seed.
    out = os.path.join(work, "verify.out")

    def check(first):
        with open(first["verify"], encoding="ascii") as fh:
            lines = fh.read().splitlines()
        ok = bool(lines) and lines[-1] == "overall: PASS"
        return {"verify": None if ok else "verify did not report overall: PASS"}

    return Prepared([Command("verify", ["verify", "--seed", "0"], out)],
                    {"verify_seed": 0, "m_max": 5}, check)


def prepare(name: str, seed: int, work: str) -> Prepared:
    os.makedirs(work, exist_ok=True)
    if name == "dense-roundtrip-m8":
        return _prepare_dense_roundtrip(seed, work)
    if name == "compose-sparse-m12":
        return _prepare_compose(seed, work, 12, 128)
    if name == "compose-dense-m6":
        return _prepare_compose(seed, work, 6, 256)
    if name == "verify-seed0":
        return _prepare_verify(seed, work)
    raise ValueError(f"unknown workload {name!r}")
