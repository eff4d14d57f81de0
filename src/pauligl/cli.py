"""Command-line front end.

Subcommands operate on the text formats of ``fileio`` and print results to
stdout.  Exit codes: 0 success, 1 usage error, 2 domain/dimension/parse
error, 3 verification mismatch.  The environment variable PAULIGL_TOL (a
decimal literal) overrides the default prune tolerance for all commands.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import fileio
from .composition import compose, compose_antisym_gl4, compose_gl4
from .decomposition import DEFAULT_PRUNE_TOL, decompose, reconstruct
from .errors import DimensionError, DomainError, FileFormatError
from .indexing import lex_global_from_local, lex_local_from_global
from .symmetry import (SymmetryKind, antisymmetric_mask, coeffs_to_qvector,
                       project, qvector_to_coeffs, transpose_coeffs)
from .verify import run_verification

__all__ = ["dispatch", "main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _real_flag(text: str) -> float:
    try:
        return fileio.parse_real_literal(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _ascii_int(text: str) -> int:
    """An integer argument, read by the file formats' rule: ASCII digits only."""
    try:
        return fileio._parse_int(text, None, "argument")
    except FileFormatError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}") from None


def _shape_flag(text: str) -> tuple:
    try:
        return tuple(_ascii_int(t) for t in text.split(","))
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"shape must be comma-separated integers, got {text!r}") from None


def _seed_flag(text: str) -> int:
    try:
        seed = _ascii_int(text)
        if seed >= 0:
            return seed
    except argparse.ArgumentTypeError:
        pass
    raise argparse.ArgumentTypeError(
        f"seed must be a non-negative integer, got {text!r}")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        return fh.read()


def _emit(text: str) -> int:
    sys.stdout.write(text)
    return 0


def _cmd_decompose(args, tol: float) -> int:
    matrix = fileio.parse_matrix(_read(args.matrixfile))
    effective = args.tol if args.tol is not None else tol
    return _emit(fileio.format_coefficients(decompose(matrix, effective)))


def _cmd_reconstruct(args, tol: float) -> int:
    c = fileio.parse_coefficients(_read(args.coeffile))
    return _emit(fileio.format_matrix(reconstruct(c)))


_COMPOSE_METHODS = {
    "general": compose,
    "gl4": compose_gl4,
    "antisym-gl4": compose_antisym_gl4,
}


def _cmd_compose(args, tol: float) -> int:
    a = fileio.parse_coefficients(_read(args.coef_a))
    b = fileio.parse_coefficients(_read(args.coef_b))
    product = _COMPOSE_METHODS[args.method](a, b, tol=tol)
    return _emit(fileio.format_coefficients(product))


def _cmd_transpose(args, tol: float) -> int:
    c = fileio.parse_coefficients(_read(args.coeffile))
    return _emit(fileio.format_coefficients(transpose_coeffs(c)))


def _cmd_classify(args, tol: float) -> int:
    c = fileio.parse_coefficients(_read(args.coeffile))
    odd = antisymmetric_mask(c).tolist()
    kinds = (SymmetryKind.SYMMETRIC.value, SymmetryKind.ANTISYMMETRIC.value)
    digits = fileio._digit_strings(c.codes, c.m)
    lines = [f"{d} {kinds[o]}" for d, o in zip(digits, odd)]
    if odd and all(odd):
        verdict = "antisymmetric"
    elif not any(odd):
        verdict = "symmetric"
    else:
        verdict = "mixed"
    lines.append(verdict)
    return _emit("\n".join(lines) + "\n")


def _cmd_project(args, tol: float) -> int:
    c = fileio.parse_coefficients(_read(args.coeffile))
    kind = SymmetryKind.SYMMETRIC if args.symmetric else SymmetryKind.ANTISYMMETRIC
    return _emit(fileio.format_coefficients(project(c, kind)))


def _cmd_qvec_to_coef(args, tol: float) -> int:
    q = fileio.parse_qvector(_read(args.qvecfile))
    return _emit(fileio.format_coefficients(qvector_to_coeffs(q, tol=tol)))


def _cmd_qvec_from_coef(args, tol: float) -> int:
    c = fileio.parse_coefficients(_read(args.coeffile))
    return _emit(fileio.format_qvector(coeffs_to_qvector(c)))


def _cmd_index_to_global(args, tol: float) -> int:
    value = lex_global_from_local(tuple(args.indices), args.shape)
    return _emit(f"{value}\n")


def _cmd_index_to_local(args, tol: float) -> int:
    locals_ = lex_local_from_global(args.index, args.shape)
    return _emit(" ".join(str(v) for v in locals_) + "\n")


def _cmd_verify(args, tol: float) -> int:
    report = run_verification(args.seed)
    print(report.render())
    return 0 if report.ok else 3


@functools.cache  # parsing leaves a parser unchanged, so one serves every dispatch
def _build_parser() -> _Parser:
    parser = _Parser(prog="pauligl",
                     description="Coefficient-space calculator over the "
                                 "tensor-product generator basis.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="matrix file -> coefficient file")
    p.add_argument("matrixfile")
    p.add_argument("--tol", type=_real_flag, default=None,
                   help="prune tolerance (default 1e-12 or PAULIGL_TOL)")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("reconstruct", help="coefficient file -> matrix file")
    p.add_argument("coeffile")
    p.set_defaults(handler=_cmd_reconstruct)

    p = sub.add_parser("compose", help="product of two coefficient files")
    p.add_argument("coef_a")
    p.add_argument("coef_b")
    p.add_argument("--method", choices=sorted(_COMPOSE_METHODS),
                   default="general")
    p.set_defaults(handler=_cmd_compose)

    p = sub.add_parser("transpose", help="coefficients of the transpose")
    p.add_argument("coeffile")
    p.set_defaults(handler=_cmd_transpose)

    p = sub.add_parser("classify",
                       help="per-index symmetry and overall verdict")
    p.add_argument("coeffile")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("project", help="keep one symmetry class")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--symmetric", action="store_true")
    group.add_argument("--antisymmetric", action="store_true")
    p.add_argument("coeffile")
    p.set_defaults(handler=_cmd_project)

    p = sub.add_parser("qvec", help="vector-pair conversions")
    qsub = p.add_subparsers(dest="direction", required=True)
    q = qsub.add_parser("to-coef", help="vector-pair file -> coefficient file")
    q.add_argument("qvecfile")
    q.set_defaults(handler=_cmd_qvec_to_coef)
    q = qsub.add_parser("from-coef", help="coefficient file -> vector-pair file")
    q.add_argument("coeffile")
    q.set_defaults(handler=_cmd_qvec_from_coef)

    p = sub.add_parser("index", help="mixed-radix index maps")
    isub = p.add_subparsers(dest="direction", required=True)
    i = isub.add_parser("to-global", help="per-factor indices -> flat index")
    i.add_argument("--shape", type=_shape_flag, required=True,
                   help="factor sizes, e.g. 2,2,3")
    i.add_argument("indices", nargs="+", type=_ascii_int)
    i.set_defaults(handler=_cmd_index_to_global)
    i = isub.add_parser("to-local", help="flat index -> per-factor indices")
    i.add_argument("--shape", type=_shape_flag, required=True)
    i.add_argument("index", type=_ascii_int)
    i.set_defaults(handler=_cmd_index_to_local)

    p = sub.add_parser("verify", help="run the self-verification suites")
    p.add_argument("--seed", type=_seed_flag, default=0)
    p.set_defaults(handler=_cmd_verify)

    return parser


def _effective_tol() -> float:
    raw = os.environ.get("PAULIGL_TOL")
    if raw is None:
        return DEFAULT_PRUNE_TOL
    try:
        return fileio.parse_real_literal(raw.strip())
    except ValueError as exc:
        raise _UsageError(f"PAULIGL_TOL: {exc}") from None


def dispatch(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        tol = _effective_tol()
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        # argparse --help exits 0 through here
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args, tol)
    except (FileFormatError, DimensionError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch())
