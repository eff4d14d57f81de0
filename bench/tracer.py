"""Per-layer spans recorded from outside the package.

``Tracer.install`` replaces each traced function in every ``pauligl`` module
namespace (and module-level dict) that refers to it, so callers that look the
name up at call time reach a wrapper; ``uninstall`` puts the originals back.
No file of the package changes.  A span's self time is its duration minus the
durations of the spans it encloses, counted in integer nanoseconds, so within
one op the self times of all spans, the op's own root span included, add up
to the op's wall time exactly.
"""

from __future__ import annotations

import collections
import contextlib
import importlib
import sys
from time import perf_counter_ns


def _length(name, pick):
    def count(counters, args, kwargs, result):
        counters[name] += len(pick(args, kwargs, result))
    return count


def _newlines(name, pick):
    def count(counters, args, kwargs, result):
        counters[name] += pick(args, kwargs, result).count("\n")
    return count


def _transform_ops(counters, args, kwargs, result):
    # one 4-term mix per output coefficient and tensor factor
    m = result.ndim
    counters["decomposition.coefficient_array.ops_computed"] += m * 4 ** m * 4


def _tensor_entries(counters, args, kwargs, result):
    coeffs = args[2] if len(args) > 2 else kwargs.get("coeffs")
    counters["decomposition.CoefficientTensor.entries_in"] += (
        len(coeffs) if hasattr(coeffs, "__len__") else 0)
    counters["decomposition.CoefficientTensor.entries_kept"] += len(args[0].coeffs)


def _compose_pairs(counters, args, kwargs, result):
    counters["composition.compose.term_pairs"] += len(args[0]) * len(args[1])
    counters["composition.compose.nnz_out"] += len(result)


def _verify_checks(counters, args, kwargs, result):
    counters["verify.checks_total"] += sum(s.total for s in result.suites)
    counters["verify.checks_passed"] += sum(s.passed for s in result.suites)


def _first_arg(args, kwargs, result):
    return args[0]


def _returned(args, kwargs, result):
    return result


#: (module, attribute, span name, counter).  An attribute "Class.method"
#: wraps the method on the class; several functions may share one span name.
SITES = (
    ("pauligl.cli", "dispatch", "cli.dispatch", None),
    ("pauligl.fileio", "parse_matrix", "fileio.parse_matrix",
     _length("fileio.parse_matrix.bytes", _first_arg)),
    ("pauligl.fileio", "format_matrix", "fileio.format_matrix",
     _length("fileio.format_matrix.bytes", _returned)),
    ("pauligl.fileio", "parse_coefficients", "fileio.parse_coefficients",
     _newlines("fileio.parse_coefficients.lines", _first_arg)),
    ("pauligl.fileio", "format_coefficients", "fileio.format_coefficients",
     _newlines("fileio.format_coefficients.lines", _returned)),
    ("pauligl.decomposition", "coefficient_array",
     "decomposition.coefficient_array", _transform_ops),
    ("pauligl.decomposition", "decompose", "decomposition.decompose",
     _length("decomposition.decompose.nnz_out", _returned)),
    ("pauligl.decomposition", "reconstruct", "decomposition.reconstruct", None),
    ("pauligl.decomposition", "CoefficientTensor.__init__",
     "decomposition.CoefficientTensor", _tensor_entries),
    ("pauligl.composition", "compose", "composition.compose", _compose_pairs),
    ("pauligl.composition", "compose_gl4", "composition.compose_gl4", None),
    ("pauligl.composition", "compose_antisym_gl4",
     "composition.compose_antisym_gl4", None),
    ("pauligl.composition", "verify_closed_forms",
     "composition.verify_closed_forms", None),
    ("pauligl.algebra", "multi_product", "algebra.multi_product", None),
    ("pauligl.algebra", "basis_element", "algebra.basis_element", None),
    ("pauligl.symmetry", "transpose_coeffs", "symmetry.transpose_coeffs", None),
    ("pauligl.symmetry", "qvector_to_coeffs", "symmetry.qvector_to_coeffs", None),
    ("pauligl.symmetry", "coeffs_to_qvector", "symmetry.coeffs_to_qvector", None),
    ("pauligl.indexing", "lex_global_from_local", "indexing", None),
    ("pauligl.indexing", "lex_local_from_global", "indexing", None),
    ("pauligl.indexing", "block_local_from_global", "indexing", None),
    ("pauligl.indexing", "block_global_from_local", "indexing", None),
    ("pauligl.verify", "run_verification", "verify.run_verification",
     _verify_checks),
)

#: Span name of the harness's own part of an op (output file open/close).
OP_SPAN = "bench.op"


class Tracer:
    """Span self times and counters, summed per name over the traced ops."""

    def __init__(self):
        self.calls = {}      # span name -> calls
        self.self_ns = {}    # span name -> summed self time
        self.counters = collections.defaultdict(int)
        self.ops = 0
        self.op_wall_ns = 0
        self.violations = 0  # ops whose self times were negative or did not add up
        self._stack = []     # per open span: summed durations of its children
        self._op = None      # span name -> self time within the open op
        self._patches = []

    def _close_span(self, name, start):
        duration = perf_counter_ns() - start
        own = duration - self._stack.pop()
        if self._stack:
            self._stack[-1] += duration
        if own < 0:
            self.violations += 1
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._op is not None:
            self._op[name] = self._op.get(name, 0) + own
        return duration

    def wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            self._stack.append(0)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close_span(name, start)
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result
        return traced

    @contextlib.contextmanager
    def op(self):
        """Root span of one CLI op; checks that its self times add up."""
        self._op = {}
        self._stack.append(0)
        start = perf_counter_ns()
        try:
            yield
        finally:
            duration = self._close_span(OP_SPAN, start)
            spans, self._op = self._op, None
            if sum(spans.values()) != duration or min(spans.values()) < 0:
                self.violations += 1
            for name, own in spans.items():
                self.self_ns[name] = self.self_ns.get(name, 0) + own
            self.ops += 1
            self.op_wall_ns += duration

    def install(self):
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == "pauligl" or name.startswith("pauligl.")]
        for module_name, attr, span, count in SITES:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[method]
                self._patch(cls, method, orig, self.wrap(span, orig, count), setattr)
                continue
            orig = getattr(owner, attr)
            wrapper = self.wrap(span, orig, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if key.startswith("__"):
                        continue
                    if value is orig:
                        self._patch(mod, key, orig, wrapper, setattr)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is orig:
                                self._patch(value, k, orig, wrapper, dict.__setitem__)

    def _patch(self, container, key, orig, wrapper, setter):
        setter(container, key, wrapper)
        self._patches.append((container, key, orig, setter))

    def uninstall(self):
        while self._patches:
            container, key, orig, setter = self._patches.pop()
            setter(container, key, orig)
