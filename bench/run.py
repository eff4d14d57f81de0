"""pauligl benchmark: one workload, end-to-end or per-layer.

Usage, from the repository root:

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Inputs are generated from --seed into .bench_work/ and removed afterwards.
A separate worker process (worker.py) is the single closed-loop client: it
drives ``pauligl.cli.dispatch`` in-process, one op after another, for S
seconds.  One op is one workload command, or for dense-roundtrip-m8 the pair
decompose-then-reconstruct.  The first output of every command is checked
against an oracle (workloads.py), and every later output must be
byte-identical to it; any failure counts in ``failed``.

--trace 0 reports the end-to-end metrics (ops_per_s, peak_rss_mb, setup_s);
--trace 1 reports per-layer self times and counters, per op, from spans
wrapped around the package's functions from outside (tracer.py).  The line
before the last is a JSON record of the machine, the workload's input
properties and the sample counts; the last line is the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

# One BLAS thread (<= nproc) in this process and every process it starts:
# the client is the only load and a shared box is steadier single-threaded.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import workloads  # noqa: E402  (after the BLAS setting, since it imports numpy)
from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPS = 9
WORKER_TIMEOUT_S = 150
P90_MIN_SAMPLES = 100  # at least ten samples beyond the 90th percentile

# per-layer metric -> (unit, kind); kind "self" is a span's self time, "calls"
# its call count, "counter" a tracer counter, each divided by the traced ops.
# Comments name the end-to-end metric each group should move, and where.
PER_LAYER = {
    # ops_per_s on dense-roundtrip-m8 (format_coefficients also compose-*)
    "fileio.parse_matrix.self_s": ("s", "self"),
    "fileio.parse_matrix.bytes": ("B", "counter"),
    "fileio.format_matrix.self_s": ("s", "self"),
    "fileio.format_matrix.bytes": ("B", "counter"),
    "fileio.parse_coefficients.self_s": ("s", "self"),
    "fileio.parse_coefficients.lines": ("count", "counter"),
    "fileio.format_coefficients.self_s": ("s", "self"),
    "fileio.format_coefficients.lines": ("count", "counter"),
    # ops_per_s on dense-roundtrip-m8; reconstruct also on verify-seed0
    "decomposition.coefficient_array.self_s": ("s", "self"),
    "decomposition.coefficient_array.ops_computed": ("count", "counter"),
    "decomposition.decompose.self_s": ("s", "self"),
    "decomposition.decompose.nnz_out": ("count", "counter"),
    "decomposition.reconstruct.calls": ("count", "calls"),
    "decomposition.reconstruct.self_s": ("s", "self"),
    # ops_per_s and peak_rss_mb on all four
    "decomposition.CoefficientTensor.self_s": ("s", "self"),
    "decomposition.CoefficientTensor.entries_in": ("count", "counter"),
    "decomposition.CoefficientTensor.entries_kept": ("count", "counter"),
    # ops_per_s and peak_rss_mb on compose-sparse-m12 and compose-dense-m6
    "composition.compose.calls": ("count", "calls"),
    "composition.compose.self_s": ("s", "self"),
    "composition.compose.term_pairs": ("count", "counter"),
    "composition.compose.nnz_out": ("count", "counter"),
    "algebra.multi_product.calls": ("count", "calls"),
    "algebra.multi_product.self_s": ("s", "self"),
    # ops_per_s on verify-seed0
    "composition.compose_gl4.self_s": ("s", "self"),
    "composition.compose_antisym_gl4.self_s": ("s", "self"),
    "composition.verify_closed_forms.self_s": ("s", "self"),
    "algebra.basis_element.calls": ("count", "calls"),
    "algebra.basis_element.self_s": ("s", "self"),
    "symmetry.transpose_coeffs.self_s": ("s", "self"),
    "symmetry.qvector_to_coeffs.self_s": ("s", "self"),
    "symmetry.coeffs_to_qvector.self_s": ("s", "self"),
    "indexing.calls": ("count", "calls"),
    "indexing.self_s": ("s", "self"),
    "verify.run_verification.self_s": ("s", "self"),
    "verify.checks_total": ("count", "counter"),
    "verify.checks_passed": ("count", "counter"),
    # setup_s and ops_per_s on all four (argparse, file read, stdout write)
    "cli.dispatch.self_s": ("s", "self"),
    # the harness's own part of an op: opening and closing the output file
    "bench.op.self_s": ("s", "self"),
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _child_env(src: str) -> dict:
    env = dict(os.environ)
    env.pop("PAULIGL_TOL", None)
    env["PYTHONPATH"] = src
    env["PYTHONHASHSEED"] = "0"
    return env


def _getconf(name: str):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True,
                             timeout=10, check=True).stdout.strip()
        return int(out) if out.isdigit() else None
    except (OSError, subprocess.SubprocessError):
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit(root: str):
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _machine(root: str) -> dict:
    import numpy

    l2, l3 = _getconf("LEVEL2_CACHE_SIZE"), _getconf("LEVEL3_CACHE_SIZE")
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "l2_bytes": l2, "l3_bytes": l3,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": int(BLAS_THREADS), "git_commit": _git_commit(root)}


def _measure_setup(root: str, env: dict):
    """Wall time of a fresh `python -m pauligl` call doing trivial work.

    Covers interpreter start, `import pauligl` and building the CLI parser.
    The first call (which may compile bytecode) is not counted.
    """
    cmd = [sys.executable, "-m", "pauligl", "index", "to-global", "--shape", "2,2", "1", "0"]
    samples, failures = [], []
    for rep in range(SETUP_REPS + 1):  # attempted: SETUP_REPS + 1 calls
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, timeout=60)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0 or proc.stdout != b"2\n":
            failures.append(f"setup call exited {proc.returncode}: {proc.stderr[:200]!r}")
        if rep:
            samples.append(elapsed)
    return samples, failures


def _run_worker(prepared, work: str, src: str, env: dict, seconds: float, trace: bool):
    commands = [{"argv": c.argv, "out": c.out, "first": c.out + ".first"}
                for c in prepared.commands]
    plan = os.path.join(work, "plan.json")
    result = os.path.join(work, "result.json")
    with open(plan, "w", encoding="utf-8") as fh:
        json.dump({"src": src, "seconds": seconds, "trace": trace,
                   "commands": commands}, fh)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), plan, result],
                          env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh), {c.kind: c.out + ".first" for c in prepared.commands}


def _count_failures(prepared, ops: list, reasons: dict):
    """Failed commands: non-zero exit, output unlike the first, or first incorrect."""
    kinds = [c.kind for c in prepared.commands]
    first = ops[0]["digests"]
    attempted, failed, notes = 0, 0, []
    for op in ops:
        for i, kind in enumerate(kinds):
            attempted += 1
            why = None
            if op["rcs"][i] != 0:
                why = f"{kind} exited {op['rcs'][i]}: {op['errors'][i]}"
            elif op["digests"][i] != first[i]:
                why = f"{kind} output differs from its first repetition"
            elif reasons.get(kind):
                why = f"{kind}: {reasons[kind]}"
            if why:
                failed += 1
                notes.append(why)
    return attempted, failed, notes


def _quantile_ms(samples, q):
    return 1e3 * statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def _end_to_end(timed: list, peak_rss_kb: int, setup: list) -> dict:
    # Work completed per second is the guide's figure for a tool that does not
    # serve requests, and on a shared host it is also the steadiest: it
    # averages interference over the whole run, where a median or minimum
    # depends on the few ops that met a quiet or busy moment.
    return {
        "ops_per_s": {"value": len(timed) / sum(op["seconds"] for op in timed),
                      "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_kb / 1024, "unit": "MB"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }


def _per_layer(trace: dict, timed: list, dense_route_s) -> dict:
    ops = sum(1 for op in timed if op["traced"])
    metrics = {}
    for name, (unit, kind) in PER_LAYER.items():
        span = name.rsplit(".", 1)[0]
        if kind == "self":
            total = trace["self_ns"].get(span, 0) * 1e-9
        elif kind == "calls":
            total = trace["calls"].get(span, 0)
        else:
            total = trace["counters"].get(name, 0)
        metrics[name] = {"value": total / ops, "unit": unit}
    counters = trace["counters"]
    entries_in = counters.get("decomposition.CoefficientTensor.entries_in", 0)
    pairs = counters.get("composition.compose.term_pairs", 0)
    metrics["decomposition.CoefficientTensor.kept_ratio"] = {
        "value": counters.get("decomposition.CoefficientTensor.entries_kept", 0) / entries_in
        if entries_in else 0.0, "unit": "ratio"}
    metrics["composition.compose.distinct_ratio"] = {
        "value": counters.get("composition.compose.nnz_out", 0) / pairs if pairs else 0.0,
        "unit": "ratio"}
    traced = [op["seconds"] for op in timed if op["traced"]]
    untraced = [op["seconds"] for op in timed if not op["traced"]]
    metrics["trace.op_wall_s"] = {"value": trace["op_wall_ns"] * 1e-9 / ops, "unit": "s"}
    metrics["trace.overhead_ratio"] = {
        "value": statistics.median(traced) / statistics.median(untraced), "unit": "ratio"}
    metrics["oracle.dense_route_s"] = {"value": dense_route_s or 0.0, "unit": "s"}
    return metrics


def run(args, root: str) -> tuple:
    """Measure one workload; returns (record line, result line)."""
    src = os.path.join(root, "src")
    env = _child_env(src)
    work = os.path.join(root, ".bench_work", f"{args.workload}-{os.getpid()}")
    try:
        prepared = workloads.prepare(args.workload, args.seed, work)
        setup, setup_failures = ([], []) if args.trace else _measure_setup(root, env)
        result, firsts = _run_worker(prepared, work, src, env, args.seconds, bool(args.trace))
        workloads.check_action()
        try:
            reasons = prepared.check(firsts)
        except (ValueError, IndexError, OSError) as exc:  # malformed or missing output
            reasons = {c.kind: f"unreadable output: {exc}" for c in prepared.commands}
        dense_route_s = prepared.dense_route() if args.trace and prepared.dense_route else None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with_parent = os.path.dirname(work)
        if os.path.isdir(with_parent) and not os.listdir(with_parent):
            os.rmdir(with_parent)

    ops = result["ops"]
    timed = ops[1:]
    attempted, failed, notes = _count_failures(prepared, ops, reasons)
    attempted += 0 if args.trace else SETUP_REPS + 1
    failed += len(setup_failures)
    notes += setup_failures
    trace = result.get("trace")
    if trace and trace["violations"]:
        notes.append(f"{trace['violations']} traced ops whose self times did not add up")
    correct = failed == 0 and not (trace and trace["violations"])

    if args.trace:
        metrics = _per_layer(trace, timed, dense_route_s)
    else:
        metrics = _end_to_end(timed, result["peak_rss_kb"], setup)
    seconds = [op["seconds"] for op in timed if not op["traced"]]
    record = {
        "workload": args.workload, "why": WORKLOADS[args.workload],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "closed_loop_clients": 1, "commands_per_op": len(prepared.commands),
        "machine": _machine(root), "inputs": prepared.properties,
        "untraced_ops": len(seconds),
        "op_min_ms": 1e3 * min(seconds),
        "op_p50_ms": 1e3 * statistics.median(seconds),
        "op_p90_ms": _quantile_ms(seconds, 90) if len(seconds) >= P90_MIN_SAMPLES else None,
        "op_samples_ms": [1e3 * x for x in seconds],
        "setup_samples_s": setup,
        "failed_ratio": failed / attempted,
        "failures": notes[:10],
    }
    if trace:
        record["traced_commands"] = trace["ops"]
        record["self_time_violations"] = trace["violations"]
    return record, {"correct": correct, "attempted": attempted, "failed": failed,
                    "metrics": metrics}


def main(argv=None) -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pauligl", "cli.py")):
        print("error: src/pauligl/cli.py not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    args = _parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        record, result = run(argparse.Namespace(**{**vars(args), "workload": name}), root)
        print(json.dumps(record))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
