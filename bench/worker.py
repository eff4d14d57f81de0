"""Closed-loop client: one process runs a workload's CLI commands in-process.

Usage: python3 worker.py PLAN.json RESULT.json

The plan names the commands of one op, how long to measure and whether to
trace.  Each op's commands go through ``pauligl.cli.dispatch`` one after the
other, with stdout written to the command's output file; the next op starts
only when the previous one has finished.  The first op is a warm-up whose
outputs are kept for the correctness checks; every later output must match
it byte for byte.  In a traced run, traced and untraced ops alternate so the
tracing overhead is measured on the same process.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import time


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    from pauligl import cli

    if not cli.__file__.startswith(plan["src"]):
        print(f"error: pauligl imported from {cli.__file__}, not {plan['src']}",
              file=sys.stderr)
        return 2
    commands = plan["commands"]
    tracer = None
    if plan["trace"]:
        from tracer import Tracer
        tracer = Tracer()

    def run_op(traced: bool) -> dict:
        rcs, errors = [], []
        start = time.perf_counter()
        for cmd in commands:
            err = io.StringIO()
            with tracer.op() if traced else contextlib.nullcontext():
                with open(cmd["out"], "w", encoding="utf-8") as fh, \
                        contextlib.redirect_stdout(fh), contextlib.redirect_stderr(err):
                    try:
                        rc = cli.dispatch(cmd["argv"])
                    except Exception as exc:  # a traceback is a failed op, not a crash
                        rc, err = -1, io.StringIO(f"{type(exc).__name__}: {exc}")
            rcs.append(rc)
            errors.append(err.getvalue()[:200])
        seconds = time.perf_counter() - start
        return {"seconds": seconds, "traced": traced, "rcs": rcs, "errors": errors,
                "digests": [_digest(cmd["out"]) for cmd in commands]}

    ops = [run_op(False)]
    for cmd in commands:
        shutil.copyfile(cmd["out"], cmd["first"])

    deadline = time.perf_counter() + plan["seconds"]
    while True:
        if tracer is None:
            ops.append(run_op(False))
        else:
            tracer.install()
            try:
                ops.append(run_op(True))
            finally:
                tracer.uninstall()
            ops.append(run_op(False))
        if time.perf_counter() >= deadline:
            break

    result = {"ops": ops,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        result["trace"] = {"calls": tracer.calls, "self_ns": tracer.self_ns,
                           "counters": dict(tracer.counters), "ops": tracer.ops,
                           "op_wall_ns": tracer.op_wall_ns,
                           "violations": tracer.violations}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
