"""Run one workload's passes in this process and write the results as JSON.

Usage (from a run directory that holds the generated ``inputs/``):

    python3 perfbench/worker.py --workload NAME --src SRC --result FILE
        [--seconds S] [--spans FILE]

One warm-up pass runs first; then passes run back to back until
``--seconds`` have gone by (``--seconds 0``: exactly one measured pass).
Only the operations run here.  After each pass its payloads are moved to
``passes/<k>/`` (``k = 0`` is the warm-up), where the oracles check them
in another process, so no oracle state counts toward this process's peak
memory.  With ``--spans`` the carleman layers are traced and the spans of
the measured passes are written to that file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

import workloads
from tracer import ROOT, Tracer, summarize


def _attempt(run):
    """Run one operation; None on success, else why it failed."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = run()
    except SystemExit as e:
        rc = e.code
    except Exception as e:      # an escaped exception is a failed operation
        return f"{type(e).__name__}: {e}"
    if rc != 0:
        tail = buf.getvalue().strip().splitlines()[-1:]
        return f"exit {rc}: {' '.join(tail)}"
    return None


def run_pass(ops, tracer) -> tuple:
    """(seconds, seconds per operation, why each operation failed or None)
    for one pass."""
    span = tracer.span if tracer else (lambda *a: contextlib.nullcontext())
    errors = {}
    op_s = {}
    t0 = time.perf_counter()
    with span(ROOT):
        for name, run in ops:
            t = time.perf_counter()
            with span(f"bench.op.{name}"):
                errors[name] = _attempt(run)
            op_s[name] = time.perf_counter() - t
    return time.perf_counter() - t0, op_s, errors


def _keep_payloads(k: int) -> None:
    """Move this pass's payloads to ``passes/<k>``."""
    os.makedirs(workloads.PASSES, exist_ok=True)
    os.rename(workloads.OUT, os.path.join(workloads.PASSES, str(k)))


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--src", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--spans")
    args = p.parse_args(argv)

    from carleman import cli
    here = os.path.realpath(cli.__file__)
    if not here.startswith(os.path.realpath(args.src) + os.sep):
        print(f"error: carleman loaded from {here}, not {args.src}",
              file=sys.stderr)
        return 1
    ops = workloads.build_ops(workloads.WORKLOADS[args.workload])
    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install()

    warm_s, _, warm_errors = run_pass(ops, tracer)
    _keep_payloads(0)
    if tracer:
        tracer.reset()
    times = []
    errors = [warm_errors]
    op_times = {name: [] for name, _ in ops}
    start = time.perf_counter()
    while not times or time.perf_counter() - start < args.seconds:
        seconds, op_s, errs = run_pass(ops, tracer)
        _keep_payloads(len(errors))
        times.append(seconds)
        errors.append(errs)
        for name, s in op_s.items():
            op_times[name].append(s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "workload": args.workload,
        "warmup_s": warm_s,
        "pass_s": times,
        "op_s": op_times,
        "errors": errors,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        result["layers"] = summarize(tracer.spans, tracer.counts, len(times))
        tracer.dump(args.spans)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
