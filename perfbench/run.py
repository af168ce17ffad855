"""Benchmark entry point: one seeded run of one workload.

    python3 perfbench/run.py --workload {wavefront,extension,jets}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/`` as the tier-1 tests do, never from an installed copy.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics (``setup_s``, ``pass_s``, ``peak_rss_mb``); ``--trace 1``
reports the per-layer metrics from a traced worker, plus the tracing
overhead against an untraced worker given the same time.  The line before
it holds the run's metadata and pass statistics.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = ".perfbench-out"
SETUP_SPAWNS = 15
CHILD_GRACE_S = 120      # a worker's limit beyond its measuring time
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def _child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    threads = str(len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        env[var] = threads
    return env


def setup_seconds(modules, env: dict, src: str) -> float:
    """Seconds from spawning a fresh interpreter until ``modules`` are
    loaded, read from the child's monotonic clock."""
    code = ("import time\nimport " + ", ".join(modules) + "\n"
            "import carleman\n"
            "print(time.monotonic_ns(), carleman.__file__)")
    t0 = time.monotonic_ns()
    done = subprocess.run([sys.executable, "-c", code], env=env, text=True,
                          capture_output=True, timeout=20)
    if done.returncode != 0:
        raise RuntimeError(f"setup child failed: {done.stderr.strip()}")
    stamp, path = done.stdout.split()
    if not os.path.realpath(path).startswith(src + os.sep):
        raise RuntimeError(f"carleman loaded from {path}, not {src}")
    return (int(stamp) - t0) / 1e9


def run_worker(workload, rundir: str, env: dict, src: str,
               seconds: float, spans: str | None = None) -> dict:
    """Run one worker, then check its payloads here, outside the process
    whose memory is measured, and remove them.  Adds ``failures`` and
    ``payload_bytes`` (the command payloads of the last pass) to its
    result."""
    result = os.path.join(rundir, "traced.json" if spans else "plain.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload.name, "--src", src, "--result", result,
           "--seconds", str(seconds)]
    if spans:
        cmd += ["--spans", spans]
    done = subprocess.run(cmd, cwd=rundir, env=env, text=True,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=seconds + CHILD_GRACE_S)
    if done.returncode != 0:
        raise RuntimeError(f"worker failed: {done.stderr.strip()}")
    with open(result) as fh:
        res = json.load(fh)
    res["failures"] = workloads.verify(workload, rundir, res["errors"])
    res["payload_bytes"] = workloads.payload_bytes(
        workload, rundir, len(res["errors"]) - 1)
    shutil.rmtree(os.path.join(rundir, workloads.PASSES))
    return res


def pass_stats(times) -> dict:
    """Count, median, quartiles, and the highest percentile with at least
    ten passes beyond it (None below eleven passes)."""
    ts = sorted(times)
    n = len(ts)
    q = statistics.quantiles(ts, n=4) if n > 1 else [ts[0]] * 3
    high = None
    if n > 10:
        high = {"percentile": 100.0 * (n - 10) / n, "s": ts[n - 11]}
    return {"passes": n, "median_s": statistics.median(ts), "q1_s": q[0],
            "q3_s": q[2], "high": high}


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, rundir, env, src, seconds) -> tuple:
    # start-up noise only ever adds time, so a low order statistic is the
    # steadiest estimate of the set-up cost; the second fastest spawn
    # rather than the fastest, which now and then reads low on its own
    setup = sorted(setup_seconds(workload.imports, env, src)
                   for _ in range(SETUP_SPAWNS))
    res = run_worker(workload, rundir, env, src, seconds)
    metrics = {"setup_s": _metric(setup[1], "s"),
               "pass_s": _metric(statistics.median(res["pass_s"]), "s"),
               "peak_rss_mb": _metric(res["peak_rss_mb"], "MB")}
    meta = {"setup_s": setup, "warmup_s": res["warmup_s"],
            "passes": pass_stats(res["pass_s"]),
            "op_median_s": {k: statistics.median(v)
                            for k, v in res["op_s"].items()}}
    return metrics, [res], meta


def per_layer(workload, rundir, env, src, seconds, spans) -> tuple:
    """Untraced and traced workers share the run's time; the traced one
    gives the layers, the difference of their medians the overhead."""
    plain = run_worker(workload, rundir, env, src, seconds / 2)
    traced = run_worker(workload, rundir, env, src, seconds / 2, spans)
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer"]
    layers = dict(traced["layers"])
    layers["cli.payload_bytes"] = traced["payload_bytes"]
    untraced_s = statistics.median(plain["pass_s"])
    layers["trace.pass_s"] = statistics.median(traced["pass_s"])
    layers["trace.overhead_s"] = layers["trace.pass_s"] - untraced_s
    metrics = {m["name"]: _metric(layers.get(m["name"], 0), m["unit"])
               for m in declared}
    meta = {"untraced": pass_stats(plain["pass_s"]),
            "traced": pass_stats(traced["pass_s"]), "spans": spans,
            "layers": layers}
    return metrics, [plain, traced], meta


def run_meta(env: dict) -> dict:
    """Interpreter, library versions, BLAS and its thread cap, nproc."""
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": importlib.metadata.version("scipy"),
            "blas": {"name": blas.get("name"), "version": blas.get("version"),
                     "threads_cap": {v: env[v] for v in BLAS_THREAD_VARS}},
            "nproc": len(os.sched_getaffinity(0))}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    root = os.getcwd()
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.isfile(os.path.join(src, "carleman", "cli.py")):
        print(f"error: no carleman sources under {src}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    rundir = os.path.join(root, OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(rundir)
    try:
        workloads.generate_inputs(workload, args.seed,
                                  os.path.join(rundir, workloads.INPUTS))
        env = _child_env(src)
        if args.trace:
            spans = os.path.join(root, OUT, f"spans-{args.workload}.json")
            metrics, results, meta = per_layer(workload, rundir, env, src,
                                               args.seconds, spans)
        else:
            metrics, results, meta = end_to_end(workload, rundir, env, src,
                                                args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    attempted = sum(len(r["errors"]) * len(workload.ops) for r in results)
    failures = [f for r in results for f in r["failures"]]
    failed = len(failures)
    meta.update({"workload": args.workload, "seed": args.seed,
                 "seconds": args.seconds, "trace": args.trace,
                 "failures": failures[:20],
                 **run_meta(env)})
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
