"""Self-checks of the benchmark itself.

    python3 -m pytest -q perfbench/tests

Each workload runs one warm-up and one measured pass untraced and traced
in worker processes (about a minute in all).
"""

from __future__ import annotations

import collections
import filecmp
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(os.path.dirname(BENCH), "src")
sys.path.insert(0, BENCH)

import tracer      # noqa: E402
import workloads   # noqa: E402
from run import _child_env   # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def _tree_equal(a: str, b: str) -> list:
    """Relative paths of files that differ between two directory trees."""
    cmp = filecmp.dircmp(a, b)
    bad = cmp.left_only + cmp.right_only + cmp.funny_files
    bad += [f for f in cmp.common_files
            if not filecmp.cmp(os.path.join(a, f), os.path.join(b, f),
                               shallow=False)]
    for sub in cmp.common_dirs:
        bad += [os.path.join(sub, f)
                for f in _tree_equal(os.path.join(a, sub), os.path.join(b, sub))]
    return bad


def _worker(name: str, rundir: str, spans: str | None = None) -> dict:
    workloads.generate_inputs(workloads.WORKLOADS[name], 5,
                              os.path.join(rundir, workloads.INPUTS))
    result = os.path.join(rundir, "result.json")
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
           "--workload", name, "--src", os.path.realpath(SRC),
           "--result", result, "--seconds", "0"]
    if spans:
        cmd += ["--spans", spans]
    subprocess.run(cmd, cwd=rundir, env=_child_env(os.path.realpath(SRC)),
                   check=True, timeout=600)
    with open(result) as fh:
        return json.load(fh)


@pytest.fixture(scope="module", params=NAMES)
def runs(request, tmp_path_factory):
    """One untraced and one traced worker of a workload, same seed."""
    base = tmp_path_factory.mktemp(request.param)
    plain, traced = str(base / "plain"), str(base / "traced")
    spans = str(base / "spans.json")
    return (request.param, plain, _worker(request.param, plain),
            traced, _worker(request.param, traced, spans), spans)


def test_generator_is_deterministic(tmp_path):
    for name, w in workloads.WORKLOADS.items():
        a, b, c = (str(tmp_path / f"{name}-{k}") for k in "abc")
        workloads.generate_inputs(w, 11, a)
        workloads.generate_inputs(w, 11, b)
        workloads.generate_inputs(w, 12, c)
        assert _tree_equal(a, b) == []
        assert _tree_equal(a, c) != []


def test_every_operation_passes_its_oracle(runs):
    name, plain_dir, plain, traced_dir, traced, _ = runs
    for rundir, res in ((plain_dir, plain), (traced_dir, traced)):
        assert len(res["errors"]) == 2      # warm-up and one measured pass
        assert workloads.verify(workloads.WORKLOADS[name], rundir,
                                res["errors"]) == []


def test_payloads_identical_with_and_without_tracing(runs):
    _, plain_dir, _, traced_dir, _, _ = runs
    assert os.listdir(os.path.join(plain_dir, workloads.PASSES, "1"))
    assert _tree_equal(plain_dir, traced_dir) == ["result.json"]


def test_layers_account_for_the_traced_pass(runs):
    """The traced pass span agrees with the worker's own clock, and the
    carleman layers, not the benchmark's wrappers around them or the
    ``cli`` entry point, hold nearly all of its time: a layer whose
    wrappers went missing would leave its time with its caller."""
    _, _, _, _, traced, spans_file = runs
    with open(spans_file) as fh:
        spans = json.load(fh)["spans"]
    roots = [s for s in spans if s[0] == tracer.ROOT]
    assert len(roots) == 1 and roots[0][3] == -1
    root_s = (roots[0][2] - roots[0][1]) / 1e9
    pass_s = traced["pass_s"][0]
    assert root_s <= pass_s <= root_s * 1.001 + 1e-3
    layers = tracer.summarize(spans, collections.Counter(), 1)
    bench = sum(v for k, v in layers.items()
                if k.startswith("bench.") and k.endswith(".self_s"))
    assert bench < 0.01 * root_s
    assert layers["cli.main.self_s"] < 0.1 * root_s


# declared per-layer metrics (by prefix) each workload must exercise
EXERCISED = {
    "wavefront": ("cli.wf-experiment.s", "cli.fbi.s", "weights.fbi_envelope.",
                  "fbi.", "pde.", "fixtures."),
    "extension": ("cli.extend.s", "cli.weights.s", "weights.make_sequence.",
                  "weights.table_entries", "weights.assoc.",
                  "weights.bigN_capped.", "weights.absorption_fit.",
                  "weights.check_regularity.", "weights.WeightSequence.",
                  "jets.jet_eval.", "jets.growth_fit.", "dynkin."),
    "jets": ("cli.jets.s", "jets.jet_mul.", "jets.jet_add.", "jets.jet_diff.",
             "jets.formal_solution.", "jets.residual_check."),
}


def test_traced_run_reports_every_layer_the_workload_exercises(runs):
    name, _, _, traced_dir, traced, _ = runs
    with open(os.path.join(BENCH, "..", "BENCHMARK.json")) as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]]
    want = [m for m in declared if m.startswith(EXERCISED[name])
            or m == "cli.main.self_s"]
    assert len(want) >= 6
    assert [m for m in want if not traced["layers"].get(m)] == []
    assert workloads.payload_bytes(workloads.WORKLOADS[name], traced_dir, 1) > 0


def test_oracles_reject_broken_payloads(runs, tmp_path):
    name, plain_dir, _, _, _, _ = runs
    broken = str(tmp_path / "broken")
    shutil.copytree(plain_dir, broken)
    target, edit = {
        "wavefront": ("passes/0/fbi/fbi.json",
                      lambda r: r.__setitem__("failed_indices", [3])),
        "extension": ("passes/0/extend-1.5/extend.json",
                      lambda r: r.__setitem__("sup_ratio", 1.01)),
        "jets": ("passes/0/jets-5/jets.json",
                 lambda r: r["u"][3]["coeffs"][0].__setitem__(
                     1, r["u"][3]["coeffs"][0][1] * (1 + 1e-9))),
    }[name]
    path = os.path.join(broken, target)
    with open(path) as fh:
        doc = json.load(fh)
    edit(doc["results"])
    with open(path, "w") as fh:
        json.dump(doc, fh)
    errors = [{op.name: None for op in workloads.WORKLOADS[name].ops}]
    failures = workloads.verify(workloads.WORKLOADS[name], broken, errors)
    assert [f[:2] for f in failures] == [[0, target.split("/")[2]]]


@pytest.mark.parametrize("name", NAMES)
def test_setup_imports_cover_the_commands(name, tmp_path):
    """setup_s loads every carleman module and scipy subpackage that a
    pass of the workload imports."""
    rundir = str(tmp_path)
    workloads.generate_inputs(workloads.WORKLOADS[name], 5,
                              os.path.join(rundir, workloads.INPUTS))
    code = (
        f"import sys, json\nsys.path.insert(0, {BENCH!r})\n"
        f"import {', '.join(workloads.WORKLOADS[name].imports)}\n"
        "def mods():\n"
        "    return {m for m in sys.modules if m.split('.')[0] == 'carleman'\n"
        "            or (m.startswith('scipy.') and m.count('.') == 1\n"
        "                and not m.startswith('scipy._'))}\n"
        "before = mods()\n"
        "import worker, workloads\n"
        f"worker.run_pass(workloads.build_ops(workloads.WORKLOADS[{name!r}]), None)\n"
        "print(json.dumps(sorted(mods() - before)))\n")
    done = subprocess.run([sys.executable, "-c", code], cwd=rundir,
                          env=_child_env(os.path.realpath(SRC)),
                          capture_output=True, text=True, check=True,
                          timeout=600)
    assert json.loads(done.stdout.splitlines()[-1]) == []


def test_escaped_exceptions_and_exit_codes_fail_the_operation():
    import worker

    def boom():
        raise ValueError("t at or beyond the validity radius")
    assert worker._attempt(lambda: 0) is None
    assert worker._attempt(boom).startswith("ValueError")
    assert worker._attempt(lambda: 2).startswith("exit 2")
