"""The benchmark's traced layers and counters still fit the package.

BENCHMARK.json lists per-layer metrics such as `fbi.decay_margin.self_s`;
the traced benchmark run reports one only while `carleman.fbi` still has
`decay_margin`.  The tracer's hooks read what the traced calls return
(`make_sequence(...).K_max`, `decay_classify(...).passed`, ...) and the
positional arguments of `fbi_direction_scan`.  This reads BENCHMARK.json
and perfbench/tracer.py (and never writes them), so a change that deletes
or renames a listed function, or changes what a hook reads, fails here,
not only in the benchmark's own tests.
"""

import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

from carleman import cli
from carleman.fixtures import sign_grid

ROOT = Path(__file__).resolve().parent.parent


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_layer_names_resolve():
    layers = _tracer().LAYERS
    with open(ROOT / "BENCHMARK.json") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    checked, missing = 0, []
    for name in names:
        layer, *path, last = name.split(".")
        if layer not in layers or last not in ("self_s", "calls"):
            continue
        checked += 1
        obj = importlib.import_module(f"carleman.{layer}")
        try:
            for part in path:
                obj = getattr(obj, part)
        except AttributeError:
            missing.append(name)
    assert checked >= 20
    assert missing == []


@pytest.fixture
def installed(monkeypatch):
    """(tracer module, Tracer) installed over the carleman modules for one
    test: monkeypatch records every public name the install may rebind, in
    modules and in their classes, and puts it back afterwards."""
    tracer = _tracer()
    for layer in tracer.LAYERS:
        importlib.import_module(f"carleman.{layer}")
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] != "carleman":
            continue
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("__"):
                continue
            monkeypatch.setattr(mod, attr, obj)
            if inspect.isclass(obj) and obj.__module__ == name:
                for member in [m for m in vars(obj) if not m.startswith("_")]:
                    monkeypatch.setattr(obj, member, vars(obj)[member])
    traced = tracer.Tracer()
    traced.install()
    return tracer, traced


def _main(tmp_path, command: str, config: dict) -> None:
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(config))
    argv = [command, "--config", str(path), "--out", str(tmp_path / command)]
    assert cli.main(argv) == 0


def test_every_tracer_hook_reads_a_real_call(tmp_path, installed):
    # small commands, run as the workloads run them, that reach every
    # hook: each traced call runs its hook, which raises if what it reads
    # is gone
    tracer, traced = installed
    grid = tmp_path / "sign.bin"
    sign_grid(n=4096).save(str(grid))
    gevrey = {"kind": "gevrey", "s": 2.0, "K_max": 64}
    _main(tmp_path, "fbi", {"grid": {"file": str(grid)}, "seq": gevrey,
                            "x0": [0.5]})
    _main(tmp_path, "extend", {
        "datum": {"n_x": 1, "n_zeta": 0, "D": 8,
                  "coeffs": [[[0], 1.0, 0.0], [[2], -0.5, 0.0]]},
        "seq": dict(gevrey, K_max=4096), "n_max": 6,
        "x": {"lo": -0.5, "hi": 0.5, "n": 5}, "t": {"lo": 1e-3, "n": 6}})
    out = tracer.summarize(traced.spans, traced.counts, 1)
    unexercised = [name for name in tracer.HOOKS if not out.get(
        f"{name}.calls")]
    assert unexercised == [], "add a call that reaches each of these hooks"
    # summarize divides by the envelopes tried under decay_classify
    assert out["fbi.decay_classify.a_tries"] >= 1.0
    assert out["weights.table_entries"] == 65 + 4097
