"""The benchmark's traced layer names still name functions of the package.

BENCHMARK.json lists per-layer metrics such as `fbi.decay_margin.self_s`;
the traced benchmark run reports one only while `carleman.fbi` still has
`decay_margin`.  This reads BENCHMARK.json (and never writes it), so a
change that deletes or renames a listed function fails here, not only in
the benchmark's own tests.
"""

import importlib
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tracer_layers() -> tuple:
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


def test_traced_layer_names_resolve():
    layers = _tracer_layers()
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
