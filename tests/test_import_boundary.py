"""Which scipy modules, and whether a thread pool, the commands load.

The wave-front, jets and weights paths compute nothing with scipy, so a
fresh interpreter running them loads no scipy module beyond those that
``import scipy`` loads by itself (the payloads' version string needs the
top-level package).  They build, check and scan grids on the calling
thread, so they load no ``concurrent.futures`` either.  ``extend`` needs
``scipy.special`` for its Gauss-Legendre nodes and ``scipy.linalg``, which
those nodes need, both loaded with ``carleman.dynkin``; it needs nothing
from ``scipy.integrate``.
Each check runs in a subprocess, since this test session has imported
scipy's submodules already.
"""

import json
import os
import pathlib
import subprocess
import sys

import carleman

SRC = str(pathlib.Path(carleman.__file__).parents[1])

GEVREY2 = {"kind": "gevrey", "s": 2.0, "K_max": 64}
JETS_CFG = {"field": {"a": [{"base_point": [[0.0, 0.0]], "n_x": 1,
                             "n_zeta": 0, "D": 8,
                             "coeffs": [[[0], 1.0, 0.0]]}], "b": []},
            "datum": {"base_point": [[0.0, 0.0]], "n_x": 1, "n_zeta": 0,
                      "D": 8, "coeffs": [[[2], 1.0, 0.0]]},
            "n_max": 6}
CONFIGS = {
    "fbi-sign": {"grid": {"fixture": "sign", "n": 4096}, "seq": GEVREY2,
                 "x0": [0.0]},
    "fbi-conormal": {"grid": {"fixture": "conormal", "n": 256},
                     "seq": GEVREY2},
    "weights": {},
    "jets": JETS_CFG,
}

# The scipy modules and concurrent.futures loaded after ``body`` runs that
# ``import scipy`` alone does not load, as a sorted JSON list on stdout.
_PROBE = """
import json, sys
import scipy

def loaded():
    return {m for m in sys.modules if m in ("scipy", "concurrent.futures")
            or m.startswith("scipy.")}

alone = loaded()
{body}
print(json.dumps(sorted(loaded() - alone)))
"""


def _extra_modules(body: str, cwd) -> list:
    code = _PROBE.replace("{body}", body)
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=cwd, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_command_modules_load_no_scipy_submodule(tmp_path):
    body = "\n".join(f"import carleman.{name}" for name in
                     ("cli", "fbi", "pde", "fixtures", "jets", "weights"))
    assert _extra_modules(body, tmp_path) == []


def test_wave_front_jets_and_weights_commands_load_no_scipy_submodule(
        tmp_path):
    runs = [["wf-experiment", "--fixture", "holomorphic", "--out", "wf"]]
    for name, cfg in CONFIGS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        runs.append([name.split("-")[0], "--config", str(path),
                     "--out", name])
    body = ("from carleman import cli\n"
            f"for argv in {runs!r}:\n"
            "    assert cli.main(argv) == 0, argv")
    assert _extra_modules(body, tmp_path) == []


def test_dynkin_loads_no_scipy_integrate(tmp_path):
    extra = _extra_modules("import carleman.dynkin", tmp_path)
    assert {"scipy.special", "scipy.linalg"} <= set(extra)
    assert not [m for m in extra
                if m == "scipy.integrate" or m.startswith("scipy.integrate.")]
