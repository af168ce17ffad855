"""Which scipy modules, and whether a thread pool, the commands load.

The wave-front, jets and weights paths, and ``extend`` at the default
kernel, compute nothing with scipy, so a fresh interpreter running them
loads no scipy module beyond those that ``import scipy`` loads by itself
(the payloads' version string needs the top-level package).  They build,
check and scan grids on the calling thread, so they load no
``concurrent.futures`` either.  ``carleman.dynkin`` reads the default
kernel's 64-point Gauss-Legendre rule from a table; only another
``kernel.n_r`` loads ``scipy.special`` for its ``roots_legendre``, and
nothing loads ``scipy.integrate``.
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
EXTEND_CFG = {"datum": {"base_point": [[0.0, 0.0]], "n_x": 1, "n_zeta": 0,
                        "D": 12, "coeffs": [[[0], 1.0, 0.0], [[2], -1.0, 0.0],
                                            [[4], 1.0, 0.0]]},
              "seq": {"kind": "gevrey", "s": 2.0, "K_max": 4096},
              "n_max": 10, "x": {"lo": -0.5, "hi": 0.5, "n": 15},
              "t": {"lo": 1e-3, "n": 12}}
CONFIGS = {
    "fbi-sign": {"grid": {"fixture": "sign", "n": 4096}, "seq": GEVREY2,
                 "x0": [0.0]},
    "fbi-conormal": {"grid": {"fixture": "conormal", "n": 256},
                     "seq": GEVREY2},
    "weights": {},
    "jets": JETS_CFG,
    "extend": EXTEND_CFG,
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


def _commands_extra_modules(runs: list, configs: dict, tmp_path,
                            refused: tuple = ()) -> list:
    """The extra modules of one interpreter running the command lines
    ``runs``, then each command of ``configs`` on its config file.  Each
    exits 0, apart from the configs named in ``refused``, which exit 1."""
    runs = [(argv, 0) for argv in runs]
    for name, cfg in configs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        runs.append(([name.split("-")[0], "--config", str(path),
                      "--out", name], 1 if name in refused else 0))
    body = ("from carleman import cli\n"
            f"for argv, code in {runs!r}:\n"
            "    assert cli.main(argv) == code, argv")
    return _extra_modules(body, tmp_path)


def test_wave_front_jets_and_weights_commands_load_no_scipy_submodule(
        tmp_path):
    wf = ["wf-experiment", "--fixture", "holomorphic", "--out", "wf"]
    assert _commands_extra_modules([wf], CONFIGS, tmp_path) == []


def test_dynkin_loads_no_scipy_submodule(tmp_path):
    assert _extra_modules("import carleman.dynkin", tmp_path) == []


def test_extend_off_the_tabulated_rule_loads_scipy_special(tmp_path):
    # both rules come from roots_legendre: 32 radii are then refused by the
    # kernel's moment guard (residual 4.97e-10), 48 pass it and run through
    configs = {f"extend-{n_r}": dict(EXTEND_CFG, kernel={"n_r": n_r})
               for n_r in (32, 48)}
    extra = _commands_extra_modules([], configs, tmp_path,
                                    refused=("extend-32",))
    assert "scipy.special" in extra
    assert not [m for m in extra
                if m == "scipy.integrate" or m.startswith("scipy.integrate.")]
