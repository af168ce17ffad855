"""Configs with one value swapped for a hostile one, or one key name
misspelt: every command ends in exit 0, 1 or 2, and a failure is one line on
stderr, never a traceback.  The one exit 1 without a line is a verdict: a
wf-experiment whose payload reports pass = false.

Each command starts from small configs that run clean, which between them
use every key and variant of the command's schema table (a jet or a grid
given inline and as a file included).  A value mutation replaces the value
at one path of a config (a key of an object or an entry of a list, at any
depth) with a value from a fixed pool of wrong types, out-of-range
numbers and the non-finite numbers JSON's Infinity and NaN read as.  A
key mutation renames one key to a near miss, which must be a config error
that names the key's dotted path.
"""

import atexit
import contextlib
import io
import json
import pathlib
import shutil
import tempfile
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from carleman import cli
from carleman.fixtures import gaussian_grid

POOL = (0, -1, "x", [], {}, None, 1e300, float("inf"), float("nan"))

_JET = {"n_x": 1, "n_zeta": 0, "D": 8, "coeffs": [[[2], 1.0, 0.0]]}
_SEQ = {"kind": "gevrey", "s": 2.0, "K_max": 256}
_LAMBDAS = {"lo": 4.0, "hi": 32.0, "n": 6, "spacing": "log"}
_SCAN2D = {"n_directions": 8, "lambdas": _LAMBDAS}

# the files the file-variant configs read, written once per session
FILES = pathlib.Path(tempfile.mkdtemp(prefix="carleman-config-fuzz-"))
atexit.register(shutil.rmtree, FILES, ignore_errors=True)
(FILES / "speed.json").write_text(json.dumps(
    {"base_point": [[0.0, 0.0]], "n_x": 1, "n_zeta": 0, "D": 8,
     "coeffs": [[[1], 1.0, 0.0]]}))
(FILES / "datum.json").write_text(json.dumps(_JET))
gaussian_grid(n=2048).save(str(FILES / "gaussian.bin"))


def _grid(**grid):
    return {"grid": grid, "seq": {"kind": "gevrey", "s": 2.0, "K_max": 64}}


CONFIGS = [
    ("weights", {"seq": _SEQ,
                 "r": {"lo": 0.05, "hi": 4.0, "n": 6, "spacing": "log"},
                 "absorption": {"n": [1, 2],
                                "r": {"lo": 0.1, "hi": 1.0, "n": 6,
                                      "spacing": "log"}}}),
    ("weights", {"seq": {"kind": "table", "K_max": 12,
                         "values": [1.0, 1.0, 4.0, 36.0, 576.0, 14400.0,
                                    518400.0, 25401600.0, 1625702400.0,
                                    131681894400.0, 13168189440000.0,
                                    1593350922240000.0,
                                    229442532802560000.0]},
                 "r": {"values": [0.5, 1.0, 2.0]}}),
    ("jets", {"field": {"a": [{"n_x": 1, "n_zeta": 0, "D": 8,
                               "coeffs": [[[1], 1.0, 0.0]]}],
                        "b": [], "time_dependent": False},
              "datum": _JET, "n_max": 4, "residual_n": 2}),
    ("jets", {"field": {"a": [{"file": str(FILES / "speed.json")}]},
              "datum": {"file": str(FILES / "datum.json")}, "n_max": 4}),
    ("extend", {"datum": dict(_JET, base_point=[[0.0, 0.0]]), "seq": _SEQ,
                "n_max": 4, "C_star": 1.0,
                "kernel": {"epsilon": 0.5, "n_r": 64, "n_theta": 64},
                "x": {"lo": -0.5, "hi": 0.5, "n": 5},
                "t": {"lo": 1e-2, "hi": 0.3, "n": 4},
                "growth_box": [-0.5, 0.5]}),
    ("fbi", dict(_grid(fixture="gaussian", n=2048, half_width=8.0,
                       noise=0.0), x0=[0.0],
                 scan={"n_directions": 8, "lambdas": _LAMBDAS,
                       "a_threshold": 1.0, "floor_rel": 1e-11,
                       "lambda_min": 16.0})),
    ("fbi", dict(_grid(file=str(FILES / "gaussian.bin")),
                 scan={"lambdas": _LAMBDAS})),
    ("fbi", dict(_grid(fixture="sign", n=2048, noise=1e-6),
                 scan={"lambdas": _LAMBDAS})),
    ("fbi", dict(_grid(fixture="pole", n=2048, half_width=8.0, offset=0.5,
                       noise=0.0),
                 scan={"lambdas": _LAMBDAS})),
    ("fbi", dict(_grid(fixture="conormal", n=256), scan=_SCAN2D)),
    ("fbi", dict(_grid(fixture="holomorphic", n=256), scan=_SCAN2D)),
    ("wf-experiment", {"solution": {"fixture": "holomorphic"}, "n": 256,
                       "base": [0.0, 0.0], "radius": 1.0,
                       "seq": {"kind": "gevrey", "s": 2.0, "K_max": 64},
                       "scan": _SCAN2D,
                       # the fixture's own f = i zeta_1, given as a jet
                       "model": {"n_x": 1, "n_zeta": 2, "D": 8,
                                 "coeffs": [[[0, 0, 1], 0.0, 1.0]]},
                       "trust_radius": 10.0}),
    ("acceptance", {"criteria": [2]}),
]


def paths(cfg, prefix=()):
    """Every path to a value inside cfg, outermost first."""
    items = cfg.items() if isinstance(cfg, dict) else enumerate(cfg)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from paths(value, prefix + (key,))


def mutated(cfg, path, value):
    """A deep copy of cfg with the value at path replaced."""
    out = json.loads(json.dumps(cfg))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def near_miss(key: str) -> str:
    return key[:-1] if len(key) > 2 else key + key[-1]


def renamed(cfg, path):
    """A deep copy of cfg with the key at path renamed to a near miss, in
    its place among its siblings."""
    out = json.loads(json.dumps(cfg))
    node = out
    for key in path[:-1]:
        node = node[key]
    items = list(node.items())
    node.clear()
    node.update((near_miss(k) if k == path[-1] else k, v) for k, v in items)
    return out


def dotted(path) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                   for k in path).lstrip(".")


MUTATIONS = [(i, path) for i, (_, cfg) in enumerate(CONFIGS)
             for path in paths(cfg)]
KEYS = [(i, path) for i, path in MUTATIONS if isinstance(path[-1], str)]


def run(command, cfg):
    """(exit code, stderr text, verdict) of one in-process run on cfg, with
    every warning written to stderr as a command line run would; verdict is
    the "pass" of a wf-experiment payload, else None."""
    with tempfile.TemporaryDirectory() as tmp:
        config = pathlib.Path(tmp) / "config.json"
        config.write_text(json.dumps(cfg))
        out = pathlib.Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main([command, "--config", str(config),
                           "--out", str(out)])
        payload = out / "wf-experiment.json"
        verdict = json.loads(payload.read_text())["results"]["pass"] \
            if payload.exists() else None
    return rc, "".join(warnings.formatwarning(w.message, w.category,
                                              w.filename, w.lineno)
                       for w in caught) + err.getvalue(), verdict


def check(command, cfg):
    rc, err, verdict = run(command, cfg)
    assert rc in (0, 1, 2)
    if rc == 1 and verdict is False:
        assert err == "", err
    elif rc:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err


def test_known_good_configs_run_clean():
    for command, cfg in CONFIGS:
        assert run(command, cfg)[:2] == (0, ""), (command, cfg)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(MUTATIONS), st.sampled_from(POOL))
def test_mutated_config_ends_in_one_line(mutation, value):
    i, path = mutation
    command, cfg = CONFIGS[i]
    check(command, mutated(cfg, path, value))


@pytest.mark.parametrize("i, path", KEYS,
                         ids=[f"{CONFIGS[i][0]}-{i}:{dotted(path)}"
                              for i, path in KEYS])
def test_misspelt_key_is_config_error_naming_its_path(i, path):
    command, cfg = CONFIGS[i]
    rc, err, _ = run(command, renamed(cfg, path))
    assert rc == 2 and err.startswith("error: ") and err.count("\n") == 1
    assert dotted(path[:-1] + (near_miss(path[-1]),)) in err, err


# ---------------------------------------------------------------------------
# the known-good configs cover the schema tables

def schema_entries(kind, where=""):
    """{(id of a keys table, key) or (id of a variant tuple, index): a
    path where it sits} for every key and variant under kind."""
    out = {}
    if isinstance(kind, list):
        out.update(schema_entries(kind[0], where + "[]"))
    elif isinstance(kind, tuple):
        for index, (key, value, keys) in enumerate(kind):
            out[id(kind), index] = f"{where}<{key}={value}>"
            out.update(schema_entries(keys, f"{where}<{key}={value}>"))
    elif isinstance(kind, dict):
        for key, (sub, _) in kind.items():
            out[id(kind), key] = f"{where}.{key}"
            out.update(schema_entries(sub, f"{where}.{key}"))
    return out


def config_entries(kind, v):
    """The entries of schema_entries that the config value v uses."""
    if isinstance(kind, list):
        return {e for x in v for e in config_entries(kind[0], x)}
    if isinstance(kind, tuple):      # the variant v selects, as cli picks it
        for index, (key, value, keys) in enumerate(kind):
            if key is None or key in v and value in (None, v[key]):
                rest = {k: x for k, x in v.items()
                        if k != key or value is None}
                return {(id(kind), index)} | config_entries(keys, rest)
    if isinstance(kind, dict):
        return {e for key, x in v.items()
                for e in {(id(kind), key)} | config_entries(kind[key][0], x)}
    return set()


def test_known_good_configs_use_every_key_of_the_schema():
    # a table shared between places (a jet, a 1-D grid) counts as covered
    # by a config that uses it in any of them
    entries, used = {}, set()
    for command, schema in cli._SCHEMAS.items():
        entries.update(schema_entries(schema, command))
        used.update(e for c, cfg in CONFIGS if c == command
                    for e in config_entries(schema, cfg))
    assert sorted(entries[e] for e in entries.keys() - used) == []
