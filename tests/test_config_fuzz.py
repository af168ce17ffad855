"""Configs with one value swapped for a hostile one: every command ends in
exit 0, 1 or 2, and a failure is one line on stderr, never a traceback.

Each command starts from a small config that runs clean.  A mutation
replaces the value at one path of it (a key of an object or an entry of a
list, at any depth) with a value from a fixed pool of wrong types and
out-of-range numbers.
"""

import contextlib
import io
import json
import pathlib
import tempfile
import warnings

from hypothesis import given, settings, strategies as st

from carleman import cli

POOL = (0, -1, "x", [], {}, None, 1e300)

_JET = {"n_x": 1, "n_zeta": 0, "D": 8, "coeffs": [[[2], 1.0, 0.0]]}
_SEQ = {"kind": "gevrey", "s": 2.0, "K_max": 256}
_LAMBDAS = {"lo": 4.0, "hi": 32.0, "n": 6, "spacing": "log"}

CONFIGS = {
    "weights": {"seq": _SEQ,
                "r": {"lo": 0.05, "hi": 4.0, "n": 6, "spacing": "log"},
                "absorption": {"n": [1, 2],
                               "r": {"lo": 0.1, "hi": 1.0, "n": 6,
                                     "spacing": "log"}}},
    "jets": {"field": {"a": [{"n_x": 1, "n_zeta": 0, "D": 8,
                              "coeffs": [[[1], 1.0, 0.0]]}],
                       "b": [], "time_dependent": False},
             "datum": _JET, "n_max": 4, "residual_n": 2},
    "extend": {"datum": _JET, "seq": _SEQ, "n_max": 4, "C_star": 1.0,
               "kernel": {"epsilon": 0.5, "n_r": 64, "n_theta": 64},
               "x": {"lo": -0.5, "hi": 0.5, "n": 5},
               "t": {"lo": 1e-2, "hi": 0.3, "n": 4}},
    "fbi": {"grid": {"fixture": "gaussian", "n": 2048, "half_width": 8.0},
            "seq": {"kind": "gevrey", "s": 2.0, "K_max": 64}, "x0": [0.0],
            "scan": {"n_directions": 8, "lambdas": _LAMBDAS,
                     "a_threshold": 1.0, "floor_rel": 1e-11,
                     "lambda_min": 16.0, "certified": False}},
    "wf-experiment": {"solution": {"fixture": "holomorphic"}, "n": 256,
                      "base": [0.0, 0.0], "radius": 1.0,
                      "seq": {"kind": "gevrey", "s": 2.0, "K_max": 64},
                      "scan": {"n_directions": 8, "lambdas": _LAMBDAS}},
    "acceptance": {"criteria": [2]},
}


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


MUTATIONS = [(command, path) for command, cfg in CONFIGS.items()
             for path in paths(cfg)]


def run(command, cfg):
    """(exit code, stderr text) of one in-process run on cfg, with every
    warning written to stderr as a command line run would."""
    with tempfile.TemporaryDirectory() as tmp:
        config = pathlib.Path(tmp) / "config.json"
        config.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main([command, "--config", str(config),
                           "--out", str(pathlib.Path(tmp) / "out")])
    return rc, "".join(warnings.formatwarning(w.message, w.category,
                                              w.filename, w.lineno)
                       for w in caught) + err.getvalue()


def check(command, cfg):
    rc, err = run(command, cfg)
    assert rc in (0, 1, 2)
    if rc:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err


def test_known_good_configs_run_clean():
    for command, cfg in CONFIGS.items():
        assert run(command, cfg) == (0, "")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(MUTATIONS), st.sampled_from(POOL))
def test_mutated_config_ends_in_one_line(mutation, value):
    command, path = mutation
    check(command, mutated(CONFIGS[command], path, value))
