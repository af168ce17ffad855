"""Batch entry point: config-driven runs of the toolkit modules.

Subcommands: weights, jets, extend, fbi, wf-experiment, acceptance.
Common flags: --config <json>, --out <dir>, --seed <u64>.
Each writes <command>.csv (all but acceptance) and <command>.json to --out,
each as <command>.<ext>.part renamed into place once complete; the JSON
text is streamed to its file piece by piece as it is made.
Exit codes: 0 ok, 1 failed check, I/O or memory error, 2 usage/config error.

All floating point output is printed with 17 significant digits and no
timestamps, except that JSON payloads write Infinity, -Infinity and NaN,
the tokens json.load reads; rerunning a command with the same config
reproduces every payload byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

import numpy as np
import scipy

from .errors import ArityMismatch, CarlemanError, ConfigError

_FIXTURE_GRIDS = ("gaussian", "sign", "pole", "conormal", "holomorphic")
_PROFILES = _FIXTURE_GRIDS[:3]          # the 1-D fixture grids
_WF_FIXTURES = ("conormal", "holomorphic")


# ---------------------------------------------------------------------------
# deterministic serialization

def _fmt(v: float) -> str:
    return "%.17g" % float(v)


def _json_float(v: float) -> str:
    """_fmt, or the token json.dumps writes and json.load reads for an
    infinite or NaN value: Infinity, -Infinity or NaN."""
    return _fmt(v) if math.isfinite(v) else json.dumps(v)


def _write_json(obj, write, indent: int = 0) -> None:
    """Write the JSON text of obj through write, piece by piece as it is
    made: openers, keys, separators, scalars, whole flat number lists and
    one jet's coeffs rows, so no nesting level is ever held as one string."""
    pad = "  " * indent
    if hasattr(obj, "item") and not hasattr(obj, "__len__"):
        obj = obj.item()
    if isinstance(obj, dict) and not obj:
        write("{}")
    elif isinstance(obj, dict):
        sep = "{\n"
        for k, v in obj.items():
            write(f'{sep}{pad}  {json.dumps(str(k))}: ')
            _write_json(v, write, indent + 1)
            sep = ",\n"
        write(f"\n{pad}}}")
    elif type(obj) is _CoeffRows:
        write(_coeff_rows_text(obj.jet, indent))
    elif isinstance(obj, (list, tuple)) or type(obj).__name__ == "ndarray":
        items = list(obj)
        if not items:
            write("[]")
        # exactly int or float (never bool or a numpy scalar): one join
        elif all(type(v) is float or type(v) is int for v in items):
            write("[\n" + ",\n".join([
                pad + "  " + (_json_float(v) if type(v) is float else str(v))
                for v in items]) + f"\n{pad}]")
        else:
            sep = "[\n"
            for v in items:
                write(f"{sep}{pad}  ")
                _write_json(v, write, indent + 1)
                sep = ",\n"
            write(f"\n{pad}]")
    elif isinstance(obj, complex):
        _write_json([obj.real, obj.imag], write, indent)
    elif isinstance(obj, bool):
        write("true" if obj else "false")
    elif obj is None:
        write("null")
    elif isinstance(obj, int):
        write(str(obj))
    elif isinstance(obj, float):
        write(_json_float(obj))
    else:
        write(json.dumps(str(obj)))


class _CoeffRows:
    """Stand-in for the coeffs rows of jet_to_dict(jet), which _write_json
    writes straight from Jet.data."""
    __slots__ = ("jet",)

    def __init__(self, jet):
        self.jet = jet


@functools.cache
def _row_templates(basis, indent: int) -> list:
    """Per basis slot, the text of a coeffs row at this indent with a
    %.17g field for its real and its imaginary part."""
    row, inner = "  " * (indent + 1), "  " * (indent + 2)
    tail = f"%.17g,\n{inner}%.17g\n{row}]"
    templates = []
    for e in basis.exps.tolist():
        exponent = "[\n" + ",\n".join([f"{inner}  {p}" for p in e]) + \
            f"\n{inner}]" if e else "[]"
        templates.append(f"{row}[\n{inner}{exponent},\n{inner}{tail}")
    return templates


def _coeff_rows_text(jet, indent: int) -> str:
    """The JSON text of the coeffs rows of jet_to_dict(jet): one % over the
    row templates of the nonzero slots in coeff_slots order."""
    from .jets import coeff_slots
    slots = coeff_slots(jet)
    if not slots.size:
        return "[]"
    templates = _row_templates(jet.basis, indent)
    rows = [templates[i] for i in slots.tolist()]
    rows[0] = "[\n" + rows[0]
    rows[-1] += "\n" + "  " * indent + "]"
    return ",\n".join(rows) % tuple(jet.data[slots].view(float).tolist())


def _cell(v) -> str:
    if hasattr(v, "item"):
        v = v.item()
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return _fmt(v)
    return str(v)


def _csv_text(header, rows) -> str:
    if not rows:
        raise ConfigError("refusing to write an empty report")
    lines = [",".join(header)] + [",".join(map(_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


@contextlib.contextmanager
def _part_file(path: str):
    """The open file path + ".part", renamed to path once the block ends,
    with a `wrote <path>` line; on any exception the .part file is removed,
    so no truncated payload is left under either name."""
    part = path + ".part"
    try:
        with open(part, "w", newline="") as fh:
            yield fh
        os.replace(part, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(part)
        raise
    print(f"wrote {path}")


def write_payload(args, config: dict, results: dict, table=None) -> None:
    """Write <command>.csv from table, a (header, rows) pair, when one is
    given, then <command>.json as {config, results, versions}, each under
    --out with a `wrote <path>` line: the only writer of this module.  The
    JSON text is streamed to its file as it is made."""
    from . import __version__
    versions = {"carleman": __version__, "numpy": np.__version__,
                "scipy": scipy.__version__}
    csv = None if table is None else _csv_text(*table)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, args.command)
    if csv is not None:
        with _part_file(path + ".csv") as fh:
            fh.write(csv)
    with _part_file(path + ".json") as fh:
        _write_json({"config": config, "results": results,
                     "versions": versions}, fh.write)
        fh.write("\n")


# ---------------------------------------------------------------------------
# config schema
#
# One table per command, key -> (kind, default).  A kind is int, float
# (finite: JSON's 1e400, Infinity and NaN are refused), bool, str or list
# (passed on unread) for a JSON value of that type, a range of integers, a
# set of strings, a leaf function (value, path), a dict of keys for a JSON
# object, [kind] for a JSON list, or a tuple of variants
# (key, value, keys): the first whose key holds value (value None: whose key
# is present; key None: any) gives the keys.  _REQUIRED makes a key
# required; None leaves it out when absent or null, so the library's or the
# command's own default applies; any other default is parsed as if given.

_REQUIRED = object()
_TYPES = {int: "a 64-bit integer", float: "a finite number",
          bool: "true or false", str: "a string", list: "a list"}


def _bad(path: str, what: str, v) -> ConfigError:
    return ConfigError(f"{path} must be {what}, not {json.dumps(v)}")


def _pair(v, path: str) -> list:
    if type(v) is not list or len(v) != 2:
        raise _bad(path, "a list of 2 numbers", v)
    return _parse([float], v, path)


def _limit(v, path: str) -> float:
    """A finite number, or Infinity for no limit at all."""
    if type(v) is float and v == math.inf:
        return v
    try:
        return _parse(float, v, path)
    except ConfigError:
        raise _bad(path, "a number or Infinity", v) from None


def _parse(kind, v, path: str = ""):
    """v checked against kind and converted, or a one-line ConfigError that
    names the dotted path of an unknown key, a missing key or a wrong type."""
    if isinstance(kind, type):
        if type(v) is kind and (kind is not int or -2 ** 63 <= v < 2 ** 63) \
                and (kind is not float or math.isfinite(v)) \
                or kind is float and type(v) is int and abs(v) < 2 ** 1023:
            return float(v) if kind is float else v
        raise _bad(path, _TYPES[kind], v)
    if isinstance(kind, range):
        if type(v) is int and v in kind:
            return v
        raise _bad(path, f"a 64-bit integer >= {kind.start}", v)
    if isinstance(kind, set):
        if type(v) is str and v in kind:
            return v
        raise _bad(path, " or ".join(sorted(map(json.dumps, kind))), v)
    if callable(kind):
        return kind(v, path)
    if isinstance(kind, list):
        return [_parse(kind[0], x, f"{path}[{i}]")
                for i, x in enumerate(_parse(list, v, path))]
    if type(v) is not dict:
        raise ConfigError(f"{path or 'config'} must be a JSON object, not "
                          f"{type(v).__name__}")
    keys, out, every = kind, {}, kind   # hints draw on every variant
    if isinstance(kind, tuple):     # the first variant v selects, else none
        keys = every = [k for key, _, ks in kind for k in (key, *ks) if k]
        out = None
        for key, value, ks in kind:
            if key is None or key in v and value in (None, v[key]):
                keys, out = ks, {key: value} if value else {}
                break
    known = [*(out or ()), *keys]
    for key in v:
        if key not in known:
            import difflib              # only on the error path
            near = difflib.get_close_matches(
                key, [k for k in every if k != key], n=1)
            raise ConfigError(f"unknown key {path}.{key}".replace(" .", " ")
                              + (f"; did you mean {near[0]}?" if near else ""))
    if out is None:
        raise ConfigError(f"{path} needs " + " or ".join(
            f"{key}={value}" if value else key for key, value, _ in kind))
    for key, (sub, default) in keys.items():
        x = v.get(key, default)
        if x is _REQUIRED:
            raise ConfigError(f"{path}.{key} is required".lstrip("."))
        if x is not None or default is not None:
            out[key] = _parse(sub, x, f"{path}.{key}".lstrip("."))
    return out


_GRID1D = (("values", None, {"values": ([float], _REQUIRED)}),
           (None, None, {"lo": (float, _REQUIRED), "hi": (float, _REQUIRED),
                         "n": (int, _REQUIRED),
                         "spacing": ({"linear", "log"}, "linear")}))
# K_max defaults in make_sequence: 64 for gevrey, every table value
_SEQ = (("kind", "gevrey", {"s": (float, _REQUIRED), "K_max": (int, None)}),
        ("kind", "table", {"values": ([float], _REQUIRED),
                           "K_max": (int, None)}))
_GEVREY2 = {"kind": "gevrey", "s": 2.0}
_JET_KEYS = {"n_x": (int, _REQUIRED), "n_zeta": (int, _REQUIRED),
             "D": (int, _REQUIRED), "base_point": (list, None),
             "coeffs": (list, _REQUIRED)}
_JET = (("file", None, {"file": (str, _REQUIRED)}), (None, None, _JET_KEYS))
# fixture keys: n; noise and half_width on the 1-D traces, offset on the
# pole (noise a scan resolves trips a windowed 2-D grid's box-edge guard)
_SAMPLES = range(2, 2 ** 63)          # grid samples per axis
_COUNT = range(1, 2 ** 63)            # series terms, kernel nodes per axis
_SAMPLED = {"n": (_SAMPLES, None)}
_TRACE = {**_SAMPLED, "noise": (float, 0.0), "half_width": (float, None)}
_GRID = (("file", None, {"file": (str, _REQUIRED)}),) + tuple(
    ("fixture", name, keys) for name, keys in zip(_FIXTURE_GRIDS, (
        _TRACE, _TRACE, {**_TRACE, "offset": (float, None)},
        _SAMPLED, _SAMPLED)))
_SCAN = {"n_directions": (int, None), "lambdas": (_GRID1D, None),
         "a_threshold": (float, None), "floor_rel": (float, None),
         "lambda_min": (float, None)}

_SCHEMAS = {
    "weights": {
        "seq": (_SEQ, _GEVREY2),
        "r": (_GRID1D, None),       # from the table: see _cmd_weights
        "absorption": ({"r": (_GRID1D, None),   # from the table as well
                        "n": ([int], [1, 2, 3])}, None)},
    "jets": {
        "field": ({"a": ([_JET], []), "b": ([_JET], []),
                   "time_dependent": (bool, False)}, _REQUIRED),
        "datum": (_JET, _REQUIRED), "n_max": (_COUNT, 8),
        "residual_n": (range(2 ** 63), None)},
    "extend": {
        "datum": (_JET, _REQUIRED), "seq": (_SEQ, {**_GEVREY2, "K_max": 4096}),
        "kernel": ({"epsilon": (float, None), "n_r": (_COUNT, None),
                    "n_theta": (_COUNT, None)}, {}),
        "C_star": (float, None), "growth_box": (_pair, None),
        "x": (_GRID1D, {"lo": -0.5, "hi": 0.5, "n": 21}),
        "t": ({"lo": (float, 1e-3), "hi": (float, None), "n": (int, 24)}, {}),
        "n_max": (range(2 ** 63), 12)},
    "fbi": {"grid": (_GRID, _REQUIRED), "seq": (_SEQ, _GEVREY2),
            "x0": ([float], None), "scan": (_SCAN, {})},
    "wf-experiment": {
        "solution": ({"fixture": (set(_WF_FIXTURES), "conormal")}, {}),
        "model": (_JET, None), "trust_radius": (_limit, math.inf),
        "seq": (_SEQ, _GEVREY2), "base": (_pair, [0.0, 0.0]),
        "radius": (float, 1.0), "n": (_SAMPLES, None), "scan": (_SCAN, {})},
    "acceptance": {"criteria": ([int], [])},
}


def _read_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read {what} {path}: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"{what} {path} is not valid JSON: {e}")


def _load_config(args, raw=None) -> tuple:
    """raw, or else --config, and its parse by the command's table."""
    if raw is None and args.config is None:
        raise ConfigError("this command needs --config <file.json>")
    raw = _read_json(args.config, "config") if raw is None else raw
    return raw, _parse(_SCHEMAS[args.command], raw)


def _grid1d(spec: dict, path: str):
    """The points of a parsed 1-D grid: its values, or n from lo to hi."""
    log = spec.get("spacing") == "log"
    try:
        if log and not (spec["lo"] > 0.0 and spec["hi"] > 0.0):
            raise ValueError("log spacing needs lo > 0 and hi > 0")
        grid = np.asarray(spec["values"], dtype=float) if "values" in spec \
            else (np.geomspace if log else np.linspace)(
                spec["lo"], spec["hi"], spec["n"])
    except ValueError as e:
        raise ConfigError(f"bad grid spec for {path!r}: {e}")
    if grid.size == 0:
        raise ConfigError(f"bad grid spec for {path!r}: it holds no points")
    return grid


def _sequence(spec: dict):
    from .weights import make_sequence
    try:
        return make_sequence(**spec)
    except ValueError as e:
        raise ConfigError(f"bad sequence spec: {e}")


def _jet(spec: dict, path: str):
    """The jet of a parsed entry; a file entry is read and parsed inline."""
    from .jets import jet_from_dict
    if "file" in spec:
        spec = _parse(_JET_KEYS, _read_json(spec["file"], f"{path} file"),
                      f"{path}.file")
    try:
        return jet_from_dict(spec)
    except (CarlemanError, KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"bad {path} spec: {e}")


def _fixture_grid(spec: dict, seed: int, top: float):
    """The grid a parsed grid section names.  A 1-D fixture without n takes
    the fewest samples the scan's sampling guard passes at its top lambda
    top, at least the fixture's default and at most GRID_N ** 2, the
    sample count of a 2-D fixture grid."""
    from . import fixtures
    from .fbi import GRID_N, GridFunction, guard_n
    if "file" in spec:
        try:
            return GridFunction.load(spec["file"])
        except (OSError, ValueError) as e:
            raise ConfigError(f"cannot read grid file {spec['file']}: {e}")
    kwargs = {k: v for k, v in spec.items() if k not in ("fixture", "noise")}
    half = spec.get("half_width", fixtures.PROFILE_HALF_WIDTH)
    # a half_width <= 0 is left to the fixture's config error below
    if spec["fixture"] in _PROFILES and "n" not in spec and half > 0.0:
        kwargs["n"] = min(max(fixtures.PROFILE_N, guard_n(top, half)),
                          GRID_N ** 2)
    try:
        gf = getattr(fixtures, f"{spec['fixture']}_grid")(**kwargs)
    except ValueError as e:             # half_width <= 0
        raise ConfigError(f"bad grid spec: {e}")
    if spec.get("noise", 0.0) > 0.0:
        rng = np.random.default_rng(seed)
        scale = spec["noise"] * float(np.max(np.abs(gf.values)))
        gf.values = gf.values + scale * (
            rng.standard_normal(gf.values.shape)
            + 1j * rng.standard_normal(gf.values.shape))
    return gf


def _scan_config(spec: dict, seq):
    """The scan section; a config error, before any grid exists, when the
    table does not certify the envelope at a_threshold and the top lambda,
    where neither the verdicts nor the payload's envelope column could be
    certified."""
    from .fbi import ScanConfig, certified_levels
    from .weights import envelope_certified
    if "lambdas" in spec:
        spec = {**spec, "lambdas": _grid1d(spec["lambdas"], "scan.lambdas")}
    try:
        scfg = ScanConfig(**spec)
    except ValueError as e:
        raise ConfigError(f"bad scan spec: {e}")
    top = float(max(scfg.lambdas))
    if not envelope_certified(seq, scfg.a_threshold, top):
        levels = certified_levels(seq, top)
        lowest = f"below {levels[0]:g}, the lowest level" if levels.size \
            else "below every level"
        raise ConfigError(f"scan.a_threshold {scfg.a_threshold:g} lies "
                          f"{lowest} the seq table certifies at lambda = "
                          f"{top:g}; enlarge K_max (now {seq.K_max})")
    return scfg


# ---------------------------------------------------------------------------
# subcommands

def _cmd_weights(args) -> int:
    from .weights import absorption_fit, assoc, bigN_capped, check_regularity
    raw, cfg = _load_config(args)
    seq = _sequence(cfg["seq"])
    # by default r and absorption.r start at the least r the table
    # certifies, or at 0.01 and 1e-3
    least = math.exp(-seq.increments(seq.K_max - 1, seq.K_max)[0])
    r = _grid1d(cfg.get("r", {"lo": max(0.01, least), "hi": 10.0, "n": 50,
                              "spacing": "log"}), "r")
    reg = check_regularity(seq)
    results = {"regular": bool(reg.passed), "c_bound": float(seq.c_bound),
               "K_max": int(seq.K_max), "log_convex": bool(seq.log_convex)}
    # the ValueErrors of these calls are input boundaries: an r <= 0
    try:
        h = assoc(seq, "h", r)
        h1 = assoc(seq, "h1", r)
        nn = bigN_capped(seq, r, seq.K_max)
        if "absorption" in cfg:
            rr = _grid1d(cfg["absorption"].get("r", {
                "lo": max(1e-3, least), "hi": 1.0, "n": 40,
                "spacing": "log"}), "absorption.r")
            fits = []       # a fit that fails raises FitFailed: passed is true
            for n in cfg["absorption"]["n"]:
                fit = absorption_fit(seq, n, rr)
                fits.append({"n": n, "Q": float(fit.Q), "C": float(fit.C),
                             "passed": True})
            results["absorption"] = fits
    except ValueError as e:
        raise ConfigError(f"bad weights config: {e}")
    rows = [(float(rv), float(hv), float(h1v), int(nv))
            for rv, hv, h1v, nv in zip(r, h, h1, nn)]
    write_payload(args, raw, results, (["r", "h", "h1", "bigN"], rows))
    return 0


def _cmd_jets(args) -> int:
    from .jets import (VectorFieldJet, augment_datum, formal_solution,
                       jet_to_dict, residual_check, restrict_diagonal,
                       time_augment)
    raw, cfg = _load_config(args)
    fspec, datum = cfg["field"], _jet(cfg["datum"], "datum")
    a, b = ([_jet(j, f"field.{k}[{i}]") for i, j in enumerate(fspec[k])]
            for k in ("a", "b"))
    timed = fspec["time_dependent"]
    try:
        field = VectorFieldJet(a=a, b=b, time_dependent=timed)
    except CarlemanError as e:
        raise ConfigError(f"bad field spec: {e}")
    if timed:       # t is the last x slot; u(x, 0) gains it at t = 0
        field, datum = time_augment(field), augment_datum(datum)
    n_max = cfg["n_max"]
    n_res = cfg.get("residual_n", min(6, n_max - 1))
    if n_res >= n_max:
        raise ConfigError(
            f"residual_n={n_res} needs u_{n_res + 1}, beyond n_max={n_max}")

    try:
        series = formal_solution(field, datum, n_max)
    except (ArityMismatch, ValueError) as e:    # arity or overflow
        raise ConfigError(f"bad jets config: {e}")
    rows = [(n, float(residual_check(series, n))) for n in range(n_res + 1)]
    # the t-coefficients of u(x, t), read off the diagonal s = t when t
    # was an x slot
    u = restrict_diagonal(series) if timed else series.u
    results = {"n_max": series.n_max,
               "lossy": bool(any(uk.lossy for uk in series.u)),
               "max_residual": max(r for _, r in rows),
               "u": [jet_to_dict(uk, rows=_CoeffRows(uk)) for uk in u]}
    write_payload(args, raw, results, (["n", "residual"], rows))
    return 0


def _cmd_extend(args) -> int:
    from .dynkin import almost_analytic_extend, make_kernel, measure_flatness
    raw, cfg = _load_config(args)
    datum = _jet(cfg["datum"], "datum")
    seq, x = _sequence(cfg["seq"]), _grid1d(cfg["x"], "x")
    gbox = cfg.get("growth_box")
    # the ValueErrors of these calls are input boundaries: epsilon outside
    # (0, 1), C_star <= 0, a table shorter than the series
    try:
        kernel = make_kernel(**cfg["kernel"])
        # the real-axis trace pins the default growth box to the x range
        _, sol = almost_analytic_extend(
            datum, seq, kernel, x.astype(complex),
            n_max=cfg["n_max"], C_star=cfg.get("C_star"),
            growth_box=None if gbox is None else [tuple(gbox)])
    except ValueError as e:
        raise ConfigError(f"bad extend config: {e}")

    # the centered time difference needs 0 < |t| < delta at every sample:
    # by default the top sample sits 1% inside the validity radius
    t = _grid1d({"hi": 0.99 * sol.delta, **cfg["t"], "spacing": "log"}, "t")
    if not np.all((np.abs(t) > 0.0) & (np.abs(t) < sol.delta)):
        raise ConfigError(
            f"t grid must lie in 0 < |t| < delta = {sol.delta:.6g}, the "
            f"validity radius; it spans [{np.min(t):.6g}, {np.max(t):.6g}]")
    fit = measure_flatness(sol, x, t)

    rows = [(float(tv), float(sv), float(hv),
             float(sv / (fit.A * hv)) if fit.A > 0 and hv > 0 else 0.0)
            for tv, sv, hv in zip(fit.t, fit.sup, fit.h)]
    results = {"A": float(fit.A), "Q": float(fit.Q),
               "delta": float(sol.delta),
               "sup_ratio": float(fit.sup_ratio), "passed": True,
               "C_star": float(sol.C_star),
               "skipped_Q": [float(q) for q in fit.skipped_Q]}
    write_payload(args, raw, results,
                  (["t", "sup_abs_Lu", "h_Q_t", "ratio"], rows))
    return 0


def _scan_payload(scan, floor_rel: float):
    env = np.maximum(scan.envelope, floor_rel)
    failed = set(scan.failed_indices)
    rows = [(j, *[float(c) for c in om], float(lam), float(f), float(e),
             j not in failed)
            for j, om in enumerate(scan.directions)
            for lam, f, e in zip(scan.lambdas, scan.samples[j], env)]
    header = (["direction_index"]
              + [f"omega_{d}" for d in range(scan.directions.shape[1])]
              + ["lambda", "abs_F", "envelope", "passed"])
    per_dir = [{"index": j, "A_fit": float(r.A_fit), "passed": bool(r.passed)}
               for j, r in enumerate(scan.reports)]
    summary = {"normalization": float(scan.normalization),
               "lambda_min": float(scan.lambda_min),
               "failed_indices": [int(j) for j in scan.failed_indices],
               "singular_indices": [int(j) for j in scan.singular_indices],
               "per_direction": per_dir}
    return (header, rows), summary


def _cmd_fbi(args) -> int:
    from .fbi import wavefront_scan
    raw, cfg = _load_config(args)
    seq = _sequence(cfg["seq"])
    scfg = _scan_config(cfg["scan"], seq)
    gf = _fixture_grid(cfg["grid"], args.seed, float(max(scfg.lambdas)))
    if gf.dim > 2:
        raise ConfigError(f"scans cover 1-D and 2-D grids; this grid is "
                          f"{gf.dim}-D")
    x0 = cfg.get("x0", [0.0] * gf.dim)
    if len(x0) != gf.dim:
        raise _bad("x0", f"a list of {gf.dim} numbers", raw["x0"])
    scan = wavefront_scan(gf, x0, seq, scfg)

    table, summary = _scan_payload(scan, scfg.floor_rel)
    write_payload(args, raw, summary, table)
    return 0


def _cmd_wf_experiment(args) -> int:
    from .fixtures import WAVE_SOLUTIONS
    from .pde import RhsModel, wf_inclusion_experiment
    if args.fixture and args.config is not None:
        raise ConfigError("--fixture and --config exclude each other")
    raw, cfg = _load_config(args, args.fixture and {
        "solution": {"fixture": args.fixture}})
    solution = WAVE_SOLUTIONS[cfg["solution"]["fixture"]]
    rhs = _jet(cfg["model"], "model") if "model" in cfg else solution.rhs
    seq = _sequence(cfg["seq"])
    scfg = _scan_config(cfg["scan"], seq)
    # its ArityMismatch and ValueErrors are input boundaries: a model not
    # of one spatial variable, the radius
    try:
        rep = wf_inclusion_experiment(
            RhsModel(rhs, trust_radius=cfg["trust_radius"]), solution.u, seq,
            base=cfg["base"], radius=cfg["radius"], n=cfg.get("n"),
            config=scfg)
    except (ArityMismatch, ValueError) as e:
        raise ConfigError(f"bad wf-experiment config: {e}")

    table, summary = _scan_payload(rep.scan, scfg.floor_rel)
    ok = bool(rep.included.all())
    results = {"pass": ok, "n": rep.n,
               "a0": [[float(v.real), float(v.imag)] for v in rep.a0],
               "step": float(rep.step),
               "covectors": [[float(c) for c in row]
                             for row in rep.covectors],
               "char_distances": [float(d) for d in rep.distances],
               "included": [bool(v) for v in rep.included],
               "scan": summary}
    write_payload(args, raw, results, table)
    return 0 if ok else 1


def _cmd_acceptance(args) -> int:
    from . import acceptance
    if args.all == (args.config is not None):
        raise ConfigError("acceptance needs one of --all and --config")
    numbers = sorted(acceptance.CRITERIA) if args.all \
        else _load_config(args)[1]["criteria"]
    if not numbers:
        raise ConfigError("acceptance config selects no criteria")
    try:
        results = acceptance.run_all(numbers)
    except ValueError as e:
        raise ConfigError(str(e))
    print(acceptance.format_results(results))

    payload = {"criteria": numbers,
               "results": [{"number": r.number, "name": r.name,
                            "passed": r.passed, "detail": r.detail}
                           for r in results]}
    write_payload(args, {"criteria": numbers}, payload)
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------

def u64(text: str) -> int:
    """The value of --seed: an integer in [0, 2**64)."""
    if not 0 <= int(text) < 2 ** 64:
        raise ValueError(text)          # argparse: invalid u64 value
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--seed", type=u64, default=0,
                        help="RNG seed for fixture noise")

    p = argparse.ArgumentParser(
        prog="carleman",
        description="numerical toolkit for Denjoy-Carleman microlocal "
                    "regularity experiments")
    sub = p.add_subparsers(dest="command", required=True)

    sp = {}
    for name, handler, about in (
            ("weights", _cmd_weights,
             "associated functions and absorption fits"),
            ("jets", _cmd_jets, "formal solution and residual table"),
            ("extend", _cmd_extend, "almost analytic extension flatness"),
            ("fbi", _cmd_fbi, "wave front scan of a grid function"),
            ("wf-experiment", _cmd_wf_experiment,
             "wave front vs characteristic set experiment"),
            ("acceptance", _cmd_acceptance,
             "run the shipped acceptance criteria")):
        sp[name] = sub.add_parser(name, parents=[common], help=about)
        sp[name].set_defaults(handler=handler)
    sp["wf-experiment"].add_argument(
        "--fixture", choices=_WF_FIXTURES,
        help="run a named solution fixture without a config")
    sp["acceptance"].add_argument("--all", action="store_true",
                                  help="run all ten")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (CarlemanError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
