"""Batch entry point: config-driven runs of the toolkit modules.

Subcommands: weights, jets, extend, fbi, wf-experiment, acceptance.
Common flags: --config <json>, --out <dir>, --threads <n>, --seed <u64>.
Exit codes: 0 success, 1 failed check or I/O error, 2 usage or config error.

Numeric imports happen after --threads is applied to the BLAS environment,
so keep this module free of top-level numpy.  All floating point output is
printed with 17 significant digits and no timestamps; rerunning a command
with the same config reproduces every payload byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .errors import ArityMismatch, CarlemanError, ConfigError

_FIXTURE_GRIDS = ("gaussian", "sign", "pole", "conormal", "holomorphic")


# ---------------------------------------------------------------------------
# deterministic serialization

def _fmt(v: float) -> str:
    return "%.17g" % float(v)


def _json_text(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if hasattr(obj, "item") and not hasattr(obj, "__len__"):
        obj = obj.item()
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{pad}  {json.dumps(str(k))}: {_json_text(v, indent + 1)}'
                for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if type(obj) is _CoeffRows:
        return _coeff_rows_text(obj.jet, indent)
    if isinstance(obj, (list, tuple)) or type(obj).__name__ == "ndarray":
        items = list(obj)
        if not items:
            return "[]"
        # exactly int or float (never bool or a numpy scalar): one join
        if all(type(v) is float or type(v) is int for v in items):
            rows = [pad + "  " + (_fmt(v) if type(v) is float else str(v))
                    for v in items]
        else:
            rows = [f"{pad}  {_json_text(v, indent + 1)}" for v in items]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, complex):
        return _json_text([obj.real, obj.imag], indent)
    if isinstance(obj, float):
        return _fmt(obj)
    return json.dumps(str(obj))


class _CoeffRows:
    """Stand-in for the coeffs rows of jet_to_dict(jet), which _json_text
    writes straight from Jet.data."""
    __slots__ = ("jet",)

    def __init__(self, jet):
        self.jet = jet


@functools.cache
def _row_heads(basis, indent: int) -> list:
    """Per basis slot, the text of a coeffs row at this indent up to its
    real part: the row's opening and its exponent list."""
    row, inner = "  " * (indent + 1), "  " * (indent + 2)
    heads = []
    for e in basis.exps.tolist():
        exponent = "[\n" + ",\n".join([f"{inner}  {p}" for p in e]) + \
            f"\n{inner}]" if e else "[]"
        heads.append(f"{row}[\n{inner}{exponent},\n{inner}")
    return heads


def _coeff_rows_text(jet, indent: int) -> str:
    """_json_text of the coeffs rows of jet_to_dict(jet), row by row from
    the nonzero slots in coeff_slots order."""
    from .jets import coeff_slots
    slots = coeff_slots(jet)
    if not slots.size:
        return "[]"
    heads = _row_heads(jet.basis, indent)
    row, inner = "  " * (indent + 1), "  " * (indent + 2)
    tail = "%.17g,\n" + inner + "%.17g\n" + row + "]"
    rows = [heads[i] + tail % (c.real, c.imag)
            for i, c in zip(slots.tolist(), jet.data[slots].tolist())]
    return "[\n" + ",\n".join(rows) + "\n" + "  " * indent + "]"


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


def _write(args, name: str, text: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, name)
    with open(path, "w", newline="") as fh:
        fh.write(text)
    print(f"wrote {path}")
    return path


def _versions() -> dict:
    import numpy
    import scipy

    from . import __version__
    return {"carleman": __version__, "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def _report(config: dict, results: dict) -> dict:
    return {"config": config, "results": results, "versions": _versions()}


# ---------------------------------------------------------------------------
# config plumbing

def _load_config(args) -> dict:
    if args.config is None:
        raise ConfigError("this command needs --config <file.json>")
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {args.config}: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {args.config} is not valid JSON: {e}")
    return _section(cfg, f"config {args.config}")


def _section(spec, name: str) -> dict:
    """spec, a config section, checked to be a JSON object."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{name} must be a JSON object, not "
                          f"{type(spec).__name__}")
    return spec


def _number(v, name: str, kind=float):
    """v converted by kind (float or int); a config error when it does not
    convert, or when an integer does not fit the 64 bits of a numpy size."""
    try:
        out = kind(v)
        if kind is int and not -2 ** 63 <= out < 2 ** 63:
            raise OverflowError
        return out
    except (TypeError, ValueError, OverflowError):
        what = "a 64-bit integer" if kind is int else "a number"
        raise ConfigError(f"{name} must be {what}, not {json.dumps(v)}") \
            from None


def _grid_n(v, name: str) -> int:
    """v as a count of grid samples per axis, at least two."""
    n = _number(v, name, int)
    if n < 2:
        raise ConfigError(f"{name} must be at least 2 samples per axis, "
                          f"not {n}")
    return n


def _integers(v, name: str) -> list:
    """v as a list of integers; a config error otherwise."""
    if not isinstance(v, list):
        raise ConfigError(f"{name} must be a list, not {json.dumps(v)}")
    return [_number(c, name, int) for c in v]


def _numbers(v, name: str, size: int) -> list:
    """v as a list of size floats; a config error otherwise."""
    try:
        out = [float(c) for c in v]
    except (TypeError, ValueError):
        out = None
    if out is None or len(out) != size:
        raise ConfigError(f"{name} must be a list of {size} "
                          f"number{'s' * (size != 1)}, not {json.dumps(v)}")
    return out


def _grid1d(d, name: str):
    import numpy as np
    try:
        if isinstance(d, (list, tuple)):
            grid = np.asarray(d, dtype=float)
        elif "values" in d:
            grid = np.asarray(d["values"], dtype=float)
        else:
            lo, hi, n = float(d["lo"]), float(d["hi"]), int(d["n"])
            log = d.get("spacing", "linear") == "log"
            if log and not (lo > 0.0 and hi > 0.0):
                raise ValueError("log spacing needs lo > 0 and hi > 0")
            grid = np.geomspace(lo, hi, n) if log else np.linspace(lo, hi, n)
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"bad grid spec for {name!r}: {e}")
    if grid.size == 0:
        raise ConfigError(f"bad grid spec for {name!r}: it holds no points")
    return grid


def _seq_cfg(d):
    from .weights import seq_from_dict
    d = _section(d, "seq")
    try:
        return seq_from_dict(d)
    except (CarlemanError, KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"bad sequence spec: {e}")


def _jet_cfg(d, what: str):
    from .jets import jet_from_dict
    if isinstance(d, dict) and "file" in d:
        try:
            with open(d["file"]) as fh:
                d = json.load(fh)
        except OSError as e:
            raise ConfigError(f"cannot read {what} file {d['file']}: {e}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"{what} file is not valid JSON: {e}")
    try:
        return jet_from_dict(d)
    except (CarlemanError, KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"bad {what} spec: {e}")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_weights(args) -> int:
    import numpy as np

    from .weights import assoc, bigN_capped, check_regularity, absorption_fit
    cfg = _load_config(args)
    seq = _seq_cfg(cfg.get("seq", {"kind": "gevrey", "s": 2.0, "K_max": 64}))
    r = _grid1d(cfg.get("r", {"lo": 0.01, "hi": 10.0, "n": 50,
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
            spec = _section(cfg["absorption"], "absorption")
            rr = _grid1d(spec.get("r", {"lo": 1e-3, "hi": 1.0, "n": 40,
                                        "spacing": "log"}), "absorption.r")
            fits = []
            for n in _integers(spec.get("n", [1, 2, 3]), "absorption.n"):
                fit = absorption_fit(seq, n, rr)
                fits.append({"n": n, "Q": float(fit.Q), "C": float(fit.C),
                             "passed": bool(fit.passed)})
            results["absorption"] = fits
    except ValueError as e:
        raise ConfigError(f"bad weights config: {e}")
    rows = [(float(rv), float(hv), float(h1v), int(nv))
            for rv, hv, h1v, nv in zip(r, h, h1, nn)]
    _write(args, "weights.csv", _csv_text(["r", "h", "h1", "bigN"], rows))
    _write(args, "weights.json", _json_text(_report(cfg, results)) + "\n")
    return 0


def _cmd_jets(args) -> int:
    from .jets import (VectorFieldJet, augment_datum, formal_solution,
                       jet_to_dict, residual_check, restrict_diagonal,
                       time_augment)
    cfg = _load_config(args)
    try:
        fspec = _section(cfg["field"], "field")
        a = [_jet_cfg(j, "field coefficient") for j in fspec.get("a", [])]
        b = [_jet_cfg(j, "field coefficient") for j in fspec.get("b", [])]
        datum = _jet_cfg(cfg["datum"], "datum")
    except KeyError as e:
        raise ConfigError(f"jets config is missing {e}")
    except TypeError as e:              # "a" or "b" not a list
        raise ConfigError(f"bad field spec: {e}")
    timed = bool(fspec.get("time_dependent", False))
    try:
        field = VectorFieldJet(a=a, b=b, time_dependent=timed)
    except CarlemanError as e:
        raise ConfigError(f"bad field spec: {e}")
    if timed:       # t is the last x slot; u(x, 0) gains it at t = 0
        field, datum = time_augment(field), augment_datum(datum)
    n_max = _number(cfg.get("n_max", 8), "n_max", int)
    n_res = _number(cfg.get("residual_n", min(6, n_max - 1)), "residual_n",
                    int)
    if n_res >= n_max:
        raise ConfigError(
            f"residual_n={n_res} needs u_{n_res + 1}, beyond n_max={n_max}")

    try:
        series = formal_solution(field, datum, n_max)
    except (ArityMismatch, ValueError) as e:    # arity or overflow
        raise ConfigError(f"bad jets config: {e}")
    rows = [(n, float(residual_check(series, n))) for n in range(n_res + 1)]
    _write(args, "jets.csv", _csv_text(["n", "residual"], rows))

    # the t-coefficients of u(x, t), read off the diagonal s = t when t
    # was an x slot
    u = restrict_diagonal(series) if timed else series.u
    results = {"n_max": series.n_max,
               "lossy": bool(any(uk.lossy for uk in series.u)),
               "max_residual": max(r for _, r in rows),
               "u": [jet_to_dict(uk, rows=_CoeffRows(uk)) for uk in u]}
    _write(args, "jets.json", _json_text(_report(cfg, results)) + "\n")
    return 0


def _cmd_extend(args) -> int:
    import numpy as np

    from .dynkin import almost_analytic_extend, make_kernel, measure_flatness
    from .jets import EvalBox
    from .weights import assoc
    cfg = _load_config(args)
    try:
        datum = _jet_cfg(cfg["datum"], "datum")
    except KeyError as e:
        raise ConfigError(f"extend config is missing {e}")
    seq = _seq_cfg(cfg.get("seq", {"kind": "gevrey", "s": 2.0,
                                   "K_max": 4096}))
    kspec = _section(cfg.get("kernel", {}), "kernel")
    c_star = cfg.get("C_star")
    gbox = cfg.get("growth_box")
    x = _grid1d(cfg.get("x", {"lo": -0.5, "hi": 0.5, "n": 21}), "x")
    n_max = _number(cfg.get("n_max", 12), "n_max", int)
    if n_max < 0:
        raise ConfigError(f"n_max must be nonnegative, not {n_max}")
    # the ValueErrors of these calls are input boundaries: epsilon outside
    # (0, 1), C_star <= 0, a table shorter than the series
    try:
        kernel = make_kernel(
            epsilon=_number(kspec.get("epsilon", 0.5), "kernel.epsilon"),
            n_r=_number(kspec.get("n_r", 64), "kernel.n_r", int),
            n_theta=_number(kspec.get("n_theta", 64), "kernel.n_theta", int))
        # the real-axis trace pins the default growth box to the x range
        _, sol = almost_analytic_extend(
            datum, seq, kernel, x.astype(complex), n_max=n_max,
            C_star=None if c_star is None else _number(c_star, "C_star"),
            growth_box=None if gbox is None else
            EvalBox([tuple(_numbers(gbox, "growth_box", 2))]))
    except ValueError as e:
        raise ConfigError(f"bad extend config: {e}")

    tspec = dict(_section(cfg.get("t", {}), "t"))
    t_hi = tspec.get("hi")
    # default top sample 1% inside the validity radius: the centered time
    # difference needs room on both sides
    tspec = {"lo": _number(tspec.get("lo", 1e-3), "t.lo"),
             "hi": 0.99 * sol.delta if t_hi is None
             else _number(t_hi, "t.hi"),
             "n": _number(tspec.get("n", 24), "t.n", int), "spacing": "log"}
    t = _grid1d(tspec, "t")
    # the centered time difference needs 0 < |t| < delta at every sample
    if not np.all((np.abs(t) > 0.0) & (np.abs(t) < sol.delta)):
        raise ConfigError(
            f"t grid must lie in 0 < |t| < delta = {sol.delta:.6g}, the "
            f"validity radius; it spans [{np.min(t):.6g}, {np.max(t):.6g}]")
    fit = measure_flatness(sol, x, t)

    hq = assoc(sol.seq, "h", fit.Q * np.abs(t))
    rows = [(float(tv), float(sv), float(hv),
             float(sv / (fit.A * hv)) if fit.A > 0 and hv > 0 else 0.0)
            for tv, sv, hv in zip(fit.t, fit.sup, hq)]
    _write(args, "extend.csv",
           _csv_text(["t", "sup_abs_Lu", "h_Q_t", "ratio"], rows))

    results = {"A": float(fit.A), "Q": float(fit.Q),
               "delta": float(sol.delta),
               "sup_ratio": float(fit.sup_ratio), "passed": True,
               "C_star": float(sol.C_star),
               "skipped_Q": [float(q) for q in fit.skipped_Q]}
    _write(args, "extend.json", _json_text(_report(cfg, results)) + "\n")
    return 0


def _fixture_grid(spec, seed: int):
    import numpy as np

    from . import fixtures
    from .fbi import GridFunction
    spec = _section(spec, "grid")
    if "file" in spec:
        try:
            return GridFunction.load(spec["file"])
        except (OSError, ValueError) as e:
            raise ConfigError(f"cannot read grid file {spec['file']}: {e}")
    name = spec.get("fixture")
    if name not in _FIXTURE_GRIDS:
        raise ConfigError(
            f"grid needs a file or a fixture name from {_FIXTURE_GRIDS}")
    kw = {}
    if "n" in spec:
        kw["n"] = _grid_n(spec["n"], "grid.n")
    if name in ("gaussian", "sign", "pole") and "half_width" in spec:
        kw["half_width"] = _number(spec["half_width"], "grid.half_width")
    if name == "pole" and "offset" in spec:
        kw["offset"] = _number(spec["offset"], "grid.offset")
    try:
        gf = getattr(fixtures, f"{name}_grid")(**kw)
    except ValueError as e:             # half_width <= 0
        raise ConfigError(f"bad grid spec: {e}")
    amp = _number(spec.get("noise", 0.0), "grid.noise")
    if amp > 0.0:
        rng = np.random.default_rng(seed)
        scale = amp * float(np.max(np.abs(gf.values)))
        gf.values = gf.values + scale * (
            rng.standard_normal(gf.values.shape)
            + 1j * rng.standard_normal(gf.values.shape))
    return gf


def _scan_cfg(spec) -> "object":
    import numpy as np

    from .fbi import ScanConfig
    spec = _section(spec, "scan")
    kw = {}
    if "n_directions" in spec:
        kw["n_directions"] = _number(spec["n_directions"],
                                     "scan.n_directions", int)
    if "lambdas" in spec:
        kw["lambdas"] = np.asarray(_grid1d(spec["lambdas"], "lambdas"))
    if "a_threshold" in spec:
        kw["a_threshold"] = _number(spec["a_threshold"], "scan.a_threshold")
    if "floor_rel" in spec:
        kw["floor_rel"] = _number(spec["floor_rel"], "scan.floor_rel")
    if "lambda_min" in spec and spec["lambda_min"] is not None:
        kw["lambda_min"] = _number(spec["lambda_min"], "scan.lambda_min")
    if "certified" in spec:
        kw["certified"] = bool(spec["certified"])
    try:
        return ScanConfig(**kw)
    except ValueError as e:
        raise ConfigError(f"bad scan spec: {e}")


def _scan_payload(scan, seq, a_threshold: float, floor_rel: float):
    import numpy as np

    from .weights import fbi_envelope
    env = np.maximum(
        fbi_envelope(seq, a_threshold, scan.lambdas, certified=False),
        floor_rel)
    rows = []
    failed = set(scan.failed_indices)
    for j in range(scan.directions.shape[0]):
        om = scan.directions[j] if scan.directions.ndim == 2 \
            else [scan.directions[j]]
        for li, lam in enumerate(scan.lambdas):
            rows.append((j, *[float(c) for c in om], float(lam),
                         float(scan.samples[j, li]), float(env[li]),
                         j not in failed))
    dim = scan.directions.shape[1] if scan.directions.ndim == 2 else 1
    header = (["direction_index"] + [f"omega_{d}" for d in range(dim)]
              + ["lambda", "abs_F", "envelope", "passed"])
    per_dir = [{"index": j, "A_fit": float(r.A_fit), "passed": bool(r.passed)}
               for j, r in enumerate(scan.reports)]
    summary = {"normalization": float(scan.normalization),
               "lambda_min": float(scan.lambda_min),
               "failed_indices": [int(j) for j in scan.failed_indices],
               "singular_indices": [int(j) for j in scan.singular_indices],
               "per_direction": per_dir}
    return header, rows, summary


def _cmd_fbi(args) -> int:
    from .fbi import wavefront_scan
    cfg = _load_config(args)
    gf = _fixture_grid(cfg.get("grid", {}), args.seed)
    if gf.dim > 2:
        raise ConfigError(f"scans cover 1-D and 2-D grids; this grid is "
                          f"{gf.dim}-D")
    seq = _seq_cfg(cfg.get("seq", {"kind": "gevrey", "s": 2.0, "K_max": 64}))
    x0 = _numbers(cfg.get("x0", [0.0] * gf.dim), "x0", gf.dim)
    scfg = _scan_cfg(cfg.get("scan", {}))
    scan = wavefront_scan(gf, x0, seq, scfg)

    header, rows, summary = _scan_payload(scan, seq, scfg.a_threshold,
                                          scfg.floor_rel)
    _write(args, "fbi.csv", _csv_text(header, rows))
    _write(args, "fbi.json", _json_text(_report(cfg, summary)) + "\n")
    return 0


_WF_FIXTURES = ("conormal", "holomorphic")


def _cmd_wf_experiment(args) -> int:
    from .fbi import GRID_N
    from .fixtures import WAVE_SOLUTIONS
    from .pde import RhsModel, wf_inclusion_experiment
    if args.fixture is not None:
        cfg = {"solution": {"fixture": args.fixture}}
    else:
        cfg = _load_config(args)
    sol_spec = _section(cfg.get("solution", {}), "solution")
    name = sol_spec.get("fixture", "conormal")
    if name not in _WF_FIXTURES:
        raise ConfigError(
            f"unknown solution fixture {name!r}; have {list(_WF_FIXTURES)}")
    solution = WAVE_SOLUTIONS[name]
    rhs = _jet_cfg(cfg["model"], "model") if "model" in cfg \
        else solution.rhs
    trust = _number(cfg.get("trust_radius", float("inf")), "trust_radius")
    seq = _seq_cfg(cfg.get("seq", {"kind": "gevrey", "s": 2.0, "K_max": 64}))
    base = _numbers(cfg.get("base", [0.0, 0.0]), "base", 2)
    radius = _number(cfg.get("radius", 1.0), "radius")
    n = _grid_n(cfg.get("n", GRID_N), "n")
    scfg = _scan_cfg(cfg.get("scan", {}))
    # its ArityMismatch and ValueErrors are input boundaries: a model not
    # of one spatial variable, the radius
    try:
        rep = wf_inclusion_experiment(RhsModel(rhs, trust_radius=trust),
                                      solution.u, seq, base=base,
                                      radius=radius, n=n, config=scfg)
    except (ArityMismatch, ValueError) as e:
        raise ConfigError(f"bad wf-experiment config: {e}")

    header, rows, summary = _scan_payload(rep.scan, seq, scfg.a_threshold,
                                          scfg.floor_rel)
    ok = bool(rep.included.all())
    results = {"pass": ok,
               "a0": [[float(v.real), float(v.imag)] for v in rep.a0],
               "step": float(rep.step),
               "covectors": [[float(c) for c in row]
                             for row in rep.covectors],
               "char_distances": [float(d) for d in rep.distances],
               "included": [bool(v) for v in rep.included],
               "scan": summary}
    _write(args, "wf-experiment.csv", _csv_text(header, rows))
    _write(args, "wf-experiment.json",
           _json_text(_report(cfg, results)) + "\n")
    return 0 if ok else 1


def _cmd_acceptance(args) -> int:
    from . import acceptance
    if args.all:
        numbers = sorted(acceptance.CRITERIA)
    elif args.config is not None:
        cfg = _load_config(args)
        numbers = _integers(cfg.get("criteria", []), "criteria")
        if not numbers:
            raise ConfigError("acceptance config selects no criteria")
    else:
        raise ConfigError("acceptance needs --all or --config")
    try:
        results = acceptance.run_all(numbers)
    except ValueError as e:
        raise ConfigError(str(e))
    print(acceptance.format_results(results))

    payload = {"criteria": numbers,
               "results": [{"number": r.number, "name": r.name,
                            "passed": r.passed, "detail": r.detail}
                           for r in results]}
    _write(args, "acceptance.json",
           _json_text(_report({"criteria": numbers}, payload)) + "\n")
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--threads", type=int,
                        help="thread cap for BLAS and the grid pool, applied "
                             "before numpy loads")
    common.add_argument("--seed", type=int, default=0,
                        help="RNG seed for fixture noise")

    p = argparse.ArgumentParser(
        prog="carleman",
        description="numerical toolkit for Denjoy-Carleman microlocal "
                    "regularity experiments")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("weights", parents=[common],
                        help="associated functions and absorption fits")
    sp.set_defaults(handler=_cmd_weights)
    sp = sub.add_parser("jets", parents=[common],
                        help="formal solution and residual table")
    sp.set_defaults(handler=_cmd_jets)
    sp = sub.add_parser("extend", parents=[common],
                        help="almost analytic extension flatness")
    sp.set_defaults(handler=_cmd_extend)
    sp = sub.add_parser("fbi", parents=[common],
                        help="wave front scan of a grid function")
    sp.set_defaults(handler=_cmd_fbi)
    sp = sub.add_parser("wf-experiment", parents=[common],
                        help="wave front vs characteristic set experiment")
    sp.add_argument("--fixture", choices=_WF_FIXTURES,
                    help="run a named solution fixture without a config")
    sp.set_defaults(handler=_cmd_wf_experiment)
    sp = sub.add_parser("acceptance", parents=[common],
                        help="run the shipped acceptance criteria")
    sp.add_argument("--all", action="store_true", help="run all ten")
    sp.set_defaults(handler=_cmd_acceptance)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)
    try:
        return args.handler(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (CarlemanError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
