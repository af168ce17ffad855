"""The three benchmark workloads: seeded inputs, operations and oracles.

Each workload is a closed loop with one client.  A pass runs the
workload's operations in order, in one process; an operation is one
command invocation (or, for ``wavefront``, the grid build and write that
feeds the ``fbi`` command).  An operation fails on a non-zero exit, an
exception, or a payload that breaks its oracle.

Why each workload exists, and the range every seeded input is drawn from:

``wavefront``
    The FBI direction scan, the 2752^2 grid build with ``radial_cutoff``
    and the 60 MB grid-file write and read dominate.  ``wf-experiment``
    derives its grid from ``n`` while ``fbi`` scans an explicit file, so a
    change that helps one use of the scan and costs the other shows.
    Seeded input: the base point ``(b, b)`` on the diagonal,
    ``b`` uniform in [-0.25, 0.25].
``extension``
    Large weight tables (K_max = 2^21), the certified argmin,
    ``ApproxSolution.evaluate`` and one-variable sparse jets do all the
    work; there is no FBI.  Seeded input: the datum scale ``c`` of
    ``sum_j (-c)^j x^(2j)``, uniform in [0.5, 1].  The range keeps the
    default t floor of 1e-3 inside the validity radius; c = 2 trips a
    known defect (see README.md) and is not drawn.
``jets``
    Dense five-variable jets, ``(x1, x2, u, u_x1, u_x2)``, put almost all
    the time in ``jet_mul``, and the payload (about 16k coefficient rows)
    makes ``cli`` serialization visible.  ``wavefront`` and ``extension``
    use only small sparse jets.  Seeded inputs: the real and imaginary
    parts of every field coefficient, uniform in [-0.25, 0.25], and of
    every datum coefficient, uniform in [-0.5, 0.5].  At these scales the
    coefficients stay below about 100, so the absolute residual bound of
    1e-12 holds with a margin of about 30.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import random
from dataclasses import dataclass

# ---------------------------------------------------------------------------
# workload shape


@dataclass(frozen=True)
class Op:
    """One operation of a pass.

    ``argv`` is a ``carleman`` command line, or None for the grid write;
    ``check`` reads the payload and returns None or the reason it fails
    (None for a jets command, whose oracle is built from its input).
    """
    name: str
    argv: tuple | None
    check: object


@dataclass(frozen=True)
class Workload:
    name: str
    imports: tuple       # every module the commands load, for setup_s
    generate: object     # random.Random -> {file name: JSON object}
    ops: tuple


def generate_inputs(workload: Workload, seed: int, directory: str) -> None:
    """Write the workload's config files for ``seed`` into ``directory``;
    the same seed always writes the same bytes."""
    files = workload.generate(random.Random(seed))
    os.makedirs(directory, exist_ok=True)
    for name, obj in files.items():
        with open(os.path.join(directory, name), "w") as fh:
            json.dump(obj, fh, sort_keys=True)


def _results(out_dir: str, name: str) -> dict:
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)["results"]


# ---------------------------------------------------------------------------
# wavefront

GRID_OP, GRID_FILE = "grid-write", "holomorphic.bin"
SINGULAR = [24, 56]      # the conormal fixture's two singular directions


def _gen_wavefront(rng: random.Random) -> dict:
    b = rng.uniform(-0.25, 0.25)
    return {
        "wf.json": {"solution": {"fixture": "conormal"}, "base": [b, b]},
        "fbi.json": {"grid": {"file": f"{OUT}/{GRID_OP}/{GRID_FILE}"},
                     "x0": [0.0, 0.0]},
    }


def check_wf(out_dir: str):
    r = _results(out_dir, "wf-experiment.json")
    if r["scan"]["singular_indices"] != SINGULAR:
        return f"singular indices {r['scan']['singular_indices']} != {SINGULAR}"
    step = 2.0 * math.pi / 64
    if not math.isclose(r["step"], step, rel_tol=1e-12):
        return f"angular step {r['step']} != 2 pi / 64"
    far = [d for d in r["char_distances"] if not d <= step]
    if far or len(r["char_distances"]) != len(SINGULAR):
        return f"char distances {r['char_distances']} exceed the step {step}"
    if r["pass"] is not True:
        return "experiment reports pass = false"
    return None


def check_grid_file(out_dir: str):
    n = 2752
    want = 4 + 2 * 4 + 2 * 16 + 8 * n * n
    got = os.path.getsize(os.path.join(out_dir, GRID_FILE))
    return None if got == want else f"grid file has {got} bytes, want {want}"


def check_fbi(out_dir: str):
    r = _results(out_dir, "fbi.json")
    if r["failed_indices"]:
        return f"file scan failed directions {r['failed_indices']}"
    if len(r["per_direction"]) != 64:
        return f"file scan has {len(r['per_direction'])} directions, want 64"
    return None


def write_holomorphic_grid() -> int:
    """The grid operation: build the holomorphic fixture at its default n
    and write it where the ``fbi`` config reads it."""
    from carleman import fixtures
    os.makedirs(os.path.join(OUT, GRID_OP), exist_ok=True)
    fixtures.holomorphic_grid().save(os.path.join(OUT, GRID_OP, GRID_FILE))
    return 0


# ---------------------------------------------------------------------------
# extension

EXTEND_D = 24
EXTEND_SEQS = ((1.5, 2 ** 21), (2.0, 4096))
WEIGHTS_S, WEIGHTS_K = 1.5, 2 ** 21
WEIGHTS_R = {"lo": 2e-3, "hi": 4.0, "n": 200, "spacing": "log"}
H_PROBES = (0, 57, 113, 170, 199)     # rows of weights.csv checked directly


def _gen_extension(rng: random.Random) -> dict:
    c = rng.uniform(0.5, 1.0)
    datum = {"n_x": 1, "n_zeta": 0, "D": EXTEND_D,
             "coeffs": [[[2 * j], (-c) ** j, 0.0]
                        for j in range(EXTEND_D // 2 + 1)]}
    files = {f"extend-{s}.json": {"datum": datum, "n_max": 12,
                                  "seq": {"kind": "gevrey", "s": s,
                                          "K_max": k}}
             for s, k in EXTEND_SEQS}
    files["weights.json"] = {
        "seq": {"kind": "gevrey", "s": WEIGHTS_S, "K_max": WEIGHTS_K},
        "r": WEIGHTS_R, "absorption": {"n": [1, 2, 3]}}
    return files


def check_extend(out_dir: str):
    r = _results(out_dir, "extend.json")
    if not r["sup_ratio"] <= 1.0:
        return f"sup_ratio {r['sup_ratio']} > 1"
    if not r["Q"] <= 256.0:
        return f"Q {r['Q']} > 256"
    return None if r["passed"] is True else "extend reports passed = false"


@functools.lru_cache(maxsize=None)
def direct_h(s: float, k_max: int, r: float) -> float:
    """h(r) = min_k m_k r^k over the whole Gevrey table, m_k = (k!)^(s-1),
    by a plain minimum over the log terms (no argmin search).  Cached: every
    pass of a run probes the same r."""
    import numpy as np
    k = np.arange(k_max + 1, dtype=float)
    lfact = np.concatenate([[0.0], np.cumsum(np.log(k[1:]))])
    return float(np.exp(np.min((s - 1.0) * lfact + k * np.log(r))))


def check_weights(out_dir: str):
    r = _results(out_dir, "weights.json")
    fits = r.get("absorption", [])
    if [f["n"] for f in fits] != [1, 2, 3]:
        return f"absorption fits for n = {[f['n'] for f in fits]}"
    for f in fits:
        if not (f["passed"] is True and f["C"] <= 2.0 ** 10):
            return f"absorption n={f['n']}: C = {f['C']} > 2^10"
    with open(os.path.join(out_dir, "weights.csv")) as fh:
        rows = fh.read().splitlines()[1:]
    if len(rows) != WEIGHTS_R["n"]:
        return f"weights.csv has {len(rows)} rows"
    for i in H_PROBES:
        rv, hv = (float(v) for v in rows[i].split(",")[:2])
        want = direct_h(WEIGHTS_S, WEIGHTS_K, rv)
        if not math.isclose(hv, want, rel_tol=1e-10):
            return f"h({rv}) = {hv}, direct minimum gives {want}"
    return None


# ---------------------------------------------------------------------------
# jets

JET_SHAPES = {        # name: (n_x, n_zeta, D, n_max, residual_n)
    "jets-5": (2, 3, 10, 6, 5),
    "jets-3": (1, 2, 12, 8, 7),
}
FIELD_SCALE, DATUM_SCALE = 0.25, 0.5
FIELD_DEGREE, DATUM_DEGREE = 2, 6


def _monomials(nvars: int, degree: int) -> list:
    return [m for m in itertools.product(range(degree + 1), repeat=nvars)
            if sum(m) <= degree]


def _random_jet(rng, n_x, n_zeta, D, degree, scale) -> dict:
    return {"n_x": n_x, "n_zeta": n_zeta, "D": D,
            "coeffs": [[list(m), rng.uniform(-scale, scale),
                        rng.uniform(-scale, scale)]
                       for m in _monomials(n_x + n_zeta, degree)]}


def _gen_jets(rng: random.Random) -> dict:
    files = {}
    for name, (n_x, n_zeta, D, n_max, n_res) in JET_SHAPES.items():
        coeff = [_random_jet(rng, n_x, n_zeta, D, FIELD_DEGREE, FIELD_SCALE)
                 for _ in range(n_x + n_zeta)]
        files[f"{name}.json"] = {
            "field": {"a": coeff[:n_x], "b": coeff[n_x:]},
            "datum": _random_jet(rng, n_x, n_zeta, D, DATUM_DEGREE,
                                 DATUM_SCALE),
            "n_max": n_max, "residual_n": n_res}
    return files


def _dense(jet: dict):
    import numpy as np
    nv, D = jet["n_x"] + jet["n_zeta"], jet["D"]
    out = np.zeros((D + 1,) * nv, dtype=complex)
    for idx, re, im in jet["coeffs"]:
        out[tuple(idx)] += complex(re, im)
    return out


def reference_series(cfg: dict) -> list:
    """Independent dense recursion for the formal solution,
    u_k = -(1/k) sum_s c_s du_{k-1}/dy_s with c_s the field coefficient of
    slot s, every product truncated at total degree D.

    Dense arrays indexed by exponent replace the program's sparse dicts;
    a coefficient jet multiplies by shifting once per monomial."""
    import numpy as np
    fld, datum = cfg["field"], cfg["datum"]
    coeffs = fld["a"] + fld["b"]
    nv, D = datum["n_x"] + datum["n_zeta"], datum["D"]
    deg = sum(np.indices((D + 1,) * nv))
    keep = deg <= D

    def times(jet, p):
        out = np.zeros_like(p)
        for idx, re, im in jet["coeffs"]:
            dst = tuple(slice(e, None) for e in idx)
            src = tuple(slice(0, D + 1 - e) for e in idx)
            out[dst] += complex(re, im) * p[src]
        return out * keep

    def diff(p, s):
        shape = [1] * nv
        shape[s] = D
        head = (slice(None),) * s
        out = np.zeros_like(p)
        out[head + (slice(0, D),)] = (p[head + (slice(1, None),)]
                                      * np.arange(1, D + 1).reshape(shape))
        return out

    u = [_dense(datum)]
    for k in range(1, int(cfg["n_max"]) + 1):
        acc = sum(times(c, diff(u[-1], s)) for s, c in enumerate(coeffs))
        u.append(-acc / k)
    return u


def make_check_jets(name: str, inputs_dir: str):
    """Oracle for one jets command, with its reference computed once."""
    import numpy as np
    with open(os.path.join(inputs_dir, f"{name}.json")) as fh:
        ref = reference_series(json.load(fh))

    def check(out_dir: str):
        r = _results(out_dir, "jets.json")
        if not r["max_residual"] <= 1e-12:
            return f"max_residual {r['max_residual']} > 1e-12"
        if len(r["u"]) != len(ref):
            return f"{len(r['u'])} series terms, want {len(ref)}"
        for k, (got, want) in enumerate(zip(r["u"], ref)):
            dev = float(np.max(np.abs(_dense(got) - want)))
            if not dev <= 1e-12 * float(np.max(np.abs(want))):
                return f"u_{k} deviates from the reference by {dev:.3g}"
        return None
    return check


# ---------------------------------------------------------------------------
# operations and their verification

INPUTS = "inputs"        # config directory, relative to the run directory
OUT = "out"              # payloads of the pass in progress
PASSES = "passes"        # passes/<k>/<op>: the payloads of pass k


def _cli(cmd: str, config: str, op: str) -> tuple:
    return (cmd, "--config", f"{INPUTS}/{config}", "--out", f"{OUT}/{op}")


def _command(argv: tuple):
    def run() -> int:
        from carleman import cli     # looked up per call, so traces see it
        return cli.main(list(argv))
    return run


def build_ops(workload: Workload) -> list:
    """(name, run() -> exit code) per operation, for a process whose
    working directory is the run directory holding ``INPUTS``."""
    return [(op.name, write_holomorphic_grid if op.argv is None
             else _command(op.argv)) for op in workload.ops]


def payload_bytes(workload: Workload, rundir: str, k: int) -> int:
    """Bytes of the command payloads of pass k (the grid file excluded)."""
    return sum(os.path.getsize(os.path.join(d, f))
               for op in workload.ops if op.argv
               for d, _, files in os.walk(os.path.join(rundir, PASSES, str(k),
                                                       op.name))
               for f in files)


def verify(workload: Workload, rundir: str, errors: list) -> list:
    """[pass, operation, reason] for every failed operation.  ``errors[k]``
    maps each operation of pass k to why it failed to run, or None; an
    operation that ran is failed when its payload in ``passes/<k>`` breaks
    its oracle."""
    checks = [(op.name, op.check or make_check_jets(
        op.name, os.path.join(rundir, INPUTS))) for op in workload.ops]
    failures = []
    for k, errs in enumerate(errors):
        for name, check in checks:
            why = errs[name]
            if why is None:
                try:
                    why = check(os.path.join(rundir, PASSES, str(k), name))
                except (OSError, ValueError, LookupError, TypeError) as e:
                    why = f"unreadable payload: {type(e).__name__}: {e}"
            if why is not None:
                failures.append([k, name, why])
    return failures


WORKLOADS = {
    "wavefront": Workload(
        "wavefront",
        ("carleman.cli", "carleman.pde", "carleman.fixtures", "scipy"),
        _gen_wavefront,
        (Op("wf-experiment", _cli("wf-experiment", "wf.json", "wf-experiment"),
            check_wf),
         Op(GRID_OP, None, check_grid_file),
         Op("fbi", _cli("fbi", "fbi.json", "fbi"), check_fbi))),
    "extension": Workload(
        "extension",
        ("carleman.cli", "carleman.dynkin", "scipy"),
        _gen_extension,
        tuple(Op(f"extend-{s}", _cli("extend", f"extend-{s}.json",
                                     f"extend-{s}"), check_extend)
              for s, _ in EXTEND_SEQS)
        + (Op("weights", _cli("weights", "weights.json", "weights"),
              check_weights),)),
    "jets": Workload(
        "jets",
        ("carleman.cli", "carleman.jets", "scipy"),
        _gen_jets,
        tuple(Op(name, _cli("jets", f"{name}.json", name), None)
              for name in JET_SHAPES)),
}
