"""Per-call disk-kernel evaluation: the oracle for carleman.dynkin's
ApproxSolution.evaluate, apply_L_numeric and measure_flatness.

The toolkit's first evaluation, kept as plain functions.  Every call of
evaluate rebuilds the moment sums G_k(t) and evaluates every u_k at x, so
apply_L_numeric pays four full evaluations per time and measure_flatness
one apply_L_numeric per time, with nothing shared between calls.
"""

from __future__ import annotations

import numpy as np

from carleman.dynkin import ApproxSolution, flatness_fit
from carleman.errors import ArityMismatch
from carleman.jets import jet_eval


def evaluate(sol: ApproxSolution, x, t: float):
    """u(x, t) = sum_i W_i sum_{k <= K_i} u_k(x) z_i^k, factored through
    the moment sums G_k = sum_{K_i >= k} W_i z_i^k."""
    t = float(t)
    if abs(t) > sol.delta * (1.0 + 1e-12):
        raise ValueError(
            f"|t|={abs(t):.6g} beyond the validity radius delta={sol.delta:.6g}")
    u = sol.series.u
    if t == 0.0:
        return jet_eval(u[0], x=x)
    z, K = sol.truncation_indices(t)
    W = sol.kernel.weights
    G = np.zeros(sol.series.n_max + 1, dtype=complex)
    zp = np.ones_like(z)
    for k in range(sol.series.n_max + 1):
        keep = K >= k
        if not np.any(keep):
            break
        G[k] = np.sum(W[keep] * zp[keep])
        zp = zp * z
    out = None
    for k in range(sol.series.n_max + 1):
        if G[k] == 0.0:
            continue
        term = jet_eval(u[k], x=x) * G[k]
        out = term if out is None else out + term
    if out is None:
        out = jet_eval(u[0], x=x) * 0.0
    return out


def apply_L_numeric(sol: ApproxSolution, x, t: float):
    """Central-difference application of the field d/dt + a(x) d/dx, in
    one x variable, to the averaged solution.

    The x step is 1e-4; the time step is 1e-4 (1 + |t|), capped at
    0.45 (delta - |t|) so both stencil points stay inside the validity
    region.
    """
    fld = sol.series.field
    if fld.n_x != 1 or fld.n_zeta:
        raise ArityMismatch(
            "numeric field application needs one x variable and no zeta")
    x = np.asarray(x, dtype=float)
    cap = 0.45 * (sol.delta - abs(t))
    if cap <= 0.0:
        raise ValueError("t at or beyond the validity radius, no room to difference")
    ht = min(1e-4 * (1.0 + abs(t)), cap)
    dx = 1e-4

    def ev(xv, tv):
        return np.asarray(evaluate(sol, xv, tv))

    dudt = (ev(x, t + ht) - ev(x, t - ht)) / (2.0 * ht)
    dudx = (ev(x + dx, t) - ev(x - dx, t)) / (2.0 * dx)
    return dudt + jet_eval(fld.a[0], x=x) * dudx


def measure_flatness(sol: ApproxSolution, x_values, t_values):
    """Fit the decay of sup_x |L u(x, t)| against h(Q|t|)."""
    sups = [float(np.max(np.abs(apply_L_numeric(sol, x_values, float(tv)))))
            for tv in t_values]
    return flatness_fit(t_values, sups, sol.seq)
