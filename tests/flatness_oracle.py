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


def apply_L_numeric(sol: ApproxSolution, x, t: float, dx: float = 1e-4,
                    dt: float | None = None):
    """Central-difference application of the field to the averaged solution.

    The time step is capped at 0.45 (delta - |t|) so both stencil points
    stay inside the validity region.
    """
    fld = sol.series.field
    if fld.n_zeta:
        raise ArityMismatch("numeric field application needs zeta-free jets")
    if isinstance(x, (list, tuple)):
        xs = [np.asarray(xi, dtype=float) for xi in x]
    else:
        xs = [np.asarray(x, dtype=float)]
    if len(xs) != fld.n_x:
        raise ArityMismatch(f"need {fld.n_x} x components, got {len(xs)}")
    cap = 0.45 * (sol.delta - abs(t))
    if cap <= 0.0:
        raise ValueError("t at or beyond the validity radius, no room to difference")
    ht = min(dt, cap) if dt is not None else min(1e-4 * (1.0 + abs(t)), cap)

    def ev(xlist, tv):
        return np.asarray(evaluate(sol, xlist if fld.n_x > 1 else xlist[0], tv))

    out = (ev(xs, t + ht) - ev(xs, t - ht)) / (2.0 * ht)
    for i, ai in enumerate(fld.a):
        xp = [xi + (dx if j == i else 0.0) for j, xi in enumerate(xs)]
        xm = [xi - (dx if j == i else 0.0) for j, xi in enumerate(xs)]
        dudx = (ev(xp, t) - ev(xm, t)) / (2.0 * dx)
        out = out + jet_eval(ai, x=xs if fld.n_x > 1 else xs[0]) * dudx
    return out


def measure_flatness(sol: ApproxSolution, x_values, t_values,
                     factor: float = 1.0, dx: float = 1e-4):
    """Fit the decay of sup_x |L u(x, t)| (times factor) against h(Q|t|)."""
    sups = []
    for tv in t_values:
        lu = apply_L_numeric(sol, x_values, float(tv), dx=dx)
        sups.append(factor * float(np.max(np.abs(lu))))
    return flatness_fit(t_values, sups, sol.seq)
