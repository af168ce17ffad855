"""Eager weight tables, separate regularity passes and masked moment sums:
the oracles for carleman.weights.make_sequence, WeightSequence.m,
WeightSequence.c_bound, check_regularity and
carleman.dynkin.ApproxSolution.moments.

These are the toolkit's first versions, kept as plain functions.  The
log-factorial table is a cumsum joined to its leading zero, m is built
with every table, each of conditions b) and c) and c_bound takes its own
pass over the increments, d) divides the whole log table by its indices,
and every moment sum copies the nodes that keep its index.
"""

from __future__ import annotations

import numpy as np

_TOL = 1e-12


def lfact(K_max: int) -> np.ndarray:
    """log(k!) for k = 0..K_max."""
    karr = np.arange(1, K_max + 1, dtype=float)
    return np.concatenate([[0.0], np.cumsum(np.log(karr))])


def eager_m(kind: str, K_max: int, s=None, values=None) -> np.ndarray:
    """m_k as the toolkit first built it with every table."""
    with np.errstate(over="ignore"):
        if kind == "gevrey":
            karr = np.arange(1, K_max + 1, dtype=float)
            return np.concatenate([[1.0], np.cumprod(karr ** (s - 1.0))])
        vals = np.asarray(values, dtype=float)[:K_max + 1]
        return np.exp(np.log(vals) - lfact(K_max))


def c_bound(log_m: np.ndarray) -> float:
    """sup over the table of (m_{k+1}/m_k)^(1/k), k >= 1."""
    lr = np.diff(log_m)
    ks = np.arange(1, log_m.size - 1)
    with np.errstate(over="ignore"):
        return float(np.exp(np.max(lr[1:] / ks)))


def check_regularity(log_m: np.ndarray) -> tuple:
    """(log_convex, failures) of conditions a)-d), each from its own pass."""
    failures = []
    K = log_m.size - 1
    for idx in (0, 1):
        if abs(log_m[idx]) > _TOL:
            failures.append(("a", idx))
            break

    lr = np.diff(log_m)
    d2 = np.diff(lr)
    log_convex = bool(np.all(d2 >= -_TOL))
    bad = np.nonzero(d2 < -_TOL)[0]
    if bad.size:
        failures.append(("b", int(bad[0]) + 1))

    ks = np.arange(1, K)
    bad = np.nonzero(lr[1:] / ks > np.log(64.0))[0]
    if bad.size:
        failures.append(("c", int(bad[0]) + 1))

    roots = log_m[1:] / np.arange(1, K + 1)
    if roots[-1] < np.log(4.0):
        failures.append(("d", K))
    else:
        lo = max(1, (3 * K) // 4)
        bad = np.nonzero(np.diff(roots[lo - 1:]) < -_TOL)[0]
        if bad.size:
            failures.append(("d", lo + int(bad[0])))
    return log_convex, failures


def moments(sol, t: float):
    """G_k(t) = sum over the nodes with K_i >= k of W_i z_i^k, k = 0..n_max,
    each from the copied nodes that keep k; None at t = 0."""
    t = float(t)
    if t == 0.0:
        return None
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
    return G
