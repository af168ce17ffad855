"""Per-level decay classification and the whole-array cutoff: the oracles
for carleman.fbi.decay_classify and carleman.fixtures.smooth_step.

decay_classify is the toolkit's first classification, kept as a plain
function: it evaluates the envelope once per grid level A, from the
smallest up, and stops at the first A whose envelope covers the tail.
smooth_step is the toolkit's first cutoff: both exponentials over the whole
array, clamped away from zero, then both ends overwritten.
"""

from __future__ import annotations

import numpy as np

from carleman.fbi import _A_GRID, DecayReport, _tail
from carleman.weights import WeightSequence, fbi_envelope


def decay_classify(lambdas, samples, seq: WeightSequence,
                   lambda_min: float = 4.0, floor_rel: float = 1e-11,
                   scale: float | None = None,
                   certified: bool = False) -> DecayReport:
    """Smallest grid A with |F(lambda)| <= max(E(A, lambda), floor) on the
    tail lambda >= lambda_min, one envelope call per A tried."""
    lams = np.asarray(lambdas, dtype=float)
    mags = np.abs(np.asarray(samples))
    if lams.shape != mags.shape or lams.ndim != 1 or lams.size == 0:
        raise ValueError("need matching one-dimensional lambda and sample arrays")
    if scale is None:
        scale = float(np.max(mags)) if np.max(mags) > 0 else 1.0
    floor = floor_rel * scale

    tail = _tail(lams, lambda_min)
    n_tail = int(np.sum(tail))
    if n_tail == 0:
        raise ValueError(f"no samples at or above lambda_min={lambda_min}")
    lt, mt = lams[tail], mags[tail]

    for A in _A_GRID:
        env = fbi_envelope(seq, float(A), lt, certified=certified)
        if np.all(mt <= np.maximum(env, floor)):
            return DecayReport(True, float(A), lambda_min, floor, n_tail)
    return DecayReport(False, np.inf, lambda_min, floor, n_tail)


def smooth_step(s):
    """1 for s <= 1/2, 0 for s >= 1, a / (a + b) between."""
    s = np.asarray(s, dtype=float)
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        a = np.where(s < 1.0, np.exp(-1.0 / np.maximum(1.0 - s, 1e-300)), 0.0)
        b = np.where(s > 0.5, np.exp(-1.0 / np.maximum(s - 0.5, 1e-300)), 0.0)
    out = a / (a + b + (a + b == 0.0))
    out = np.where(s <= 0.5, 1.0, out)
    out = np.where(s >= 1.0, 0.0, out)
    return out
