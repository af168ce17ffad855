"""Per-level decay classification, band peaks and the whole-array cutoff:
the oracles for carleman.fbi.decay_classify, the singular directions of
carleman.fbi.wavefront_scan and carleman.fixtures.smooth_step.

decay_classify is the toolkit's first classification, kept as a plain
function: it takes the minimum over the table of A^{k+1} M_k lam^{-k} once
per grid level A, from the smallest up, and stops at the first A whose
minimum covers the tail.  It certifies nothing: where the minimizer sits on
K_max with the terms still decreasing, that minimum only bounds the
envelope from above.  certified tells those places apart from the terms.
band_peaks reads each band of failed directions one direction at a time,
against that same minimum at the threshold level.  smooth_step is the
toolkit's first cutoff: both exponentials over the whole array, clamped
away from zero, then both ends overwritten.
"""

from __future__ import annotations

import numpy as np

from carleman.fbi import _A_GRID, DecayReport, _tail
from carleman.weights import WeightSequence


def _log_terms(seq: WeightSequence, A: float, lams) -> np.ndarray:
    """log A^{k+1} M_k lam^{-k} for k = 0..K_max, one row per lambda."""
    ks = np.arange(seq.K_max + 1)
    log_lam = np.log(np.atleast_1d(np.asarray(lams, dtype=float)))
    return (ks + 1) * np.log(A) + seq.log_M(ks) - ks * log_lam[:, None]


def partial_envelope(seq: WeightSequence, A: float, lams) -> np.ndarray:
    """The minimum over k = 0..K_max of A^{k+1} M_k lam^{-k}, per lambda."""
    with np.errstate(under="ignore"):
        return np.exp(np.min(_log_terms(seq, A, lams), axis=1))


def certified(seq: WeightSequence, A: float, lam: float) -> bool:
    """False when the least minimizer over the table is K_max with the
    terms still decreasing there, so the envelope may lie below the
    table's minimum."""
    t = _log_terms(seq, A, lam)[0]
    K = seq.K_max
    return not (np.argmin(t) == K and t[K] < t[K - 1])


def decay_classify(lambdas, samples, seq: WeightSequence,
                   lambda_min: float = 4.0, floor_rel: float = 1e-11,
                   scale: float | None = None) -> DecayReport:
    """Smallest grid A with |F(lambda)| <= max(min over the table,
    floor) on the tail lambda >= lambda_min, one minimum per A tried."""
    lams = np.asarray(lambdas, dtype=float)
    mags = np.abs(np.asarray(samples))
    if lams.shape != mags.shape or lams.ndim != 1 or lams.size == 0:
        raise ValueError("need matching one-dimensional lambda and sample arrays")
    if scale is None:
        scale = float(np.max(mags)) if np.max(mags) > 0 else 1.0
    floor = floor_rel * scale

    tail = _tail(lams, lambda_min)
    if int(np.sum(tail)) == 0:
        raise ValueError(f"no samples at or above lambda_min={lambda_min}")
    lt, mt = lams[tail], mags[tail]

    for A in _A_GRID:
        env = partial_envelope(seq, float(A), lt)
        if np.all(mt <= np.maximum(env, floor)):
            return DecayReport(True, float(A))
    return DecayReport(False, np.inf)


def band_margins(samples, failed, seq: WeightSequence, A: float, lambdas,
                 lambda_min: float) -> list:
    """Per circular band of failed directions, in the order of its first
    index, {direction: max over the tail lambda >= lambda_min of log|F| -
    log partial_envelope(seq, A, lambda)}; samples holds one row of |F|
    per direction."""
    lams = np.asarray(lambdas, dtype=float)
    tail = _tail(lams, lambda_min)
    env = partial_envelope(seq, A, lams[tail])
    n, fail = len(samples), set(failed)
    # a band starts where its left neighbor passes; with none passing, the
    # whole circle is one band from 0
    starts = [j for j in sorted(fail) if (j - 1) % n not in fail] \
        or sorted(fail)[:1]
    bands = []
    for j in starts:
        band = [j]
        while (band[-1] + 1) % n in fail and (band[-1] + 1) % n != j:
            band.append((band[-1] + 1) % n)
        with np.errstate(divide="ignore"):
            bands.append({k: float(np.max(np.log(samples[k][tail])
                                          - np.log(env))) for k in band})
    return bands


def band_peaks(samples, failed, seq: WeightSequence, A: float, lambdas,
               lambda_min: float) -> list:
    """The direction of largest margin in each band, sorted."""
    return sorted(max(b, key=b.get) for b in band_margins(
        samples, failed, seq, A, lambdas, lambda_min))


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
