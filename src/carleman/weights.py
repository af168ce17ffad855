"""Regular weight sequences and their associated functions.

A weight sequence M_k with m_k = M_k/k! drives every certification in the
toolkit: the associated functions

    h(r)  = inf_k m_k r^k,      h1(r) = inf_{k>=1} m_k r^{k-1},

the least minimizing index N(r) of h1, and the FBI decay envelope
E(A, lam) = inf_k A^{k+1} M_k lam^{-k}.  All infima are computed in log
space over a materialized table k = 0..K_max and are *certified*: when the
minimizer lands on the table boundary with the terms still decreasing, the
operation raises GuardExceeded instead of returning a wrong value.

Tables can be large (10^6 entries for Gevrey exponents close to 1).  All
infima go through one certified argmin, _argmin: a search over the
nondecreasing increments of a log-convex table, a direct scan of any other
table.  It also reports when the minimizer sits on the table boundary with
the terms still decreasing, and each caller sets its policy for that case:
h, h1, N and fbi_envelope raise, envelope_certified reports it, and
bigN_capped caps (and raises on non-log-convex tables).

A table keeps one array of its length, log_m, and no raw M_k; readers
take the increments they need from it.  It is built and checked a block
of _BLOCK indices at a time: log k and its running sum, log(k!), give
each block of log_m, and one walk over the increments records where
condition b) first fails, the maximum of the ratio roots behind c_bound
and condition c), and, if they are exactly sorted, every _STRIDE-th one
as the sample the argmin searches first.  m and log_M (with its sample)
are built on first use only, log_M from the same blocks of log(k!).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import FitFailed, GuardExceeded

# Largest non-log-convex table we are willing to brute-force scan.
_BRUTE_MAX = 8192
# argmin terms held at once by that scan: 8 MB
_BRUTE_TERMS = 1 << 20
_TOL = 1e-12                  # slack of the log-table comparisons
# Indices per block when a table is built and checked.  A block's scratch
# arrays take 128 KiB each, so a few of them sit in a core's L2 cache
# together and a 2^21-entry table keeps no whole-length temporary.  On
# 2 vCPUs, building and checking that table took 24 ms at this size,
# 30 ms at 2^12 (per-block numpy calls) and 28 ms at 2^18.
_BLOCK = 1 << 14
# One increment in this many is kept as the sample the argmin searches
# first; it divides _BLOCK.  A 2^21-entry table's sample takes 256 KiB.
_STRIDE = 64


def _spans(stop: int, start: int = 0):
    """(lo, hi) of the blocks of _BLOCK indices that cover start..stop-1."""
    return ((lo, min(lo + _BLOCK, stop)) for lo in range(start, stop, _BLOCK))


def _log_factorials(K_max: int):
    """(lo, hi, log(k!) for k = lo..hi-1) over the blocks of 0..K_max.

    Each block carries the running sum of log k on from the block before,
    so every entry has the bits of one np.cumsum over the whole table."""
    total = 0.0
    for lo, hi in _spans(K_max + 1):
        block = np.arange(lo, hi, dtype=float)
        if lo == 0:
            block[0] = 1.0                  # log(0!) = log 1
        np.log(block, out=block)
        block[0] += total
        np.cumsum(block, out=block)
        total = block[-1]
        yield lo, hi, block


def _walk(log_a: np.ndarray, incs) -> tuple:
    """One pass over the increments lr of log_a, read as incs(lo, hi) =
    lr[lo:hi] a block at a time: (the least k with lr[k] - lr[k-1] < -_TOL
    or None, max of lr[k]/k over k >= 1, lr[::_STRIDE] or None unless lr
    is exactly nondecreasing)."""
    bad, maxima, exact = [], [], True       # bad: each block's first
    for lo, hi in _spans(log_a.size - 1):
        first = max(lo - 1, 0)          # the pair across the lower edge
        lr = incs(first, hi)
        steps = lr[1:] - lr[:-1]        # second differences at first+1..
        bad += (first + 1 + np.flatnonzero(steps < -_TOL)[:1]).tolist()
        exact = exact and bool(np.all(steps >= 0.0))
        k = max(lo, 1)
        maxima.append(np.max(lr[k - first:] / np.arange(k, hi, dtype=float)))
    return bad[0] if bad else None, np.max(maxima), \
        log_a[1::_STRIDE] - log_a[:-1:_STRIDE] if exact else None


@dataclass(eq=False)
class WeightSequence:
    """Materialized weight sequence m_k = M_k/k!, k = 0..K_max.

    kind is "gevrey" (m_k = (k!)^(s-1)) or "table" (M_k given explicitly).
    log_m is the one input and the one read-only array of the table's
    length that is kept: K_max is its last index, its increments are taken
    from it where they are read, and m, which may overflow to inf for large
    k, and log_M are built from it on first use.
    """

    kind: str
    s: float | None
    log_m: np.ndarray
    K_max: int = field(init=False)
    log_convex: bool = field(init=False, default=False)
    # the least k with m_k^2 > m_{k-1} m_{k+1} beyond the slack, else None
    _nonconvex_at: int | None = field(init=False, repr=False)
    _log_c_bound: float = field(init=False, repr=False)
    # increments[::_STRIDE], or None where they are not exactly sorted
    _sample: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        # read-only, so the sample taken from it cannot go stale
        self.log_m.flags.writeable = False
        self.K_max = self.log_m.size - 1
        self._nonconvex_at, self._log_c_bound, self._sample = _walk(
            self.log_m, self.increments)
        self.log_convex = self._nonconvex_at is None

    def increments(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """lr[lo:hi], lr[k] = log(m_{k+1}) - log(m_k), nondecreasing iff
        log-convex; taken from log_m on every call, never kept."""
        return np.diff(self.log_m[lo:(self.K_max if hi is None else hi) + 1])

    @cached_property
    def m(self) -> np.ndarray:
        """m_k; built on first use, read-only, inf past the float range.
        A Gevrey cumprod keeps small-k entries exact (m_2 = 2 at s = 2)."""
        with np.errstate(over="ignore"):
            out = np.exp(self.log_m) if self.kind == "table" else \
                np.cumprod(np.r_[1.0, np.arange(1.0, self.K_max + 1)
                                 ** (self.s - 1.0)])
        out.flags.writeable = False
        return out

    @property
    def c_bound(self) -> float:
        """Empirical sup over the table of (m_{k+1}/m_k)^(1/k), k >= 1."""
        with np.errstate(over="ignore"):        # inf past the float range
            return float(np.exp(self._log_c_bound))

    @cached_property
    def log_M(self) -> np.ndarray:
        """log(M_k) = log_m[k] + log(k!); built on first use a block at a
        time, read-only, so tables that never reach the envelope allocate
        nothing more."""
        out = np.empty(self.K_max + 1)
        for lo, hi, lfact in _log_factorials(self.K_max):
            np.add(self.log_m[lo:hi], lfact, out=out[lo:hi])
        out.flags.writeable = False
        return out

    @cached_property
    def _log_M_sample(self):
        """The envelope argmin's sample of log_M, built with it (_walk)."""
        log_M = self.log_M
        return _walk(log_M, lambda lo, hi: np.diff(log_M[lo:hi + 1]))[2]


def make_sequence(kind: str = "gevrey", s: float = 2.0,
                  K_max: int | None = None, values=None) -> WeightSequence:
    """Materialize a weight sequence.

    kind="gevrey": M_k = (k!)^s, requires s > 1 and finite log m_k;
    K_max is 64 by default.
    kind="table": values are the M_k themselves, need at least K_max+1
    positive entries, every entry finite; K_max is by default the last
    index of values.  Construction never rejects a sequence for failing
    the regularity conditions; run check_regularity for that.
    """
    if K_max is None:
        K_max = np.size(values) - 1 if kind == "table" else 64
    K_max = int(K_max)
    if K_max < 8:
        raise ValueError(f"K_max must be >= 8, got {K_max}")

    if kind == "gevrey":
        s = float(s)
        if not s > 1.0:
            raise ValueError(f"Gevrey exponent must be > 1, got {s}")
    elif kind == "table":
        s = None
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 1 or vals.size < K_max + 1:
            raise ValueError(f"table needs >= {K_max + 1} values, got {vals.shape}")
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            raise ValueError(f"table value values[{bad[0]}] = {vals[bad[0]]} "
                             "is not finite")
        if not np.all(vals[:K_max + 1] > 0.0):
            raise ValueError("table values must be positive")
    else:
        raise ValueError(f"unknown sequence kind {kind!r}")

    log_m = np.empty(K_max + 1)
    with np.errstate(over="ignore", invalid="ignore"):      # refused below
        for lo, hi, lfact in _log_factorials(K_max):
            if kind == "gevrey":
                np.multiply(s - 1.0, lfact, out=log_m[lo:hi])
            else:
                np.subtract(np.log(vals[lo:hi]), lfact, out=log_m[lo:hi])
    if not np.isfinite(log_m[K_max]):   # a Gevrey log_m is nondecreasing
        k = np.flatnonzero(~np.isfinite(log_m))[0]
        raise ValueError(f"Gevrey exponent {s:g}: log m_{k} is not finite")
    return WeightSequence(kind, s, log_m)


# ---------------------------------------------------------------------------
# regularity

@dataclass
class RegularityReport:
    passed: bool
    failures: list          # (condition tag in {a, b, c, d}, first offending index)


def check_regularity(seq: WeightSequence) -> RegularityReport:
    """Test conditions a)-d) over the materialized range.

    a) m_0 = m_1 = 1;  b) m_k^2 <= m_{k-1} m_{k+1};  c) (m_{k+1}/m_k)^{1/k}
    bounded, tested as <= 64;  d) m_k^{1/k} -> infinity, tested as the
    finite proxy m_{K_max}^{1/K_max} >= 4 together with monotone growth of
    m_k^{1/k} over the top quartile of indices.  b) is read from the
    table's log-convexity test and c) from the maximum behind c_bound.
    """
    failures = []
    log_m = seq.log_m
    K = seq.K_max

    for idx in (0, 1):
        if abs(log_m[idx]) > _TOL:
            failures.append(("a", idx))
            break

    if seq._nonconvex_at is not None:
        failures.append(("b", seq._nonconvex_at))

    if seq._log_c_bound > np.log(64.0):
        # log (m_{k+1}/m_k)^{1/k} = lr[k]/k, a block at a time
        for lo, hi in _spans(K, start=1):
            roots = seq.increments(lo, hi) / np.arange(lo, hi, dtype=float)
            bad = np.flatnonzero(roots > np.log(64.0))
            if bad.size:
                failures.append(("c", lo + int(bad[0])))
                break

    if log_m[K] / K < np.log(4.0):          # log m_K^{1/K}
        failures.append(("d", K))
    else:
        # m_k^{1/k} over the top quartile, a block at a time; each block
        # takes one index past its end for the pair across its upper edge
        for lo, hi in _spans(K, start=max(1, (3 * K) // 4)):
            top = log_m[lo:hi + 1] / np.arange(lo, hi + 1)
            bad = np.flatnonzero(np.diff(top) < -_TOL)
            if bad.size:
                failures.append(("d", lo + int(bad[0])))
                break

    return RegularityReport(not failures, failures)


# ---------------------------------------------------------------------------
# associated functions

def _elementwise(x, name: str, fn):
    """fn over x as a 1-d array with positive entries, mapped onto the last
    axis of its result; scalar in, scalar (or one row per leading index)
    out."""
    xx = np.asarray(x, dtype=float)
    if not np.all(xx > 0.0):            # NaN too
        raise ValueError(f"{name} must be positive")
    out = fn(np.atleast_1d(xx))
    if xx.ndim:
        return out
    out = out[..., 0]
    return out.item() if out.ndim == 0 else out


def _first_at_least(log_a: np.ndarray, sample, target, k0: int, hi: int):
    """k0 + np.searchsorted(np.diff(log_a)[k0:hi], target), bit for bit.

    A range of at most _BLOCK increments, or any range of a table without
    a sample, is diffed and searched whole.  Otherwise the sample puts each
    target in a window of _STRIDE increments holding the first one >=
    target, if any: on exactly sorted increments that index is unique, so
    the binary search finds it too."""
    if sample is None or hi - k0 <= _BLOCK:
        return k0 + np.searchsorted(np.diff(log_a[k0:hi + 1]), target)
    flat = np.ravel(target)
    # each window starts on the last sampled increment below the target,
    # or ends on the last increment; every increment before it is below
    first = np.minimum(np.maximum(np.searchsorted(sample, flat) - 1, 0)
                       * _STRIDE, log_a.size - 1 - _STRIDE)
    windows = sliding_window_view(log_a, _STRIDE + 1)
    rows = _BLOCK // _STRIDE            # a block of window entries at once
    for i in range(0, flat.size, rows):
        lr = np.diff(windows[first[i:i + rows]], axis=1)
        # counting those not >= target sends a NaN past the end, as
        # searchsorted does
        first[i:i + rows] += _STRIDE - np.count_nonzero(
            lr >= flat[i:i + rows, None], axis=1)
    return np.clip(first, k0, hi).reshape(np.shape(target))


def _argmin(seq: WeightSequence, log_a: np.ndarray, sample, c: np.ndarray,
            k0: int = 0, shift_ties: bool = True, stop: int | None = None):
    """Least argmin over k >= k0 of g(k) = log_a[k] - (k - k0)*c, per entry
    of c, where sample is log_a's increments[::_STRIDE] or None (_walk).
    Returns (idx, hit); hit marks an argmin on K_max with the terms still
    decreasing, where the infimum over the whole sequence may lie beyond
    the table.

    On a log-convex table g(k+1) - g(k) = lr[k] - c is nondecreasing, so
    the least argmin is the first k with lr[k] >= c, a searchsorted; stop
    searches the increments below index stop alone.  At a breakpoint float
    rounding can tip that equality either way; shift_ties lowers the
    target by 1e-12*(1 + |c|) so the least index wins.
    """
    if seq.log_convex:
        target = c - 1e-12 * (1.0 + np.abs(c)) if shift_ties else c
        idx = _first_at_least(log_a, sample, target, k0,
                              seq.K_max if stop is None else stop)
        return idx, idx == seq.K_max
    if seq.K_max > _BRUTE_MAX:
        raise ValueError(
            "table is not log-convex and too large for a direct argmin scan")
    ks = np.arange(seq.K_max + 1 - k0)
    flat = np.ravel(c)
    rows = max(1, _BRUTE_TERMS // ks.size)     # bounds the terms in memory
    idx = k0 + np.concatenate([
        np.argmin(log_a[None, k0:] - ks[None, :] * flat[i:i + rows, None],
                  axis=1) for i in range(0, max(flat.size, 1), rows)]
    ).reshape(np.shape(c))
    return idx, (idx == seq.K_max) & (log_a[-1] - log_a[-2] < c)


def _guard(seq: WeightSequence, t: np.ndarray, hit: np.ndarray) -> None:
    if np.any(hit):
        raise GuardExceeded(
            f"argmin hit K_max={seq.K_max} with terms still decreasing "
            f"(r = {float(np.exp(t[hit][0])):.6g}); enlarge K_max")


def _bigN(seq: WeightSequence, t: np.ndarray, guard: bool,
          stop: int | None = None) -> np.ndarray:
    """N at log r = t: 0 for r >= 1, where the k = 0 term's clamp
    min(1, 1/r) wins, else the least k >= 1 minimizing m_k r^(k-1).

    stop (log-convex tables only) searches the increments below index stop
    alone, which gives min(N, stop) for every r < 1."""
    idx = np.zeros(t.shape, dtype=int)
    small = t < 0.0
    if np.any(small):
        idx[small], hit = _argmin(seq, seq.log_m, seq._sample, -t[small],
                                  k0=1, stop=stop)
        if guard:
            _guard(seq, t[small], hit)
    return idx


def _log_assoc(seq: WeightSequence, variant: str, r) -> np.ndarray | float:
    """log of assoc(seq, variant, r); vectorized over r."""
    def log_h(rr):
        t = np.log(rr)
        if variant == "h":
            idx, hit = _argmin(seq, seq.log_m, seq._sample, -t)
            _guard(seq, t, hit)
            return seq.log_m[idx] + idx * t
        if variant == "h1":
            idx = _bigN(seq, t, guard=True)
            # m_1 r^0 = 1 minimizes for r >= 1 (the Remark's h1 = 1 plateau)
            return np.where(idx == 0, 0.0, seq.log_m[idx] + (idx - 1) * t)
        raise ValueError(f"unknown variant {variant!r}")
    return _elementwise(r, "r", log_h)


def assoc(seq: WeightSequence, variant: str, r):
    """Associated function h (variant="h") or h1 (variant="h1") at r > 0.

    Scalar in, float out; array in, array out.  Raises GuardExceeded when
    r is too small for the materialized table to guarantee the infimum.
    """
    out = _log_assoc(seq, variant, r)
    with np.errstate(under="ignore"):
        return np.exp(out) if isinstance(out, np.ndarray) else float(np.exp(out))


def bigN(seq: WeightSequence, r):
    """Least index attaining h1(r) = inf_{k>=1} m_k r^{k-1}.

    The k = 0 term participates through its clamp min(1, 1/r), which makes
    N(r) = 0 for every r >= 1 and leaves r < 1 to the k >= 1 argmin.
    """
    return _elementwise(r, "r", lambda rr: _bigN(seq, np.log(rr), guard=True))


def bigN_capped(seq: WeightSequence, r, cap: int):
    """min(N(r), cap) elementwise, without the table guard when the cap decides.

    On a log-convex table N(r) >= cap exactly when the increments below
    index cap all lie under -log r, so the argmin searches only that
    prefix and never needs the guard.  Non-log-convex tables scan the
    whole table and keep the guard (the true argmin location is unknown
    there).
    """
    cap = int(cap)
    if cap > seq.K_max:
        raise ValueError(f"cap={cap} exceeds table K_max={seq.K_max}")
    convex = seq.log_convex
    return _elementwise(r, "r", lambda rr: np.minimum(_bigN(
        seq, np.log(rr), guard=not convex, stop=cap if convex else None), cap))


def _log_envelope(seq: WeightSequence, A, lam) -> tuple:
    """(log min over the table of A^{k+1} M_k lam^{-k}, hit), rows by A."""
    A = np.asarray(A, dtype=float)
    if not np.all(A > 0.0):
        raise ValueError("A must be positive")
    log_A, log_M, log_lam = np.log(A)[..., None], seq.log_M, np.log(lam)
    # no tie shift: at lam/A = M_{k+1}/M_k either index attains E, and
    # moving to the lower one would change E in its last bits
    idx, hit = _argmin(seq, log_M, seq._log_M_sample, log_lam - log_A,
                       shift_ties=False)
    return (idx + 1) * log_A + log_M[idx] - idx * log_lam, hit


def fbi_envelope(seq: WeightSequence, A, lam):
    """FBI decay envelope E(A, lam) = inf_k A^{k+1} M_k lam^{-k}.

    A is one positive level or an array of them; an array gives one row of
    lam values per entry, each equal to the call with that entry alone.
    GuardExceeded when the minimizer sits on K_max with the terms still
    decreasing: the infimum may then lie beyond the table, and the minimum
    over the table only bounds it from above.
    """
    def envelope(ll):
        vals, hit = _log_envelope(seq, A, ll)
        if np.any(hit):
            raise GuardExceeded(
                f"envelope minimizer hit K_max={seq.K_max} at lambda="
                f"{np.broadcast_to(ll, hit.shape)[hit][0]:.6g}; enlarge K_max")
        with np.errstate(under="ignore"):
            return np.exp(vals)
    return _elementwise(lam, "lambda", envelope)


def envelope_certified(seq: WeightSequence, A, lam):
    """Where fbi_envelope(seq, A, lam) is certified, as an array of its
    shape.  A hit is monotone: a level certified at lam is certified at
    every smaller lam, and so is every larger level."""
    return _elementwise(lam, "lambda",
                        lambda ll: ~_log_envelope(seq, A, ll)[1])


# ---------------------------------------------------------------------------
# fitted constants: snapping and absorption

# the largest constant absorption_fit, growth_fit and flatness_fit report
_FIT_CAP = 2.0 ** 16
# the Q values absorption_fit tries: 1, 2, 4, ..., 64
_ABSORPTION_Q = 2.0 ** np.arange(0, 7)


def snap_up(value: float) -> float:
    """value rounded up to the grid {2^(j/4) : j >= 0} on which fitted
    constants are reported; the 1e-9 slack absorbs rounding."""
    if value <= 1.0:
        return 1.0
    if value == np.inf:
        return value
    j = int(np.ceil(np.log2(value) / 0.25 - 1e-9))
    return 2.0 ** (j * 0.25)


@dataclass
class AbsorptionFit:
    Q: float
    C: float


def absorption_fit(seq: WeightSequence, n: int, r_values) -> AbsorptionFit:
    """Fit constants in r^{-n} h(r) <= C h(Q r) over the sampled r.

    Q runs over _ABSORPTION_Q; for each Q the smallest admissible C comes
    from the log-space supremum, and the Q minimizing that C wins.  C is
    snapped up to the {2^{j/4}} grid.  FitFailed when even the best Q needs
    C > 2^16.
    """
    rr = np.asarray(r_values, dtype=float)
    log_h = _log_assoc(seq, "h", rr)
    best = None
    for Q in _ABSORPTION_Q:
        log_hq = _log_assoc(seq, "h", Q * rr)
        need = np.max(log_h - n * np.log(rr) - log_hq)
        if best is None or need < best[1]:
            best = (float(Q), float(need))
    Q, log_c = best
    # compared in logs first: exp(log_c) overflows for large n
    C = snap_up(np.exp(log_c)) if log_c <= np.log(_FIT_CAP) else np.inf
    if C > _FIT_CAP:
        raise FitFailed(f"absorption with n={n} needs C ~ e^{log_c:.4g} > cap "
                        f"{_FIT_CAP:.3g}")
    return AbsorptionFit(Q, C)
