"""Regular weight sequences and their associated functions.

A weight sequence M_k with m_k = M_k/k! drives every certification in the
toolkit: the associated functions

    h(r)  = inf_k m_k r^k,      h1(r) = inf_{k>=1} m_k r^{k-1},

the least minimizing index N(r) of h1, and the FBI decay envelope
E(A, lam) = inf_k A^{k+1} M_k lam^{-k}.  All infima are computed in log
space over k = 0..K_max and are *certified*: when the minimizer lands on
K_max with the terms still decreasing, the operation raises GuardExceeded
instead of returning a wrong value.

All infima go through one certified argmin, _argmin: on a log-convex
sequence the first index whose increment reaches a target, a direct scan
of any other table.  It also reports when the minimizer sits on K_max with
the terms still decreasing, and each caller sets its policy for that case:
h, h1, N and fbi_envelope raise, envelope_certified reports it, and
bigN_capped caps (and raises on non-log-convex tables).

A Gevrey sequence, M_k = (k!)^s, holds no array.  log m_k is
(s-1) log Gamma(k+1) and its increments (s-1) log(k+1) strictly increase,
so the first one >= c is ceil(e^{c/(s-1)}) - 1, settled by one integer
step against the float increments; log M_k takes s in place of s-1.
K_max is only the ceiling its guards check.  A table sequence keeps its
log m_k, an array as long as the values it was given, and is searched
with np.searchsorted over np.diff of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import FitFailed, GuardExceeded

# Largest non-log-convex table we are willing to brute-force scan.
_BRUTE_MAX = 8192
# argmin terms held at once by that scan: 8 MB
_BRUTE_TERMS = 1 << 20
_TOL = 1e-12                  # slack of the log-table comparisons
_lgamma = np.frompyfunc(math.lgamma, 1, 1)
# log(k!) for k < 256, the same bits as _lgamma: a wave-front scan's
# envelopes only reach such k, and on 2 vCPUs a lookup of its 45 x 5
# indices takes about 3 us against 35-50 us through _lgamma
_SMALL_LOG_FACTORIALS = np.array([math.lgamma(k + 1.0) for k in range(256)])


def _log_factorial(k):
    """log(k!) = math.lgamma(k + 1) at the indices k, as floats."""
    k = np.asarray(k)
    if np.all(k < _SMALL_LOG_FACTORIALS.size):
        return _SMALL_LOG_FACTORIALS[k]
    return np.asarray(_lgamma(k + 1.0), dtype=float)


def _log_factorial_table(K_max: int) -> np.ndarray:
    """log(k!) for k = 0..K_max, one np.cumsum of log k."""
    return np.cumsum(np.log(np.arange(K_max + 1.0).clip(1.0)))


@dataclass(eq=False)
class WeightSequence:
    """Weight sequence m_k = M_k/k!, k = 0..K_max.

    kind is "gevrey" (m_k = (k!)^(s-1)) or "table" (M_k given explicitly).
    A Gevrey sequence holds no array whose size grows with K_max: it reads
    log m_k, log M_k and the increments in closed form.  A table sequence
    keeps table, log m_k for k = 0..K_max, read-only; its log M_k is built
    from it on first use.  log_m and log_M read either kind at given
    indices.
    """

    kind: str
    s: float | None
    K_max: int
    table: np.ndarray | None = field(default=None, repr=False)
    log_convex: bool = field(init=False, default=True)
    # the least k with m_k^2 > m_{k-1} m_{k+1} beyond the slack, else None
    _nonconvex_at: int | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        if self.kind != "table":
            return
        if self.table.size != self.K_max + 1:
            raise ValueError(f"a table for K_max={self.K_max} needs "
                             f"{self.K_max + 1} entries, got {self.table.size}")
        self.table.flags.writeable = False
        bad = np.flatnonzero(np.diff(self.increments(0, self.K_max)) < -_TOL)
        if bad.size:
            self._nonconvex_at, self.log_convex = 1 + int(bad[0]), False

    def log_m(self, k):
        """log m_k at the indices k, an int or an int array."""
        if self.kind == "table":
            return self.table[k]
        return (self.s - 1.0) * _log_factorial(k)

    def log_M(self, k):
        """log M_k = log m_k + log(k!) at the indices k."""
        if self.kind == "table":
            return self._log_M[k]
        return self.s * _log_factorial(k)

    def increments(self, lo: int, hi: int) -> np.ndarray:
        """lr[lo:hi], lr[k] = log(m_{k+1}) - log(m_k), nondecreasing iff
        log-convex; computed on every call, never kept."""
        if self.kind == "table":
            return np.diff(self.table[lo:hi + 1])
        return (self.s - 1.0) * np.log(np.arange(lo, hi) + 1.0)

    @property
    def c_bound(self) -> float:
        """sup over k >= 1 of (m_{k+1}/m_k)^(1/k): for a Gevrey sequence
        (k+1)^((s-1)/k), largest at k = 1; over the table otherwise."""
        with np.errstate(over="ignore"):        # inf past the float range
            if self.kind == "gevrey":
                return float(np.exp2(self.s - 1.0))
            roots = self.increments(1, self.K_max) / np.arange(1, self.K_max)
            return float(np.exp(np.max(roots)))

    @cached_property
    def _log_M(self) -> np.ndarray:
        """A table's log M_k, built on first use, read-only."""
        out = self.table + _log_factorial_table(self.K_max)
        out.flags.writeable = False
        return out


def make_sequence(kind: str = "gevrey", s: float = 2.0,
                  K_max: int | None = None, values=None) -> WeightSequence:
    """Make a weight sequence.

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
        seq = WeightSequence(kind, s, K_max)
        with np.errstate(over="ignore", invalid="ignore"):
            if np.isfinite(seq.log_m(K_max)):   # log m_k is nondecreasing
                return seq
            import bisect
            k = bisect.bisect_left(range(K_max + 1), True, key=lambda k:
                                   not np.isfinite(seq.log_m(k)))
        raise ValueError(f"Gevrey exponent {s:g}: log m_{k} is not finite")
    if kind != "table":
        raise ValueError(f"unknown sequence kind {kind!r}")
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1 or vals.size < K_max + 1:
        raise ValueError(f"table needs >= {K_max + 1} values, got {vals.shape}")
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise ValueError(f"table value values[{bad[0]}] = {vals[bad[0]]} "
                         "is not finite")
    if not np.all(vals[:K_max + 1] > 0.0):
        raise ValueError("table values must be positive")
    return WeightSequence(kind, None, K_max, np.log(vals[:K_max + 1])
                          - _log_factorial_table(K_max))


# ---------------------------------------------------------------------------
# regularity

@dataclass
class RegularityReport:
    passed: bool
    failures: list          # (condition tag in {a, b, c, d}, first offending index)


def check_regularity(seq: WeightSequence) -> RegularityReport:
    """Test conditions a)-d) over k = 0..K_max.

    a) m_0 = m_1 = 1;  b) m_k^2 <= m_{k-1} m_{k+1};  c) (m_{k+1}/m_k)^{1/k}
    bounded, tested as <= 64;  d) m_k^{1/k} -> infinity, tested as the
    finite proxy m_{K_max}^{1/K_max} >= 4 together with monotone growth of
    m_k^{1/k} over the top quartile of indices.  A Gevrey sequence meets
    a), b) and the growth in d) exactly, and its largest root in c) is the
    one at k = 1, so it takes O(1).
    """
    failures = []
    K = seq.K_max
    for idx in (0, 1):
        if abs(seq.log_m(idx)) > _TOL:
            failures.append(("a", idx))
            break

    if seq._nonconvex_at is not None:
        failures.append(("b", seq._nonconvex_at))

    # log (m_{k+1}/m_k)^{1/k} = lr[k]/k; a Gevrey root, (k+1)^((s-1)/k),
    # is largest at k = 1
    hi = 2 if seq.kind == "gevrey" else K
    bad = np.flatnonzero(seq.increments(1, hi) / np.arange(1, hi)
                         > np.log(64.0))
    if bad.size:
        failures.append(("c", 1 + int(bad[0])))

    if seq.log_m(K) / K < np.log(4.0):          # log m_K^{1/K}
        failures.append(("d", K))
    elif seq.kind == "table":
        lo = max(1, (3 * K) // 4)                # m_k^{1/k}, top quartile
        bad = np.flatnonzero(np.diff(seq.table[lo:] / np.arange(lo, K + 1))
                             < -_TOL)
        if bad.size:
            failures.append(("d", lo + int(bad[0])))

    return RegularityReport(not failures, failures)


# ---------------------------------------------------------------------------
# associated functions

def _positive(x, name: str) -> np.ndarray:
    """x as a float array, refused unless every entry is positive and
    finite (a NaN fails the comparisons too)."""
    xx = np.asarray(x, dtype=float)
    if not np.all((xx > 0.0) & (xx < np.inf)):
        raise ValueError(f"{name} must be positive and finite")
    return xx


def _elementwise(x, name: str, fn):
    """fn over x as a 1-d array with positive finite entries, mapped onto
    the last axis of its result; scalar in, scalar (or one row per leading
    index) out."""
    xx = _positive(x, name)
    out = fn(np.atleast_1d(xx))
    if xx.ndim:
        return out
    out = out[..., 0]
    return out.item() if out.ndim == 0 else out


def _first_at_least(seq: WeightSequence, of_M: bool, target, k0: int,
                    stop: int):
    """k0 + np.searchsorted(lr[k0:stop], target) on a log-convex sequence,
    lr the increments of log m (of log M if of_M)."""
    if seq.kind == "table":
        log_a = seq._log_M if of_M else seq.table
        return k0 + np.searchsorted(np.diff(log_a[k0:stop + 1]), target)
    # lr[k] = a log(k + 1) first reaches target at ceil(e^(target/a)) - 1;
    # rounding moves that guess by at most one index, checked both ways.
    # lr increases, so the first k >= k0 below stop is the first k clipped
    a = seq.s if of_M else seq.s - 1.0
    with np.errstate(over="ignore", divide="ignore"):   # lr[-1] = -inf
        k = np.ceil(np.exp(target / a)) - 1.0
        k += a * np.log(k + 1.0) < target
        k -= a * np.log(k) >= target
    return np.clip(k, k0, stop).astype(int)


def _argmin(seq: WeightSequence, c: np.ndarray, k0: int = 0,
            shift_ties: bool = True, stop: int | None = None,
            of_M: bool = False):
    """Least argmin over k >= k0 of g(k) = log_a(k) - (k - k0)*c, per entry
    of c, where log_a is log m (log M if of_M).  Returns (idx, hit); hit
    marks an argmin on K_max with the terms still decreasing, where the
    infimum over the whole sequence may lie beyond K_max.

    On a log-convex sequence g(k+1) - g(k) = lr[k] - c is nondecreasing, so
    the least argmin is the first k with lr[k] >= c; stop searches the
    increments below index stop alone.  At a breakpoint float rounding can
    tip that equality either way; shift_ties lowers the target by
    1e-12*(1 + |c|) so the least index wins.
    """
    if seq.log_convex:
        target = c - 1e-12 * (1.0 + np.abs(c)) if shift_ties else c
        idx = _first_at_least(seq, of_M, target, k0,
                              seq.K_max if stop is None else stop)
        return idx, idx == seq.K_max
    if seq.K_max > _BRUTE_MAX:
        raise ValueError(
            "table is not log-convex and too large for a direct argmin scan")
    log_a = seq._log_M if of_M else seq.table
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

    stop (log-convex sequences only) searches the increments below index
    stop alone, which gives min(N, stop) for every r < 1."""
    idx = np.zeros(t.shape, dtype=int)
    small = t < 0.0
    if np.any(small):
        idx[small], hit = _argmin(seq, -t[small], k0=1, stop=stop)
        if guard:
            _guard(seq, t[small], hit)
    return idx


def _log_assoc(seq: WeightSequence, variant: str, r) -> np.ndarray | float:
    """log of assoc(seq, variant, r); vectorized over r."""
    def log_h(rr):
        t = np.log(rr)
        if variant == "h":
            idx, hit = _argmin(seq, -t)
            _guard(seq, t, hit)
            return seq.log_m(idx) + idx * t
        if variant == "h1":
            idx = _bigN(seq, t, guard=True)
            # m_1 r^0 = 1 minimizes for r >= 1 (the Remark's h1 = 1 plateau)
            return np.where(idx == 0, 0.0, seq.log_m(idx) + (idx - 1) * t)
        raise ValueError(f"unknown variant {variant!r}")
    return _elementwise(r, "r", log_h)


def assoc(seq: WeightSequence, variant: str, r):
    """Associated function h (variant="h") or h1 (variant="h1") at r > 0.

    Scalar in, float out; array in, array out.  Raises GuardExceeded when
    r is too small for K_max to guarantee the infimum.
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
    """min(N(r), cap) elementwise, without the K_max guard when the cap
    decides.

    On a log-convex sequence N(r) >= cap exactly when the increments below
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
    """(log min over k <= K_max of A^{k+1} M_k lam^{-k}, hit), rows by A."""
    log_A, log_lam = np.log(_positive(A, "A"))[..., None], np.log(lam)
    # no tie shift: at lam/A = M_{k+1}/M_k either index attains E, and
    # moving to the lower one would change E in its last bits
    idx, hit = _argmin(seq, log_lam - log_A, shift_ties=False, of_M=True)
    return (idx + 1) * log_A + seq.log_M(idx) - idx * log_lam, hit


def fbi_envelope(seq: WeightSequence, A, lam):
    """FBI decay envelope E(A, lam) = inf_k A^{k+1} M_k lam^{-k}.

    A is one positive level or an array of them; an array gives one row of
    lam values per entry, each equal to the call with that entry alone.
    GuardExceeded when the minimizer sits on K_max with the terms still
    decreasing: the infimum may then lie beyond K_max, and the minimum
    up to it only bounds it from above.
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
