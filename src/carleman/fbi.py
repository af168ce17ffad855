"""FBI transform, decay classification, wave front scans, phase bounds.

The transform is F[u](x, xi) = int u(y) exp(i(x-y).xi - |xi| (x-y)^2) dy,
discretized by tensor trapezoid sums over the grid box of u.  Scanning |F|
along rays xi = lambda omega and fitting the samples against the envelope
E(A, lambda) = inf_k A^{k+1} M_k lambda^{-k} separates directions where u
behaves like the weight class from directions where it does not.  A scan
takes every lambda at once: directions with equal |omega_d| share their
windowed cos/sin columns, both axes share one table when they match bit for
bit, and each block of grid rows costs one real matrix product over its
nonzero columns (two where the block has an imaginary part) and one small
batched product per lambda against the first-axis columns.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import CarlemanError, GuardExceeded, NonFiniteSamples, \
    NoCone, NoRegularDirection, Undersampled
from .weights import WeightSequence, envelope_certified, fbi_envelope

_BOUNDARY_TOL = 1e-12
# samples per axis of the conormal and holomorphic fixture grids, which the
# benchmark's grid-file check pins, and the ceiling on the grid size the
# wave front experiment derives from the sampling guard
GRID_N = 2752
# samples per block of leading-axis rows when a grid is built, checked,
# written or read, and when a scan's cos/sin table is built
_BLOCK_ELEMENTS = 1 << 15
# samples per block of grid rows in a direction scan: the real product
# against the shared cos/sin matrix runs nearer the BLAS peak on taller
# blocks (0.31 s against 0.44 s with _BLOCK_ELEMENTS for the 2752^2
# conormal grid on 2 CPUs)
_SCAN_BLOCK_ELEMENTS = 1 << 18


# ---------------------------------------------------------------------------
# sampled functions on tensor grids

def _row_blocks(shape, elements: int = _BLOCK_ELEMENTS) -> list:
    """Slices of leading-axis rows holding about `elements` samples each."""
    rows = max(1, elements // math.prod(shape[1:]))
    return [slice(i, i + rows) for i in range(0, shape[0], rows)]


@dataclass(eq=False)
class GridFunction:
    """Complex samples of a function on a uniform tensor-product grid."""
    lo: np.ndarray
    hi: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        self.values = np.asarray(self.values, dtype=complex)
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise ValueError("lo and hi must be matching one-dimensional")
        if self.values.ndim != self.lo.size:
            raise ValueError(
                f"values have {self.values.ndim} axes for {self.lo.size} bounds")
        if not np.all(np.isfinite(self.lo) & np.isfinite(self.hi)
                      & (self.hi > self.lo)):
            raise ValueError("need finite bounds with hi > lo in every "
                             "dimension")
        if min(self.values.shape) < 2:
            raise ValueError("need at least two samples per axis")

    @property
    def dim(self) -> int:
        return self.lo.size

    @property
    def n(self) -> tuple:
        return self.values.shape

    def axis(self, d: int) -> np.ndarray:
        return np.linspace(self.lo[d], self.hi[d], self.values.shape[d])

    def steps(self) -> np.ndarray:
        return (self.hi - self.lo) / (np.array(self.values.shape) - 1.0)

    def trapezoid_weights(self, d: int) -> np.ndarray:
        w = np.full(self.values.shape[d], self.steps()[d])
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    def boundary_max(self) -> float:
        m = 0.0
        for d in range(self.dim):
            first = np.take(self.values, 0, axis=d)
            last = np.take(self.values, -1, axis=d)
            m = max(m, float(np.max(np.abs(first))), float(np.max(np.abs(last))))
        return m

    @classmethod
    def from_function(cls, fn, lo, hi, n):
        """Samples of fn at n points per axis (one count or one per axis).

        fn must be pointwise and broadcast over its arguments: it is called
        on blocks of leading-axis rows of the sparse meshgrid axes."""
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        nn = np.atleast_1d(np.asarray(n, dtype=int))
        if nn.size == 1 and lo.size > 1:
            nn = np.full(lo.size, nn[0])
        axes = [np.linspace(lo[d], hi[d], nn[d]) for d in range(lo.size)]
        grids = np.meshgrid(*axes, indexing="ij", sparse=True)
        gf = cls(lo, hi, np.empty(tuple(nn), dtype=complex))
        for b in _row_blocks(gf.n):
            gf.values[b] = fn(grids[0][b], *grids[1:])
        return gf

    def save(self, path):
        """Header: u4 dim, u4 n per axis, f8 lo/hi pairs; payload little
        endian complex64, row major."""
        with open(path, "wb") as fh:
            fh.write(struct.pack("<I", self.dim))
            fh.write(struct.pack(f"<{self.dim}I", *self.values.shape))
            for d in range(self.dim):
                fh.write(struct.pack("<2d", self.lo[d], self.hi[d]))
            for b in _row_blocks(self.n):
                fh.write(np.ascontiguousarray(self.values[b], dtype="<c8"))

    @classmethod
    def load(cls, path):
        """Read a file written by save; ValueError when the header or the
        payload size does not match the format."""
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            dim = struct.unpack("<I", fh.read(4))[0] if size >= 4 else 0
            off = 4 + 20 * dim
            if dim < 1 or size < off:
                raise ValueError(f"grid file of {size} bytes holds no header "
                                 f"for dim = {dim}")
            shape = struct.unpack(f"<{dim}I", fh.read(4 * dim))
            bounds = struct.unpack(f"<{2 * dim}d", fh.read(16 * dim))
            count = math.prod(shape)
            if size != off + 8 * count:
                raise ValueError(f"grid file holds {size - off} payload bytes, "
                                 f"shape {list(shape)} needs {8 * count}")
            vals = np.empty(count, dtype=complex)
            for i in range(0, count, _BLOCK_ELEMENTS):
                vals[i:i + _BLOCK_ELEMENTS] = np.frombuffer(
                    fh.read(8 * _BLOCK_ELEMENTS), dtype="<c8")
        return cls(bounds[0::2], bounds[1::2], vals.reshape(shape))


# ---------------------------------------------------------------------------
# the transform

def _allowed_step(lam: float, half: float) -> float:
    """The largest grid step the oscillation guard lets through at
    |xi| = lam over a box of half-width half."""
    return math.pi / (4.0 * (lam + math.sqrt(lam) * half)) if lam > 0 \
        else math.inf


def guard_n(lam: float, half: float, share: float = 1.0) -> int:
    """The fewest samples per axis whose step over a box of half-width
    half is at most share times the step the oscillation guard allows at
    |xi| = lam: 185 at lam = 64 over half-width 1, 368 at share 0.5.
    Undersampled when no finite count is that fine."""
    bound = share * _allowed_step(lam, half)
    width = 2.0 * half
    intervals = width / bound if bound > 0.0 else math.inf
    if not math.isfinite(intervals):
        raise Undersampled(f"no grid resolves half-width {half:.6g} at "
                           f"|xi| = {lam:.6g}")
    n = max(2, math.ceil(intervals) + 1)
    while width / (n - 1) > bound:          # the quotient rounded down
        n += 1
    return n


def _check_steps(steps, half, lam: float):
    """The oscillation guard at |xi| = lam, per axis step and half-width."""
    for d in range(len(steps)):
        allowed = _allowed_step(lam, half[d])
        if steps[d] > allowed:
            raise Undersampled(
                f"axis {d} step {steps[d]:.3g} exceeds {allowed:.3g} "
                f"needed at |xi| = {lam:.3g}")


def _check_sampling(gf: GridFunction, x, lams):
    """Oscillation guard at the largest |xi| in lams and truncation guard
    at the smallest, the oscillation guard first: the allowed step falls
    and the edge damping weakens as |xi| grows, so each is checked where
    it is tightest.  NonFiniteSamples when a sample is NaN or infinite."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size != gf.dim:
        raise ValueError(f"x has {x.size} components for a {gf.dim}-d grid")
    if np.any(x < gf.lo) or np.any(x > gf.hi):
        raise Undersampled(f"base point {x} outside the grid box")
    half = 0.5 * (gf.hi - gf.lo)
    steps = gf.steps()
    blocks = [gf.values[b] for b in _row_blocks(gf.n)]
    if not all(np.isfinite(v).all() for v in blocks):
        bad = sum(v.size - np.count_nonzero(np.isfinite(v)) for v in blocks)
        raise NonFiniteSamples(f"grid holds NaN or infinite samples: "
                               f"{bad} of {gf.values.size}")
    edge = gf.boundary_max()
    scale = 1.0         # so a zero edge passes whatever max |sample| is
    if edge > 0.0:
        scale = max(scale, *(float(np.max(np.abs(v))) for v in blocks))
    dist = float(np.min(np.minimum(x - gf.lo, gf.hi - x)))
    _check_steps(steps, half, np.max(lams, initial=0.0))
    with np.errstate(under="ignore"):
        damping = np.exp(-np.min(lams, initial=np.inf) * dist * dist)
    if edge * damping > _BOUNDARY_TOL * scale:
        raise Undersampled("integrand is not negligible at the box edge; "
                           "enlarge the box or add a cutoff")
    return x


def _axis_window(gf: GridFunction, x, d: int, lams):
    """Offsets v = x_d - y_d along axis d and the trapezoid-weighted
    Gaussian window of every lambda; shapes (n_d,) and (n_d, n_lambdas)."""
    v = x[d] - gf.axis(d)
    with np.errstate(under="ignore"):
        g = gf.trapezoid_weights(d)[:, None] * np.exp(
            -lams * v[:, None] * v[:, None])
    return v, g


def _phase_columns(v, g, lams, w) -> np.ndarray:
    """g cos(lambda v w) and g sin(lambda v w) for every offset v, lambda
    and frequency factor w; shape (n_v, n_lambdas, 2, n_w).  Built in
    blocks of offsets, each in place."""
    out = np.empty((v.size, lams.size, 2, w.size))
    for b in _row_blocks(out.shape):
        arg = np.multiply(lams[:, None], v[b, None, None] * w,
                          out=out[b, :, 1])
        np.cos(arg, out=out[b, :, 0])
        np.sin(arg, out=arg)
        out[b] *= g[b, :, None, None]
    return out


def fbi_direction_scan(gf: GridFunction, x, directions, lambdas) -> np.ndarray:
    """F(x, lambda omega) for every direction and magnitude; shape
    (n_directions, n_lambdas).

    The tensor Gaussian makes the sum separable, and along each axis the
    phase splits as e^{i lambda v omega_d} = cos(lambda v |omega_d|)
    + i sign(omega_d) sin(lambda v |omega_d|), so directions with equal
    |omega_d| share their columns.  The windowed cos and sin columns of the
    last axis, for every lambda and every distinct |omega_2|, form one real
    matrix Q; those of the first axis form P, built once, and P is Q itself
    when the two axes' offsets, windows and |omega| sets are bit-equal (a
    square box, a base point on its diagonal and a fan closed under the
    swap).  Each block of grid rows meets Q in one real matrix product, and
    in a second only when the block has a nonzero imaginary part; each
    product skips the block's leading and trailing all-zero columns, which
    a windowed grid has outside its cutoff.  For every lambda the product
    is then contracted with the block's rows of P in one batched real
    product, into a table of cos/sin pairs over the distinct |omega_1| and
    |omega_2|.  Each direction reads its four entries there and combines
    them with its signs: cos cos - s_1 s_2 sin sin for the real part and
    s_2 cos sin + s_1 sin cos for the imaginary part.  A 1-d grid is the
    case of one row.  The products cost 4 n_0 n_1' L K_2 real flops per
    nonzero part, n_1' the nonzero column span and K_d the number of
    distinct |omega_d| (17 for the default fan of 64 directions), plus
    8 n_0 L K_1 K_2 for the first-axis contraction.
    """
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    lams = np.atleast_1d(np.asarray(lambdas, dtype=float))
    if dirs.shape[1] != gf.dim:
        raise ValueError("direction dimension does not match the grid")
    if gf.dim not in (1, 2):
        raise NotImplementedError("direction scans cover one and two dimensions")
    xx = _check_sampling(gf, np.zeros(gf.dim) + np.asarray(x, dtype=float),
                         lams)
    if gf.dim == 2:
        v0, g0 = _axis_window(gf, xx, 0, lams)
        om1 = dirs[:, 0]
    else:
        v0, g0, om1 = np.zeros(1), np.ones((1, lams.size)), np.zeros(len(dirs))
    v1, g1 = _axis_window(gf, xx, gf.dim - 1, lams)
    om2 = dirs[:, -1]
    w0, k0 = np.unique(np.abs(om1), return_inverse=True)
    w1, k1 = np.unique(np.abs(om2), return_inverse=True)

    q = _phase_columns(v1, g1, lams, w1).reshape(v1.size, -1)
    shared = all(np.array_equal(a, b)
                 for a, b in ((v0, v1), (g0, g1), (w0, w1)))
    p = q if shared else _phase_columns(v0, g0, lams, w0)
    p = p.reshape(v0.size, lams.size, 2 * w0.size)
    vals = gf.values.reshape(-1, v1.size)
    # [real or imaginary part of u, lambda, cos/sin x |omega_1|,
    # cos/sin x |omega_2|]
    table = np.zeros((2, lams.size, 2 * w0.size, 2 * w1.size))
    blocks = _row_blocks(vals.shape, _SCAN_BLOCK_ELEMENTS)
    buf = np.empty(vals[blocks[0]].shape)
    for b in blocks:
        for part, plane in zip(table, (vals[b].real, vals[b].imag)):
            a = buf[:plane.shape[0]]
            np.copyto(a, plane)
            cols = np.flatnonzero(a.any(axis=0))
            if cols.size:
                c = slice(cols[0], cols[-1] + 1)
                r = (a[:, c] @ q[c]).reshape(len(a), lams.size, -1)
                part += np.matmul(p[b].transpose(1, 2, 0),
                                  r.transpose(1, 0, 2))
    # per direction, (part, lambda, cos/sin 1, cos/sin 2) at (k0, k1)
    t = table.reshape(2, lams.size, 2, w0.size, 2, w1.size) \
        .transpose(3, 5, 0, 1, 2, 4)[k0, k1]
    s0 = np.where(om1 < 0.0, -1.0, 1.0)[:, None, None]
    s1 = np.where(om2 < 0.0, -1.0, 1.0)[:, None, None]
    re = t[..., 0, 0] - s0 * s1 * t[..., 1, 1]
    im = s1 * t[..., 0, 1] + s0 * t[..., 1, 0]
    out = np.empty((dirs.shape[0], lams.size), dtype=complex)
    out.real = re[:, 0] - im[:, 1]
    out.imag = im[:, 0] + re[:, 1]
    return out


# ---------------------------------------------------------------------------
# decay classification

_A_GRID = 2.0 ** (0.5 * np.arange(-32, 33))       # 2^-16 .. 2^16


def certified_levels(seq: WeightSequence, lam: float) -> np.ndarray:
    """The levels of the A grid whose envelope the table certifies at lam,
    and so at every smaller lambda."""
    return _A_GRID[envelope_certified(seq, _A_GRID, lam)]


@dataclass
class DecayReport:
    passed: bool
    A_fit: float             # inf when no grid value certifies the decay


def _tail(lams: np.ndarray, lambda_min: float) -> np.ndarray:
    """Mask of the lambdas at or above lambda_min, up to rounding."""
    return lams >= lambda_min * (1.0 - 1e-12)


def decay_classify(lambdas, samples, seq: WeightSequence,
                   lambda_min: float = 4.0, floor_rel: float = 1e-11,
                   scale: float | None = None) -> DecayReport:
    """Smallest grid A with |F(lambda)| <= max(E(A, lambda), floor) on the
    tail lambda >= lambda_min, among the levels the table certifies there
    (so a pass at the lowest reports it); GuardExceeded when there are none.

    The floor absorbs quadrature noise and underflow: floor_rel times the
    sample scale (max of these samples unless a global scale is given).
    """
    lams = np.asarray(lambdas, dtype=float)
    mags = np.abs(np.asarray(samples))
    if lams.shape != mags.shape or lams.ndim != 1 or lams.size == 0:
        raise ValueError("need matching one-dimensional lambda and sample arrays")
    if scale is None:
        scale = float(np.max(mags)) if np.max(mags) > 0 else 1.0
    floor = floor_rel * scale

    tail = _tail(lams, lambda_min)
    if not tail.any():
        raise ValueError(f"no samples at or above lambda_min={lambda_min}")
    lt, mt = lams[tail], mags[tail]

    # a level certified at the top lambda is certified over the whole tail
    levels = certified_levels(seq, lt.max())
    if not levels.size:
        raise GuardExceeded(f"envelope minimizer hit K_max={seq.K_max} at "
                            f"lambda={lt.max():.6g} for every level A; "
                            f"enlarge K_max")
    env = fbi_envelope(seq, levels, lt)         # one row per level
    ok = np.all(mt <= np.maximum(env, floor), axis=1)
    A_fit = float(levels[np.argmax(ok)]) if ok.any() else np.inf
    return DecayReport(bool(ok.any()), A_fit)


def decay_margin(samples, envelope, tail) -> np.ndarray:
    """Per row of |F| samples, the max over the tail mask of log|F| -
    log E, E the envelope at those lambdas: positive where the row pokes
    above it."""
    with np.errstate(divide="ignore"):
        return np.max(np.log(samples[:, tail]) - np.log(envelope[tail]),
                      axis=1)


# ---------------------------------------------------------------------------
# wave front scans

@dataclass
class ScanConfig:
    """Settings of a wave front scan: lambdas as a float array, lambda_min
    by default the start of the top third of their log range.  ValueError,
    one message per setting, for a scan that classifies nothing."""
    n_directions: int = 64
    lambdas: np.ndarray = field(
        default_factory=lambda: np.geomspace(4.0, 64.0, 12))
    a_threshold: float = 1.0
    floor_rel: float = 1e-11
    lambda_min: float | None = None

    def __post_init__(self):
        self.lambdas = lams = np.asarray(self.lambdas, dtype=float)
        if self.n_directions < 1:
            raise ValueError(f"n_directions {self.n_directions} is below 1")
        if not self.a_threshold > 0.0:
            raise ValueError(f"a_threshold {self.a_threshold:g} is not > 0")
        if not math.isfinite(self.a_threshold):
            raise ValueError(f"a_threshold {self.a_threshold:g} is not finite")
        if not 0.0 <= self.floor_rel < 1.0:
            raise ValueError(f"floor_rel {self.floor_rel:g} is outside [0, 1)")
        if not (lams.size and np.all(lams > 0.0)):
            raise ValueError("lambdas must be one or more values > 0")
        if self.lambda_min is None:
            llo, lhi = np.log(lams.min()), np.log(lams.max())
            self.lambda_min = np.exp(llo + (2.0 / 3.0) * (lhi - llo))
        self.lambda_min = float(self.lambda_min)
        if not np.any(_tail(lams, self.lambda_min)):
            raise ValueError(f"no lambda at or above lambda_min = "
                             f"{self.lambda_min:g}")


@dataclass
class ScanReport:
    directions: np.ndarray       # (n_directions, dim) unit covectors
    lambdas: np.ndarray
    samples: np.ndarray          # |F| normalized by its global max
    normalization: float
    reports: list
    failed_indices: list         # every direction whose fit exceeds threshold
    singular_indices: list       # per contiguous band, the peak direction
    lambda_min: float
    envelope: np.ndarray         # E(a_threshold, lambda) at each lambda


def _circle_directions(n: int) -> np.ndarray:
    """(cos, sin)(2 pi j / n) for j < n, each built from its image in the
    first octant by the reflections the fan admits: omega_2 -> -omega_2
    always, omega_1 -> -omega_1 when n is even, the swap of omega_1 and
    omega_2 when 4 divides n.  The fan is then closed bit for bit under
    each of these maps (under negation when n is even), so direction scans
    share the cos/sin columns of equal |omega_2|."""
    j = np.arange(n)
    flip2 = 2 * j > n
    k = np.where(flip2, n - j, j)
    flip1 = (n % 2 == 0) & (4 * k > n)
    k = np.where(flip1, n // 2 - k, k)
    swap = (n % 4 == 0) & (8 * k > n)
    k = np.where(swap, n // 4 - k, k)
    th = 2.0 * np.pi * k / n
    c, s = np.cos(th), np.sin(th)
    # the diagonal is its own swap image
    c[8 * k == n] = s[8 * k == n] = np.sqrt(0.5)
    c, s = np.where(swap, s, c), np.where(swap, c, s)
    return np.column_stack([np.where(flip1, -c, c), np.where(flip2, -s, s)])


def _failed_bands(failed, n: int) -> list:
    """Group failed direction indices into circularly contiguous bands."""
    bands = []
    for j in sorted(failed):
        if bands and j == bands[-1][-1] + 1:
            bands[-1].append(j)
        else:
            bands.append([j])
    # wrap-around: merge a band ending at n-1 into one starting at 0
    if len(bands) > 1 and bands[0][0] == 0 and bands[-1][-1] == n - 1:
        bands[0] = bands.pop() + bands[0]
    return bands


def wavefront_scan(gf: GridFunction, x, seq: WeightSequence,
                   config: ScanConfig | None = None) -> ScanReport:
    """Classify FBI decay over a fan of directions at one base point.

    Samples are normalized by their global max so the classification sees
    relative decay, and the fit only weighs the tail lambda >= lambda_min,
    where the envelope has begun to separate regular from singular
    directions; the angular response of the transform at the top lambda is
    about 1/sqrt(lambda) wide, so a failed band spans several neighbors and
    its peak excess over the threshold envelope E(a_threshold, lambda),
    computed once per scan (GuardExceeded where the table does not certify
    it), names the direction.  A two-dimensional fan in which every
    direction fails has no regular direction to set a band against and
    raises NoRegularDirection.  A transform that vanishes in every
    direction raises CarlemanError.
    """
    cfg = config or ScanConfig()
    lams = cfg.lambdas
    if gf.dim == 1:
        dirs = np.array([[1.0], [-1.0]])
    elif gf.dim == 2:
        dirs = _circle_directions(cfg.n_directions)
    else:
        raise NotImplementedError("scans cover one and two dimensions")

    raw = np.abs(fbi_direction_scan(gf, x, dirs, lams))
    norm = float(np.max(raw))
    if norm <= 0.0:
        raise CarlemanError("transform vanished identically; nothing to "
                            "classify")
    samples = raw / norm

    reports = [decay_classify(lams, row, seq, lambda_min=cfg.lambda_min,
                              floor_rel=cfg.floor_rel, scale=1.0)
               for row in samples]
    failed = [j for j, rep in enumerate(reports)
              if rep.A_fit > cfg.a_threshold]

    if gf.dim == 2 and len(failed) == dirs.shape[0]:
        raise NoRegularDirection(
            f"all {len(failed)} directions fail at a_threshold = "
            f"{cfg.a_threshold:g}, so the scan has no verdict")

    envelope = fbi_envelope(seq, cfg.a_threshold, lams)
    margins = decay_margin(samples, envelope, _tail(lams, cfg.lambda_min))
    # two opposite covectors in 1-D, no angular smearing to peel apart
    singular = list(failed) if gf.dim == 1 else sorted(
        band[int(np.argmax(margins[band]))]
        for band in _failed_bands(failed, dirs.shape[0]))
    return ScanReport(dirs, lams, samples, norm, reports, failed, singular,
                      cfg.lambda_min, envelope)


# ---------------------------------------------------------------------------
# phase bounds along complex traces

@dataclass
class PhaseBoundReport:
    omega0: np.ndarray
    C0: float
    half_angle: float


def phase_bound_check(z_samples, t_values, y_values) -> PhaseBoundReport:
    """Concavity constants for Q(y, Z) = i omega.(y-Z) - <y-Z>^2 along a
    trace t -> Z(t).

    For each candidate direction omega, +-1 in one dimension and 16 on the
    circle in two, the largest dyadic C with Re Q <= -(C/2) t over all
    samples is recorded; directions below 2^-10 carry no cone.  <v>^2 is
    the bilinear square sum v_d^2, not |v|^2: its real part changes sign
    off the reals, which is the whole point.  Raises NoCone when no
    direction qualifies.
    """
    t = np.asarray(t_values, dtype=float)
    if np.any(t <= 0.0):
        raise ValueError("trace times must be positive")
    z = np.asarray(z_samples, dtype=complex)
    if z.ndim == 1:
        z = z[:, None]
    if z.shape[0] != t.size:
        raise ValueError("one trace sample per time is required")
    dim = z.shape[1]
    y = np.asarray(y_values, dtype=float)
    if dim == 1 and y.ndim == 1:
        y = y[:, None]
    if y.shape[1] != dim:
        raise ValueError("y sample dimension does not match the trace")

    omegas = np.array([[1.0], [-1.0]]) if dim == 1 \
        else _circle_directions(16)

    # v[s, a, d] = y[a, d] - Z[s, d]
    v = y[None, :, :] - z[:, None, :]
    sq = np.real(np.sum(v * v, axis=2))                    # Re <v>^2
    c_values = np.zeros(omegas.shape[0])
    raw = np.full(omegas.shape[0], -np.inf)
    for k, om in enumerate(omegas):
        req = -np.imag(v @ om) - sq
        ratios = -2.0 * req / t[:, None]
        m = float(np.min(ratios))
        if m >= 2.0 ** -10:
            c_values[k] = 2.0 ** np.floor(np.log2(m))
            raw[k] = m
    if np.all(c_values == 0.0):
        raise NoCone("no direction satisfies the phase concavity bound")

    # ties on the dyadic grid are broken by the raw minimum, which peaks at
    # the center of the qualifying arc
    best = int(np.argmax(raw))
    omega0 = omegas[best]
    good = c_values > 0.0
    if dim == 1:
        half_angle = np.pi if np.sum(good) > 1 else 0.5 * np.pi
    else:
        cosang = np.clip(omegas[good] @ omega0, -1.0, 1.0)
        half_angle = float(np.max(np.arccos(cosang)))
        if half_angle == 0.0:
            # a single direction still subtends half the angular step
            half_angle = np.pi / omegas.shape[0]
    return PhaseBoundReport(omega0, float(c_values[best]), half_angle)
