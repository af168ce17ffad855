"""Disk-kernel approximate solutions and almost analytic extensions.

The device: average the truncated formal solution over a bump-weighted disk
of complex times z = t + |t| w, |w| <= epsilon, truncating the series at
each node at the index N((1+epsilon) C |z|) dictated by the weight
sequence.  The average reproduces polynomials in t exactly (radial symmetry
kills every positive moment), and the per-node truncation turns the series
divergence into flatness: the field applied to the result decays like the
associated function h(Q|t|) as t -> 0.

Specialized to the field d/dt - i d/dx this builds almost analytic
extensions U(x + it) of one-variable data, with dbar U = (i/2) L U flat to
the same order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (ArityMismatch, FitFailed, GuardExceeded,
                     QuadratureTooCoarse)
from .jets import (FormalSeries, VectorFieldJet, formal_solution,
                   growth_fit, jet_constant, jet_eval)
from .weights import WeightSequence, _FIT_CAP, assoc, bigN_capped, snap_up


# ---------------------------------------------------------------------------
# the disk kernel

# The 64-point Gauss-Legendre rule on [-1, 1]: the positive nodes and their
# weights, each float as scipy.special.roots_legendre(64) returns it.  That
# rule is symmetrized, so its negative half is the exact mirror image.
_GL64_NODES = (
    0.024350292663424374, 0.07299312178779904, 0.12146281929612057,
    0.16964442042399283, 0.21742364374000703, 0.2646871622087674,
    0.3113228719902109, 0.3572201583376682, 0.4022701579639916,
    0.44636601725346414, 0.489403145707053, 0.5312794640198946,
    0.5718956462026339, 0.6111553551723933, 0.6489654712546573,
    0.6852363130542332, 0.7198818501716109, 0.7528199072605319,
    0.7839723589433414, 0.8132653151227975, 0.8406292962525803,
    0.8659993981540928, 0.889315445995114, 0.9105221370785028,
    0.9295691721319396, 0.9464113748584028, 0.9610087996520538,
    0.973326827789911, 0.983336253884626, 0.9910133714767442,
    0.9963401167719552, 0.9993050417357721,
)
_GL64_WEIGHTS = (
    0.04869095700913963, 0.04857546744150339, 0.048344762234802906,
    0.04799938859645825, 0.047540165714830315, 0.046968182816209854,
    0.046284796581314465, 0.04549162792741793, 0.04459055816375637,
    0.04358372452932331, 0.04247351512365328, 0.041262563242623396,
    0.03995374113272041, 0.038550153178615335, 0.03705512854024002,
    0.03547221325688267, 0.03380516183714145, 0.03205792835485138,
    0.03023465707240202, 0.028339672614259487, 0.026377469715054197,
    0.024352702568710975, 0.022270173808383264, 0.020134823153530858,
    0.017951715775696795, 0.01572603047602452, 0.013463047896718951,
    0.011168139460130634, 0.0088467598263635, 0.006504457968979944,
    0.00414703326056217, 0.0017832807216983117,
)


def _mirrored(half, sign: float) -> np.ndarray:
    """The read-only array sign * half[::-1] followed by half."""
    half = np.array(half)
    out = np.concatenate((sign * half[::-1], half))
    out.flags.writeable = False
    return out


_GL_NODES = _mirrored(_GL64_NODES, -1.0)
_GL_WEIGHTS = _mirrored(_GL64_WEIGHTS, 1.0)


def _gauss_legendre(n: int):
    """The n-point Gauss-Legendre nodes (ascending) and weights on [-1, 1]:
    the read-only table at n = 64, scipy's roots_legendre otherwise."""
    if n == _GL_NODES.size:
        return _GL_NODES, _GL_WEIGHTS
    from scipy.special import roots_legendre
    return roots_legendre(n)


def _bump_profile(s):
    """exp(-1/(1-s)) for s < 1, else 0; s = |w|^2/eps^2."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = s < 1.0
    with np.errstate(under="ignore"):
        out[inside] = np.exp(-1.0 / (1.0 - s[inside]))
    return out


@dataclass(eq=False)
class DiskKernel:
    epsilon: float
    nodes: np.ndarray        # complex w_i, flattened product grid
    weights: np.ndarray      # area weight times normalized bump at w_i
    residual: float          # |moment_0 - 1| + sum of low moment magnitudes


_MOMENT_TOL = 1e-10         # bound on the kernel moment residual

# E_2(1) = int_1^inf e^{-u} u^{-2} du, from mpmath.expint(2, 1) at 30 digits
_E2_1 = 0.14849550677592205


def make_kernel(epsilon: float = 0.5, n_r: int = 64,
                n_theta: int = 64) -> DiskKernel:
    """Gauss-Legendre (radius) x trapezoid (angle) nodes on |w| <= epsilon
    with the normalized bump weight.  The default n_r = 64 reads the
    tabulated rule and loads no scipy module.

    The bump is normalized in closed form: with u = 1/(1 - (r/eps)^2),
    int_0^eps e^{-1/(1-(r/eps)^2)} r dr = eps^2 E_2(1) / 2.

    The residual tracks how well the discrete measure integrates to one and
    kills the first four moments; both are required to 1e-10, otherwise the
    grid cannot reproduce polynomials and we refuse it.
    """
    if not 0.0 < epsilon < 1.0 or n_theta < 1:
        raise ValueError("epsilon must lie in (0, 1) and n_theta be positive")
    xg, wg = _gauss_legendre(n_r)
    rr = 0.5 * epsilon * (xg + 1.0)
    wr = 0.5 * epsilon * wg

    norm = 1.0 / (2.0 * np.pi * (epsilon * epsilon * _E2_1 / 2.0))

    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    w_theta = 2.0 * np.pi / n_theta

    nodes = (rr[:, None] * np.exp(1j * theta)[None, :]).ravel()
    psi = norm * _bump_profile((rr / epsilon) ** 2)
    weights = (wr * rr * psi)[:, None].repeat(n_theta, axis=1).ravel() * w_theta

    moments = np.array([np.sum(weights * nodes ** k) for k in range(5)])
    residual = float(abs(moments[0] - 1.0) + np.sum(np.abs(moments[1:])))
    if residual > _MOMENT_TOL:
        raise QuadratureTooCoarse(
            f"kernel moment residual {residual:.3g} exceeds {_MOMENT_TOL:.3g} "
            f"at n_r={n_r}, n_theta={n_theta}")
    return DiskKernel(epsilon, nodes, weights, residual)


def kernel_apply_poly(kernel: DiskKernel, coeffs, t: float) -> complex:
    """Average a polynomial sum c_k z^k over the disk z = t + |t| w.

    Radial symmetry integrates every positive power of w to zero, so the
    result is p(t) up to the kernel residual.
    """
    z = t + abs(t) * kernel.nodes
    vals = np.polyval(np.asarray(coeffs, dtype=complex)[::-1], z)
    return complex(np.sum(kernel.weights * vals))


# ---------------------------------------------------------------------------
# approximate solutions

@dataclass(eq=False)
class ApproxSolution:
    """Disk-kernel average of a formal solution, valid for |t| <= delta.

    C_star is the geometric growth factor of the coefficient sups (from
    growth_fit or prior knowledge); it sets both the per-node truncation
    radius and the validity radius delta = 1/((1+eps)^2 C_star).
    """
    series: FormalSeries
    seq: WeightSequence
    kernel: DiskKernel
    C_star: float
    delta: float = field(init=False)

    def __post_init__(self):
        if not self.C_star > 0.0:
            raise ValueError(f"C_star must be positive, not {self.C_star}")
        if self.seq.K_max < self.series.n_max:
            raise ValueError(
                f"sequence table K_max={self.seq.K_max} shorter than the "
                f"series length {self.series.n_max}")
        eps = self.kernel.epsilon
        self.delta = 1.0 / ((1.0 + eps) ** 2 * self.C_star)

    def truncation_indices(self, t: float):
        """Per-node truncation K_i = min(N((1+eps) C |z_i|), n_max)."""
        z = t + abs(t) * self.kernel.nodes
        r = (1.0 + self.kernel.epsilon) * self.C_star * np.abs(z)
        return z, bigN_capped(self.seq, r, self.series.n_max)

    def moments(self, t: float):
        """The moment sums G_k(t) = sum_{K_i >= k} W_i z_i^k, k = 0..n_max;
        None at t = 0, where the average is u_0 itself."""
        t = float(t)
        if abs(t) > self.delta * (1.0 + 1e-12):
            raise ValueError(
                f"|t|={abs(t):.6g} beyond the validity radius delta={self.delta:.6g}")
        if t == 0.0:
            return None
        z, K = self.truncation_indices(t)
        W = self.kernel.weights
        G = np.zeros(self.series.n_max + 1, dtype=complex)
        zp = np.ones_like(z)
        every = K.min()
        for k in range(K.max() + 1):
            Wz = W * zp
            # every node keeps k up to min K_i: the sum over all of them
            G[k] = np.sum(Wz) if k <= every else np.sum(Wz[K >= k])
            zp = zp * z
        return G

    def evaluate(self, x, t: float):
        """u(x, t) = sum_i W_i sum_{k <= K_i} u_k(x) z_i^k, factored as
        sum_k u_k(x) G_k(t) through the moment sums."""
        u = self.series.u
        return _average(lambda k: jet_eval(u[k], x=x), self.moments(t))


def _average(term, G):
    """sum_k term(k) G_k, added in index order over the G_k != 0; term(0)
    when G is None (t = 0), term(0) * 0 when every G_k is 0."""
    if G is None:
        return term(0)
    out = None
    for k, g in enumerate(G):
        if g == 0.0:
            continue
        tk = term(k) * g
        out = tk if out is None else out + tk
    return term(0) * 0.0 if out is None else out


# ---------------------------------------------------------------------------
# flatness fitting

_Q_GRID = 2.0 ** (0.5 * np.arange(-4, 17))        # 1/4 .. 256, half-power steps


@dataclass
class FlatnessFit:
    Q: float
    A: float
    sup_ratio: float         # max sup / (A h(Q|t|)), <= 1 by construction
    t: np.ndarray
    sup: np.ndarray
    h: np.ndarray            # h(Q|t|) at the chosen Q
    skipped_Q: list


def flatness_fit(t_values, sup_values, seq: WeightSequence) -> FlatnessFit:
    """Fit sup(t) <= A h(Q|t|) over _Q_GRID, A snapped to quarter powers.

    Larger Q only helps (h is nondecreasing), so with A floored at 1 the
    minimal snapped A is attained on a tail of the grid; we report the
    smallest Q attaining it.  Q values whose h evaluation is uncertified
    (table guard) or underflows below a positive sup are skipped; if every
    Q is skipped or needs A beyond 2^16, the fit fails.
    """
    t = np.abs(np.asarray(t_values, dtype=float))
    sup = np.asarray(sup_values, dtype=float)
    if t.shape != sup.shape or t.ndim != 1 or t.size == 0:
        raise ValueError("need matching one-dimensional t and sup arrays")
    if np.any(t <= 0.0):
        raise ValueError("flatness is measured at t != 0")
    if not np.isfinite(sup).all():
        raise FitFailed("sup |L u| is not finite at every t")
    best = None
    skipped = []
    for Q in _Q_GRID:
        try:
            hv = np.atleast_1d(assoc(seq, "h", Q * t))
        except GuardExceeded:
            skipped.append(float(Q))
            continue
        if np.any((hv == 0.0) & (sup > 0.0)):
            skipped.append(float(Q))
            continue
        # a ratio past the largest float is inf, above any cap
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            ratios = np.where(sup > 0.0, sup / hv, 0.0)
        a_raw = float(np.max(ratios))
        A = 0.0 if a_raw == 0.0 else snap_up(a_raw)
        if A > _FIT_CAP:
            skipped.append(float(Q))
            continue
        if best is None or (A, Q) < (best.A, best.Q):
            ratio = 0.0 if A == 0.0 else a_raw / A
            best = FlatnessFit(float(Q), A, ratio, t, sup, hv, [])
    if best is None:
        raise FitFailed(
            f"no Q in [{_Q_GRID[0]:.3g}, {_Q_GRID[-1]:.3g}] admits a "
            f"certified fit below A={_FIT_CAP:.3g}")
    best.skipped_Q = skipped
    return best


def measure_flatness(sol: ApproxSolution, x_values, t_values) -> FlatnessFit:
    """Fit the decay of sup_x |L u(x, t)| against h(Q|t|), for a field
    d/dt + a(x) d/dx in one x variable.

    L u is read by central differences: of step 1e-4 in x, from the u_k
    evaluated once at x and x +- 1e-4, and of step 1e-4 (1 + |t|) in t,
    capped at 0.45 (delta - |t|) so both points stay inside delta.  Each
    time costs three moment sums, at t - ht, t and t + ht."""
    fld = sol.series.field
    if fld.n_x != 1 or fld.n_zeta:
        raise ArityMismatch(
            f"flatness is measured for one x variable and no zeta slots, "
            f"not {fld.n_x} and {fld.n_zeta}")
    dx = 1e-4
    x = np.asarray(x_values, dtype=float)

    def ev(V, G):
        return np.asarray(_average(V.__getitem__, G))

    sups = []
    # values past the float range reach the fit as inf or nan, which fails
    with np.errstate(over="ignore", invalid="ignore"):
        V, Vp, Vm = ([jet_eval(u, x=xv) for u in sol.series.u]
                     for xv in (x, x + dx, x - dx))
        a = jet_eval(fld.a[0], x=x)
        for tv in t_values:
            t = float(tv)
            cap = 0.45 * (sol.delta - abs(t))
            if cap <= 0.0:
                raise ValueError(
                    "t at or beyond the validity radius, no room to difference")
            ht = min(1e-4 * (1.0 + abs(t)), cap)
            dudt = (ev(V, sol.moments(t + ht)) -
                    ev(V, sol.moments(t - ht))) / (2.0 * ht)
            G = sol.moments(t)
            lu = dudt + a * ((ev(Vp, G) - ev(Vm, G)) / (2.0 * dx))
            sups.append(float(np.max(np.abs(lu))))
    return flatness_fit(t_values, sups, sol.seq)


# ---------------------------------------------------------------------------
# almost analytic extension

def almost_analytic_extend(f, seq: WeightSequence, kernel: DiskKernel,
                           z_values, n_max: int = 12,
                           C_star: float | None = None, growth_box=None):
    """Extend one-variable data f off the real axis through the disk-kernel
    average of the formal solution of d/dt - i d/dx.

    Returns (values, sol): U evaluated at the given complex points (Re z is
    the spatial variable, Im z the time), and the ApproxSolution for
    further probing.  dbar U = (i/2) (d/dt - i d/dx) U, so the extension's
    dbar decay is half the field decay that measure_flatness fits.
    Without C_star, growth_fit gives it over growth_box, [(lo, hi)], by
    default the span of Re z widened by 1/2 on each side.
    """
    if f.n_x != 1 or f.n_zeta != 0:
        raise ArityMismatch("extension is defined for one real variable")
    mi = jet_constant(-1j, 1, 0, f.degree, f.base_x, f.base_zeta)
    L = VectorFieldJet(a=[mi], b=[])
    series = formal_solution(L, f, min(n_max, f.degree))

    z = np.asarray(z_values, dtype=complex)
    zf = z.ravel()
    if C_star is None:
        if growth_box is None:
            growth_box = [(float(zf.real.min()) - 0.5,
                           float(zf.real.max()) + 0.5)]
        C_star = growth_fit(series, seq, growth_box).C_fit
    sol = ApproxSolution(series, seq, kernel, C_star)

    out = np.empty(zf.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):     # inf or nan
        for tv in np.unique(zf.imag):
            m = zf.imag == tv
            out[m] = np.atleast_1d(sol.evaluate(zf.real[m], float(tv)))
    return out.reshape(z.shape), sol
