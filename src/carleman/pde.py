"""Quasilinear first-order model, linearization, characteristic geometry.

The equation is du/dt = f(x, u, grad u) with f given as a jet in
(x_1..x_n, zeta_0, zeta_1..zeta_n), zeta_0 standing for u and zeta_j for
du/dx_j.  Along a solution u the relevant operator is the linearization

    L^u = d/dt - sum_j f_zeta_j(x, u, grad u) d/dx_j,

whose characteristic covectors and Hamiltonian lift to the zeta slots are
computed here, together with the residual of sampled solutions and the
recovery of transport coefficients from complex traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space

from .errors import ArityMismatch, SingularJacobian, TrustBoxExceeded, \
    Undersampled
from .fbi import GRID_N, ScanConfig, ScanReport, _check_steps, \
    guard_n, wavefront_scan
from .fixtures import windowed_grid
from .jets import Jet, VectorFieldJet, _apply_coeffs, jet_add, jet_diff, \
    jet_eval, jet_mul, jet_scale, jet_variable
from .weights import WeightSequence


# ---------------------------------------------------------------------------
# the model and sampled solutions

@dataclass(eq=False)
class RhsModel:
    """Right side f(x, zeta_0, zeta_1..zeta_n) of du/dt = f(x, u, grad u).

    jet carries the exact Taylor data, and f is evaluated through it.
    trust_radius bounds the |u| and |grad u| values the model is trusted on.
    """
    jet: Jet
    trust_radius: float = np.inf

    def __post_init__(self):
        if self.jet.n_zeta != self.jet.n_x + 1:
            raise ArityMismatch(
                f"f needs n_x + 1 = {self.jet.n_x + 1} zeta slots "
                f"(u and its gradient), got {self.jet.n_zeta}")

    @property
    def n_x(self) -> int:
        return self.jet.n_x


@dataclass(eq=False)
class SolutionSamples:
    """u sampled on a uniform (x, t) product grid, one spatial variable.

    Central differences on the interior supply du/dx and du/dt; residual
    measures how well the samples satisfy the model.
    """
    fn: object
    x: np.ndarray
    t: np.ndarray
    u: np.ndarray

    @classmethod
    def from_function(cls, fn, x_lo, x_hi, n_x, t_lo, t_hi, n_t):
        x = np.linspace(x_lo, x_hi, n_x)
        t = np.linspace(t_lo, t_hi, n_t)
        u = np.asarray(fn(x[:, None], t[None, :]), dtype=complex)
        return cls(fn, x, t, u)

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])

    def interior(self):
        """x grid, u, du/dx, du/dt on the interior points."""
        u = self.u
        ui = u[1:-1, 1:-1]
        ux = (u[2:, 1:-1] - u[:-2, 1:-1]) / (2.0 * self.dx)
        ut = (u[1:-1, 2:] - u[1:-1, :-2]) / (2.0 * self.dt)
        return self.x[1:-1], ui, ux, ut

    def trusted_interior(self, model: RhsModel):
        """interior() with x broadcast to the interior grid, after checking
        that u and du/dx stay within the model's trusted radius."""
        xi, ui, ux, ut = self.interior()
        reach = max(float(np.max(np.abs(ui))), float(np.max(np.abs(ux))))
        if reach > model.trust_radius:
            raise TrustBoxExceeded(
                f"samples reach |zeta| ~ {reach:.3g} beyond the trusted "
                f"radius {model.trust_radius:.3g}")
        return xi[:, None] + 0.0 * ui.real, ui, ux, ut

    def residual(self, model: RhsModel) -> float:
        """max |du/dt - f(x, u, du/dx)| over the interior."""
        xg, ui, ux, ut = self.trusted_interior(model)
        fv = jet_eval(model.jet, x=xg, zeta=[ui, ux])
        fv = np.broadcast_to(np.asarray(fv, dtype=complex), ut.shape)
        return float(np.max(np.abs(ut - fv)))


def linearize(model: RhsModel, samples: SolutionSamples):
    """Transport coefficient grids a_j = f_zeta_j(x, u, du/dx) on the
    interior of the sample grid; the linearized operator is
    d/dt - sum_j a_j d/dx_j."""
    xg, ui, ux, _ = samples.trusted_interior(model)
    grids = []
    for j in range(model.n_x):
        dj = jet_diff(model.jet, model.jet.n_x + 1 + j)
        val = np.asarray(jet_eval(dj, x=xg, zeta=[ui, ux]), dtype=complex)
        grids.append(np.broadcast_to(val, ui.shape).copy())
    return grids


# ---------------------------------------------------------------------------
# characteristic set

@dataclass
class CharSet:
    """Characteristic covectors (tau, xi) of d/dt - sum a0_j d/dx_j, a
    linear subspace of R^{1+n}."""
    basis: np.ndarray            # orthonormal columns spanning the set

    def distance(self, covector) -> float:
        v = np.asarray(covector, dtype=float)
        if self.basis.shape[1] == 0:
            return float(np.linalg.norm(v))
        proj = self.basis @ (self.basis.T @ v)
        return float(np.linalg.norm(v - proj))


def char_set(a0) -> CharSet:
    """The null space of tau = Re a0 . xi and Im a0 . xi = 0."""
    a0 = np.atleast_1d(np.asarray(a0, dtype=complex))
    return CharSet(null_space(np.vstack([
        np.concatenate([[1.0], -a0.real]),
        np.concatenate([[0.0], a0.imag])])))


# ---------------------------------------------------------------------------
# the Hamiltonian lift

def hamiltonian_lift(model: RhsModel) -> VectorFieldJet:
    """Vector field on (x, zeta_0, zeta) whose flow transports the jet of
    (u, grad u) along the linearization:

        H = d/dt - sum_j f_zeta_j d/dx_j + h_0 d/dzeta_0 + sum_j h_j d/dzeta_j
        h_0 = f - sum_j zeta_j f_zeta_j,   h_j = f_x_j + zeta_j f_zeta_0.
    """
    f = model.jet
    n = model.n_x
    a = [jet_scale(jet_diff(f, n + 1 + j), -1.0) for j in range(n)]
    h0 = f
    for j in range(n):
        zj = jet_variable(n + 1 + j, f.n_x, f.n_zeta, f.degree,
                          f.base_x, f.base_zeta)
        h0 = jet_add(h0, jet_scale(jet_mul(zj, jet_diff(f, n + 1 + j)), -1.0))
    b = [h0]
    fz0 = jet_diff(f, n)
    for j in range(n):
        zj = jet_variable(n + 1 + j, f.n_x, f.n_zeta, f.degree,
                          f.base_x, f.base_zeta)
        b.append(jet_add(jet_diff(f, j), jet_mul(zj, fz0)))
    return VectorFieldJet(a=a, b=b)


def hamiltonian_apply(H: VectorFieldJet, phi: Jet) -> Jet:
    """H applied to a time-independent observable, as a jet."""
    return _apply_coeffs(H, phi)


@dataclass
class ChainIdentityReport:
    steps: list
    errors: list                 # max interior |L^w(phi o w) - (H phi) o w|
    ratios: list                 # consecutive error ratios, ~4 at 2nd order


def chain_identity_check(model: RhsModel, u_fn, phi: Jet, x_box=(-0.5, 0.5),
                         t_box=(-0.2, 0.2), steps=(0.02, 0.01),
                         ux_fn=None, anisotropy: float = 1.0) -> ChainIdentityReport:
    """Check L^u(phi(x, u, grad u)) = (H phi)(x, u, grad u) by finite
    differences against the exact jet computation, one spatial variable.

    u_fn(x, t) must solve the model on the box; ux_fn defaults to a central
    difference of u_fn.  Second order in the step when the composite is
    curved, identically small when it is affine.  anisotropy scales the x
    step relative to the t step; matched steps make the two difference
    quotients of a wave profile g(x + t) read the same table twice and
    cancel exactly, so a value below 1 keeps the truncation error visible.
    """
    if model.n_x != 1:
        raise ArityMismatch("the identity check covers one spatial variable")
    hphi = _apply_coeffs(hamiltonian_lift(model), phi)
    fz = jet_diff(model.jet, 2)

    if ux_fn is None:
        def ux_fn(x, t, _h=1e-6):
            return (u_fn(x + _h, t) - u_fn(x - _h, t)) / (2.0 * _h)

    errors = []
    for h in steps:
        hx = anisotropy * h
        x = np.arange(x_box[0], x_box[1] + 0.5 * hx, hx)
        t = np.arange(t_box[0], t_box[1] + 0.5 * h, h)
        xg = x[:, None] + 0.0 * t[None, :]
        u = np.asarray(u_fn(x[:, None], t[None, :]), dtype=complex)
        ux = np.asarray(ux_fn(x[:, None], t[None, :]), dtype=complex)

        def on_w(jet):
            val = np.asarray(jet_eval(jet, x=xg, zeta=[u, ux]), dtype=complex)
            return np.broadcast_to(val, xg.shape)

        phi_w = on_w(phi)
        dphi_t = (phi_w[1:-1, 2:] - phi_w[1:-1, :-2]) / (2.0 * h)
        dphi_x = (phi_w[2:, 1:-1] - phi_w[:-2, 1:-1]) / (2.0 * hx)
        lhs = dphi_t - on_w(fz)[1:-1, 1:-1] * dphi_x
        rhs = on_w(hphi)[1:-1, 1:-1]
        errors.append(float(np.max(np.abs(lhs - rhs))))
    ratios = [e0 / e1 for e0, e1 in zip(errors, errors[1:]) if e1 > 0.0]
    return ChainIdentityReport(list(steps), errors, ratios)


# ---------------------------------------------------------------------------
# transport coefficients from complex traces

def renormalize(z_samples, dx: float, dt: float,
                cond_cap: float = 1e6) -> np.ndarray:
    """Recover b in Z_t + b Z_x = 0 from samples of Z on an (x, t) grid by
    central differences: b = -Z_t / Z_x on the interior.

    A trace transported by d/dt + b d/dx returns the coefficient field b
    itself.  A spatial derivative whose magnitude vanishes or varies by
    more than cond_cap leaves the division ill-posed and raises.
    """
    z = np.asarray(z_samples, dtype=complex)
    if z.ndim != 2 or min(z.shape) < 3:
        raise ValueError("need a 2d sample grid with at least 3 points per axis")
    zx = (z[2:, 1:-1] - z[:-2, 1:-1]) / (2.0 * dx)
    zt = (z[1:-1, 2:] - z[1:-1, :-2]) / (2.0 * dt)
    mags = np.abs(zx)
    if np.min(mags) == 0.0 or np.max(mags) / np.min(mags) > cond_cap:
        raise SingularJacobian(
            "spatial derivative of the trace is singular on the box")
    return -zt / zx


# ---------------------------------------------------------------------------
# the inclusion experiment

# the certification rescan has about n / _RESCAN samples per axis, and its
# normalized |F| may differ from the scan's by at most _RESCAN_TOL.  At the
# defaults (n = 368 against 246) the gap is 9.9e-10 for the conormal
# fixture, whose kink leaves the quadrature an algebraic error, and 2.6e-15
# for the holomorphic one
_RESCAN = 1.5
_RESCAN_TOL = 1e-8


@dataclass
class WfInclusionReport:
    scan: ScanReport
    a0: np.ndarray
    covectors: np.ndarray        # (n_singular, 2) rows (tau, xi)
    distances: np.ndarray
    step: float
    included: np.ndarray
    n: int                       # samples per axis of the scanned grid


def _certified_scan(u, base, radius: float, n: int, m: int,
                    seq: WeightSequence,
                    config: ScanConfig | None) -> ScanReport:
    """The scan of u windowed about base at n samples per axis, certified
    by a rescan at m.  Both must fail and single out the same directions
    and fit the same A in every direction, and their normalized samples
    must agree within _RESCAN_TOL; Undersampled otherwise.  The grids are
    built one at a time."""
    scan, rescan = (wavefront_scan(windowed_grid(u, k, base, radius), base,
                                   seq, config) for k in (n, m))
    if scan.failed_indices != rescan.failed_indices or \
            scan.singular_indices != rescan.singular_indices or \
            [r.A_fit for r in scan.reports] != \
            [r.A_fit for r in rescan.reports]:
        raise Undersampled(f"the scan at n = {n} and its rescan at n = {m} "
                           f"reach different verdicts")
    gap = float(np.max(np.abs(scan.samples - rescan.samples)))
    if not gap <= _RESCAN_TOL:
        raise Undersampled(f"normalized |F| at n = {n} and at n = {m} differ "
                           f"by {gap:.3g}, above {_RESCAN_TOL:g}")
    return scan


def wf_inclusion_experiment(model: RhsModel, u, seq: WeightSequence,
                            base=(0.0, 0.0), radius: float = 1.0,
                            n: int | None = None,
                            config: ScanConfig | None = None
                            ) -> WfInclusionReport:
    """Scan the solution u(x, t), a vectorized callable, as a function of
    spacetime around a base point and test every singular covector against
    the characteristic set of the linearization there.

    The grid has n samples per axis over the box of half-width radius;
    by default n is guard_n at half the allowed step at the largest lambda
    of the scan, 368 at the defaults, and at most GRID_N.  Either way a
    rescan at ceil(n / 1.5) certifies the scan (see _certified_scan), or
    at the coarsest grid the sampling guard passes when that is finer, or
    at n + 1 when n is that grid itself; no grid is built before n passes
    the guard.  a0 is linearize's coefficient at the centre of a
    3 x 3 sample stencil of step 1e-5 about the base point.  The grid axes
    are (x, t), so a scan direction omega maps to the covector (tau, xi) =
    (omega_2, omega_1).  Inclusion holds when the distance to Char does
    not exceed the angular step of the fan.
    """
    if model.n_x != 1:
        raise ArityMismatch("the experiment covers one spatial variable")
    x0, t0 = float(base[0]), float(base[1])
    lo, hi = np.array([x0, t0]) - radius, np.array([x0, t0]) + radius
    if not np.all(lo < hi):
        raise ValueError(f"radius {radius:.6g} spans no box around {base}")

    h = 1e-5
    if not (x0 - h < x0 + h and t0 - h < t0 + h):
        raise ValueError(f"base {base} lies too far out for the a0 stencil "
                         f"of step {h:g}")
    stencil = SolutionSamples.from_function(u, x0 - h, x0 + h, 3,
                                            t0 - h, t0 + h, 3)
    a0 = np.array([a[0, 0] for a in linearize(model, stencil)])
    cs = char_set(a0)

    lams = (config or ScanConfig()).lambdas
    top, half = float(np.max(lams)), 0.5 * float(np.max(hi - lo))
    if n is None:
        n = min(guard_n(top, half, 0.5), GRID_N)
    for lam in lams:                                # before the grid build
        _check_steps((hi - lo) / (n - 1.0), 0.5 * (hi - lo), lam)
    m = max(math.ceil(n / _RESCAN), guard_n(top, half))
    scan = _certified_scan(u, (x0, t0), radius, n, m if m < n else n + 1,
                           seq, config)

    step = 2.0 * np.pi / scan.directions.shape[0]
    covs = []
    dists = []
    for j in scan.singular_indices:
        om = scan.directions[j]
        cov = np.array([om[1], om[0]])
        covs.append(cov)
        dists.append(cs.distance(cov))
    covectors = np.asarray(covs).reshape(-1, 2)
    distances = np.asarray(dists)
    included = distances <= step + 1e-12
    return WfInclusionReport(scan, a0, covectors, distances, step, included,
                             n)
