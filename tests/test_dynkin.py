"""Disk kernel, approximate solutions, flatness fits, extensions."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import roots_legendre

from carleman import dynkin
from carleman.dynkin import (ApproxSolution, almost_analytic_extend,
                             flatness_fit, kernel_apply_poly, make_kernel,
                             measure_flatness)
from carleman.errors import FitFailed, GuardExceeded, QuadratureTooCoarse
from carleman.jets import (VectorFieldJet, formal_solution, jet_constant,
                           jet_mul, jet_variable)
from carleman.weights import assoc, make_sequence


@pytest.fixture(scope="module")
def kernel():
    return make_kernel(epsilon=0.5, n_r=64, n_theta=64)


@pytest.fixture(scope="module")
def g2():
    return make_sequence("gevrey", s=2.0, K_max=64)


def x_jet(degree):
    return jet_variable(0, 1, 0, degree)


# ---------------------------------------------------------------------------
# kernel

def test_kernel_moments_tiny(kernel):
    assert kernel.residual < 1e-12
    assert abs(np.sum(kernel.weights) - 1.0) < 1e-12
    # the bump underflows at the outermost radii; weights stay nonnegative
    assert np.all(kernel.weights >= 0.0)
    assert np.max(kernel.weights) > 0.0
    assert kernel.nodes.size == 64 * 64


def test_polynomial_reproduction(kernel):
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=9) + 1j * rng.normal(size=9)
    for t in (0.1, -0.1, 0.01, -0.01):
        want = np.polyval(coeffs[::-1], t)
        assert abs(want) > 0.1
        got = kernel_apply_poly(kernel, coeffs, t)
        assert abs(got - want) / abs(want) < 1e-8


def test_monomial_reproduction(kernel):
    for k in range(9):
        coeffs = np.zeros(k + 1)
        coeffs[k] = 1.0
        for t in (0.1, -0.1, 0.01, -0.01):
            got = kernel_apply_poly(kernel, coeffs, t)
            assert abs(got - t ** k) / abs(t) ** k < 1e-8


def test_coarse_kernel_refused():
    with pytest.raises(QuadratureTooCoarse):
        make_kernel(epsilon=0.5, n_r=2, n_theta=3)


def test_kernel_epsilon_validated():
    with pytest.raises(ValueError):
        make_kernel(epsilon=1.5)


def _quad_bump_mass(epsilon):
    """int_0^eps e^{-1/(1-(r/eps)^2)} r dr by adaptive quadrature, the
    kernel's normalization before the closed form replaced it."""
    ref, _ = quad(lambda r: np.exp(-1.0 / (1.0 - (r / epsilon) ** 2)) * r,
                  0.0, epsilon, epsabs=1e-15, epsrel=1e-13, limit=200)
    return ref


def test_e2_of_one_matches_mpmath():
    with mpmath.workdps(30):
        want = mpmath.expint(2, 1)
        ulp = np.spacing(float(want))
        assert abs(mpmath.mpf(dynkin._E2_1) - want) <= ulp


@pytest.mark.parametrize("epsilon", [0.1, 0.25, 0.5, 0.75, 0.9])
def test_closed_form_bump_mass_matches_quad(epsilon):
    ref = _quad_bump_mass(epsilon)
    closed = epsilon * epsilon * dynkin._E2_1 / 2.0
    assert abs(closed - ref) <= 4 * np.finfo(float).eps * ref


def test_default_kernel_equals_the_quad_normalized_kernel(kernel,
                                                          monkeypatch):
    # at epsilon = 0.5 the closed form eps^2 E / 2 is E / 8 exactly, so
    # E = 8 * ref rebuilds the kernel on quad's normalization bit for bit
    monkeypatch.setattr(dynkin, "_E2_1", 8.0 * _quad_bump_mass(0.5))
    old = make_kernel(epsilon=0.5, n_r=64, n_theta=64)
    assert np.array_equal(kernel.nodes, old.nodes)
    assert np.array_equal(kernel.weights, old.weights)


def test_tabulated_rule_is_scipys_rule_bit_for_bit(kernel, monkeypatch):
    nodes, weights = dynkin._gauss_legendre(64)
    want_nodes, want_weights = roots_legendre(64)
    assert nodes.tobytes() == want_nodes.tobytes()
    assert weights.tobytes() == want_weights.tobytes()
    assert not nodes.flags.writeable and not weights.flags.writeable
    for n in (1, 32, 128):
        got = dynkin._gauss_legendre(n)
        assert [a.tobytes() for a in got] == \
            [a.tobytes() for a in roots_legendre(n)]

    monkeypatch.setattr(dynkin, "_gauss_legendre", roots_legendre)
    scipys = make_kernel(epsilon=0.5, n_r=64, n_theta=64)
    assert kernel.nodes.tobytes() == scipys.nodes.tobytes()
    assert kernel.weights.tobytes() == scipys.weights.tobytes()
    for table in (nodes, weights):
        assert not np.shares_memory(table, kernel.nodes)
        assert not np.shares_memory(table, kernel.weights)


def test_tabulated_rule_matches_a_40_digit_rule():
    # nodes are the roots of P_64, weights 2 (1 - x^2) / (64 P_63(x))^2;
    # scipy's weights are up to 8664 ulp off, so the weight bound is loose
    nodes, weights = dynkin._gauss_legendre(64)
    assert np.array_equal(nodes[:32], -nodes[:31:-1])
    assert np.array_equal(weights[:32], weights[:31:-1])
    with mpmath.workdps(40):
        for x, w in zip(nodes[32:], weights[32:]):
            root = mpmath.findroot(lambda y: mpmath.legendre(64, y),
                                   mpmath.mpf(float(x)))
            exact_w = 2 * (1 - root ** 2) / (
                64 ** 2 * mpmath.legendre(63, root) ** 2)
            assert abs(mpmath.mpf(float(x)) - root) <= 1.45e-16
            assert abs(mpmath.mpf(float(w)) - exact_w) <= 1.06e-12 * exact_w
    for k in range(127):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(np.sum(weights * nodes ** k) - exact) <= 5e-15


# ---------------------------------------------------------------------------
# approximate solutions

def transport_solution(kernel, g2, degree=14, n_max=12, C_star=1.0):
    # d/dt + d/dx, datum x^2: exact solution (x - t)^2, terminating series
    one = jet_constant(1.0, 1, 0, degree)
    L = VectorFieldJet(a=[one], b=[])
    ser = formal_solution(L, jet_mul(x_jet(degree), x_jet(degree)), n_max)
    return ApproxSolution(ser, g2, kernel, C_star)


def dilation_solution(kernel, g2, degree=14, n_max=12, C_star=1.0):
    # d/dt + x d/dx, datum x: exact solution x e^{-t}
    L = VectorFieldJet(a=[x_jet(degree)], b=[])
    ser = formal_solution(L, x_jet(degree), n_max)
    return ApproxSolution(ser, g2, kernel, C_star)


def test_terminating_series_reproduced_exactly(kernel, g2):
    sol = transport_solution(kernel, g2)
    xs = np.linspace(-1.0, 1.0, 9)
    for t in (0.2, -0.2, 0.1, -0.05, 0.01, -0.01):
        got = sol.evaluate(xs, t)
        assert np.max(np.abs(got - (xs - t) ** 2)) < 1e-12


def test_t_zero_returns_datum(kernel, g2):
    sol = dilation_solution(kernel, g2)
    xs = np.linspace(-1.0, 1.0, 5)
    assert np.max(np.abs(sol.evaluate(xs, 0.0) - xs)) == 0.0


def test_validity_radius_enforced(kernel, g2):
    sol = dilation_solution(kernel, g2)
    assert sol.delta == pytest.approx(1.0 / 2.25)
    with pytest.raises(ValueError):
        sol.evaluate(0.5, sol.delta * 1.01)


def test_error_collapses_as_t_shrinks(kernel, g2):
    sol = dilation_solution(kernel, g2)
    errs = []
    for j in range(2, 9):
        t = 2.0 ** (-j)
        got = sol.evaluate(1.0, t)
        errs.append(abs(got - np.exp(-t)))
    assert all(e1 < 0.5 * e0 for e0, e1 in zip(errs, errs[1:]) if e0 > 1e-14)
    assert errs[4] < 1e-10
    assert errs[-1] < 1e-13


def test_evaluate_matches_direct_double_sum(kernel, g2):
    sol = dilation_solution(kernel, g2)
    x = 0.7
    for t in (0.2, -0.11, 0.03):
        z, K = sol.truncation_indices(t)
        direct = 0.0
        for i in range(z.size):
            pz = sum((-z[i]) ** k / math.factorial(k) for k in range(K[i] + 1))
            direct += sol.kernel.weights[i] * x * pz
        got = sol.evaluate(x, t)
        assert abs(got - direct) < 1e-13


def test_guard_propagates_for_rough_table(kernel):
    # a non-log-convex table cannot certify the truncation index at tiny t
    m = np.array([1.0, 1.0, 5.0, 6.0, 24.0, 120.0, 720.0, 5040.0, 40320.0])
    lf = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1.0, 9.0)))])
    bumpy = make_sequence("table", K_max=8, values=m * np.exp(lf))
    sol = dilation_solution(kernel, bumpy, n_max=6)
    with pytest.raises(GuardExceeded):
        sol.evaluate(0.5, 1e-5)
    # moderate t stays within the certified range
    sol.evaluate(0.5, 0.3)


def test_series_longer_than_table_refused(kernel):
    short = make_sequence("gevrey", s=2.0, K_max=8)
    with pytest.raises(ValueError):
        dilation_solution(kernel, short, n_max=12)


# ---------------------------------------------------------------------------
# flatness fits

def test_flatness_fit_synthetic_envelope():
    seq = make_sequence("gevrey", s=2.0, K_max=4096)
    t = np.geomspace(1e-3, 0.2, 24)
    sup = assoc(seq, "h", 2.0 * t)
    fit = flatness_fit(t, sup, seq)
    assert fit.Q == 2.0
    assert fit.A == 1.0
    assert fit.sup_ratio <= 1.0 + 1e-12


def test_flatness_fit_zero_field():
    seq = make_sequence("gevrey", s=2.0, K_max=64)
    t = np.geomspace(1e-2, 0.2, 8)
    fit = flatness_fit(t, np.zeros_like(t), seq)
    assert fit.A == 0.0
    assert fit.sup_ratio == 0.0


def test_flatness_fit_fails_below_certified_range():
    seq = make_sequence("gevrey", s=2.0, K_max=64)
    t = np.full(4, 1e-6)
    with pytest.raises(FitFailed):
        flatness_fit(t, np.full(4, 0.5), seq)


def test_flatness_fit_rejects_non_finite_sup(g2):
    t = np.geomspace(1e-3, 1e-1, 4)
    for bad in (np.inf, np.nan):
        with pytest.raises(FitFailed):
            flatness_fit(t, [1e-3, 1e-4, bad, 1e-6], g2)


def test_flatness_fit_rejects_bad_axes():
    seq = make_sequence("gevrey", s=2.0, K_max=64)
    with pytest.raises(ValueError):
        flatness_fit([0.1, 0.0], [1.0, 1.0], seq)
    with pytest.raises(ValueError):
        flatness_fit([0.1], [1.0, 2.0], seq)


# ---------------------------------------------------------------------------
# almost analytic extension

def test_extension_of_square_is_exact(kernel, g2):
    f = jet_mul(x_jet(14), x_jet(14))
    xs = np.linspace(-1.0, 1.0, 7)
    zs = (xs[None, :] + 1j * np.array([-0.2, -0.05, 0.0, 0.05, 0.2])[:, None])
    vals, sol = almost_analytic_extend(f, g2, kernel, zs, C_star=1.0)
    assert vals.shape == zs.shape
    assert np.max(np.abs(vals - zs ** 2)) < 1e-12


def test_extension_restricts_to_datum(kernel, g2):
    f = jet_mul(x_jet(14), x_jet(14))
    xs = np.linspace(-0.8, 0.8, 9)
    vals, _ = almost_analytic_extend(f, g2, kernel, xs.astype(complex), C_star=1.0)
    assert np.max(np.abs(vals - xs ** 2)) == 0.0


def test_extension_dbar_is_flat(kernel, g2):
    f = jet_mul(x_jet(14), x_jet(14))
    probe = np.linspace(-0.5, 0.5, 5) + 0.0j
    _, sol = almost_analytic_extend(f, g2, kernel, probe, C_star=1.0)
    t = np.geomspace(1e-2, 0.2, 6)
    # dbar U = (i/2) L U: half the sups of the field applied to U
    field = measure_flatness(sol, np.linspace(-0.5, 0.5, 9), t)
    fit = flatness_fit(t, 0.5 * field.sup, sol.seq)
    assert fit.A <= 1.0
    assert fit.Q <= 256.0


def test_extension_rejects_multivariate(kernel, g2):
    f = jet_variable(0, 2, 0, 8)
    from carleman.errors import ArityMismatch
    with pytest.raises(ArityMismatch):
        almost_analytic_extend(f, g2, kernel, np.array([0.1 + 0.1j]))


def test_default_growth_fit_sets_validity(kernel, g2):
    f = jet_mul(x_jet(14), x_jet(14))
    zs = np.linspace(-1.0, 1.0, 5) + 0.01j
    vals, sol = almost_analytic_extend(f, g2, kernel, zs)
    assert sol.C_star >= 1.0
    assert 0.0 < sol.delta <= 1.0 / 2.25
    assert np.max(np.abs(vals - zs ** 2)) < 1e-10
