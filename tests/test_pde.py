"""Model linearization, characteristic geometry, and the lifted identity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import null_space

from carleman.errors import ArityMismatch, SingularJacobian, TrustBoxExceeded
from carleman.jets import apply_coeffs, jet_diff, jet_eval, jet_mul, \
    jet_scale, jet_variable
from carleman.pde import (RhsModel, SolutionSamples, chain_identity_check,
                          char_set, hamiltonian_lift, linearize, renormalize,
                          wf_inclusion_experiment)
from carleman.weights import make_sequence

ROOT2 = np.sqrt(2.0)


def _x(degree=8):
    return jet_variable(0, 1, 2, degree)


def _z0(degree=8):
    return jet_variable(1, 1, 2, degree)


def _z1(degree=8):
    return jet_variable(2, 1, 2, degree)


def transport_model():
    # du/dt = du/dx, solutions g(x + t)
    return RhsModel(_z1())


def neg_transport_model():
    # du/dt = -du/dx, solutions g(x - t)
    return RhsModel(jet_scale(_z1(), -1.0))


def dilation_model():
    # du/dt = -x du/dx, the dilation flow
    return RhsModel(jet_mul(jet_scale(_x(), -1.0), _z1()))


# ---------------------------------------------------------------------------
# model and samples

def test_model_needs_gradient_slots():
    bad = jet_variable(1, 1, 1, 8)          # only zeta_0, no gradient slot
    with pytest.raises(ArityMismatch):
        RhsModel(bad)


def test_samples_matched_steps_cancel():
    # equal dx and dt make the two difference quotients read the same table
    # entries for any profile g(x + t), so the residual is pure rounding
    s = SolutionSamples.from_function(lambda x, t: np.sin(x + t),
                                     -0.5, 0.5, 81, -0.2, 0.2, 33)
    assert s.dx == pytest.approx(s.dt)
    assert s.residual(transport_model()) < 1e-12


def test_samples_oscillatory_residual_scale():
    # d/dt e^{x+it} = i u; central differences miss by (1 - sinc h) ~ h^2/6
    model = RhsModel(jet_scale(_z0(), 1j))
    s = SolutionSamples.from_function(lambda x, t: np.exp(x + 1j * t),
                                     -0.5, 0.5, 1001, -0.1, 0.1, 201)
    res = s.residual(model)
    assert 1e-8 < res < 1e-6


def test_coarse_grid_residual_is_large():
    model = RhsModel(jet_scale(_z0(), 1j))
    s = SolutionSamples.from_function(lambda x, t: np.exp(x + 1j * t),
                                     -0.5, 0.5, 21, -0.1, 0.1, 9)
    assert s.residual(model) > 1e-6


def test_trust_radius_guard():
    model = RhsModel(_z1(), trust_radius=0.5)
    s = SolutionSamples.from_function(lambda x, t: np.sin(x + t),
                                     -0.5, 0.5, 81, -0.2, 0.2, 33)
    with pytest.raises(TrustBoxExceeded):
        s.residual(model)
    with pytest.raises(TrustBoxExceeded):
        linearize(model, s)


def test_linearize_dilation_coefficient():
    s = SolutionSamples.from_function(lambda x, t: x * np.exp(-t),
                                     -0.5, 0.5, 101, -0.2, 0.2, 41)
    a = linearize(dilation_model(), s)
    xi, ui, _, _ = s.interior(dilation_model())
    assert a.shape == ui.shape
    assert np.max(np.abs(a - (-xi))) < 1e-12


def test_linearize_state_dependent_coefficient():
    # f = zeta_0 zeta_1 linearizes to a = u on the sample grid
    model = RhsModel(jet_mul(_z0(), _z1()))
    s = SolutionSamples.from_function(lambda x, t: np.sin(x + t),
                                     -0.5, 0.5, 81, -0.2, 0.2, 33)
    a = linearize(model, s)
    _, ui, _, _ = s.interior(model)
    assert np.max(np.abs(a - ui)) < 1e-12


@pytest.mark.parametrize("n_x", [3, 4, 5])
def test_samples_refuse_a_model_of_two_space_variables(n_x):
    # the one interior names the mismatch before any jet is evaluated, so
    # the message does not depend on the number of grid points
    model = RhsModel(jet_variable(3, 2, 3, 8))
    s = SolutionSamples.from_function(lambda x, t: x + t,
                                     -0.5, 0.5, n_x, -0.2, 0.2, 5)
    for read in (s.interior, s.residual, lambda m: linearize(m, s)):
        with pytest.raises(ArityMismatch, match="^the samples have one "
                                                "spatial variable, the "
                                                "model 2$"):
            read(model)


# ---------------------------------------------------------------------------
# characteristic set

def test_char_membership_real_symbol():
    cs = char_set(-1.0)
    assert cs.basis.shape == (2, 1)
    assert cs.distance([1.0 / ROOT2, -1.0 / ROOT2]) <= 1e-12
    assert cs.distance([1.0 / ROOT2, 1.0 / ROOT2]) == pytest.approx(1.0)


def test_char_imaginary_symbol_is_trivial():
    cs = char_set(1j)
    assert cs.basis.shape[1] == 0
    assert cs.distance([1.0 / ROOT2, 1.0 / ROOT2]) == pytest.approx(1.0)


def test_char_two_space_dims():
    cs = char_set([-1.0, 0.0])
    assert cs.basis.shape == (3, 2)
    assert cs.distance([1.0 / ROOT2, -1.0 / ROOT2, 0.0]) <= 1e-12
    assert cs.distance([1.0 / ROOT2, 1.0 / ROOT2, 0.0]) == pytest.approx(1.0)


_PART = st.floats(-10.0, 10.0, allow_nan=False)
_A0 = st.one_of(
    st.lists(_PART, min_size=1, max_size=3),                        # real
    st.lists(st.builds(complex, _PART, _PART), min_size=1, max_size=3),
    st.lists(_PART.map(lambda y: 1j * y), min_size=1, max_size=3),  # imag
    st.integers(1, 3).map(lambda n: [0.0] * n))


@settings(max_examples=200, deadline=None)
@given(a0=_A0, data=st.data())
def test_char_set_matches_scipy_null_space(a0, data):
    """The SVD null space agrees with scipy.linalg.null_space on the same
    2 x (1 + n) matrix: same dimension, orthonormal columns, the same
    projector, and the same distances."""
    a = np.asarray(a0, dtype=complex)
    want = null_space(np.vstack([np.concatenate([[1.0], -a.real]),
                                 np.concatenate([[0.0], a.imag])]))
    cs = char_set(a0)
    got = cs.basis
    assert got.shape == want.shape
    assert np.max(np.abs(got.T @ got - np.eye(got.shape[1])),
                  initial=0.0) <= 1e-14
    assert np.max(np.abs(got @ got.T - want @ want.T)) <= 1e-14
    covector = np.array(data.draw(st.lists(
        st.floats(-1.0, 1.0), min_size=a.size + 1, max_size=a.size + 1)))
    ref = np.linalg.norm(covector - want @ (want.T @ covector))
    assert abs(cs.distance(covector) - ref) <= 1e-14


# ---------------------------------------------------------------------------
# Hamiltonian lift

def test_lift_transport_is_flat():
    H = hamiltonian_lift(transport_model())
    assert H.a[0].coeffs == {(0, 0, 0): pytest.approx(-1.0)}
    assert H.b[0].coeffs == {}
    assert H.b[1].coeffs == {}


def test_lift_product_model():
    H = hamiltonian_lift(RhsModel(jet_mul(_z0(), _z1())))
    assert H.a[0].coeffs == {(0, 1, 0): pytest.approx(-1.0)}
    assert H.b[0].coeffs == {}
    assert H.b[1].coeffs == {(0, 0, 2): pytest.approx(1.0)}


def test_lift_x_coefficient_model():
    H = hamiltonian_lift(RhsModel(jet_mul(_x(), _z1())))
    assert H.a[0].coeffs == {(1, 0, 0): pytest.approx(-1.0)}
    assert H.b[0].coeffs == {}
    assert H.b[1].coeffs == {(0, 0, 1): pytest.approx(1.0)}


def test_lift_observables_transport():
    H = hamiltonian_lift(transport_model())
    vals = []
    for phi in (_z0(), _z1(), _x()):
        out = apply_coeffs(H, phi)
        vals.append(complex(jet_eval(out, x=0.3, zeta=[0.2, 0.4])))
    assert vals[0] == pytest.approx(0.0)
    assert vals[1] == pytest.approx(0.0)
    assert vals[2] == pytest.approx(-1.0)


# ---------------------------------------------------------------------------
# chain identity

def test_chain_identity_transport_exact():
    model = transport_model()
    for phi in (_z0(), _z1(), _x()):
        rep = chain_identity_check(model, lambda x, t: np.sin(x + t), phi,
                                   ux_fn=lambda x, t: np.cos(x + t))
        assert max(rep.errors) < 1e-10


def test_chain_identity_second_order():
    # f = -zeta_0, u = e^{-t} sin x: the time difference quotient carries
    # the only error, sinh(h)/h - 1, and the step halving divides it by 4
    model = RhsModel(jet_scale(_z0(), -1.0))
    rep = chain_identity_check(model, lambda x, t: np.exp(-t) * np.sin(x),
                               _z0(), ux_fn=lambda x, t: np.exp(-t) * np.cos(x))
    # the interior edge moves with the step, so the max shifts a little
    # off the clean factor of 4
    assert 1e-7 < rep.errors[1] < rep.errors[0] < 1e-3
    assert 3.5 < rep.ratios[0] < 4.5


def test_chain_identity_anisotropic_steps_expose_truncation():
    # with the x step at half the t step, the wave-profile cancellation is
    # broken and the transport fixture shows its own h^2/8 truncation error
    model = transport_model()
    rep = chain_identity_check(model, lambda x, t: np.sin(x + t), _z0(),
                               ux_fn=lambda x, t: np.cos(x + t),
                               anisotropy=0.5)
    assert 1e-6 < rep.errors[1] < rep.errors[0] < 1e-4
    assert 3.5 < rep.ratios[0] < 4.5


def test_chain_identity_multidim_rejected():
    f2 = jet_variable(3, 2, 3, 8)
    with pytest.raises(ArityMismatch):
        chain_identity_check(RhsModel(f2), lambda x, t: x, _z0(),
                             ux_fn=lambda x, t: 1.0 + 0.0 * x)


# ---------------------------------------------------------------------------
# renormalization from a trace

def test_renormalize_recovers_dilation_field():
    x = np.linspace(-0.3, 0.3, 601)
    t = np.linspace(-0.05, 0.05, 101)
    z = x[:, None] * np.exp(-t[None, :])
    b = renormalize(z, x[1] - x[0], t[1] - t[0])
    assert np.max(np.abs(b - x[1:-1, None])) < 1e-7


def test_renormalize_matches_linearization():
    s = SolutionSamples.from_function(lambda x, t: x * np.exp(-t),
                                     -0.3, 0.3, 601, -0.05, 0.05, 101)
    b = renormalize(s.u, s.dx, s.dt)
    a = linearize(dilation_model(), s)
    assert np.max(np.abs(b - (-a))) < 1e-7


def test_renormalize_singular_trace():
    t = np.linspace(-0.1, 0.1, 21)
    z = np.broadcast_to(t[None, :], (21, 21)).copy()   # no x dependence
    with pytest.raises(SingularJacobian):
        renormalize(z, 0.01, 0.01)
    x = np.linspace(-0.5, 0.5, 41)
    z = np.exp(20.0 * x)[:, None] + 0.0 * t[None, :]
    with pytest.raises(SingularJacobian):
        renormalize(z, x[1] - x[0], 0.01)
    with pytest.raises(ValueError):
        renormalize(np.ones(8), 0.1, 0.1)


# ---------------------------------------------------------------------------
# inclusion experiment

def test_wf_inclusion_conormal():
    model = neg_transport_model()
    def u(x, t):
        return np.abs(x - t) ** 3
    s = SolutionSamples.from_function(u, -1.0, 1.0, 41, -1.0, 1.0, 41)
    assert s.residual(model) < 1e-10
    seq = make_sequence("gevrey", s=2.0, K_max=64)
    rep = wf_inclusion_experiment(model, u, seq)
    assert list(rep.scan.singular_indices) == [24, 56]
    assert rep.a0[0] == pytest.approx(-1.0)
    assert rep.covectors.shape == (2, 2)
    assert np.max(rep.distances) < 1e-9
    assert rep.included.all()


def test_wf_inclusion_clean_solution():
    model = RhsModel(jet_scale(_z0(), 1j))
    seq = make_sequence("gevrey", s=2.0, K_max=64)
    rep = wf_inclusion_experiment(model, lambda x, t: np.exp(x + 1j * t), seq)
    assert list(rep.scan.singular_indices) == []
    assert rep.covectors.shape == (0, 2)
    assert rep.included.shape == (0,)


def _difference_a0(model, u, x0, t0, h=1e-5):
    """a0 from u and a central difference of step h at the base point, the
    way the experiment read it before it called linearize."""
    u0 = complex(u(x0, t0))
    ux0 = complex((u(x0 + h, t0) - u(x0 - h, t0)) / (2.0 * h))
    return complex(jet_eval(jet_diff(model.jet, 2), x=x0, zeta=[u0, ux0]))


@pytest.mark.parametrize("f", [
    pytest.param(jet_mul(_z0(), _z1()), id="z0*z1"),
    pytest.param(jet_mul(_z1(), _z1()), id="z1^2"),
])
@pytest.mark.parametrize("base", [(0.3, 0.2), (-0.7, 0.45), (0.1, -0.2),
                                  (1.3, 0.9)])
def test_wf_a0_of_state_dependent_model(f, base):
    # a0 = u or 2 u_x moves with the state.  The stencil samples the same
    # points x0 -+ h but divides by its own spacing dx = x[1] - x[0], which
    # the rounding of x0 -+ h moves off h by up to ulp(x0)/h; the two
    # quotients differ by that ratio and two roundings, nothing more
    h = 1e-5
    model, u = RhsModel(f), lambda x, t: np.sin(x + t)
    rep = wf_inclusion_experiment(model, u,
                                  make_sequence("gevrey", s=2.0, K_max=64),
                                  base=base, n=256)
    want = _difference_a0(model, u, *base, h=h)
    dx = SolutionSamples.from_function(u, base[0] - h, base[0] + h, 3,
                                       base[1] - h, base[1] + h, 3).dx
    assert abs(dx - h) / h < 1e-11
    assert rep.a0.shape == (1,)
    assert abs(rep.a0[0] - want) <= (abs(dx - h) / dx + 1e-15) * abs(want)


def test_wf_inclusion_multidim_rejected():
    f2 = jet_variable(3, 2, 3, 8)
    with pytest.raises(ArityMismatch):
        wf_inclusion_experiment(RhsModel(f2), lambda x, t: x + t,
                                make_sequence("gevrey", s=2.0, K_max=64))
