"""Jet algebra, the formal solution recursion, and growth fits.

Oracles are closed-form transport solutions: (x - t)^2 for d/dt + d/dx,
x e^{-t} for d/dt + x d/dx, zeta^2 e^{-2t} for the zeta-slot analogue, and
x - t^2/2 for the t-dependent field d/dt + t d/dx after augmentation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carleman.errors import ArityMismatch, BudgetExhausted, FitFailed
from carleman.jets import (FormalSeries, Jet, VectorFieldJet,
                           augment_datum, formal_solution, growth_fit,
                           jet_add, jet_constant, jet_diff, jet_eval,
                           jet_from_dict, jet_max_diff, jet_mul, jet_scale,
                           jet_variable, residual_check, restrict_diagonal,
                           time_augment)
from residual_oracle import apply_field, truncate
from carleman.weights import make_sequence


def x_jet(degree, n_x=1, n_zeta=0):
    return jet_variable(0, n_x, n_zeta, degree)


def const(value, like):
    return jet_constant(value, like.n_x, like.n_zeta, like.degree,
                        like.base_x, like.base_zeta)


# ---------------------------------------------------------------------------
# basic algebra

def test_variable_about_nonzero_base():
    j = jet_variable(0, 1, 0, 4, base_x=(2.0,))
    assert j.coeffs[(0,)] == 2.0
    assert j.coeffs[(1,)] == 1.0
    assert jet_eval(j, x=3.0) == pytest.approx(3.0)


def test_add_mul_diff_small():
    x = x_jet(6)
    p = jet_add(jet_mul(x, x), jet_scale(x, -3.0))      # x^2 - 3x
    assert p.coeffs[(2,)] == 1.0
    assert p.coeffs[(1,)] == -3.0
    dp = jet_diff(p, 0)                                  # 2x - 3
    assert dp.coeffs[(1,)] == 2.0
    assert dp.coeffs[(0,)] == -3.0
    assert not p.lossy


def test_mul_truncation_sets_lossy():
    x = x_jet(2)
    sq = jet_mul(x, x)
    cube = jet_mul(sq, x)       # degree 3 > budget 2
    assert cube.lossy
    assert cube.coeffs == {}
    assert not sq.lossy
    # lossiness propagates through later exact operations
    assert jet_add(cube, x).lossy
    assert jet_diff(cube, 0).lossy


def test_arity_mismatch_raises():
    a = x_jet(4)
    b = x_jet(4, n_x=2)
    with pytest.raises(ArityMismatch):
        jet_add(a, b)
    with pytest.raises(ArityMismatch):
        jet_mul(x_jet(4), x_jet(5))
    with pytest.raises(ArityMismatch):
        jet_add(x_jet(4), jet_variable(0, 1, 0, 4, base_x=(1.0,)))


BAD_TERMS = {
    "wrong length": [[[1], 1.0, 0.0], [[0, 1], 1.0, 0.0]],
    "non-integer": [[[1.5], 1.0, 0.0]],
    "negative": [[[-1], 1.0, 0.0]],
    "above D": [[[7], 1.0, 0.0]],
    "given twice": [[[1], 1.0, 0.0], [[1], 2.0, 0.0]],
}


@pytest.mark.parametrize("case", sorted(BAD_TERMS))
def test_bad_exponents_raise(case):
    # one variable, D = 4: each set of rows breaks one rule for exponents
    rows = BAD_TERMS[case]
    with pytest.raises(ArityMismatch):
        jet_from_dict({"n_x": 1, "n_zeta": 0, "D": 4, "coeffs": rows})
    if case != "given twice":
        with pytest.raises(ArityMismatch):
            Jet(1, 0, 4, {tuple(idx): re for idx, re, _ in rows})


@pytest.mark.parametrize("key, value", [("D", 4.7), ("n_x", 1.5), ("D", -1)])
def test_bad_counts_raise(key, value):
    d = {"n_x": 1, "n_zeta": 0, "D": 4, "coeffs": [[[1], 1.0, 0.0]], key: value}
    with pytest.raises(ArityMismatch):
        jet_from_dict(d)


def test_coefficients_are_read_only():
    p = jet_mul(x_jet(6), x_jet(6))
    with pytest.raises(ValueError):
        p.data[0] = 1.0
    p.coeffs[(0,)] = 5.0            # a fresh dict: editing it changes no jet
    assert p.coeffs == {(2,): 1.0}


def test_eval_matches_direct_polynomial():
    rng = np.random.default_rng(7)
    coeffs = {}
    for _ in range(12):
        idx = (int(rng.integers(0, 4)), int(rng.integers(0, 3)))
        coeffs[idx] = complex(rng.normal(), rng.normal())
    j = Jet(1, 1, 8, dict(coeffs))
    xv = rng.normal(size=5)
    zv = rng.normal(size=5) + 1j * rng.normal(size=5)
    got = jet_eval(j, x=xv, zeta=zv)
    want = sum(c * xv ** a * zv ** b for (a, b), c in coeffs.items())
    assert np.max(np.abs(got - want)) < 1e-12
    assert got.shape == (5,)


def test_eval_zero_jet_and_scalar():
    z = jet_constant(0.0, 1, 0, 4)
    assert jet_eval(z, x=0.3) == 0.0
    v = jet_eval(z, x=np.zeros(4))
    assert v.shape == (4,) and np.all(v == 0)


# ---------------------------------------------------------------------------
# formal solution recursion

def unit_transport_field(degree):
    # d/dt + d/dx
    one = jet_constant(1.0, 1, 0, degree)
    return VectorFieldJet(a=[one], b=[])


def dilation_field(degree):
    # d/dt + x d/dx
    return VectorFieldJet(a=[x_jet(degree)], b=[])


def test_transport_square_oracle():
    # (d/dt + d/dx) u = 0, u(x, 0) = x^2 has u = (x - t)^2
    L = unit_transport_field(14)
    f = jet_mul(x_jet(14), x_jet(14))
    ser = formal_solution(L, f, 12)
    assert ser.u[0].coeffs == {(2,): 1.0}
    assert ser.u[1].coeffs[(1,)] == -2.0
    assert ser.u[2].coeffs[(0,)] == 1.0
    for k in range(3, 13):
        assert ser.u[k].coeffs == {}


def test_dilation_oracle_through_k12():
    # (d/dt + x d/dx) u = 0, u(x, 0) = x has u = x e^{-t}
    L = dilation_field(14)
    ser = formal_solution(L, x_jet(14), 12)
    for k in range(13):
        want = (-1.0) ** k / math.factorial(k)
        got = ser.u[k].coeffs.get((1,), 0.0)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        assert set(ser.u[k].coeffs) <= {(1,)}


def test_zeta_slot_recursion():
    # (d/dt + zeta d/dzeta) u = 0, u = zeta^2 e^{-2t}
    zero = jet_constant(0.0, 1, 1, 10)
    zeta = jet_variable(1, 1, 1, 10)
    L = VectorFieldJet(a=[zero], b=[zeta])
    f = jet_mul(zeta, zeta)
    ser = formal_solution(L, f, 8)
    for k in range(9):
        want = (-2.0) ** k / math.factorial(k)
        assert ser.u[k].coeffs.get((0, 2), 0.0) == pytest.approx(want, rel=1e-14)
    w = 0.5 + 0.25j
    val = sum(jet_eval(ser.u[k], x=0.0, zeta=w) * 0.1 ** k for k in range(9))
    assert abs(val - w ** 2 * np.exp(-0.2)) < 1e-9


def test_constant_datum_is_stationary():
    L = dilation_field(8)
    ser = formal_solution(L, jet_constant(2.5, 1, 0, 8), 6)
    for k in range(1, 7):
        assert ser.u[k].coeffs == {}


def test_budget_exhausted():
    L = unit_transport_field(3)
    with pytest.raises(BudgetExhausted):
        formal_solution(L, x_jet(3), 4)


def test_time_dependent_field_rejected():
    t_coeff = jet_variable(1, 2, 0, 6)
    L = VectorFieldJet(a=[t_coeff], b=[], time_dependent=True)
    with pytest.raises(ValueError):
        formal_solution(L, jet_variable(0, 2, 0, 6), 3)


def test_linearity_in_datum():
    L = dilation_field(10)
    f = jet_mul(x_jet(10), x_jet(10))
    g = jet_scale(x_jet(10), 3.0)
    s1 = formal_solution(L, f, 6)
    s2 = formal_solution(L, g, 6)
    s3 = formal_solution(L, jet_add(f, g), 6)
    for k in range(7):
        assert jet_max_diff(jet_add(s1.u[k], s2.u[k]), s3.u[k]) < 1e-13


# ---------------------------------------------------------------------------
# truncation and residual

def test_apply_field_on_exact_solution_truncation():
    L = unit_transport_field(14)
    f = jet_mul(x_jet(14), x_jet(14))
    ser = formal_solution(L, f, 12)
    # L applied to the full (here finite) series vanishes identically
    q = apply_field(L, truncate(ser, 5))
    for k in range(5):
        assert all(abs(c) < 1e-13 for c in q[k].coeffs.values())


def test_residual_identity_exact():
    for L, f in [(unit_transport_field(14), jet_mul(x_jet(14), x_jet(14))),
                 (dilation_field(14), x_jet(14))]:
        ser = formal_solution(L, f, 12)
        for n in range(7):
            assert residual_check(ser, n) <= 1e-12


def test_residual_needs_next_coefficient():
    ser = formal_solution(dilation_field(8), x_jet(8), 4)
    with pytest.raises(ValueError):
        residual_check(ser, 4)
    assert residual_check(ser, 3) <= 1e-12


def test_truncate_bounds():
    ser = formal_solution(dilation_field(8), x_jet(8), 4)
    with pytest.raises(ValueError):
        truncate(ser, 5)
    assert truncate(ser, 2) == ser.u[:3]


# ---------------------------------------------------------------------------
# growth fits

def test_growth_fit_identity_scale():
    # u_k = m_k constants: C = 1 exactly, B driven by (n+1) m_{n+1} / m_n
    seq = make_sequence("gevrey", s=2.0, K_max=32)
    D = 12
    field = unit_transport_field(D)
    m = np.exp(seq.log_m(np.arange(9)))
    u = [jet_constant(m[k], 1, 0, D) for k in range(9)]
    ser = FormalSeries(field, u, 8)
    est = growth_fit(ser, seq, [(-1.0, 1.0)])
    assert est.C_fit == 1.0
    # (n+1) m_{n+1} = (n+1)(n+1)! <= B^{n+1} n!  ->  B >= (n+1)^{2/(n+1)},
    # maximal at n = 2 (3^{2/3} ~ 2.08), snapped up to 2^{5/4}
    assert est.B_fit == pytest.approx(2.0 ** 1.25)
    assert est.sup[3] == pytest.approx(m[3])


def test_growth_fit_geometric_factor():
    seq = make_sequence("gevrey", s=2.0, K_max=32)
    D = 14
    field = unit_transport_field(D)
    m = np.exp(seq.log_m(np.arange(13)))
    u = [jet_constant(3.0 ** k * m[k], 1, 0, D) for k in range(13)]
    ser = FormalSeries(field, u, 12)
    est = growth_fit(ser, seq, [(-1.0, 1.0)])
    # C_needed = 3^{12/13} ~ 2.757, snapped up on the quarter-power grid
    assert est.C_fit == pytest.approx(2.0 ** 1.5)


def test_growth_fit_transport_square():
    seq = make_sequence("gevrey", s=2.0, K_max=32)
    L = unit_transport_field(14)
    ser = formal_solution(L, jet_mul(x_jet(14), x_jet(14)), 12)
    est = growth_fit(ser, seq, [(-0.5, 0.5)])
    assert est.C_fit == 1.0
    assert est.B_fit == pytest.approx(np.sqrt(2.0))


def test_growth_fit_cap():
    seq = make_sequence("gevrey", s=2.0, K_max=8)
    field = unit_transport_field(4)
    u = [jet_constant(2.0 ** 100, 1, 0, 4)]
    ser = FormalSeries(field, u, 0)
    with pytest.raises(FitFailed):
        growth_fit(ser, seq, [(-1.0, 1.0)])


def test_growth_fit_table_too_short():
    seq = make_sequence("gevrey", s=2.0, K_max=8)
    ser = formal_solution(dilation_field(12), x_jet(12), 10)
    with pytest.raises(ValueError):
        growth_fit(ser, seq, [(-1.0, 1.0)])


def test_growth_fit_refuses_zeta_slots():
    # growth fits sample x intervals only: a jet with a zeta slot is refused
    seq = make_sequence("gevrey", s=2.0, K_max=8)
    zeta = jet_variable(1, 1, 1, 6)
    field = VectorFieldJet(a=[jet_constant(0.0, 1, 1, 6)],
                           b=[jet_constant(0.0, 1, 1, 6)])
    ser = FormalSeries(field, [jet_mul(zeta, zeta)], 0)
    with pytest.raises(ArityMismatch, match="zeta-free"):
        growth_fit(ser, seq, [(0.0, 0.0)])


# ---------------------------------------------------------------------------
# time augmentation and the diagonal restriction

def test_augment_time_dependent_reinterprets():
    # d/dt + t d/dx: coefficient jets live on (x, t), t the last slot
    t_coeff = jet_variable(1, 2, 0, 8)
    L = VectorFieldJet(a=[t_coeff], b=[], time_dependent=True)
    La = time_augment(L)
    assert not La.time_dependent
    assert len(La.a) == 2 and La.n_x == 2
    assert La.a[1].coeffs == {(0, 0): 1.0}


def test_augmented_diagonal_oracle():
    # (d/dt + t d/dx) u = 0, u(x, 0) = x has u = x - t^2/2
    t_coeff = jet_variable(1, 2, 0, 8)
    L = time_augment(VectorFieldJet(a=[t_coeff], b=[], time_dependent=True))
    f = augment_datum(x_jet(8))
    ser = formal_solution(L, f, 6)
    # series in (x, s, t): x - s t + t^2/2
    assert ser.u[1].coeffs == {(0, 1): -1.0}
    assert ser.u[2].coeffs == {(0, 0): 0.5}
    diag = restrict_diagonal(ser)
    assert len(diag) == 7
    assert diag[0].coeffs == {(1,): 1.0}
    assert diag[1].coeffs == {}
    assert diag[2].coeffs == {(0,): pytest.approx(-0.5)}
    for m in range(3, len(diag)):
        assert diag[m].coeffs == {}


def test_augment_needs_time_dependent_field():
    # the unit d/dt coefficient has no slot left to land on
    with pytest.raises(ArityMismatch):
        time_augment(unit_transport_field(8))


def test_augment_rejects_offbase_time_slot():
    t_coeff = jet_variable(1, 2, 0, 6, base_x=(0.0, 0.5))
    with pytest.raises(ArityMismatch):
        VectorFieldJet(a=[t_coeff], b=[], time_dependent=True)


# ---------------------------------------------------------------------------
# property-based checks

@st.composite
def small_jets(draw):
    n_terms = draw(st.integers(1, 5))
    coeffs = {}
    for _ in range(n_terms):
        idx = (draw(st.integers(0, 3)),)
        coeffs[idx] = draw(st.floats(-2.0, 2.0))
    return Jet(1, 0, 8, {i: c for i, c in coeffs.items() if abs(c) > 1e-30})


@settings(max_examples=60, deadline=None)
@given(small_jets(), small_jets())
def test_mul_commutes(a, b):
    assert jet_max_diff(jet_mul(a, b), jet_mul(b, a)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(small_jets(), small_jets())
def test_formal_solution_additive(f, g):
    L = dilation_field(8)
    s1 = formal_solution(L, f, 4)
    s2 = formal_solution(L, g, 4)
    s3 = formal_solution(L, jet_add(f, g), 4)
    scale = max(1.0, max((abs(c) for c in f.coeffs.values()), default=0.0),
                max((abs(c) for c in g.coeffs.values()), default=0.0))
    for k in range(5):
        assert jet_max_diff(jet_add(s1.u[k], s2.u[k]), s3.u[k]) < 1e-10 * scale
