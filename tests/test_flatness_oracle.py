"""Factored disk-kernel evaluation against the per-call loop in
flatness_oracle.

ApproxSolution.evaluate and measure_flatness build each u_k(x) once per
x stencil and the moment sums once per time; the oracle rebuilds both on
every call.  The sums are added in the same order, so every value and
every per-time sup of |L u| matches bit for bit (compared through
tobytes, which tells signed zeros apart), and so do the extend payloads
and criterion 4.
"""

import json

import numpy as np
import pytest

import flatness_oracle
from carleman import acceptance, cli, dynkin
from carleman.dynkin import ApproxSolution, make_kernel, measure_flatness
from carleman.errors import ArityMismatch, GuardExceeded
from carleman.jets import (Jet, VectorFieldJet, formal_solution,
                           growth_fit, jet_add, jet_constant, jet_mul,
                           jet_scale, jet_variable)
from carleman.weights import make_sequence

D, N_MAX = 24, 12
GEVREY = (1.5, 2.0)


@pytest.fixture(scope="module")
def kernel():
    return make_kernel()


def rational_datum(c, degree=D):
    """sum_j (-c)^j x^(2j), the Taylor jet of 1/(1 + c x^2)."""
    return Jet(1, 0, degree, {(2 * j,): (-c) ** j
                              for j in range(degree // 2 + 1)})


@pytest.fixture(scope="module", params=GEVREY, ids=lambda s: f"gevrey-{s}")
def dilation(request, kernel):
    """Criterion 4's solution: d/dt + x d/dx on 1/(1 + x^2), C_star fitted."""
    s = request.param
    x = jet_variable(0, 1, 0, D)
    series = formal_solution(VectorFieldJet(a=[x], b=[]), rational_datum(1.0),
                             N_MAX)
    c_fit = growth_fit(series, make_sequence("gevrey", s=s, K_max=256),
                       [(-0.5, 0.5)]).C_fit
    return ApproxSolution(series, make_sequence("gevrey", s=s, K_max=4096),
                          kernel, c_fit)


@pytest.fixture(scope="module")
def rotation(kernel):
    """Two x axes: d/dt - x2 d/dx1 + x1 d/dx2 on x1 + x1 x2."""
    deg = 12
    x1, x2 = (jet_variable(i, 2, 0, deg) for i in range(2))
    field = VectorFieldJet(a=[jet_scale(x2, -1.0), x1], b=[])
    series = formal_solution(field, jet_add(x1, jet_mul(x1, x2)), 10)
    return ApproxSolution(series, make_sequence("gevrey", s=2.0, K_max=64),
                          kernel, 2.0)


def same(got, want):
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def times(sol):
    """t = 0 and -0, small and moderate times of both signs, and times next
    to the validity radius delta."""
    d = sol.delta
    return (0.0, -0.0, 1e-3, -1e-3, 0.3 * d, -0.3 * d, 0.99 * d, -0.99 * d,
            d, -d)


X_VALUES = {"scalar": 0.3, "array": np.linspace(-0.5, 0.5, 21)}


@pytest.mark.parametrize("x", X_VALUES.values(), ids=X_VALUES.keys())
def test_evaluate_matches_oracle(dilation, x):
    for t in times(dilation):
        same(dilation.evaluate(x, t), flatness_oracle.evaluate(dilation, x, t))


def oracle_sups(sol, x, t_values):
    """max |L u| per time, from the oracle's field application."""
    return np.array([float(np.max(np.abs(
        flatness_oracle.apply_L_numeric(sol, x, t)))) for t in t_values])


@pytest.mark.parametrize("x", X_VALUES.values(), ids=X_VALUES.keys())
def test_apply_L_matches_oracle(dilation, x):
    # every time with room to difference: t != 0 and |t| < delta
    t = times(dilation)[2:-2]
    same(measure_flatness(dilation, x, t).sup, oracle_sups(dilation, x, t))


@pytest.mark.parametrize("sign", (1.0, -1.0))
def test_measure_flatness_matches_oracle(dilation, sign):
    x = X_VALUES["array"]
    t = sign * np.geomspace(1e-3, 0.99 * dilation.delta, 24)
    got = measure_flatness(dilation, x, t)
    want = flatness_oracle.measure_flatness(dilation, x, t)
    for name in ("t", "sup", "h"):
        same(getattr(got, name), getattr(want, name))
    assert (got.Q, got.A, got.sup_ratio, got.skipped_Q) == \
        (want.Q, want.A, want.sup_ratio, want.skipped_Q)


def test_two_axes_match_oracle(rotation):
    x = [np.linspace(-0.5, 0.5, 7), np.linspace(0.4, -0.4, 7)]
    for t in times(rotation):
        same(rotation.evaluate(x, t), flatness_oracle.evaluate(rotation, x, t))


def test_measure_flatness_needs_one_x_variable(rotation, kernel, monkeypatch):
    # two x axes or a zeta slot are refused before any moment sum
    x, z = jet_variable(0, 1, 1, 8), jet_variable(1, 1, 1, 8)
    series = formal_solution(VectorFieldJet(a=[x], b=[z]), jet_add(x, z), 4)
    zeta = ApproxSolution(series, make_sequence("gevrey", s=2.0, K_max=64),
                          kernel, 2.0)

    def no_sums(self, t):
        raise AssertionError("moment sum before the arity check")

    monkeypatch.setattr(ApproxSolution, "moments", no_sums)
    x2 = [np.linspace(-0.5, 0.5, 7), np.linspace(0.4, -0.4, 7)]
    for sol, xv in ((rotation, x2), (rotation, 0.3), (zeta, 0.3)):
        with pytest.raises(ArityMismatch, match="one x variable"):
            measure_flatness(sol, xv, [1e-3])


def test_rough_table_matches_oracle_and_keeps_guard(kernel):
    # a non-log-convex table: bigN_capped scans it whole, with the guard
    m = np.array([1.0, 1.0, 5.0, 6.0, 24.0, 120.0, 720.0, 5040.0, 40320.0])
    lf = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1.0, 9.0)))])
    bumpy = make_sequence("table", K_max=8, values=m * np.exp(lf))
    assert not bumpy.log_convex
    x = jet_variable(0, 1, 0, 14)
    sol = ApproxSolution(formal_solution(VectorFieldJet(a=[x], b=[]), x, 6),
                         bumpy, kernel, 1.0)
    same(sol.evaluate(0.5, 0.3), flatness_oracle.evaluate(sol, 0.5, 0.3))
    same(measure_flatness(sol, 0.5, [0.3]).sup, oracle_sups(sol, 0.5, [0.3]))
    for fn in (sol.evaluate, lambda x, t: measure_flatness(sol, x, [t])):
        with pytest.raises(GuardExceeded):
            fn(0.5, 1e-5)


def test_radius_errors_match_oracle(dilation):
    d = dilation.delta
    for fn in (dilation.evaluate, lambda x, t: flatness_oracle.evaluate(
            dilation, x, t)):
        with pytest.raises(ValueError, match="validity radius"):
            fn(0.3, 1.01 * d)
    for fn in (lambda sol, x, t: measure_flatness(sol, x, [t]),
               flatness_oracle.apply_L_numeric):
        with pytest.raises(ValueError, match="no room to difference"):
            fn(dilation, 0.3, d)


# ---------------------------------------------------------------------------
# payloads: the benchmark's extend configs and criterion 4

def extend_config(c, s, k_max):
    return {"datum": {"n_x": 1, "n_zeta": 0, "D": D,
                      "coeffs": [[[2 * j], (-c) ** j, 0.0]
                                 for j in range(D // 2 + 1)]},
            "n_max": N_MAX, "seq": {"kind": "gevrey", "s": s, "K_max": k_max}}


def run_extend(tmp_path, cfg, name):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / name
    assert cli.main(["extend", "--config", str(path), "--out", str(out)]) == 0
    return [(out / f).read_bytes() for f in ("extend.json", "extend.csv")]


@pytest.mark.parametrize("s, k_max", [(1.5, 2 ** 21), (2.0, 4096)],
                         ids=["gevrey-1.5", "gevrey-2.0"])
def test_extend_payload_matches_oracle(tmp_path, monkeypatch, s, k_max):
    for c in (0.5, 0.75, 1.0):
        cfg = extend_config(c, s, k_max)
        got = run_extend(tmp_path, cfg, f"new-{c}")
        with monkeypatch.context() as mp:
            mp.setattr(dynkin, "measure_flatness",
                       flatness_oracle.measure_flatness)
            want = run_extend(tmp_path, cfg, f"oracle-{c}")
        assert got == want


def test_criterion_4_matches_oracle(monkeypatch):
    got = acceptance.criterion_4()
    monkeypatch.setattr(acceptance, "measure_flatness",
                        flatness_oracle.measure_flatness)
    want = acceptance.criterion_4()
    assert got[1] and got == want
