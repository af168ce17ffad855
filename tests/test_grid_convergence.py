"""The wave front experiment's grid: derived from the sampling guard,
certified by a coarser rescan, and held to the verdicts of the n = 2752
grid it replaced."""

import math

import numpy as np
import pytest

import scan_oracle
from carleman import fbi, fixtures, pde
from carleman.errors import Undersampled
from carleman.fbi import _check_steps, guard_n
from carleman.pde import RhsModel, wf_inclusion_experiment
from carleman.weights import make_sequence

Q, H, O, R = 0.5, 0.7071067811865476, 1.0, 1.4142135623730951

# failed_indices, singular_indices and the 64 A_fit of the default scan
# (Gevrey 2, K_max 64, radius 1) at n = 2752, computed once with the
# experiment's former fixed grid; both bases gave the same values
_CONORMAL_FAILED = [22, 23, 24, 25, 26, 54, 55, 56, 57, 58]
_CONORMAL_A_FIT = [
    H, H, H, H, H, H, Q, H, H, H, Q, H, H, H, H, H,
    H, O, O, O, O, O, R, R, R, R, R, O, O, O, O, O,
    H, H, H, H, H, H, Q, H, H, H, Q, H, H, H, H, H,
    H, O, O, O, O, O, R, R, R, R, R, O, O, O, O, O,
]
_HOLOMORPHIC_A_FIT = [
    O, O, O, O, O, O, O, O, O, O, O, O, O, O, O, O,
    O, O, O, O, O, O, O, O, O, O, O, O, O, O, O, O,
    O, O, O, O, O, O, O, O, O, O, O, O, O, O, O, O,
    O, O, O, O, O, O, O, O, O, O, O, O, O, O, O, O,
]
N_2752 = {
    ("conormal", (0.0, 0.0)): (_CONORMAL_FAILED, [24, 56], _CONORMAL_A_FIT),
    ("conormal", (0.1, 0.1)): (_CONORMAL_FAILED, [24, 56], _CONORMAL_A_FIT),
    ("holomorphic", (0.0, 0.0)): ([], [], _HOLOMORPHIC_A_FIT),
    ("holomorphic", (0.1, 0.1)): ([], [], _HOLOMORPHIC_A_FIT),
}


@pytest.fixture(scope="module")
def g2():
    return make_sequence("gevrey", s=2.0, K_max=64)


def _experiment(name, g2, **kw):
    sol = fixtures.WAVE_SOLUTIONS[name]
    return wf_inclusion_experiment(RhsModel(sol.rhs), sol.u, g2, **kw)


@pytest.mark.parametrize("name, base", sorted(N_2752))
def test_derived_n_reproduces_the_2752_verdicts(g2, name, base):
    rep = _experiment(name, g2, base=base)
    failed, singular, a_fit = N_2752[name, base]
    assert rep.n == 368
    assert rep.scan.failed_indices == failed
    assert rep.scan.singular_indices == singular
    assert [r.A_fit for r in rep.scan.reports] == a_fit
    assert rep.included.all()


def test_guard_n_is_the_smallest_grid_within_the_share_of_the_step():
    # at lam = 4 over half-width 1.9088283813720877 the interval count
    # rounds to exactly 38.0, yet the step over 38 intervals exceeds the
    # allowed one by an ulp
    for lam, half in [(64.0, 1.0), (64.0, 0.75), (30.0, 2.0), (4.0, 0.1),
                      (4.0, 1.9088283813720877)]:
        allowed = fbi._allowed_step(lam, half)
        for share in (1.0, 0.5):
            n = guard_n(lam, half, share)
            assert 2.0 * half / (n - 1) <= share * allowed
            assert 2.0 * half / (n - 2) > share * allowed
        _check_steps([2.0 * half / (guard_n(lam, half) - 1)], [half], lam)
        with pytest.raises(Undersampled):
            _check_steps([2.0 * half / (guard_n(lam, half) - 2)], [half], lam)
    assert guard_n(64.0, 1.0) == 185 and guard_n(64.0, 1.0, 0.5) == 368


@pytest.mark.parametrize("half", [1e200, math.inf])
def test_guard_n_without_a_finite_grid_is_undersampled(half):
    with pytest.raises(Undersampled, match="no grid resolves"):
        guard_n(64.0, half)


@pytest.mark.parametrize("kw, sizes", [
    pytest.param({}, [368, 246], id="derived"),
    pytest.param({"n": 512}, [512, 342], id="explicit"),
    # 185 is the coarsest grid the guard passes: no coarser one certifies
    pytest.param({"n": 185}, [185, 186], id="coarsest"),
])
def test_rescan_is_coarser_than_the_scan(monkeypatch, g2, kw, sizes):
    built = []

    def windowed_grid(u, n, *args):
        built.append(n)
        return fixtures.windowed_grid(u, n, *args)
    monkeypatch.setattr(pde, "windowed_grid", windowed_grid)
    rep = _experiment("holomorphic", g2, **kw)
    assert built == sizes and rep.n == sizes[0]


# A term cos(2 pi 128 x) k(x, t) is k(x, t) on every sample of the n = 257
# grid over [-1, 1] (step 1/128) and lies far beyond the window's band on
# the rescan grid, so the scan at n sees a term its rescan does not.  n =
# 257 passes the sampling guard, which only bounds the step the Gaussian
# window needs, not the frequencies of u.

def _aliased(k):
    def u(x, t):
        return np.exp(x + 1j * t) + np.cos(256.0 * np.pi * x) * k(x, t)
    return u


@pytest.mark.parametrize("k, message", [
    # a kink: the scan at n flags the diagonal conormals, the rescan none
    pytest.param(lambda x, t: 10.0 * np.abs(x - t) ** 3,
                 "different verdicts", id="verdicts"),
    # an entire term 1e-6 e^{2x}: the verdicts agree, the samples do not
    pytest.param(lambda x, t: 1e-6 * np.exp(2.0 * x), "differ by",
                 id="samples"),
])
def test_rescan_disagreement_is_undersampled(g2, k, message):
    holo = fixtures.WAVE_SOLUTIONS["holomorphic"]
    for lam in np.geomspace(4.0, 64.0, 12):
        _check_steps([2.0 / 256] * 2, [1.0, 1.0], lam)
    with pytest.raises(Undersampled, match=message):
        wf_inclusion_experiment(RhsModel(holo.rhs), _aliased(k), g2, n=257)


def test_rescan_grid_sits_within_the_rescan_tolerance_of_a_closed_form():
    # _RESCAN_TOL bounds the gap between the scan's and the rescan's
    # normalized |F|, which stands in for the quadrature error of the
    # coarser grid.  Pin that error where a closed form exists: e^{-|y|^2}
    # over half-width 5 (e^{-25} at the box edge) at the default lambdas,
    # at the sample count the rescan takes for that box (1767 = 2650 / 1.5;
    # guard_n alone gives 1326).  Measured: 7.8e-16 at (0, 0) and 1.0e-15
    # at (0.3, -0.5), about 1e7 below the tolerance.
    lams, half = fbi.ScanConfig().lambdas, 5.0
    top = float(np.max(lams))
    m = max(math.ceil(guard_n(top, half, 0.5) / pde._RESCAN),
            guard_n(top, half))
    assert m == 1767
    gf = fbi.GridFunction.from_function(lambda a, b: np.exp(-a * a - b * b),
                                        [-half] * 2, [half] * 2, m)
    dirs = fbi._circle_directions(64)
    for x0 in ((0.0, 0.0), (0.3, -0.5)):
        got = np.abs(fbi.fbi_direction_scan(gf, x0, dirs, lams))
        want = np.abs(scan_oracle.gaussian_2d(x0, dirs, lams))
        gap = np.max(np.abs(got / got.max() - want / want.max()))
        assert gap <= 1e-3 * pde._RESCAN_TOL
