"""FBI transform oracles, decay classification, scans, phase bounds."""

import tracemalloc

import mpmath
import numpy as np
import pytest

import scan_oracle
from carleman import fbi
from carleman.errors import NoCone, NoRegularDirection, Undersampled
from carleman.fbi import (GridFunction, ScanConfig, _check_sampling,
                          _circle_directions, decay_classify,
                          fbi_direction_scan, phase_bound_check,
                          wavefront_scan)
from carleman.fixtures import (WAVE_SOLUTIONS, conormal_grid,
                               gaussian_fbi_closed_form, gaussian_grid,
                               holomorphic_grid, lower_trace, pole_grid,
                               sign_fbi_closed_form, sign_grid, smooth_step,
                               upper_trace)
from carleman.pde import RhsModel, wf_inclusion_experiment
from carleman.weights import make_sequence


@pytest.fixture(scope="module")
def gauss():
    return gaussian_grid()


@pytest.fixture(scope="module")
def g2():
    return make_sequence("gevrey", s=2.0, K_max=64)


# ---------------------------------------------------------------------------
# grid functions

def test_grid_function_axes_and_steps():
    gf = GridFunction.from_function(lambda y: y, [-1.0], [1.0], 5)
    assert np.allclose(gf.axis(0), [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert gf.steps()[0] == pytest.approx(0.5)
    w = gf.trapezoid_weights(0)
    assert w[0] == pytest.approx(0.25) and w[2] == pytest.approx(0.5)
    assert gf.boundary_max() == pytest.approx(1.0)


def test_grid_function_validation():
    with pytest.raises(ValueError):
        GridFunction([0.0], [0.0], np.zeros(4, dtype=complex))
    with pytest.raises(ValueError):
        GridFunction([0.0], [1.0], np.zeros((4, 4), dtype=complex))


def test_grid_function_round_trip(tmp_path):
    gf = GridFunction.from_function(
        lambda y1, y2: np.exp(1j * y1) * y2, [-1.0, -2.0], [1.0, 2.0], [17, 9])
    path = tmp_path / "grid.bin"
    gf.save(path)
    back = GridFunction.load(path)
    assert back.values.shape == (17, 9)
    assert np.allclose(back.lo, gf.lo) and np.allclose(back.hi, gf.hi)
    # payload is stored in single precision
    assert np.max(np.abs(back.values - gf.values)) < 1e-6


def _dense_values(fn, lo, hi, n):
    """The grid as one whole-array evaluation on dense meshgrid axes."""
    lo, hi = np.atleast_1d(lo), np.atleast_1d(hi)
    nn = np.broadcast_to(n, lo.shape)
    axes = [np.linspace(lo[d], hi[d], nn[d]) for d in range(lo.size)]
    return np.asarray(fn(*np.meshgrid(*axes, indexing="ij")), dtype=complex)


def _wf_windowed_grid():
    conormal = WAVE_SOLUTIONS["conormal"]
    wf_inclusion_experiment(RhsModel(conormal.rhs), conormal.u,
                            make_sequence("gevrey", s=2.0, K_max=64),
                            base=(0.1, -0.2), n=257)


@pytest.mark.parametrize("build, shapes", [
    pytest.param(lambda: conormal_grid(257), [(257, 257)], id="conormal-257"),
    pytest.param(lambda: holomorphic_grid(257), [(257, 257)],
                 id="holomorphic-257"),
    pytest.param(lambda: sign_grid(n=70001), [(70001,)], id="sign-1d-70001"),
    pytest.param(lambda: GridFunction.from_function(
        lambda y1, y2: np.exp(1j * y1) * y2, [-1.0, -2.0], [1.0, 2.0],
        [17, 9]), [(17, 9)], id="17x9"),
    # the scanned grid and its certification rescan at the coarsest grid
    # the sampling guard passes
    pytest.param(_wf_windowed_grid, [(257, 257), (185, 185)],
                 id="wf-windowed-257"),
])
def test_blocked_build_matches_dense_evaluation(monkeypatch, build, shapes):
    # row blocks that do not divide the grid evenly must give the same bits
    # as evaluating fn once on the dense coordinate arrays
    built = []
    blocked = GridFunction.from_function.__func__

    def spy(cls, fn, lo, hi, n):
        gf = blocked(cls, fn, lo, hi, n)
        built.append((gf.values, _dense_values(fn, lo, hi, n)))
        return gf

    monkeypatch.setattr(GridFunction, "from_function", classmethod(spy))
    build()
    assert [got.shape for got, _ in built] == shapes
    for got, want in built:
        assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("build", [conormal_grid, holomorphic_grid])
def test_grid_build_peak_memory(build):
    # the build's temporaries stay within a quarter of the grid's bytes
    tracemalloc.start()
    try:
        gf = build(1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * gf.values.nbytes


@pytest.mark.parametrize("step", ["check_sampling", "save"])
def test_grid_passes_stream_in_row_blocks(tmp_path, step):
    # the guards' max|values| and the complex64 file payload are taken one
    # row block at a time, not as whole-grid temporaries
    gf = conormal_grid(1024)
    run = {"check_sampling": lambda: _check_sampling(
               gf, [0.0, 0.0], np.geomspace(4.0, 64.0, 12)),
           "save": lambda: gf.save(tmp_path / "grid.bin")}[step]
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.1 * gf.values.nbytes


def test_smooth_step_profile():
    s = np.array([0.0, 0.5, 0.6, 0.99, 1.0, 2.0])
    v = smooth_step(s)
    assert v[0] == 1.0 and v[1] == 1.0
    assert 0.0 < v[2] < 1.0
    assert v[3] < 1e-8
    assert v[4] == 0.0 and v[5] == 0.0
    fine = smooth_step(np.linspace(0.4, 1.1, 200))
    assert np.all(np.diff(fine) <= 1e-15)


# ---------------------------------------------------------------------------
# transform oracles

_LAMS = np.geomspace(4.0, 64.0, 12)
_DIRS_1D = np.array([[1.0], [-1.0]])        # xi = lambda and xi = -lambda


def _closed_forms(form, lams):
    """form(xi) at xi = lambda (row 0) and xi = -lambda (row 1)."""
    return np.array([[form(sgn * lam) for lam in lams] for sgn in (1.0, -1.0)])


def test_gaussian_closed_form_center(gauss):
    lams = np.linspace(1.0, 40.0, 20)
    got = fbi_direction_scan(gauss, 0.0, _DIRS_1D, lams)
    want = _closed_forms(lambda xi: gaussian_fbi_closed_form(0.0, xi), lams)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-6


def test_gaussian_closed_form_off_center(gauss):
    lams = [3.0, 11.0, 25.0]
    for x in (0.3, -0.7):
        got = fbi_direction_scan(gauss, x, _DIRS_1D, lams)
        want = _closed_forms(lambda xi: gaussian_fbi_closed_form(x, xi), lams)
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-6


def test_zero_frequency_is_plain_integral(gauss):
    got = fbi_direction_scan(gauss, 0.0, _DIRS_1D, [0.0])
    assert np.max(np.abs(got - np.sqrt(np.pi))) < 1e-10


def test_transform_linear(gauss):
    u = gauss.values
    gf2 = GridFunction(gauss.lo, gauss.hi, 1j * u + 0.5 * np.roll(u, 3))
    gf3 = GridFunction(gauss.lo, gauss.hi, u + gf2.values)
    f1, f2, f3 = (fbi_direction_scan(gf, 0.1, _DIRS_1D, [7.0])
                  for gf in (gauss, gf2, gf3))
    assert np.max(np.abs(f3 - (f1 + f2))) < 1e-12


def test_undersampled_guards(gauss):
    def scan(gf, x, lam):
        return fbi_direction_scan(gf, x, _DIRS_1D, [lam])

    coarse = GridFunction.from_function(lambda y: np.exp(-y * y),
                                        [-8.0], [8.0], 128)
    with pytest.raises(Undersampled):
        scan(coarse, 0.0, 40.0)
    # only a factor ~1.2 above the passing rate trips the step guard
    with pytest.raises(Undersampled):
        scan(gauss, 0.0, 48.0)
    scan(gauss, 0.0, 40.0)
    with pytest.raises(Undersampled):
        scan(gauss, 9.0, 4.0)           # base point outside the box
    with pytest.raises(Undersampled):
        scan(pole_grid(), 0.0, 0.0)     # no damping, fat boundary


def test_sign_against_dawson():
    lams = [4.0, 10.0, 40.0]
    got = fbi_direction_scan(sign_grid(), 0.0, _DIRS_1D, lams)
    want = _closed_forms(sign_fbi_closed_form, lams)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-2


def test_direction_scan_matches_pointwise(gauss):
    lams = np.array([4.0, 16.0])
    got = fbi_direction_scan(gauss, 0.0, _DIRS_1D, lams)
    for i, d in enumerate(_DIRS_1D[:, 0]):
        for j, lam in enumerate(lams):
            want = scan_oracle.fbi_transform(gauss, 0.0, d * lam)
            assert abs(got[i, j] - want) < 1e-12


def test_direction_scan_2d_matches_pointwise():
    gf = conormal_grid(384)
    dirs = _circle_directions(64)[::7]
    got = fbi_direction_scan(gf, (0.1, 0.1), dirs, _LAMS)
    want = np.array([[scan_oracle.fbi_transform(gf, (0.1, 0.1), lam * om)
                      for lam in _LAMS] for om in dirs])
    # relative to the largest |F|: the smallest samples sit near 1e-11
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _random_directions(k: int, seed: int = 7) -> np.ndarray:
    d = np.random.default_rng(seed).standard_normal((k, 2))
    return d / np.hypot(d[:, 0], d[:, 1])[:, None]


def _partly_complex_grid(n: int = 384) -> GridFunction:
    # a conormal grid with an imaginary part in rows 100..139 only
    gf = conormal_grid(n)
    vals = gf.values.copy()
    vals[100:140] += 0.5j * np.abs(vals[100:140].real)
    return GridFunction(gf.lo, gf.hi, vals)


def _assert_matches_oracle(gf, x, dirs, lams=_LAMS):
    got = fbi_direction_scan(gf, x, dirs, lams)
    want = scan_oracle.direction_scan(gf, x, dirs, lams)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("build, x", [
    (lambda: gaussian_grid(n=4096), 0.2),
    (lambda: sign_grid(n=4096), 0.0),
    (lambda: pole_grid(n=4096), 0.3),
], ids=["gaussian", "sign", "pole"])
def test_direction_scan_1d_matches_oracle(build, x):
    _assert_matches_oracle(build(), x, _DIRS_1D)


@pytest.fixture(scope="module")
def grids_384():
    return {"conormal": conormal_grid(384),
            "holomorphic": holomorphic_grid(384)}


@pytest.mark.parametrize("fixture", ["conormal", "holomorphic"])
@pytest.mark.parametrize("dirs", [
    _circle_directions(64), _circle_directions(63), _random_directions(7),
], ids=["fan-64", "fan-63", "random-7"])
def test_direction_scan_2d_matches_oracle(grids_384, fixture, dirs):
    _assert_matches_oracle(grids_384[fixture], (0.1, -0.05), dirs)


@pytest.mark.parametrize("rows", [7, 384], ids=["blocks-of-7", "one-block"])
def test_direction_scan_partly_complex_matches_oracle(monkeypatch, rows):
    # blocks of 7 rows: some carry the imaginary part, most do not
    gf = _partly_complex_grid()
    monkeypatch.setattr(fbi, "_SCAN_BLOCK_ELEMENTS", rows * gf.n[1])
    _assert_matches_oracle(gf, (0.1, -0.05), _circle_directions(64))


@pytest.mark.parametrize("fixture", ["conormal", "holomorphic"])
@pytest.mark.parametrize("x", [(0.0, 0.0), (0.2, -0.1)])
def test_wavefront_scan_verdicts_match_oracle(monkeypatch, grids_384, g2,
                                              fixture, x):
    gf = grids_384[fixture]
    got = wavefront_scan(gf, x, g2)
    monkeypatch.setattr(fbi, "fbi_direction_scan",
                        scan_oracle.direction_scan)
    want = wavefront_scan(gf, x, g2)
    assert got.failed_indices == want.failed_indices
    assert got.singular_indices == want.singular_indices
    assert [r.A_fit for r in got.reports] == [r.A_fit for r in want.reports]
    assert np.max(np.abs(got.samples - want.samples)) <= 1e-13


@pytest.mark.parametrize("n", [6, 8, 63, 64])
def test_circle_directions_fan(n):
    d = _circle_directions(n)
    with mpmath.workdps(40):
        exact = np.array([[float(mpmath.cos(2 * mpmath.pi * j / n)),
                           float(mpmath.sin(2 * mpmath.pi * j / n))]
                          for j in range(n)])
    th = 2.0 * np.pi * np.arange(n) / n
    assert np.max(np.abs(d - exact)) <= 1e-15
    assert np.max(np.abs(d - np.column_stack([np.cos(th), np.sin(th)]))) \
        <= 1e-15
    assert np.max(np.abs(np.hypot(d[:, 0], d[:, 1]) - 1.0)) <= 2.3e-16
    # closed bit for bit under every reflection the fan admits
    j = np.arange(n)
    assert np.array_equal(d[(n - j) % n], d * [1.0, -1.0])
    if n % 2 == 0:
        assert np.array_equal(d[(j + n // 2) % n], -d)
    if n % 4 == 0:
        assert np.array_equal(d[(n // 4 - j) % n], d[:, ::-1])
    if n == 64:
        assert np.unique(np.abs(d[:, 1])).size <= 18


def _uncut_grid(n):
    return GridFunction.from_function(lambda y1, y2: np.exp(1j * y1) + 0 * y2,
                                      [-1.0, -1.0], [1.0, 1.0], n)


@pytest.mark.parametrize("gf, lams, message", [
    (conormal_grid(128), np.geomspace(4.0, 64.0, 12),
     "axis 0 step 0.0157 exceeds 0.0138 needed at |xi| = 49.7"),
    # a coarse grid without a cutoff trips both guards; the first lambda
    # of the scan decides which one names the fault
    (_uncut_grid(64), np.geomspace(4.0, 64.0, 12),
     "integrand is not negligible at the box edge; enlarge the box or add "
     "a cutoff"),
    (_uncut_grid(64), np.geomspace(64.0, 4.0, 12),
     "axis 0 step 0.0317 exceeds 0.0109 needed at |xi| = 64"),
], ids=["step", "edge-first", "step-first"])
def test_direction_scan_2d_guards(gf, lams, message):
    with pytest.raises(Undersampled) as exc:
        fbi_direction_scan(gf, (0.1, 0.1), _circle_directions(8), lams)
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# decay classification

def test_classify_gaussian_envelope(g2):
    lams = 2.0 ** np.arange(2, 27)
    samples = np.array([abs(gaussian_fbi_closed_form(0.0, l)) for l in lams])
    rep = decay_classify(lams, samples, g2)
    assert rep.passed
    assert rep.A_fit <= 2.0


def test_classify_recovers_planted_envelope(g2):
    from carleman.weights import fbi_envelope
    lams = np.geomspace(4.0, 256.0, 16)
    samples = fbi_envelope(g2, 2.0, lams, certified=False)
    rep = decay_classify(lams, samples, g2)
    assert rep.passed
    assert rep.A_fit == 2.0


def test_classify_sign_fails(g2):
    lams = 2.0 ** np.arange(2, 27)
    samples = np.array([abs(sign_fbi_closed_form(l)) for l in lams])
    rep = decay_classify(lams, samples, g2)
    assert not rep.passed
    assert rep.A_fit == np.inf


def test_classify_monotone_in_amplitude(g2):
    lams = np.geomspace(4.0, 256.0, 16)
    from carleman.weights import fbi_envelope
    base = fbi_envelope(g2, 1.0, lams, certified=False)
    r1 = decay_classify(lams, base, g2, scale=1.0)
    r2 = decay_classify(lams, 8.0 * base, g2, scale=1.0)
    assert r2.A_fit >= r1.A_fit


def test_classify_needs_tail(g2):
    with pytest.raises(ValueError):
        decay_classify(np.array([1.0, 2.0]), np.array([1.0, 1.0]), g2,
                       lambda_min=4.0)


# ---------------------------------------------------------------------------
# wave front scans

@pytest.fixture(scope="module")
def conormal_scan(g2):
    return wavefront_scan(conormal_grid(), [0.0, 0.0], g2)


def test_conormal_scan_flags_diagonal_conormals(conormal_scan):
    rep = conormal_scan
    assert rep.singular_indices == [24, 56]
    assert 24 in rep.failed_indices and 56 in rep.failed_indices
    # the angular response smears each conormal over a few neighbors
    assert 2 <= len(rep.failed_indices) <= 14
    th = 2.0 * np.pi * np.array(rep.singular_indices) / 64.0
    got = np.column_stack([np.cos(th), np.sin(th)])
    want = np.array([1.0, -1.0]) / np.sqrt(2.0)
    dots = np.abs(got @ want)
    assert np.all(dots > np.cos(2.0 * np.pi / 64.0) - 1e-12)


def test_holomorphic_scan_is_clean(g2):
    rep = wavefront_scan(holomorphic_grid(), [0.0, 0.0], g2)
    assert rep.failed_indices == []
    assert rep.singular_indices == []


def test_2d_scan_without_a_regular_direction_raises(grids_384, g2):
    with pytest.raises(NoRegularDirection, match="all 64 directions fail"):
        wavefront_scan(grids_384["conormal"], [0.0, 0.0], g2,
                       ScanConfig(a_threshold=1e-3))


def test_sign_scan_fails_both_sides(g2):
    rep = wavefront_scan(sign_grid(n=4096), 0.0, g2)
    assert rep.failed_indices == [0, 1]
    assert rep.singular_indices == [0, 1]


def test_pole_decays_on_one_side_only():
    f_plus, f_minus = np.abs(fbi_direction_scan(pole_grid(n=4096), 0.0,
                                                _DIRS_1D, [64.0])[:, 0])
    assert f_minus < 0.05 * f_plus


# ---------------------------------------------------------------------------
# phase bounds

def test_upper_trace_cone():
    t = np.linspace(0.02, 0.2, 10)
    y = np.linspace(-0.1, 0.1, 21)
    rep = phase_bound_check(upper_trace(0.0, t), t, y)
    assert rep.omega0[0] == -1.0
    assert rep.C0 >= 0.5
    assert rep.half_angle >= np.pi / 8.0


def test_lower_trace_cone_mirrors():
    t = np.linspace(0.02, 0.2, 10)
    y = np.linspace(-0.1, 0.1, 21)
    rep = phase_bound_check(lower_trace(0.0, t), t, y)
    assert rep.omega0[0] == 1.0
    assert rep.C0 >= 0.5


def test_flat_trace_has_no_cone():
    t = np.linspace(0.02, 0.2, 10)
    y = np.linspace(-0.1, 0.1, 21)
    with pytest.raises(NoCone):
        phase_bound_check(0j * t, t, y)        # Z(t) = 0 stays real


def test_plane_trace_cone():
    t = np.linspace(0.02, 0.2, 8)
    z = np.column_stack([1j * t, np.zeros_like(t)]).astype(complex)
    yy = np.linspace(-0.1, 0.1, 9)
    y = np.column_stack([g.ravel() for g in np.meshgrid(yy, yy)])
    rep = phase_bound_check(z, t, y)
    assert np.allclose(rep.omega0, [-1.0, 0.0])
    assert rep.C0 >= 0.5
    assert np.pi / 8.0 <= rep.half_angle < np.pi
