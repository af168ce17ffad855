"""FBI transform oracles, decay classification, scans, phase bounds."""

import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

import scan_oracle
from carleman import fbi
from carleman.errors import GuardExceeded, NoCone, NonFiniteSamples, \
    NoRegularDirection, Undersampled
from carleman.fbi import (GridFunction, ScanConfig, _check_sampling,
                          _circle_directions, decay_classify,
                          fbi_direction_scan, phase_bound_check,
                          wavefront_scan)
from carleman.fixtures import (WAVE_SOLUTIONS, conormal_grid,
                               gaussian_fbi_closed_form, gaussian_grid,
                               holomorphic_grid, pole_grid,
                               sign_fbi_closed_form, sign_grid, smooth_step,
                               windowed_grid)
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


def test_holomorphic_product_form_is_bit_identical():
    # e^x e^{it} on sparse row blocks must give the bytes of the pointwise
    # np.exp(x + 1j t) on the benchmark's full GRID_N axis pair; 256-row
    # blocks keep each side at 11 MB, not 121 MB
    u = WAVE_SOLUTIONS["holomorphic"].u
    axis = np.linspace(-1.0, 1.0, fbi.GRID_N)
    t = axis[None, :]
    for i in range(0, axis.size, 256):
        x = axis[i:i + 256, None]
        got, want = u(x, t), np.exp(x + 1j * t)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), f"rows from {i}"


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


@pytest.mark.parametrize("step, share", [
    pytest.param("check_sampling", 0.1, id="check_sampling"),
    pytest.param("save", 0.1, id="save"),
    pytest.param("scan", 0.2, id="scan")])
def test_grid_passes_stream_in_row_blocks(tmp_path, step, share):
    # the guards' max|values|, the complex64 file payload and the scan's
    # real and imaginary planes are taken one row block at a time, not as
    # whole-grid temporaries; the scan's one cos/sin table grows with one
    # axis only
    gf = holomorphic_grid(2048) if step == "scan" else conormal_grid(1024)
    lams = np.geomspace(4.0, 64.0, 12)
    run = {"check_sampling": lambda: _check_sampling(gf, [0.0, 0.0], lams),
           "save": lambda: gf.save(tmp_path / "grid.bin"),
           "scan": lambda: fbi_direction_scan(
               gf, [0.0, 0.0], _circle_directions(64), lams)}[step]
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= share * gf.values.nbytes


def _divide(y1, y2):
    return 1.0 / (y1 - y2)      # divides by zero on the diagonal


def test_build_keeps_the_callers_errstate():
    with np.errstate(divide="raise"):
        with pytest.raises(FloatingPointError):
            GridFunction.from_function(_divide, [-1.0, -1.0], [1.0, 1.0], 257)
    with warnings.catch_warnings(record=True) as caught, \
            np.errstate(divide="ignore"):
        warnings.simplefilter("always")
        gf = GridFunction.from_function(_divide, [-1.0, -1.0], [1.0, 1.0], 257)
    assert not caught
    assert np.isinf(gf.values[128, 128])


def test_build_raises_the_callers_exception():
    failure = ValueError("block three")
    calls = []

    def fn(y1, y2):
        calls.append(y1.shape[0])
        if len(calls) == 3:
            raise failure
        return y1 + y2

    with pytest.raises(ValueError) as exc:
        GridFunction.from_function(fn, [-1.0, -1.0], [1.0, 1.0], 1024)
    assert exc.value is failure
    assert len(calls) == 3                  # no block after the failing one


def test_check_sampling_counts_non_finite_samples_in_every_block():
    gf = conormal_grid(257)
    assert len(fbi._row_blocks(gf.n)) == 3
    gf.values[0, 5] = np.nan                # first block
    gf.values[128, 7] = np.inf              # second
    gf.values[256, 256] = complex(np.nan, np.inf)   # last
    with pytest.raises(NonFiniteSamples, match="3 of 66049"):
        _check_sampling(gf, [0.0, 0.0], [4.0])


def test_check_sampling_weighs_the_edge_against_the_largest_sample():
    # edge 1 damped by e^{-4} at lambda = 4 from the centre: negligible
    # against a largest sample of 1e12 in the last row block, not of 1e9
    gf = GridFunction([-1.0, -1.0], [1.0, 1.0], np.ones((257, 257)))
    gf.values[200, 100] = 1e12
    _check_sampling(gf, [0.0, 0.0], [4.0])
    gf.values[200, 100] = 1e9
    with pytest.raises(Undersampled, match="box edge"):
        _check_sampling(gf, [0.0, 0.0], [4.0])


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


@pytest.mark.parametrize("half, lams, share", [
    (5.0, np.geomspace(4.0, 16.0, 12), 1.0),    # n = 460
    (5.0, np.geomspace(4.0, 16.0, 12), 0.5),    # n = 918
    (7.0, _LAMS, 1.0),                          # n = 2141
], ids=["hw5-lam16", "hw5-lam16-derived", "hw7-lam64"])
def test_direction_scan_2d_matches_gaussian_closed_form(half, lams, share):
    # e^{-|y|^2} against its closed form, independent of the scan's own
    # quadrature.  share 1 is the guard's coarsest grid, 0.5 the n
    # wf-experiment derives
    n = fbi.guard_n(float(lams.max()), half, share)
    gf = GridFunction.from_function(lambda a, b: np.exp(-a * a - b * b),
                                    [-half] * 2, [half] * 2, n)
    dirs = _circle_directions(64)
    for x0 in ((0.0, 0.0), (0.3, -0.5)):
        got = fbi_direction_scan(gf, x0, dirs, lams)
        want = scan_oracle.gaussian_2d(x0, dirs, lams)
        # measured: at most 1.4e-15 of max |F|
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


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


def _smooth_2d(n0: int = 384, n1: int = 384) -> GridFunction:
    # no exact zero anywhere, so every product runs over every column
    def fn(y0, y1):
        return np.exp(-30.0 * (y0 * y0 + y1 * y1)) * (1.0 + 0.3j * y0)
    return GridFunction.from_function(fn, [-1.0, -1.0], [1.0, 1.0], [n0, n1])


def _zero_rows_grid(n: int = 384) -> GridFunction:
    # the windowed holomorphic grid with its first 60 and last 40 rows set
    # to exact zeros: in blocks of 7 rows, whole blocks hold only zeros
    gf = holomorphic_grid(n)
    vals = gf.values.copy()
    vals[:60] = vals[-40:] = 0.0
    return GridFunction(gf.lo, gf.hi, vals)


def _banded_grid(n: int = 384) -> GridFunction:
    # nonzero only on the columns |y_2 - 0.1| < 0.3, with a jump there: the
    # first and last column of every block's nonzero span carry weight
    def fn(y0, y1):
        return np.exp(-30.0 * y0 * y0) * (np.abs(y1 - 0.1) < 0.3) * (1 + y1)
    return GridFunction.from_function(fn, [-1.0, -1.0], [1.0, 1.0], n)


_FAN = _circle_directions(64)
# name: (grid, base point, directions, whether both axes share one
# cos/sin table, rows per scan block or None for the default)
_SCAN_CASES = {
    "conormal-origin": (lambda: conormal_grid(384), (0.0, 0.0), _FAN,
                        True, None),
    "holomorphic-diagonal": (lambda: holomorphic_grid(384), (0.1, 0.1),
                             _FAN, True, None),
    "off-diagonal": (lambda: conormal_grid(384), (0.1, -0.05), _FAN, False,
                     None),
    "n0-ne-n1": (lambda: windowed_grid(WAVE_SOLUTIONS["holomorphic"].u,
                                       [384, 320]), (0.0, 0.0), _FAN, False,
                 None),
    "fan-63": (lambda: conormal_grid(384), (0.0, 0.0),
               _circle_directions(63), False, None),
    "no-zero-margins": (_smooth_2d, (0.0, 0.0), _FAN, True, None),
    "no-zero-margins-n0-ne-n1": (lambda: _smooth_2d(384, 352), (0.05, -0.1),
                                 _FAN, False, None),
    "jump-at-the-span-ends": (_banded_grid, (0.0, 0.0), _FAN, True, None),
    "zero-row-blocks": (_zero_rows_grid, (0.0, 0.0), _FAN, True, 7),
    "partly-complex-shared": (_partly_complex_grid, (0.0, 0.0), _FAN, True,
                              7),
    "1d-gaussian": (lambda: gaussian_grid(n=4096), 0.2, _DIRS_1D, False,
                    None),
}


@pytest.mark.parametrize("case", sorted(_SCAN_CASES))
def test_direction_scan_shares_the_table_iff_the_axes_match(monkeypatch,
                                                           case):
    build, x, dirs, shared, rows = _SCAN_CASES[case]
    gf = build()
    if rows is not None:
        monkeypatch.setattr(fbi, "_SCAN_BLOCK_ELEMENTS", rows * gf.n[-1])
    calls = []
    phase_columns = fbi._phase_columns

    def counted(*args):
        calls.append(args)
        return phase_columns(*args)
    monkeypatch.setattr(fbi, "_phase_columns", counted)
    _assert_matches_oracle(gf, x, dirs)
    assert len(calls) == (1 if shared else 2)


@pytest.mark.parametrize("fixture", ["conormal", "holomorphic"])
@pytest.mark.parametrize("b", [-0.25, 0.25])
def test_wavefront_verdicts_match_oracle_at_the_benchmark_bases(
        monkeypatch, g2, fixture, b):
    # the windowed grid of wf-experiment at its derived n about (b, b)
    gf = windowed_grid(WAVE_SOLUTIONS[fixture].u, 368, (b, b))
    got = wavefront_scan(gf, (b, b), g2)
    monkeypatch.setattr(fbi, "fbi_direction_scan",
                        scan_oracle.direction_scan)
    want = wavefront_scan(gf, (b, b), g2)
    assert got.failed_indices == want.failed_indices
    assert got.singular_indices == want.singular_indices
    assert [(r.A_fit, r.passed) for r in got.reports] == \
        [(r.A_fit, r.passed) for r in want.reports]
    assert np.max(np.abs(got.samples - want.samples)) <= 1e-13


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

def test_classify_gaussian_envelope():
    # lambda up to 2^26 needs a table of K_max 8192 to certify A near 1
    seq = make_sequence("gevrey", s=2.0, K_max=8192)
    lams = 2.0 ** np.arange(2, 27)
    samples = np.array([abs(gaussian_fbi_closed_form(0.0, l)) for l in lams])
    rep = decay_classify(lams, samples, seq)
    assert rep.passed
    assert rep.A_fit <= 2.0


def test_classify_recovers_planted_envelope(g2):
    from carleman.weights import fbi_envelope
    lams = np.geomspace(4.0, 256.0, 16)
    samples = fbi_envelope(g2, 2.0, lams)
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
    base = fbi_envelope(g2, 1.0, lams)
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


def test_scan_below_the_certified_threshold_envelope_raises(g2):
    # the table certifies levels from 2^-6 at lambda = 64, and every scan
    # reads E(a_threshold, lambda), so a 1-D scan that bands nothing
    # raises too
    with pytest.raises(GuardExceeded, match="^envelope minimizer hit "
                                            "K_max=64 at lambda="):
        wavefront_scan(gaussian_grid(n=4096), 0.0, g2,
                       ScanConfig(a_threshold=1e-3))


def test_scan_config_resolves_the_tail():
    cfg = ScanConfig(lambdas=[64.0, 4.0, 16.0])
    assert cfg.lambdas.dtype == float
    assert cfg.lambda_min == float(np.exp(np.log(4.0) + (2.0 / 3.0) * (
        np.log(64.0) - np.log(4.0))))
    assert ScanConfig(lambda_min=16).lambda_min == 16.0


@pytest.mark.parametrize("kwargs, message", [
    ({"n_directions": 0}, "n_directions 0 is below 1"),
    ({"a_threshold": 0.0}, "a_threshold 0 is not > 0"),
    ({"a_threshold": float("nan")}, "a_threshold nan is not > 0"),
    ({"lambdas": []}, "lambdas must be one or more values > 0"),
    ({"lambdas": [0.0, 8.0]}, "lambdas must be one or more values > 0"),
    ({"lambda_min": 100.0}, "no lambda at or above lambda_min = 100"),
])
def test_scan_config_names_what_it_refuses(kwargs, message):
    with pytest.raises(ValueError) as exc:
        ScanConfig(**kwargs)
    assert str(exc.value) == message


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
    rep = phase_bound_check(1j * t, t, y)        # Z(t) = i t
    assert rep.omega0[0] == -1.0
    assert rep.C0 >= 0.5
    assert rep.half_angle >= np.pi / 8.0


def test_lower_trace_cone_mirrors():
    t = np.linspace(0.02, 0.2, 10)
    y = np.linspace(-0.1, 0.1, 21)
    rep = phase_bound_check(-1j * t, t, y)       # Z(t) = -i t
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
