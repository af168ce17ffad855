"""decay_classify, fbi_envelope over an array of levels, the band peaks of
wavefront_scan and smooth_step against the per-level loop, the
per-direction margins and the whole-array cutoff in classify_oracle."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import classify_oracle
from carleman.errors import GuardExceeded
from carleman.fbi import _A_GRID, _tail, decay_classify, wavefront_scan
from carleman.fixtures import (WAVE_SOLUTIONS, conormal_grid,
                               holomorphic_grid, smooth_step, windowed_grid)
from carleman.weights import envelope_certified, fbi_envelope, make_sequence

_LAMS = np.geomspace(4.0, 64.0, 12)


def _bumpy_table():
    """Increasing but not log-convex: the envelope takes the direct scan."""
    K = 16
    log_m = np.zeros(K + 1)
    log_m[2:] = np.cumsum(np.array([0.3, 0.8, 0.5, 0.9, 1.1, 1.0, 1.3, 1.2,
                                    1.5, 1.4, 1.7, 1.6, 1.9, 1.8, 2.1]))
    lfact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, K + 1)))])
    return make_sequence("table", K_max=K, values=np.exp(log_m + lfact))


SEQS = {"gevrey-2": make_sequence("gevrey", s=2.0, K_max=64),
        "gevrey-1.5-short": make_sequence("gevrey", s=1.5, K_max=12),
        "bumpy": _bumpy_table()}


def _outcome(classify, *args, **kwargs):
    """The report, or the guard's message when it raises."""
    try:
        return classify(*args, **kwargs)
    except GuardExceeded as e:
        return "GuardExceeded", str(e)


def _lowest_certified(seq, lams, lambda_min):
    """The lowest grid level the table certifies over the tail, or None.

    Checks on the way that the certified levels are the top of the grid
    and that a level certified at the top lambda is certified at every
    lambda of the tail, and that the flags agree with the oracle's terms
    wherever those are not within rounding of a tie at K_max."""
    lt = lams[_tail(lams, lambda_min)]
    top = envelope_certified(seq, _A_GRID, lt.max())
    assert np.all(top[np.argmax(top):]) or not top.any()
    assert envelope_certified(seq, _A_GRID, lt)[top].all()
    for A, flag in zip(_A_GRID, top):
        t = classify_oracle._log_terms(seq, float(A), lt.max())[0]
        K = seq.K_max
        if abs(t[K] - t[K - 1]) > 1e-9 * (1.0 + abs(t[K])):
            assert flag == classify_oracle.certified(seq, float(A), lt.max())
    return float(_A_GRID[top][0]) if top.any() else None


def _lifted(lams, mags, seq, lambda_min=4.0, **kwargs):
    """The oracle's verdict with A_fit lifted to the lowest level the
    table certifies, or GuardExceeded where it certifies none."""
    want = classify_oracle.decay_classify(lams, mags, seq,
                                          lambda_min=lambda_min, **kwargs)
    low = _lowest_certified(seq, np.asarray(lams, dtype=float), lambda_min)
    if low is None:
        return "GuardExceeded"
    return dataclasses.replace(want, A_fit=max(want.A_fit, low))


def _assert_lifted(*args, **kwargs):
    got = _outcome(decay_classify, *args, **kwargs)
    want = _lifted(*args, **kwargs)
    assert (got[0] if isinstance(got, tuple) else got) == want


# ---------------------------------------------------------------------------
# decay_classify

@pytest.fixture(scope="module")
def fixture_scans():
    seq = SEQS["gevrey-2"]
    return {name: wavefront_scan(build(384), (0.0, 0.0), seq)
            for name, build in (("conormal", conormal_grid),
                                ("holomorphic", holomorphic_grid))}


# the short table certifies levels from 2^-6 at lambda = 64, the long one
# every level, so only the short one lifts
@pytest.mark.parametrize("long_table", [False, True])
@pytest.mark.parametrize("fixture", ["conormal", "holomorphic"])
def test_classify_matches_oracle_on_fixture_scans(fixture_scans, fixture,
                                                  long_table):
    scan = fixture_scans[fixture]
    assert scan.samples.shape == (64, _LAMS.size)
    seq = make_sequence("gevrey", s=2.0, K_max=4096) if long_table \
        else SEQS["gevrey-2"]
    low = _lowest_certified(seq, _LAMS, scan.lambda_min)
    assert low == (2.0 ** -16 if long_table else 2.0 ** -6)
    for row in scan.samples:
        _assert_lifted(_LAMS, row, seq, lambda_min=scan.lambda_min,
                       scale=1.0)


def test_classify_guard_message_matches_oracle():
    seq = SEQS["gevrey-1.5-short"]
    mags = np.full(_LAMS.size, 1e-3)
    # at lambda <= 64 the short table certifies the levels from 2 up
    assert _lowest_certified(seq, _LAMS, 16.0) == 2.0
    _assert_lifted(_LAMS, mags, seq, lambda_min=16.0)
    # at lambda = 1e7 it certifies none: the minimizer of every level
    # lies past K_max = 12, in the oracle's terms too
    lams = np.geomspace(4.0, 1e7, 12)
    assert not any(classify_oracle.certified(seq, float(A), 1e7)
                   for A in _A_GRID)
    got = _outcome(decay_classify, lams, mags, seq, lambda_min=16.0)
    assert got == ("GuardExceeded", "envelope minimizer hit K_max=12 at "
                   "lambda=1e+07 for every level A; enlarge K_max")
    _assert_lifted(lams, mags, seq, lambda_min=16.0)


@st.composite
def _tails(draw):
    n = draw(st.integers(1, 8))
    lams = sorted(draw(st.lists(st.floats(1.0, 300.0), min_size=n,
                                max_size=n)))
    mags = draw(st.lists(st.one_of(
        st.just(0.0), st.floats(-30.0, 1.0).map(lambda e: 10.0 ** e)),
        min_size=n, max_size=n))
    lambda_min = lams[draw(st.integers(0, n - 1))]
    return np.array(lams), np.array(mags), lambda_min


@settings(max_examples=150, deadline=None)
@given(tail=_tails(), seq=st.sampled_from(sorted(SEQS)),
       floor_rel=st.sampled_from([0.0, 1e-11, 1e-3]),
       scale=st.sampled_from([None, 1.0]))
def test_classify_matches_oracle_on_drawn_tails(tail, seq, floor_rel, scale):
    lams, mags, lambda_min = tail
    _assert_lifted(lams, mags, SEQS[seq], lambda_min=lambda_min,
                   floor_rel=floor_rel, scale=scale)


@settings(max_examples=150, deadline=None)
@given(s=st.floats(1.05, 3.0), K_max=st.integers(8, 600),
       lo=st.floats(1.0, 256.0), span=st.floats(1.0, 256.0),
       level=st.integers(0, _A_GRID.size - 1),
       factors=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8))
def test_certified_classification_where_the_oracle_used_certified_levels(
        s, K_max, lo, span, level, factors):
    # samples about the table's minimum at a drawn level, so that the
    # verdicts land all over the grid, lifted or not
    seq = make_sequence("gevrey", s=s, K_max=K_max)
    lams = np.geomspace(lo, lo * span, len(factors))
    mags = classify_oracle.partial_envelope(seq, float(_A_GRID[level]),
                                            lams) * 2.0 ** np.array(factors)
    want = classify_oracle.decay_classify(lams, mags, seq, lambda_min=lo,
                                          scale=1.0)
    low = _lowest_certified(seq, lams, lo)
    if low is not None and want.A_fit >= low:
        # the oracle passed at a certified level, or failed at every level
        # while some level is certified: the same verdict, no guard
        assert decay_classify(lams, mags, seq, lambda_min=lo,
                              scale=1.0) == want
    else:
        _assert_lifted(lams, mags, seq, lambda_min=lo, scale=1.0)


# ---------------------------------------------------------------------------
# fbi_envelope over an array of levels

@pytest.mark.parametrize("name", sorted(SEQS))
def test_envelope_rows_equal_scalar_level_calls(name):
    seq = SEQS[name]
    lams = np.geomspace(1.0, 300.0, 17)
    flags = envelope_certified(seq, _A_GRID, lams)
    assert flags.shape == (_A_GRID.size, lams.size)
    for A, row in zip(_A_GRID, flags):
        assert np.array_equal(row, envelope_certified(seq, float(A), lams))
    # the levels certified at the top lambda, certified at every lambda
    levels = _A_GRID[flags[:, -1]]
    assert levels.size and flags[flags[:, -1]].all()
    rows = fbi_envelope(seq, levels, lams)
    assert rows.shape == (levels.size, lams.size)
    for A, row in zip(levels, rows):
        assert np.array_equal(row, fbi_envelope(seq, float(A), lams))
    # a scalar lambda gives one value per level
    col = fbi_envelope(seq, levels, 30.0)
    assert col.shape == levels.shape
    assert np.array_equal(col, [fbi_envelope(seq, float(A), 30.0)
                                for A in levels])


def test_envelope_levels_must_be_positive():
    with pytest.raises(ValueError, match="A must be positive"):
        fbi_envelope(SEQS["gevrey-2"], np.array([1.0, 0.0]), 8.0)


# ---------------------------------------------------------------------------
# band peaks

# windowed grids at the n wf-experiment derives, 368: the conormal kink at
# two bases on its singular line, its mirror image and the kink plus an
# entire term
@pytest.mark.parametrize("u, base, want", [
    pytest.param(WAVE_SOLUTIONS["conormal"].u, (-0.25, -0.25), [24, 56],
                 id="conormal-low"),
    pytest.param(WAVE_SOLUTIONS["conormal"].u, (0.25, 0.25), [24, 56],
                 id="conormal-high"),
    pytest.param(lambda x, t: np.abs(x + t) ** 3, (0.0, 0.0), [8, 40],
                 id="mirror"),
    pytest.param(lambda x, t: np.abs(x - t) ** 3 + 0.1 * np.exp(x - t),
                 (0.0, 0.0), [24, 56], id="kink-plus-exp"),
])
def test_band_peaks_match_oracle(u, base, want):
    seq = SEQS["gevrey-2"]
    scan = wavefront_scan(windowed_grid(u, 368, base), base, seq)
    args = (scan.samples, scan.failed_indices, seq, 1.0, _LAMS,
            scan.lambda_min)
    bands = classify_oracle.band_margins(*args)
    assert len(bands) == 2 and all(len(b) > 1 for b in bands)
    for band in bands:
        # far above a last-bit difference between fbi_envelope and the
        # oracle's minimum, so that cannot move the peak
        second, first = sorted(band.values())[-2:]
        assert first - second > 1e-9
    assert scan.singular_indices == classify_oracle.band_peaks(*args) == want


# ---------------------------------------------------------------------------
# smooth_step

def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _special_points():
    pts = [np.nan, np.inf, -np.inf, 0.5, 1.0, 0.0, -0.0, -1.0, -1e300, 2.0]
    near = [np.nextafter(p, d) for p in (0.5, 1.0, 0.0)
            for d in (-np.inf, np.inf)]
    return np.array(pts + near)


def test_smooth_step_matches_oracle_at_special_points():
    s = _special_points()
    assert np.array_equal(_bits(smooth_step(s)),
                          _bits(classify_oracle.smooth_step(s)))
    for v in s:
        assert _bits(smooth_step(v)) == _bits(classify_oracle.smooth_step(v))


def test_smooth_step_matches_oracle_on_a_dense_band():
    s = np.linspace(-0.5, 1.5, 101 * 1001).reshape(101, 1001)
    assert np.array_equal(_bits(smooth_step(s)),
                          _bits(classify_oracle.smooth_step(s)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True),
                min_size=1, max_size=16))
def test_smooth_step_matches_oracle_on_drawn_values(values):
    s = np.array(values)
    assert np.array_equal(_bits(smooth_step(s)),
                          _bits(classify_oracle.smooth_step(s)))
