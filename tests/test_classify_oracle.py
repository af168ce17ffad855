"""decay_classify, fbi_envelope over an array of levels and smooth_step
against the per-level loop and the whole-array cutoff in classify_oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import classify_oracle
from carleman.errors import GuardExceeded
from carleman.fbi import _A_GRID, decay_classify, wavefront_scan
from carleman.fixtures import conormal_grid, holomorphic_grid, smooth_step
from carleman.weights import fbi_envelope, make_sequence

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


def _assert_same(*args, **kwargs):
    got = _outcome(decay_classify, *args, **kwargs)
    want = _outcome(classify_oracle.decay_classify, *args, **kwargs)
    assert got == want


# ---------------------------------------------------------------------------
# decay_classify

@pytest.fixture(scope="module")
def fixture_scans():
    seq = SEQS["gevrey-2"]
    return {name: wavefront_scan(build(384), (0.0, 0.0), seq)
            for name, build in (("conormal", conormal_grid),
                                ("holomorphic", holomorphic_grid))}


@pytest.mark.parametrize("certified", [False, True])
@pytest.mark.parametrize("fixture", ["conormal", "holomorphic"])
def test_classify_matches_oracle_on_fixture_scans(fixture_scans, fixture,
                                                  certified):
    scan = fixture_scans[fixture]
    assert scan.samples.shape == (64, _LAMS.size)
    for row in scan.samples:
        _assert_same(_LAMS, row, SEQS["gevrey-2"],
                     lambda_min=scan.lambda_min, scale=1.0,
                     certified=certified)


def test_classify_guard_message_matches_oracle():
    # the certified short table runs out at the smallest level A = 2^-16
    seq = SEQS["gevrey-1.5-short"]
    got = _outcome(decay_classify, _LAMS, np.full(_LAMS.size, 1e-3), seq,
                   lambda_min=16.0, certified=True)
    assert got[0] == "GuardExceeded"
    _assert_same(_LAMS, np.full(_LAMS.size, 1e-3), seq, lambda_min=16.0,
                 certified=True)


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
       scale=st.sampled_from([None, 1.0]), certified=st.booleans())
def test_classify_matches_oracle_on_drawn_tails(tail, seq, floor_rel, scale,
                                                certified):
    lams, mags, lambda_min = tail
    _assert_same(lams, mags, SEQS[seq], lambda_min=lambda_min,
                 floor_rel=floor_rel, scale=scale, certified=certified)


# ---------------------------------------------------------------------------
# fbi_envelope over an array of levels

@pytest.mark.parametrize("name", sorted(SEQS))
def test_envelope_rows_equal_scalar_level_calls(name):
    seq = SEQS[name]
    lams = np.geomspace(1.0, 300.0, 17)
    rows = fbi_envelope(seq, _A_GRID, lams, certified=False)
    assert rows.shape == (_A_GRID.size, lams.size)
    for A, row in zip(_A_GRID, rows):
        assert np.array_equal(row, fbi_envelope(seq, float(A), lams,
                                                certified=False))
    # a scalar lambda gives one value per level
    col = fbi_envelope(seq, _A_GRID, 30.0, certified=False)
    assert col.shape == _A_GRID.shape
    assert np.array_equal(col, [fbi_envelope(seq, float(A), 30.0,
                                             certified=False)
                                for A in _A_GRID])


def test_envelope_levels_must_be_positive():
    with pytest.raises(ValueError, match="A must be positive"):
        fbi_envelope(SEQS["gevrey-2"], np.array([1.0, 0.0]), 8.0)


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
