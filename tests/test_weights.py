import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carleman import weights
from carleman.errors import FitFailed, GuardExceeded
from carleman.weights import (
    WeightSequence,
    absorption_fit,
    assoc,
    bigN,
    bigN_capped,
    check_regularity,
    envelope_certified,
    fbi_envelope,
    make_sequence,
)


def brute_log_terms(seq, r, variant):
    ks = np.arange(seq.K_max + 1)
    log_m = seq.log_m(ks)
    if variant == "h":
        return log_m + ks * np.log(r)
    return log_m[1:] + (ks[1:] - 1) * np.log(r)


def least_r(seq) -> float:
    """m_{K-1}/m_K, the least r whose argmin K_max certifies."""
    return float(np.exp(-seq.increments(seq.K_max - 1, seq.K_max)[0]))


@pytest.fixture(scope="module")
def g2():
    return make_sequence("gevrey", s=2.0, K_max=64)


@pytest.fixture(scope="module")
def g15():
    return make_sequence("gevrey", s=1.5, K_max=64)


# ---------------------------------------------------------------- construction

def test_gevrey2_log_m_is_log_factorial(g2):
    # m_k = k!: m_0 = m_1 = 1 exactly, the increments are log(k + 1) to
    # the bit, and log m_k is math.lgamma(k + 1)
    assert g2.log_m(0) == 0.0 and g2.log_m(1) == 0.0
    assert np.array_equal(g2.increments(0, 7), np.log(np.arange(1.0, 8.0)))
    assert np.array_equal(g2.log_m(np.arange(8)),
                          [math.lgamma(k + 1.0) for k in range(8)])
    assert np.allclose(np.exp(g2.log_m(np.arange(8))),
                       [1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0, 5040.0],
                       rtol=1e-14, atol=0.0)


def test_construction_validation():
    with pytest.raises(ValueError):
        make_sequence("gevrey", s=2.0, K_max=4)
    with pytest.raises(ValueError):
        make_sequence("gevrey", s=1.0)
    with pytest.raises(ValueError):
        make_sequence("table", K_max=8, values=[1.0] * 5)
    with pytest.raises(ValueError):
        make_sequence("table", K_max=8, values=[1.0] * 8 + [-1.0])
    with pytest.raises(ValueError):
        make_sequence("nope")


@pytest.mark.parametrize("s, K_max, k", [(1e308, 64, 4),
                                         (1e303, 65536, 20171),
                                         (np.inf, 64, 0)])
def test_gevrey_exponent_whose_table_overflows_is_rejected(s, K_max, k):
    # log m_k = (s - 1) log k! passes the largest float first at k, far
    # below K_max in the second case; inf * log 0! is a NaN
    with pytest.raises(ValueError, match=rf"log m_{k} is not finite$"):
        make_sequence("gevrey", s=s, K_max=K_max)


def test_table_length_must_match_K_max():
    log_m = np.log(np.arange(1.0, 66.0))
    assert WeightSequence("table", None, 64, log_m).K_max == 64
    # a table one entry short or long of K_max + 1 is refused
    for K in (40, 63, 65):
        with pytest.raises(ValueError, match=f"needs {K + 1} entries, got 65"):
            WeightSequence("table", None, K, log_m)


def test_gevrey_sequence_holds_no_array():
    # a Gevrey sequence keeps s and K_max and reads the rest in closed form
    seq = make_sequence("gevrey", s=1.5, K_max=2 ** 40)
    assert seq.table is None and seq.K_max == 2 ** 40
    assert [type(v) for v in vars(seq).values()
            if isinstance(v, np.ndarray)] == []
    assert seq.log_m(2 ** 40) == pytest.approx(
        0.5 * math.lgamma(2.0 ** 40 + 1.0), rel=1e-15)


@pytest.mark.parametrize("bad", [np.inf, np.nan, -np.inf])
def test_non_finite_table_value_is_rejected(bad):
    values = [1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0, 5040.0, bad]
    with pytest.raises(ValueError, match=r"values\[8\] = .* is not finite"):
        make_sequence("table", K_max=8, values=values)
    # past K_max too: the table is refused, not truncated around it
    with pytest.raises(ValueError, match=r"values\[9\]"):
        make_sequence("table", K_max=8, values=values[:8] + [40320.0, bad])


def test_tables_are_read_only():
    # a table's increments are taken from it on every call and never kept
    seq = _bumpy_table()
    assert np.array_equal(seq.increments(5, 9), np.diff(seq.table)[5:9])
    assert seq.increments(0, 16) is not seq.increments(0, 16)
    seq.log_M(0)
    for arr in (seq.table, seq._log_M):
        with pytest.raises(ValueError):
            arr[0] = 0.5


def test_table_build_keeps_one_array_and_checks_in_blocks():
    # a Gevrey sequence is built and checked in closed form: at
    # K_max = 2^21 neither holds an array of that length, even for a moment
    tracemalloc.start()
    try:
        seq = make_sequence("gevrey", 1.5, 2 ** 21)
        rep = check_regularity(seq)
        c = seq.c_bound
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed and c == 2.0 ** 0.5
    assert peak < 2 ** 20, f"build and check peak {peak / 2 ** 20:.2f} MiB"


def test_envelope_log_table_keeps_one_more_array():
    # a table's log M_k is built on first use: reading it keeps its own
    # array and no log(k!) beside it
    K = 2 ** 16
    values = np.random.default_rng(K).lognormal(0.0, 2.0, K + 1)
    seq = make_sequence("table", values=values)
    tracemalloc.start()
    try:
        seq.log_M(0)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 8 * (K + 1) + 2 ** 12, \
        f"log_M keeps {held / 2 ** 20:.2f} MiB"


def test_queries_on_a_large_table_hold_no_table_length_array():
    # a Gevrey sequence at K_max = 2^21 holds no array of that length from
    # its build through every query: together they peak under 1 MiB
    K = 2 ** 21
    tracemalloc.start()
    try:
        seq = make_sequence("gevrey", 1.5, K)
        assert check_regularity(seq).passed
        r = np.geomspace(least_r(seq) * 1.02, 3.0, 50)
        assoc(seq, "h", r)
        assoc(seq, "h1", r)
        bigN_capped(seq, r, 12)
        bigN_capped(seq, r, K)
        absorption_fit(seq, 1, r[:40])
        fbi_envelope(seq, [0.5, 1.0, 2.0], np.geomspace(4.0, 1e4, 20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


def test_envelope_log_table_is_built_once_on_first_use():
    lfact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, 65)))])
    seq = make_sequence("table", values=np.exp(2.0 * lfact))   # (k!)^2
    assert "_log_M" not in vars(seq)            # nothing built up front
    fbi_envelope(seq, [0.5, 1.0], np.geomspace(4.0, 64.0, 12))
    log_M = seq._log_M
    assert np.array_equal(log_M, seq.table + lfact)
    envelope_certified(seq, 1.0, 64.0)
    assert seq._log_M is log_M
    with pytest.raises(ValueError):
        log_M[0] = 0.5


def test_c_bound_gevrey2(g2):
    # sup (m_{k+1}/m_k)^{1/k} = (k+1)^{1/k}, maximized at k = 1
    assert g2.c_bound == pytest.approx(2.0, rel=1e-12)


# ------------------------------------------------------- associated functions

def test_h1_plateau_exact(g2):
    for r in np.geomspace(1.0, 10.0, 20):
        assert assoc(g2, "h1", r) == 1.0
        assert bigN(g2, r) == 0


def test_h_spec_values(g2):
    # brute min of k! 0.5^k: 1, 0.5, 0.5, 0.75 -> 0.5
    assert assoc(g2, "h", 0.5) == pytest.approx(0.5, rel=1e-14)
    assert assoc(g2, "h", 3.0) == 1.0
    assert assoc(g2, "h1", 2.0) == 1.0


def test_bigN_examples(g2):
    assert bigN(g2, 1.5) == 0
    assert bigN(g2, 0.4) == 2


def test_bigN_gevrey2_intervals(g2):
    # For m_k = k!, N(r) = n exactly on [1/(n+1), 1/n)
    rng = np.random.default_rng(7)
    for n in range(1, 21):
        lo, hi = 1.0 / (n + 1), 1.0 / n
        for r in lo + (hi - lo) * rng.random(5):
            assert bigN(g2, r) == n
        assert bigN(g2, lo) == n            # left endpoint belongs to n


def test_bigN_at_ratio_breakpoints(g2):
    # N(m_n/m_{n+1}) = n, the subsequence property, ties to the least index
    for n in range(1, 11):
        r = float(np.exp(g2.log_m(n) - g2.log_m(n + 1)))
        assert bigN(g2, r) == n


def test_brute_force_agreement(g2, g15):
    rng = np.random.default_rng(11)
    for seq in (g2, g15):
        r_lo = least_r(seq)                     # smallest certified r
        for r in np.exp(rng.uniform(np.log(r_lo * 1.01), np.log(3.0), 200)):
            got_h = assoc(seq, "h", r)
            want_h = np.exp(brute_log_terms(seq, r, "h").min())
            assert got_h == pytest.approx(want_h, rel=1e-12)
            if r < 1.0:
                terms = brute_log_terms(seq, r, "h1")
                want_n = 1 + int(np.argmin(terms))
                assert bigN(seq, r) == want_n
                assert assoc(seq, "h1", r) == pytest.approx(
                    np.exp(terms.min()), rel=1e-12)


def test_table_kind_with_ties():
    # m_k = 2^k has constant log-increments: every r = 1/2 neighborhood ties;
    # the argmin must match a least-index brute scan away from the breakpoint.
    K = 32
    k = np.arange(K + 1)
    lfact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, K + 1)))])
    values = np.exp(k * np.log(2.0) + lfact)   # M_k = 2^k k!
    seq = make_sequence("table", K_max=K, values=values)
    assert seq.log_convex
    # every increment is log 2, so for r > 1/2 the k = 1 term already wins
    assert bigN(seq, 0.6) == 1


def test_table_tie_guard():
    K = 32
    k = np.arange(K + 1)
    lfact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, K + 1)))])
    values = np.exp(k * np.log(2.0) + lfact)
    seq = make_sequence("table", K_max=K, values=values)
    with pytest.raises(GuardExceeded):
        bigN(seq, 0.4)
    # exactly at the tie r = 1/2 every index gives m_k r^{k-1} = 2 r^k...
    # increments are all equal to log(1/2 / r) = 0, argmin resolves to 1
    assert bigN(seq, 0.5) == 1


def _bumpy_values():
    """M_k, k = 0..16, of a locally non-convex but increasing table."""
    K = 16
    log_m = np.zeros(K + 1)
    log_m[2:] = np.cumsum(np.array([0.3, 0.8, 0.5, 0.9, 1.1, 1.0, 1.3, 1.2,
                                    1.5, 1.4, 1.7, 1.6, 1.9, 1.8, 2.1]))
    lfact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, K + 1)))])
    return np.exp(log_m + lfact)


def _bumpy_table():
    """The table of _bumpy_values: the direct-scan branch."""
    return make_sequence("table", K_max=16, values=_bumpy_values())


def test_nonconvex_table_brute_path():
    seq = _bumpy_table()
    assert not seq.log_convex
    rng = np.random.default_rng(3)
    for r in np.exp(rng.uniform(np.log(0.2), np.log(2.0), 50)):
        want = np.exp(brute_log_terms(seq, r, "h").min())
        assert assoc(seq, "h", r) == pytest.approx(want, rel=1e-12)


def test_identity_h_equals_r_h1(g2, g15):
    for seq in (g2, g15):
        r_lo = least_r(seq) * 1.02
        r = np.geomspace(r_lo, 1.0, 40)
        h = assoc(seq, "h", r)
        h1 = assoc(seq, "h1", r)
        assert np.allclose(h, r * h1, rtol=1e-12)


def test_monotonicity(g2):
    r = np.geomspace(1.0 / 60, 3.0, 200)
    h = assoc(g2, "h", r)
    assert np.all(np.diff(h) >= -1e-15)
    assert np.all(h <= 1.0 + 1e-15)
    n = bigN(g2, r)
    assert np.all(np.diff(n) <= 0)


def test_guard_small_r():
    seq = make_sequence("gevrey", s=2.0, K_max=8)
    with pytest.raises(GuardExceeded):
        assoc(seq, "h", 0.01)
    with pytest.raises(GuardExceeded):
        bigN(seq, 0.01)
    # r just above the last certified breakpoint 1/8 is fine
    assert bigN(seq, 0.13) == 7
    with pytest.raises(GuardExceeded):
        bigN(seq, 0.12)


# ------------------------------------------------------------ lemma property

def test_lemma_mk_rk(g2):
    # m_k r^k <= m_n r^n for n <= k <= N(r)
    m = np.exp(g2.log_m(np.arange(g2.K_max + 1)))
    rng = np.random.default_rng(42)
    for _ in range(1000):
        r = float(np.exp(rng.uniform(np.log(1.0 / 64), 0.0)))
        N = bigN(g2, r)
        if N == 0:
            continue
        k = int(rng.integers(0, N + 1))
        n = int(rng.integers(0, k + 1))
        assert m[k] * r ** k <= m[n] * r ** n


# ---------------------------------------------------------------- regularity

def test_regularity_gevrey_passes(g2, g15):
    for seq in (g2, g15):
        rep = check_regularity(seq)
        assert rep.passed and rep.failures == []


def test_regularity_flat_table_fails_d():
    K = 16
    lfact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, K + 1)))])
    seq = make_sequence("table", K_max=K, values=np.exp(lfact))  # m_k = 1
    rep = check_regularity(seq)
    assert not rep.passed
    assert ("d", K) in rep.failures


def test_regularity_condition_a():
    K = 8
    lfact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, K + 1)))])
    m = np.full(K + 1, 4.0) ** np.arange(K + 1)
    m[0] = 2.0
    rep = check_regularity(make_sequence("table", K_max=K, values=m * np.exp(lfact)))
    assert ("a", 0) in rep.failures


def test_regularity_condition_b():
    K = 8
    lfact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, K + 1)))])
    m = np.array([1.0, 1.0, 3.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0])
    rep = check_regularity(make_sequence("table", K_max=K, values=m * np.exp(lfact)))
    assert any(tag == "b" for tag, _ in rep.failures)


def test_regularity_condition_c():
    K = 8
    lfact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, K + 1)))])
    m = 100.0 ** np.maximum(np.arange(K + 1) - 1, 0)   # 1,1,100,100^2,...
    rep = check_regularity(make_sequence("table", K_max=K, values=m * np.exp(lfact)))
    assert any(tag == "c" for tag, _ in rep.failures)


# ------------------------------------------------------------------ envelope

def test_envelope_spec_values(g2):
    assert fbi_envelope(g2, 1.0, 1.0) == pytest.approx(1.0, rel=1e-12)
    assert fbi_envelope(g2, 1.0, 4.0) == pytest.approx(0.25, rel=1e-12)


def test_envelope_brute(g2):
    rng = np.random.default_rng(5)
    ks = np.arange(g2.K_max + 1)
    M = np.exp(g2.log_M(ks))
    for _ in range(50):
        A = float(np.exp(rng.uniform(-2, 2)))
        # keep the minimizer ~ sqrt(lam/A) inside the table
        lam = float(np.exp(rng.uniform(np.log(4), np.log(300))))
        want = np.min(A ** (ks + 1) * M * lam ** (-ks.astype(float)))
        assert fbi_envelope(g2, A, lam) == pytest.approx(want, rel=1e-10)


def test_envelope_monotone_in_lambda_and_A(g2):
    lam = np.geomspace(4.0, 2000.0, 30)
    e1 = fbi_envelope(g2, 1.0, lam)
    assert np.all(np.diff(e1) <= 1e-18)
    e2 = fbi_envelope(g2, 2.0, lam)
    assert np.all(e2 >= e1)


def test_envelope_beats_powers(g2):
    # lam^p E(1, lam) is eventually tiny for every p <= 4
    lam = np.geomspace(10.0, 3000.0, 12)
    for p in range(1, 5):
        vals = lam ** p * fbi_envelope(g2, 1.0, lam)
        assert vals[-1] < 1e-6


def test_envelope_guard():
    seq = make_sequence("gevrey", s=2.0, K_max=8)
    with pytest.raises(GuardExceeded, match="^envelope minimizer hit K_max=8 "
                       "at lambda=1e[+]09; enlarge K_max$"):
        fbi_envelope(seq, 1.0, 1e9)
    assert not envelope_certified(seq, 1.0, 1e9)


# ---------------------------------------------------------------- absorption

def test_absorption_fit():
    seq = make_sequence("gevrey", s=2.0, K_max=4096)
    r = np.geomspace(1e-3, 1.0, 40)
    for n in (1, 2, 3):
        fit = absorption_fit(seq, n, r)
        assert fit.C <= 2.0 ** 10
        # verify the certified inequality directly
        lhs = assoc(seq, "h", r) * r ** (-float(n))
        rhs = fit.C * assoc(seq, "h", fit.Q * r)
        assert np.all(lhs <= rhs * (1 + 1e-12))


def test_absorption_fit_failure():
    # the best Q of the default grid still needs C ~ e^110.2 > 2^16
    seq = make_sequence("gevrey", s=2.0, K_max=4096)
    r = np.geomspace(1e-3, 1.0, 20)
    with pytest.raises(FitFailed, match="e\\^110.2"):
        absorption_fit(seq, 40, r)


def test_absorption_fit_overflow_is_fit_failure():
    # the needed C is about e^1418: past the largest float, so the cap is
    # compared in logs
    seq = make_sequence("gevrey", s=2.0, K_max=4096)
    with pytest.raises(FitFailed, match="e\\^1418"):
        absorption_fit(seq, 300, np.geomspace(1e-3, 1.0, 40))


# ------------------------------------------------------------- serialization

def test_round_trip_json(g2):
    back = make_sequence(**json.loads('{"kind": "gevrey", "s": 2.0}'))
    assert back.kind == "gevrey" and back.s == 2.0 and back.K_max == 64
    ks = np.arange(65)
    assert np.array_equal(back.log_m(ks), g2.log_m(ks))

    K = 12
    lfact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, K + 1)))])
    values = np.exp(2.0 * lfact)
    tab = make_sequence("table", K_max=K, values=values)
    d = {"kind": "table", "values": [float(v) for v in values]}
    back = make_sequence(**json.loads(json.dumps(d)))
    assert back.kind == "table" and back.K_max == K
    assert np.allclose(back.table, tab.table, rtol=1e-12)


# ------------------------------------------------------- property-based check

@st.composite
def log_convex_tables(draw):
    K = draw(st.integers(min_value=8, max_value=24))
    incs = draw(st.lists(st.floats(min_value=0.0, max_value=2.0),
                         min_size=K - 1, max_size=K - 1))
    lr = np.concatenate([[0.0], np.sort(np.asarray(incs))])
    log_m = np.concatenate([[0.0], np.cumsum(lr)])
    lfact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, K + 1)))])
    return make_sequence("table", K_max=K, values=np.exp(log_m + lfact))


def test_bigN_capped_agrees_and_survives_guard():
    seq = make_sequence("gevrey", s=2.0, K_max=64)
    rs = np.array([0.4, 0.25, 1.0 / 7.0, 0.9, 2.0])
    got = bigN_capped(seq, rs, 12)
    want = np.minimum([bigN(seq, float(r)) for r in rs], 12)
    assert np.array_equal(got, want)
    # r far below the certified range: scalar bigN guards, the cap decides
    with pytest.raises(GuardExceeded):
        bigN(seq, 1e-4)
    assert bigN_capped(seq, 1e-4, 12) == 12
    with pytest.raises(ValueError):
        bigN_capped(seq, 0.4, 65)
    # a non-log-convex table keeps the guard
    m = np.array([1.0, 1.0, 5.0, 6.0, 24.0, 120.0, 720.0, 5040.0, 40320.0])
    lf = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1.0, 9.0)))])
    bumpy = make_sequence("table", K_max=8, values=m * np.exp(lf))
    assert not bumpy.log_convex
    with pytest.raises(GuardExceeded):
        bigN_capped(bumpy, 1e-4, 6)


def full_search_capped(seq, r, cap):
    """min(N(r), cap) from the argmin over the whole table, unguarded."""
    return np.minimum(weights._bigN(seq, np.log(r), guard=False), cap)


@settings(max_examples=100, deadline=None)
@given(seq=st.one_of(log_convex_tables(),
                     st.sampled_from([make_sequence("gevrey", s=2.0, K_max=64),
                                      make_sequence("gevrey", s=1.5,
                                                    K_max=4096)])),
       data=st.data())
def test_bigN_capped_prefix_matches_full_search(seq, data):
    cap = data.draw(st.integers(0, seq.K_max), label="cap")
    # free r from far below the certified range to above 1, plus r on and
    # next to the breakpoints exp(-lr[k]), where ties decide the index
    k = data.draw(st.integers(1, seq.K_max - 1), label="k")
    near = float(np.exp(-seq.increments(k, k + 1)[0]))
    r = np.array(data.draw(st.lists(st.one_of(
        st.floats(1e-12, 4.0),
        st.sampled_from([near, np.nextafter(near, 0.0),
                         np.nextafter(near, 2.0)])), min_size=1, max_size=8),
        label="r"))
    assert np.array_equal(bigN_capped(seq, r, cap),
                          full_search_capped(seq, r, cap))
    assert bigN_capped(seq, float(r[0]), cap) == \
        full_search_capped(seq, r[:1], cap)[0]


@settings(max_examples=50, deadline=None)
@given(r=st.floats(1e-8, 4.0), cap=st.integers(0, 16))
def test_bigN_capped_nonconvex_keeps_full_guarded_scan(r, cap):
    bumpy = _bumpy_table()
    assert not bumpy.log_convex
    try:
        want = min(bigN(bumpy, r), cap)
    except GuardExceeded:
        with pytest.raises(GuardExceeded):
            bigN_capped(bumpy, r, cap)
        return
    assert bigN_capped(bumpy, r, cap) == want


@pytest.mark.parametrize("r", [0.0, -0.5, [0.3, 0.0], [-1.0, 0.5]])
def test_bigN_capped_rejects_nonpositive_r(r):
    for seq in (make_sequence("gevrey", s=2.0, K_max=64), _bumpy_table()):
        with pytest.raises(ValueError):
            bigN_capped(seq, r, 6)


# each call with a bad value x in one argument, and that argument's name
REFUSING_CALLS = {
    "h": (lambda seq, x: assoc(seq, "h", x), "r"),
    "h1": (lambda seq, x: assoc(seq, "h1", x), "r"),
    "h1-row": (lambda seq, x: assoc(seq, "h1", [0.5, x]), "r"),
    "bigN": (lambda seq, x: bigN(seq, x), "r"),
    "capped": (lambda seq, x: bigN_capped(seq, x, 12), "r"),
    "envelope-lambda": (lambda seq, x: fbi_envelope(seq, 1.0, x), "lambda"),
    "envelope-A": (lambda seq, x: fbi_envelope(seq, x, 16.0), "A"),
    "envelope-levels": (lambda seq, x: fbi_envelope(seq, [1.0, x], 16.0),
                        "A"),
    "certified": (lambda seq, x: envelope_certified(seq, 1.0, x), "lambda"),
    "absorption": (lambda seq, x: absorption_fit(seq, 1, [0.5, x]), "r"),
}


@pytest.mark.parametrize("call, name, bad", [
    pytest.param(call, name, bad, id=key + suffix)
    for suffix, bad in (("", float("nan")), ("+inf", float("inf")))
    for key, (call, name) in REFUSING_CALLS.items()])
def test_nan_argument_is_refused_as_not_positive(g2, call, name, bad):
    # a NaN fails every comparison and an inf has no argmin short of
    # infinity, so both are refused with r <= 0, not sent on to the argmin
    # to come back as 0, 1.0, NaN, False or a guard
    with pytest.raises(ValueError, match=f"^{name} must be positive and "
                       "finite$"):
        call(g2, bad)


@settings(max_examples=50, deadline=None)
@given(seq=log_convex_tables(), u=st.floats(min_value=0.01, max_value=0.99))
def test_bigN_matches_brute_on_random_tables(seq, u):
    # map u into the certified range (above the last breakpoint)
    r_lo = min(1.0, least_r(seq)) * 1.02
    r = r_lo + (0.999 - r_lo) * u
    if r <= 0 or r >= 1:
        return
    terms = seq.table[1:] + (np.arange(1, seq.K_max + 1) - 1) * np.log(r)
    want = 1 + int(np.argmin(terms))
    got = bigN(seq, r)
    # both must attain the same minimum value (ties may differ in index)
    assert terms[got - 1] == pytest.approx(terms[want - 1], abs=1e-9)


# ------------------------------------------------- mpmath brute-force oracle
#
# Every infimum recomputed at 50 digits straight from the sequence's
# definition, over the whole table, with no use of the package's log tables.
# The package's float log tables carry an error of at most about
# K_max * eps * max|log M_k| (2e-11 for Gevrey 1.5 at K_max = 128), hence
# ORACLE_RTOL.  Indices are compared exactly: the oracle takes the least
# index whose log term is within ORACLE_TIE of the minimum, which resolves
# a breakpoint r = m_k/m_{k+1} rounded to a float to k.

ORACLE_RTOL = 1e-10
ORACLE_TIE = 1e-13


# make_sequence arguments per oracle table
ORACLE_TABLES = {
    "gevrey1.5": {"kind": "gevrey", "s": 1.5, "K_max": 128},
    "gevrey2": {"kind": "gevrey", "s": 2.0, "K_max": 64},
    "bumpy": {"kind": "table", "K_max": 16, "values": _bumpy_values()},
}


@pytest.fixture
def mp():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        yield mpmath


def mp_log_M(mp, spec):
    """log M_k, k = 0..K_max, of the table make_sequence(**spec) builds,
    at working precision from the arguments themselves."""
    if spec["kind"] == "gevrey":
        return [mp.mpf(spec["s"]) * mp.loggamma(k + 1)
                for k in range(spec["K_max"] + 1)]
    return [mp.log(mp.mpf(float(v))) for v in spec["values"]]


def mp_argmin(terms, k0=0):
    """(least near-minimizing index, minimum, certified) over terms[k0:];
    uncertified when the minimum sits on K_max with the terms decreasing."""
    low = min(terms[k0:])
    k = next(j for j in range(k0, len(terms)) if terms[j] <= low + ORACLE_TIE)
    K = len(terms) - 1
    return k, low, not (k == K and terms[K] < terms[K - 1])


def oracle_rs(mp, seq, log_m):
    """Random r over the certified range, every breakpoint m_k/m_{k+1} for a
    log-convex table, and r on both sides of the last breakpoint."""
    K = seq.K_max
    floor = float(mp.exp(log_m[K - 1] - log_m[K]))
    rng = np.random.default_rng(13)
    rs = list(np.exp(rng.uniform(np.log(floor * 1.01), np.log(3.0), 25)))
    breaks = []
    if seq.log_convex:
        breaks = [float(mp.exp(log_m[k] - log_m[k + 1])) for k in range(K)]
    return rs + breaks + [floor * (1 + 1e-9), floor * (1 - 1e-9)], breaks


def assert_breakpoint_matches_mpmath(mp):
    """Gevrey 1.5 at K_max = 2^21 and r = 2e-3, where r^-2 = 250000 puts r
    on a breakpoint: the least argmin in exact arithmetic is 249999.  The
    oracle scans the indices around it alone: the terms fall into that
    window and rise out of it, and log m_k is convex, so the least argmin
    over the window is the least over the sequence."""
    seq = make_sequence("gevrey", s=1.5, K_max=2 ** 21)
    r, ks = 2e-3, range(249_990, 250_010)
    t = mp.log(mp.mpf(r))
    log_m = [mp.mpf(0.5) * mp.loggamma(k + 1) for k in ks]
    for shift, variant in ((0, "h"), (1, "h1")):
        terms = [lm + (k - shift) * t for k, lm in zip(ks, log_m)]
        assert terms[0] > terms[1] and terms[-1] > terms[-2]
        n, low, _ = mp_argmin(terms)
        assert ks[n] == 249_999
        assert assoc(seq, variant, r) == pytest.approx(float(mp.exp(low)),
                                                       rel=ORACLE_RTOL)
    assert bigN(seq, r) == 249_999
    assert bigN_capped(seq, r, seq.K_max) == 249_999


@pytest.mark.parametrize("name", sorted(ORACLE_TABLES) + ["breakpoint"])
def test_h_h1_N_match_mpmath(mp, name):
    if name == "breakpoint":
        assert_breakpoint_matches_mpmath(mp)
        return
    seq = make_sequence(**ORACLE_TABLES[name])
    log_M = mp_log_M(mp, ORACLE_TABLES[name])
    log_m = [lM - mp.loggamma(k + 1) for k, lM in enumerate(log_M)]
    rs, breaks = oracle_rs(mp, seq, log_m)
    raised = 0
    for r in rs:
        t = mp.log(mp.mpf(r))
        _, low, ok = mp_argmin([lm + k * t for k, lm in enumerate(log_m)])
        if ok:
            assert assoc(seq, "h", r) == pytest.approx(float(mp.exp(low)),
                                                       rel=ORACLE_RTOL)
        else:
            raised += 1
            with pytest.raises(GuardExceeded):
                assoc(seq, "h", r)
        if r >= 1.0:
            assert bigN(seq, r) == 0 and assoc(seq, "h1", r) == 1.0
            continue
        n, low, ok = mp_argmin([lm + (k - 1) * t
                                for k, lm in enumerate(log_m)], k0=1)
        if ok:
            assert bigN(seq, r) == n
            assert bigN_capped(seq, r, 5) == min(n, 5)
            assert assoc(seq, "h1", r) == pytest.approx(float(mp.exp(low)),
                                                        rel=ORACLE_RTOL)
        else:
            with pytest.raises(GuardExceeded):
                bigN(seq, r)
            with pytest.raises(GuardExceeded):
                assoc(seq, "h1", r)
    assert raised >= 1          # r below the last breakpoint
    # at a breakpoint N is the least of the two minimizers
    for k, r in enumerate(breaks):
        if 1 <= k and r < 1.0:
            assert bigN(seq, r) == k


@pytest.mark.parametrize("name", sorted(ORACLE_TABLES))
def test_envelope_matches_mpmath(mp, name):
    seq = make_sequence(**ORACLE_TABLES[name])
    log_M = mp_log_M(mp, ORACLE_TABLES[name])
    K = seq.K_max
    raised = 0
    for A in (0.25, 1.0, 2.0 ** 1.5):
        log_A = mp.log(mp.mpf(A))
        # ties lam/A = M_{k+1}/M_k, then both sides of the last one
        ties = [float(mp.exp(log_A + log_M[k + 1] - log_M[k]))
                for k in range(0, K, max(1, K // 16))]
        top = float(mp.exp(log_A + log_M[K] - log_M[K - 1]))
        lams = (list(np.geomspace(4.0, 64.0, 12)) + ties
                + [top * (1 - 1e-9), top * (1 + 1e-9)])
        for lam in lams:
            log_lam = mp.log(mp.mpf(lam))
            _, low, ok = mp_argmin([(k + 1) * log_A + lM - k * log_lam
                                    for k, lM in enumerate(log_M)])
            want = float(mp.exp(low))
            assert envelope_certified(seq, A, lam) == ok
            if ok:
                assert fbi_envelope(seq, A, lam) == pytest.approx(
                    want, rel=ORACLE_RTOL)
            else:
                raised += 1
                with pytest.raises(GuardExceeded):
                    fbi_envelope(seq, A, lam)
    assert raised >= 3          # lam past the last tie, for every A
