"""Weight sequences, regularity, c_bound and kernel moment sums against
their first versions in tests/table_oracle.py.

Table sequences match the oracle bit for bit.  They are log-convex tables,
locally non-convex ("bumpy") tables and tables that fail each of
conditions a)-d), drawn with hypothesis.  Tables built straight from a log
table put a comparison of check_regularity exactly on its threshold and
one ulp to either side of it, where a one-ulp move of a threshold or of
the slack changes the verdict.  Moment sums are compared at times where
every node keeps every index and near +-delta, where only some nodes do.

A Gevrey sequence holds no table.  Its closed-form regularity report
equals the oracle's on the cumsum table of the same sequence, and its
c_bound, 2^(s-1), equals the oracle's to rounding.  Its certified argmin
equals np.searchsorted over its float increments, index for index, and
log m_k is within 4 ulp of mpmath's log Gamma(k + 1).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import table_oracle as oracle
from carleman.dynkin import ApproxSolution, make_kernel
from carleman.jets import VectorFieldJet, formal_solution, jet_constant, \
    jet_from_dict
from carleman.weights import WeightSequence, _argmin, check_regularity, \
    make_sequence

EPS = 2.0 ** -52


def same(a, b) -> bool:
    """Equal bit for bit: -0.0 and 0.0 differ, a NaN equals its own bits."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and \
        a.tobytes() == b.tobytes()


def table(log_m) -> WeightSequence:
    """The table sequence with log m_k = log_m[k]."""
    return WeightSequence("table", None, log_m.size - 1, log_m)


def assert_matches_oracle(seq, m=None):
    """Every value of a table sequence against the oracle on its table;
    m, when given, is the oracle's eager m for the same inputs."""
    K = seq.K_max
    convex, failures = oracle.check_regularity(seq.table)
    assert same(seq.increments(0, K), np.diff(seq.table))
    assert seq.log_convex is convex
    assert check_regularity(seq).failures == failures
    assert same(seq.c_bound, oracle.c_bound(seq.table))
    ks = np.arange(K + 1)
    assert same(seq.log_M(ks), seq.table + oracle.lfact(K))
    with np.errstate(over="ignore"):        # inf past the float range
        assert same(np.exp(seq.log_m(ks)),
                    np.exp(seq.table) if m is None else m)


def assert_gevrey_matches_oracle(s, K_max):
    """The closed-form regularity report of a Gevrey sequence against the
    oracle on its cumsum table, and c_bound against both it and 2^(s-1)
    to rounding."""
    seq = make_sequence("gevrey", s=s, K_max=K_max)
    log_m = (s - 1.0) * oracle.lfact(K_max)
    convex, failures = oracle.check_regularity(log_m)
    assert seq.log_convex and convex
    assert check_regularity(seq).failures == failures
    assert seq.c_bound == pytest.approx(oracle.c_bound(log_m), rel=1e-14)
    return seq, failures


# ---------------------------------------------------------------- construction

@settings(max_examples=60, deadline=None)
@given(s=st.floats(1.0, 4.0, exclude_min=True),
       K_max=st.one_of(st.integers(8, 64), st.integers(65, 1 << 14)))
def test_gevrey_tables_match_oracle(s, K_max):
    assert_gevrey_matches_oracle(s, K_max)


@pytest.mark.parametrize("s, K_max", [(1.5, 1 << 18), (2.0, 4096),
                                      (1.0 + 2.0 ** -20, 1 << 12)])
def test_benchmark_sized_gevrey_tables_match_oracle(s, K_max):
    assert_gevrey_matches_oracle(s, K_max)


# s > 7 fails c) at k = 1, one ulp past 7 included; s near 1 fails d)
# at small K_max and, at s = 1 + 2^-20, at every K_max
GEVREY_GRID = [(s, K) for s in (1.0 + 2.0 ** -20, 1.05, 1.2, 1.5, 2.0, 3.0,
                                7.0, float(np.nextafter(7.0, 8.0)), 7.5, 12.0)
               for K in (8, 9, 17, 64, 1000, 4096)]


@pytest.mark.parametrize("s, K_max", GEVREY_GRID)
def test_gevrey_regularity_matches_oracle_on_a_grid(s, K_max):
    mpmath = pytest.importorskip("mpmath")
    seq, failures = assert_gevrey_matches_oracle(s, K_max)
    # c_bound is 2^(s-1) to the last bit, where the oracle's
    # exp((s - 1) log 2) may round the other way
    with mpmath.workdps(50):
        exact = mpmath.mpf(2) ** (mpmath.mpf(s) - 1)
        assert abs(seq.c_bound - exact) <= 0.5 * math.ulp(seq.c_bound)
    tags = [tag for tag, _ in failures]
    assert ("c" in tags) == (s > 7.0)
    assert ("d" in tags) == (seq.log_m(K_max) / K_max < np.log(4.0))


def test_gevrey_grid_reaches_both_failures():
    reports = {(s, K): check_regularity(make_sequence("gevrey", s=s,
                                                      K_max=K)).failures
               for s, K in GEVREY_GRID}
    assert reports[(7.0, 64)] == [] and reports[(7.5, 64)] == [("c", 1)]
    assert reports[(float(np.nextafter(7.0, 8.0)), 8)] == [("c", 1)]
    assert reports[(1.05, 8)] == [("d", 8)]
    assert reports[(1.2, 1000)] == [("d", 1000)]
    assert reports[(1.2, 4096)] == []


@st.composite
def drawn_tables(draw):
    """(values, K_max) of a table: log-convex, bumpy, or failing a), b),
    c) or d), with M_k finite and positive."""
    K = draw(st.integers(8, 64), label="K")
    shape = draw(st.sampled_from(["convex", "bumpy", "a", "c", "d"]),
                 label="shape")
    # c): the first root lr[1] reaches past log 64; d): m_K^{1/K} < 4
    lo, hi = {"c": (4.5, 6.0), "d": (0.0, 0.05)}.get(shape, (0.0, 4.0))
    incs = np.asarray(draw(st.lists(st.floats(lo, hi), min_size=K - 1,
                                    max_size=K - 1), label="incs"))
    if shape != "bumpy":
        incs = np.sort(incs)
    log_m = np.concatenate([[0.0, 0.0], np.cumsum(incs)])
    if shape == "a":
        log_m[draw(st.integers(0, 1))] += draw(st.sampled_from(
            [-1.0, -1e-9, 1e-11, 0.5]))
    values = np.exp(log_m + oracle.lfact(K))
    extra = draw(st.lists(st.floats(1e-300, 1e300), max_size=3))
    return np.concatenate([values, extra]), K


@settings(max_examples=200, deadline=None)
@given(table=drawn_tables())
def test_drawn_tables_match_oracle(table):
    values, K = table
    seq = make_sequence("table", K_max=K, values=values)
    assert same(seq.table, np.log(values[:K + 1]) - oracle.lfact(K))
    assert_matches_oracle(seq, oracle.eager_m("table", K, values=values))


def test_drawn_shapes_reach_every_condition():
    # the shapes of drawn_tables, one fixed table each
    K = 16
    lf = oracle.lfact(K)
    tables = {
        "bumpy": np.r_[0.0, 0.0, np.cumsum([0.3, 0.8, 0.5, 0.9, 1.1, 1.0,
                                            1.3, 1.2, 1.5, 1.4, 1.7, 1.6,
                                            1.9, 1.8, 2.1])],
        "a": np.r_[0.5, np.log(4.0) * np.arange(1, K + 1)],
        "c": np.r_[0.0, 0.0, 7.0 * np.arange(1, K)],
        "d": np.zeros(K + 1),
    }
    tags = {}
    for name, log_m in tables.items():
        seq = make_sequence("table", K_max=K, values=np.exp(log_m + lf))
        tags[name] = [tag for tag, _ in check_regularity(seq).failures]
        assert_matches_oracle(seq)
    assert tags == {"bumpy": ["b", "d"], "a": ["a"], "c": ["c"], "d": ["d"]}


# --------------------------------------------------- comparisons on their edge

def _edges(x: float) -> list:
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


TOL = 1e-12
L64, L4 = np.log(64.0), np.log(4.0)


def _a_edge(e, idx=1):
    # the Gevrey-2 table, m_k = k!, with log m_idx = e
    log_m = oracle.lfact(16)
    log_m[idx] = e
    return log_m


def _b_edge(e):
    # lr = 0 below 3, lr[3] = e, so the second difference at 3 is e exactly
    log_m = np.zeros(17)
    log_m[4] = e
    log_m[5:] = e + np.cumsum(np.full(12, 2.0))
    return log_m


def _c_edge(x):
    # lr[1]/1 = x exactly, every later root far below it
    log_m = np.zeros(17)
    log_m[2:] = x * np.arange(1.0, 16.0)
    return log_m


def _d_edge(y):
    # log m_16 / 16 = y exactly (16 is a power of two), linear below 16
    log_m = np.zeros(17)
    log_m[2:] = y * 16.0 / 15.0 * np.arange(1.0, 16.0)
    log_m[16] = y * 16.0
    return log_m


EDGE_TABLES = [
    *[pytest.param(_a_edge(sign * e), id=f"a{sign:+d}-{i}")
      for sign in (1, -1) for i, e in enumerate(_edges(TOL))],
    *[pytest.param(_a_edge(e, idx=0), id=f"a0-{i}")
      for i, e in enumerate(_edges(TOL))],
    *[pytest.param(_b_edge(e), id=f"b-{i}")
      for i, e in enumerate(_edges(-TOL))],
    *[pytest.param(_c_edge(x), id=f"c-{i}") for i, x in enumerate(_edges(L64))],
    *[pytest.param(_d_edge(y), id=f"d-{i}") for i, y in enumerate(_edges(L4))],
]


@pytest.mark.parametrize("log_m", EDGE_TABLES)
def test_edge_tables_match_oracle(log_m):
    assert_matches_oracle(table(log_m))


def test_edge_tables_sit_on_their_thresholds():
    # one ulp decides each verdict: the edge tables test the comparisons
    a = [oracle.check_regularity(_a_edge(e))[1] for e in _edges(TOL)]
    assert a == [[], [], [("a", 1)]]
    b = [oracle.check_regularity(_b_edge(e))[1] for e in _edges(-TOL)]
    assert b == [[("b", 3)], [], []]
    c = [oracle.check_regularity(_c_edge(x))[1] for x in _edges(L64)]
    assert c == [[], [], [("c", 1)]]
    d = [oracle.check_regularity(_d_edge(y))[1] for y in _edges(L4)]
    assert d == [[("d", 16)], [], []]


# --------------------------------------------------------------- long tables

# sizes and first offenders on both sides of 2^14 and its multiples, where
# tables were once built and checked in blocks
LONG_SIZES = [16383, 16384, 16385, 32769]


@pytest.mark.parametrize("K_max", LONG_SIZES)
@pytest.mark.parametrize("s", [1.5, 1.0 + 2.0 ** -20])
def test_gevrey_tables_across_blocks_match_oracle(s, K_max):
    assert_gevrey_matches_oracle(s, K_max)


@pytest.mark.parametrize("K_max", LONG_SIZES)
def test_value_tables_across_blocks_match_oracle(K_max):
    # this many M_k fit the float range only in a table that is not
    # log-convex: these fail a) and b) at once and d) at K_max
    values = np.random.default_rng(K_max).lognormal(0.0, 2.0, K_max + 1)
    seq = make_sequence("table", K_max=K_max, values=values)
    assert same(seq.table, np.log(values) - oracle.lfact(K_max))
    assert_matches_oracle(seq, oracle.eager_m("table", K_max, values=values))


def _convex(K):
    # log m_k = k^2 / K^2: strictly log-convex, every root lr[k]/k below 1
    return (np.arange(K + 1.0) / K) ** 2


@pytest.mark.parametrize("at", [16383, 16384, 16385, 16386, 32769])
def test_first_bump_across_a_block_edge_matches_oracle(at):
    # the first second difference below -TOL is incs[at] - incs[at - 1]
    K = 49152
    log_m = _convex(K)
    log_m[at + 1:] -= 1e-9
    seq = table(log_m)
    assert seq._nonconvex_at == at and not seq.log_convex
    assert ("b", at) in oracle.check_regularity(seq.table)[1]
    assert_matches_oracle(seq)


@pytest.mark.parametrize("at", [16384, 16385, 32771])
def test_first_c_offender_past_the_first_block_matches_oracle(at):
    # lr[k]/k crosses log 64 first at k = at, and again further on
    K = 49152
    log_m = _convex(K)
    log_m[at + 1:] += 5.0 * at
    log_m[K - 1:] += 5.0 * (K - 2)
    seq = table(log_m)
    assert ("c", at) in oracle.check_regularity(seq.table)[1]
    assert_matches_oracle(seq)


# the top quartile of K = 65544 starts at 49158
@pytest.mark.parametrize("at", [49158, 65541, 65542, 65543])
def test_first_d_offender_past_the_first_block_matches_oracle(at):
    # m_k^{1/k} first falls between k = at and at + 1
    K = 65544
    log_m = 2.0 * np.arange(K + 1.0)
    log_m[at + 1:] -= 1.0
    seq = table(log_m)
    assert ("d", at) in oracle.check_regularity(seq.table)[1]
    assert_matches_oracle(seq)


# ------------------------------------------------------------ certified argmin

def searched(log_a, c, k0, stop, shift_ties):
    """(idx, hit) of the argmin as first written: a binary search over the
    whole np.diff of the table."""
    target = c - 1e-12 * (1.0 + np.abs(c)) if shift_ties else c
    idx = k0 + np.searchsorted(np.diff(log_a)[k0:stop], target)
    return idx, idx == log_a.size - 1


def test_table_convex_only_within_the_slack_takes_the_whole_search():
    # m_k = b^k: constant increments that rounding leaves unsorted by an
    # ulp here and there, so the search runs on the rounded increments
    K = 49159
    log_m = np.arange(K + 1.0) * (np.log(2.0) / 2.0 ** 20)
    seq = table(log_m)
    lr = np.diff(log_m)
    assert seq.log_convex
    assert np.any(np.diff(lr) < 0.0)
    c = np.concatenate([lr[::997], np.nextafter(lr[::991], 0.0),
                        [lr.min() - 1e-9, lr.max() + 1e-9]])
    for k0, stop in ((0, None), (1, None), (1, 32771), (1, 12)):
        for shift_ties in (True, False):
            idx, hit = _argmin(seq, c, k0=k0, shift_ties=shift_ties,
                               stop=stop)
            want_idx, want_hit = searched(log_m, c, k0, stop, shift_ties)
            assert same(idx, want_idx) and same(hit, want_hit)


def gevrey_searched(a, target, k0, hi):
    """The first k >= k0 whose float increment a log(k + 1) reaches
    target, by np.searchsorted over every increment below hi."""
    return k0 + np.searchsorted(a * np.log(np.arange(k0, hi) + 1), target)


@settings(max_examples=100, deadline=None)
@given(s=st.floats(1.05, 3.0),
       K=st.one_of(st.integers(8, 4096), st.sampled_from([1 << 16, 1 << 21])),
       data=st.data())
def test_closed_form_argmin_matches_searchsorted(s, K, data):
    seq = make_sequence("gevrey", s=s, K_max=K)
    k0 = data.draw(st.sampled_from([0, 1]), label="k0")
    # a cap inside the range, at K_max, or none (K_max)
    stop = data.draw(st.one_of(st.none(), st.just(K), st.integers(k0, K)),
                     label="stop")
    hi = K if stop is None else stop
    for of_M, a in ((False, s - 1.0), (True, s)):
        def lr(k):
            return float(a * np.log(np.arange(k, k + 1) + 1)[0])
        at = st.integers(0, K - 1).map(lr)
        c = np.array(data.draw(st.lists(st.one_of(
            at,                                         # on an increment
            at.map(lambda x: float(np.nextafter(x, -np.inf))),
            at.map(lambda x: float(np.nextafter(x, np.inf))),
            st.just(lr(k0) - 1.0),                      # below the first
            st.just(lr(K - 1) + 1.0),                   # past the last
            st.floats(lr(0), lr(K - 1))), min_size=1, max_size=12),
            label="c"))
        for shift_ties in (True, False):
            target = c - 1e-12 * (1.0 + np.abs(c)) if shift_ties else c
            want = gevrey_searched(a, target, k0, hi)
            idx, hit = _argmin(seq, c, k0=k0, shift_ties=shift_ties,
                               stop=stop, of_M=of_M)
            assert same(idx, want) and same(hit, want == K)
        idx, _ = _argmin(seq, c.reshape(-1, 1), k0=k0, stop=stop, of_M=of_M)
        assert same(idx, gevrey_searched(
            a, c - 1e-12 * (1.0 + np.abs(c)), k0, hi).reshape(-1, 1))


@settings(max_examples=200, deadline=None)
@given(k=st.integers(0, 2_500_000), s=st.floats(1.05, 3.0))
@example(k=2, s=2.0).via("lgamma(3) is 2 ulp below log 2")
@example(k=1386, s=1.5).via("the old cumsum drifted by -5.5e-12 here")
@example(k=249_999, s=1.5).via("and by +2.3e-9 here")
def test_log_m_matches_mpmath_loggamma(k, s):
    mpmath = pytest.importorskip("mpmath")
    seq = make_sequence("gevrey", s=s, K_max=2_500_000)
    with mpmath.workdps(40):
        exact = mpmath.loggamma(k + 1)
        for got, want in ((seq.log_m(k), (mpmath.mpf(s) - 1) * exact),
                          (seq.log_M(k), mpmath.mpf(s) * exact)):
            assert abs(got - want) <= 4 * EPS * abs(want)


# ---------------------------------------------------------------- moment sums

@pytest.fixture(scope="module")
def kernel():
    return make_kernel(epsilon=0.5, n_r=64, n_theta=64)


def _solution(kernel, s, C_star):
    # the extension workload's datum sum_j (-3/4)^j x^(2j) under d/dt - i d/dx
    datum = jet_from_dict({"n_x": 1, "n_zeta": 0, "D": 24,
                           "coeffs": [[[2 * j], (-0.75) ** j, 0.0]
                                      for j in range(13)]})
    field = VectorFieldJet(a=[jet_constant(-1j, 1, 0, 24)], b=[])
    seq = make_sequence("gevrey", s=s, K_max=4096)
    return ApproxSolution(formal_solution(field, datum, 12), seq, kernel,
                          C_star)


@settings(max_examples=60, deadline=None)
@given(s=st.sampled_from([1.5, 2.0]), C_star=st.floats(0.5, 4.0),
       sign=st.sampled_from([-1.0, 1.0]),
       where=st.one_of(st.floats(1e-6, 1e-3),             # every node keeps all
                       st.floats(0.9, 1.0),               # near +-delta
                       st.floats(1e-3, 0.9)))
def test_moments_match_oracle(kernel, s, C_star, sign, where):
    sol = _solution(kernel, s, C_star)
    t = sign * where * sol.delta
    assert same(sol.moments(t), oracle.moments(sol, t))


def test_moment_times_reach_both_regimes(kernel):
    # a small t keeps every index at every node; near delta some nodes stop
    sol = _solution(kernel, 1.5, 1.0)
    for t in (1e-4 * sol.delta, -1e-4 * sol.delta):
        K = sol.truncation_indices(t)[1]
        assert K.min() == sol.series.n_max
        assert same(sol.moments(t), oracle.moments(sol, t))
    for t in (0.99 * sol.delta, -0.99 * sol.delta, sol.delta):
        K = sol.truncation_indices(t)[1]
        assert K.min() < K.max()
        assert same(sol.moments(t), oracle.moments(sol, t))
    assert sol.moments(0.0) is None and oracle.moments(sol, 0.0) is None
