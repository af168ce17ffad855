"""Weight tables, regularity, c_bound and kernel moment sums match their
first versions in tests/table_oracle.py bit for bit.

Tables are Gevrey tables, log-convex tables, locally non-convex ("bumpy")
tables and tables that fail each of conditions a)-d), drawn with
hypothesis.  Tables built straight from a log table put a comparison of
check_regularity exactly on its threshold and one ulp to either side of
it, where a one-ulp move of a threshold or of the slack changes the
verdict.  Moment sums are compared at times where every node keeps every
index and near +-delta, where only some nodes do.

The certified argmin, which reads the increments it needs from the log
table, matches np.searchsorted over the table's whole np.diff, index for
index, on exactly sorted tables with many ties and on a table that is
log-convex only within the slack.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import table_oracle as oracle
from carleman.dynkin import ApproxSolution, make_kernel
from carleman.jets import VectorFieldJet, formal_solution, jet_constant, \
    jet_from_dict
from carleman.weights import _BLOCK, _STRIDE, WeightSequence, _argmin, \
    check_regularity, make_sequence


def same(a, b) -> bool:
    """Equal bit for bit: -0.0 and 0.0 differ, a NaN equals its own bits."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and \
        a.tobytes() == b.tobytes()


def assert_matches_oracle(seq, m=None):
    """Every table-derived value of seq against the oracle on its log_m;
    m, when given, is the oracle's eager m for the same inputs."""
    convex, failures = oracle.check_regularity(seq.log_m)
    lr = np.diff(seq.log_m)
    assert same(seq.increments(), lr)
    # the argmin's sample: every _STRIDE-th increment of a sorted table
    if np.all(np.diff(lr) >= 0.0):
        assert same(seq._sample, lr[::_STRIDE])
    else:
        assert seq._sample is None
    assert seq.log_convex is convex
    assert check_regularity(seq).failures == failures
    assert same(seq.c_bound, oracle.c_bound(seq.log_m))
    assert same(seq.log_M, seq.log_m + oracle.lfact(seq.K_max))
    with np.errstate(over="ignore"):        # inf past the float range
        assert same(seq.m, np.exp(seq.log_m) if m is None else m)


# ---------------------------------------------------------------- construction

@settings(max_examples=60, deadline=None)
@given(s=st.floats(1.0, 4.0, exclude_min=True),
       K_max=st.one_of(st.integers(8, 64), st.integers(65, 1 << 14)))
def test_gevrey_tables_match_oracle(s, K_max):
    seq = make_sequence("gevrey", s=s, K_max=K_max)
    assert same(seq.log_m, (s - 1.0) * oracle.lfact(K_max))
    assert_matches_oracle(seq, oracle.eager_m("gevrey", K_max, s=s))


@pytest.mark.parametrize("s, K_max", [(1.5, 1 << 18), (2.0, 4096),
                                      (1.0 + 2.0 ** -20, 1 << 12)])
def test_benchmark_sized_gevrey_tables_match_oracle(s, K_max):
    assert_matches_oracle(make_sequence("gevrey", s=s, K_max=K_max),
                          oracle.eager_m("gevrey", K_max, s=s))


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
    assert same(seq.log_m, np.log(values[:K + 1]) - oracle.lfact(K))
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
    assert_matches_oracle(WeightSequence("table", None, log_m))


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


# ------------------------------------------------------------ block boundaries

# tables are built and checked a block of _BLOCK indices at a time
BLOCK_SIZES = [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]


@pytest.mark.parametrize("K_max", BLOCK_SIZES)
@pytest.mark.parametrize("s", [1.5, 1.0 + 2.0 ** -20])
def test_gevrey_tables_across_blocks_match_oracle(s, K_max):
    seq = make_sequence("gevrey", s=s, K_max=K_max)
    assert same(seq.log_m, (s - 1.0) * oracle.lfact(K_max))
    assert_matches_oracle(seq, oracle.eager_m("gevrey", K_max, s=s))


@pytest.mark.parametrize("K_max", BLOCK_SIZES)
def test_value_tables_across_blocks_match_oracle(K_max):
    # this many M_k fit the float range only in a table that is not
    # log-convex: these fail a) and b) at once and d) at K_max
    values = np.random.default_rng(K_max).lognormal(0.0, 2.0, K_max + 1)
    seq = make_sequence("table", K_max=K_max, values=values)
    assert same(seq.log_m, np.log(values) - oracle.lfact(K_max))
    assert_matches_oracle(seq, oracle.eager_m("table", K_max, values=values))


def _convex(K):
    # log m_k = k^2 / K^2: strictly log-convex, every root lr[k]/k below 1
    return (np.arange(K + 1.0) / K) ** 2


@pytest.mark.parametrize("at", [_BLOCK - 1, _BLOCK, _BLOCK + 1, _BLOCK + 2,
                                2 * _BLOCK + 1])
def test_first_bump_across_a_block_edge_matches_oracle(at):
    # the first second difference below -TOL is incs[at] - incs[at - 1]
    K = 3 * _BLOCK
    log_m = _convex(K)
    log_m[at + 1:] -= 1e-9
    seq = WeightSequence("table", None, log_m)
    assert seq._nonconvex_at == at and not seq.log_convex
    assert ("b", at) in oracle.check_regularity(seq.log_m)[1]
    assert_matches_oracle(seq)


@pytest.mark.parametrize("at", [_BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
def test_first_c_offender_past_the_first_block_matches_oracle(at):
    # lr[k]/k crosses log 64 first at k = at, and again further on
    K = 3 * _BLOCK
    log_m = _convex(K)
    log_m[at + 1:] += 5.0 * at
    log_m[K - 1:] += 5.0 * (K - 2)
    seq = WeightSequence("table", None, log_m)
    assert ("c", at) in oracle.check_regularity(seq.log_m)[1]
    assert_matches_oracle(seq)


# the top quartile of K = 4 _BLOCK + 8 starts at 3 _BLOCK + 6 and takes
# one block and two indices
@pytest.mark.parametrize("at", [3 * _BLOCK + 6, 4 * _BLOCK + 5,
                                4 * _BLOCK + 6, 4 * _BLOCK + 7])
def test_first_d_offender_past_the_first_block_matches_oracle(at):
    # m_k^{1/k} first falls between k = at and at + 1
    K = 4 * _BLOCK + 8
    log_m = 2.0 * np.arange(K + 1.0)
    log_m[at + 1:] -= 1.0
    seq = WeightSequence("table", None, log_m)
    assert ("d", at) in oracle.check_regularity(seq.log_m)[1]
    assert_matches_oracle(seq)


# ------------------------------------------------------------ sampled argmin

def searched(log_a, c, k0, stop, shift_ties):
    """(idx, hit) of the argmin as first written: a binary search over the
    whole np.diff of the table."""
    target = c - 1e-12 * (1.0 + np.abs(c)) if shift_ties else c
    idx = k0 + np.searchsorted(np.diff(log_a)[k0:stop], target)
    return idx, idx == log_a.size - 1


def assert_argmin_matches(seq, c, k0, stop, shift_ties):
    idx, hit = _argmin(seq, seq.log_m, seq._sample, c, k0=k0,
                       shift_ties=shift_ties, stop=stop)
    want_idx, want_hit = searched(seq.log_m, c, k0, stop, shift_ties)
    assert same(idx, want_idx) and same(hit, want_hit)


@st.composite
def sorted_tables(draw):
    """A log table over more than one block whose increments are exactly
    nondecreasing: dyadic increments, summed and diffed without rounding
    and full of ties, or sorted uniform ones."""
    K = draw(st.one_of(st.integers(_BLOCK + 1, 3 * _BLOCK),
                       st.sampled_from([2 * _BLOCK, 2 * _BLOCK + _STRIDE])),
             label="K")
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans(), label="dyadic"):
        lr = np.sort(rng.integers(-2 ** 10, 2 ** 10, K)) / 2.0 ** 8
    else:
        lr = np.sort(rng.uniform(-0.01, 0.01, K))
    log_a = np.concatenate([[0.0], np.cumsum(lr)])
    return WeightSequence("table", None, log_a)


@settings(max_examples=80, deadline=None)
@given(seq=sorted_tables(), data=st.data())
def test_sampled_argmin_matches_whole_search(seq, data):
    lr = np.diff(seq.log_m)
    assume(np.all(np.diff(lr) >= 0.0))
    assert seq.log_convex and seq._sample is not None
    K = seq.K_max
    k0 = data.draw(st.sampled_from([0, 1]), label="k0")
    # caps inside one coarse interval, on its edges, or many blocks away
    stop = data.draw(st.one_of(
        st.none(), st.integers(k0, K),
        st.integers(1, K // _STRIDE).map(lambda j: j * _STRIDE),
        st.integers(1, K // _STRIDE).map(lambda j: min(j * _STRIDE + 1, K))),
        label="stop")
    at = st.integers(0, K - 1).map(lambda k: float(lr[k]))
    c = np.array(data.draw(st.lists(st.one_of(
        at,                                             # on an increment
        at.map(lambda x: float(np.nextafter(x, np.inf))),
        st.just(float(lr[k0]) - 1.0),                   # below lr[k0]
        st.just(float(lr[-1]) + 1.0),                   # above the last
        st.floats(float(lr[0]), float(lr[-1]))), min_size=1, max_size=12),
        label="c"))
    for shift_ties in (True, False):
        assert_argmin_matches(seq, c, k0, stop, shift_ties)
    assert_argmin_matches(seq, c.reshape(-1, 1), k0, stop, True)


def test_sampled_argmin_matches_over_many_targets():
    # more targets than one chunk of windows holds: on increments, between
    # them and past both ends
    seq = make_sequence("gevrey", s=1.5, K_max=3 * _BLOCK + 5)
    lr = np.diff(seq.log_m)
    assert seq._sample is not None
    rng = np.random.default_rng(5)
    c = np.concatenate([lr[rng.integers(0, lr.size, 600)],
                        rng.uniform(lr[0] - 1.0, lr[-1] + 1.0, 600),
                        [np.inf, -np.inf]])
    for k0, stop in ((0, None), (1, None), (1, 2 * _BLOCK + 3), (1, 12)):
        for shift_ties in (True, False):
            # inf - inf: the shifted target of c = inf is a NaN
            with np.errstate(invalid="ignore"):
                assert_argmin_matches(seq, c, k0, stop, shift_ties)


def test_table_convex_only_within_the_slack_takes_the_whole_search():
    # m_k = b^k: constant increments that rounding leaves unsorted by an
    # ulp here and there, so the table has no sample and is diffed whole
    K = 3 * _BLOCK + 7
    log_m = np.arange(K + 1.0) * (np.log(2.0) / 2.0 ** 20)
    seq = WeightSequence("table", None, log_m)
    lr = np.diff(log_m)
    assert seq.log_convex and seq._sample is None
    assert np.any(np.diff(lr) < 0.0)
    c = np.concatenate([lr[::997], np.nextafter(lr[::991], 0.0),
                        [lr.min() - 1e-9, lr.max() + 1e-9]])
    for k0, stop in ((0, None), (1, None), (1, 2 * _BLOCK + 3), (1, 12)):
        for shift_ties in (True, False):
            assert_argmin_matches(seq, c, k0, stop, shift_ties)


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
