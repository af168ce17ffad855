"""The dense jet store against two independent oracles.

Parity: seeded random jets at 1, 3 and 5 variables run through the array
algebra and through the sparse dict implementation in dict_jets, which
agree to 1e-14 of the largest coefficient with identical lossy flags.
Ring laws: associativity and distributivity of jet_mul and jet_add and
the Leibniz rule of jet_diff on random truncated jets in one to three
variables, each side against the dict oracle.
Residuals: the shared residual table against the per-n computation
of residual_oracle, bit for bit.
Series: the transport and dilation formal solutions in two variables
against sympy expansions of the closed-form solutions.
"""

import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

import dict_jets as dj
import residual_oracle
from carleman import jets
from carleman.jets import (Jet, VectorFieldJet, augment_datum,
                           formal_solution, jet_add, jet_diff, jet_eval,
                           jet_max_diff, jet_mul, jet_scale, residual_check,
                           restrict_diagonal, time_augment)

SHAPES = [(1, 0, 12), (1, 2, 8), (2, 3, 6)]     # (n_x, n_zeta, D)


def _exponents(nvars, degree):
    if nvars == 0:
        return [()]
    return [(k,) + rest for k in range(degree + 1)
            for rest in _exponents(nvars - 1, degree - k)]


def random_pair(rng, n_x, n_zeta, D, top, n_terms):
    """The same random terms as a Jet and a DictJet, in shuffled order."""
    pool = _exponents(n_x + n_zeta, top)
    pick = rng.choice(len(pool), size=min(n_terms, len(pool)), replace=False)
    terms = {pool[i]: complex(rng.normal(), rng.normal()) for i in pick}
    return (Jet(n_x, n_zeta, D, terms),
            dj.DictJet(n_x + n_zeta, D, dict(terms)))


def assert_matches(jet, ref):
    got, want = jet.coeffs, ref.coeffs
    top = max((abs(c) for c in want.values()), default=0.0)
    dev = max((abs(got.get(k, 0.0) - want.get(k, 0.0))
               for k in set(got) | set(want)), default=0.0)
    assert dev <= 1e-14 * top
    assert jet.lossy == ref.lossy


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_algebra_matches_dict_oracle(shape, seed):
    n_x, n_zeta, D = shape
    nvars = n_x + n_zeta
    rng = np.random.default_rng([seed, nvars])
    full, full_ref = random_pair(rng, n_x, n_zeta, D, D, 60)
    low, low_ref = random_pair(rng, n_x, n_zeta, D, D // 3, 8)
    mid, mid_ref = random_pair(rng, n_x, n_zeta, D, D // 2, 30)

    assert_matches(jet_add(full, mid), dj.add(full_ref, mid_ref))
    assert_matches(jet_scale(full, 0.5 - 2j), dj.scale(full_ref, 0.5 - 2j))
    for a, ar in ((full, full_ref), (low, low_ref), (mid, mid_ref)):
        for b, br in ((full, full_ref), (low, low_ref), (mid, mid_ref)):
            assert_matches(jet_mul(a, b), dj.mul(ar, br))
    assert not jet_mul(low, mid).lossy and jet_mul(full, mid).lossy
    for s in range(nvars):
        assert_matches(jet_diff(full, s), dj.diff(full_ref, s))
        assert_matches(jet_diff(jet_mul(full, mid), s),
                       dj.diff(dj.mul(full_ref, mid_ref), s))

    point = [rng.normal(size=4) * 0.7 for _ in range(n_x)] + \
        [(rng.normal(size=4) + 1j * rng.normal(size=4)) * 0.7
         for _ in range(n_zeta)]
    got = jet_eval(full, x=point[:n_x], zeta=point[n_x:] or None)
    want = dj.evaluate(full_ref, point)
    scale = dj.evaluate(dj.DictJet(nvars, D, {k: abs(c) for k, c in
                                               full_ref.coeffs.items()}),
                        [np.abs(p) for p in point])
    assert np.all(np.abs(got - want) <= 1e-14 * scale)


def random_field(rng, n_x, n_zeta, D):
    pairs = [random_pair(rng, n_x, n_zeta, D, 2, 10)
             for _ in range(n_x + n_zeta)]
    return [p[0] for p in pairs], [p[1] for p in pairs]


@pytest.mark.parametrize("shape", SHAPES)
def test_formal_solution_matches_dict_oracle(shape):
    n_x, n_zeta, D = shape
    rng = np.random.default_rng([7, n_x + n_zeta])
    coeffs, coeffs_ref = random_field(rng, n_x, n_zeta, D)
    f, f_ref = random_pair(rng, n_x, n_zeta, D, D - 2, 40)
    n_max = D // 2
    series = formal_solution(VectorFieldJet(a=coeffs[:n_x], b=coeffs[n_x:]),
                             f, n_max)
    u_ref = dj.formal_solution(coeffs_ref, f_ref, n_max)
    for u, ur in zip(series.u, u_ref, strict=True):
        assert_matches(u, ur)
    assert any(u.lossy for u in series.u)
    top = max(abs(c) for u in u_ref for c in u.coeffs.values())
    for n in range(n_max):
        got = residual_check(series, n)
        assert abs(got - dj.residual(coeffs_ref, u_ref, n)) <= 1e-14 * top


def test_time_augment_and_diagonal_match_dict_oracle():
    # the field lives on (x, t, zeta) with t the last x slot, the datum
    # u(x, 0) on (x, zeta); augmenting splices t into the datum
    n_x, n_zeta, D = 2, 1, 6
    rng = np.random.default_rng([11, 1])
    coeffs, coeffs_ref = random_field(rng, n_x, n_zeta, D)
    f, f_ref = random_pair(rng, n_x - 1, n_zeta, D, 3, 12)
    L = VectorFieldJet(a=coeffs[:1], b=coeffs[2:], time_dependent=True)
    coeffs_ref = coeffs_ref[:1] + coeffs_ref[2:]
    f, f_ref = augment_datum(f), dj.extend_with_slot(f_ref, 1)
    La = time_augment(L)
    one = dj.DictJet(3, D, {(0, 0, 0): 1.0 + 0j})
    field_ref = coeffs_ref[:1] + [one] + coeffs_ref[1:]
    for c, cr in zip(La.a + La.b, field_ref, strict=True):
        assert_matches(c, cr)
    series = formal_solution(La, f, 4)
    u_ref = dj.formal_solution(field_ref, f_ref, 4)
    diag = restrict_diagonal(series)
    diag_ref = dj.restrict_diagonal(u_ref, 1)
    assert len(diag) == len(diag_ref) == 5
    for d, dr in zip(diag, diag_ref):
        assert_matches(d, dr)


# ---------------------------------------------------------------------------
# ring laws, with truncation

RING_SHAPES = [(1, 0, 6), (1, 1, 4), (2, 1, 3)]     # (n_x, n_zeta, D)


@st.composite
def jet_triples(draw):
    """Three jets of one shape as Jets and DictJets; their terms reach
    degree D, so products truncate."""
    n_x, n_zeta, D = draw(st.sampled_from(RING_SHAPES))
    pool = _exponents(n_x + n_zeta, D)
    # no part below 1e-3 in size, so no product falls under dict_jets.PRUNE
    parts = st.floats(-2.0, 2.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-3)
    out = []
    for _ in range(3):
        terms = draw(st.dictionaries(
            st.sampled_from(pool), st.builds(complex, parts, parts),
            min_size=1, max_size=6))
        out.append((Jet(n_x, n_zeta, D, terms),
                    dj.DictJet(n_x + n_zeta, D, dj._pruned(terms))))
    return out


def _size(ref):
    return sum(abs(c) for c in ref.coeffs.values())


def assert_near(jet, ref, scale):
    got, want = jet.coeffs, ref.coeffs
    dev = max((abs(got.get(k, 0.0) - want.get(k, 0.0))
               for k in set(got) | set(want)), default=0.0)
    assert dev <= 1e-14 * scale


@settings(max_examples=60, deadline=None)
@given(jet_triples())
def test_mul_is_associative(triple):
    (a, ar), (b, br), (c, cr) = triple
    scale = _size(ar) * _size(br) * _size(cr)
    left, right = jet_mul(jet_mul(a, b), c), jet_mul(a, jet_mul(b, c))
    left_ref = dj.mul(dj.mul(ar, br), cr)
    assert_near(left, left_ref, scale)
    assert_near(right, dj.mul(ar, dj.mul(br, cr)), scale)
    assert left.lossy == left_ref.lossy
    assert jet_max_diff(left, right) <= 1e-14 * scale


@settings(max_examples=60, deadline=None)
@given(jet_triples())
def test_mul_distributes_over_add(triple):
    (a, ar), (b, br), (c, cr) = triple
    scale = _size(ar) * (_size(br) + _size(cr))
    left = jet_mul(a, jet_add(b, c))
    right = jet_add(jet_mul(a, b), jet_mul(a, c))
    assert_near(left, dj.mul(ar, dj.add(br, cr)), scale)
    assert_near(right, dj.add(dj.mul(ar, br), dj.mul(ar, cr)), scale)
    assert right.lossy == dj.add(dj.mul(ar, br), dj.mul(ar, cr)).lossy
    assert jet_max_diff(left, right) <= 1e-14 * scale


@settings(max_examples=60, deadline=None)
@given(jet_triples(), st.integers(0, 2))
def test_diff_obeys_leibniz(triple, slot):
    """d(ab) = (da) b + a (db) below degree D; at degree D the right side
    holds the derivative of terms the truncated product dropped."""
    (a, ar), (b, br), _ = triple
    slot %= a.nvars
    scale = _size(ar) * _size(br) * a.degree
    left = jet_diff(jet_mul(a, b), slot)
    right = jet_add(jet_mul(jet_diff(a, slot), b), jet_mul(a, jet_diff(b, slot)))
    assert_near(left, dj.diff(dj.mul(ar, br), slot), scale)
    assert_near(right, dj.add(dj.mul(dj.diff(ar, slot), br),
                              dj.mul(ar, dj.diff(br, slot))), scale)
    below = a.basis.deg < a.degree
    assert np.all(np.abs(left.data - right.data)[below] <= 1e-14 * scale)
    assert np.all(left.data[~below] == 0)


# ---------------------------------------------------------------------------
# the residual table

def _residual_by_n(series, n):
    """The residual of T^n u computed on its own, as one apply_field."""
    q = residual_oracle.apply_field(series.field,
                                    residual_oracle.truncate(series, n))
    want = jet_scale(series.u[n + 1], -(n + 1.0))
    return max([float(np.max(np.abs(c.data), initial=0.0)) for c in q[:n]]
               + [jet_max_diff(q[n], want)])


@pytest.mark.parametrize("shape", SHAPES)
def test_residual_table_matches_per_n_residuals(shape, monkeypatch):
    n_x, n_zeta, D = shape
    rng = np.random.default_rng([13, n_x + n_zeta])
    coeffs, _ = random_field(rng, n_x, n_zeta, D)
    f, _ = random_pair(rng, n_x, n_zeta, D, D - 2, 40)
    n_max = D // 2
    series = formal_solution(VectorFieldJet(a=coeffs[:n_x], b=coeffs[n_x:]),
                             f, n_max)
    calls = []
    apply_coeffs = jets.apply_coeffs
    monkeypatch.setattr(jets, "apply_coeffs",
                        lambda L, p: calls.append(p) or apply_coeffs(L, p))
    got = [residual_check(series, n) for n in range(n_max)]
    # L is applied to each u_k once, whatever the number of n
    assert calls == series.u[:-1]
    monkeypatch.undo()
    assert got == [_residual_by_n(series, n) for n in range(n_max)]
    assert got[-1] > 0.0
    with pytest.raises(ValueError):
        residual_check(series, n_max)
    with pytest.raises(ValueError):
        residual_check(series, -1)


# ---------------------------------------------------------------------------
# sympy series of closed-form solutions

X1, X2, T = sympy.symbols("x1 x2 t")
DATUM = {(0, 0): 1, (1, 0): -3, (0, 1): 2, (2, 1): 5, (1, 3): -1, (4, 0): 7,
         (2, 2): 3, (0, 5): -2}           # a degree-5 datum in (x1, x2)


def _series_terms(expr, n_max):
    """{k: {(p1, p2): coefficient}} of the t^k, k <= n_max, in expr."""
    poly = sympy.Poly(sympy.expand(expr), T, X1, X2)
    out = {k: {} for k in range(n_max + 1)}
    for (k, p1, p2), c in poly.terms():
        if k <= n_max:
            out[k][(p1, p2)] = float(c)
    return out


def _check_series(series, want):
    for k, terms in want.items():
        got = series.u[k].coeffs
        top = max([abs(c) for c in terms.values()] + [1.0])
        for e in set(got) | set(terms):
            assert abs(got.get(e, 0.0) - terms.get(e, 0.0)) <= 1e-14 * top


def _datum(D):
    return Jet(2, 0, D, {e: float(c) for e, c in DATUM.items()})


def _datum_expr(y1, y2):
    return sum(c * y1 ** e1 * y2 ** e2 for (e1, e2), c in DATUM.items())


def test_transport_series_matches_sympy():
    # (d/dt + a1 d/dx1 + a2 d/dx2) u = 0: u = f(x1 - a1 t, x2 - a2 t)
    D, n_max = 10, 7
    a1, a2 = sympy.Rational(1, 2), sympy.Rational(-5, 4)
    consts = [Jet(2, 0, D, {(0, 0): float(a)}) for a in (a1, a2)]
    series = formal_solution(VectorFieldJet(a=consts, b=[]), _datum(D), n_max)
    want = _series_terms(_datum_expr(X1 - a1 * T, X2 - a2 * T), n_max)
    _check_series(series, want)
    assert all(not series.u[k].coeffs for k in range(6, n_max + 1))


def test_dilation_series_matches_sympy():
    # (d/dt + x1 d/dx1 + 2 x2 d/dx2) u = 0: u = f(x1 e^-t, x2 e^-2t)
    D, n_max = 10, 5
    x1 = Jet(2, 0, D, {(1, 0): 1.0})
    x2 = Jet(2, 0, D, {(0, 1): 2.0})
    series = formal_solution(VectorFieldJet(a=[x1, x2], b=[]), _datum(D),
                             n_max)

    def exp_series(c):          # e^{ct} through t^n_max
        return sum((c * T) ** j / math.factorial(j) for j in range(n_max + 1))
    want = _series_terms(_datum_expr(X1 * exp_series(-1), X2 * exp_series(-2)),
                         n_max)
    _check_series(series, want)
