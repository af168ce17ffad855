"""Exact truncated polynomial algebra at a base point.

A Jet is a multivariate Taylor polynomial in real variables x_1..x_{n_x}
and complex variables zeta_0..zeta_{n_zeta-1}, truncated at a total degree
budget D.  Jets carry all symbolic computation in the toolkit: the formal
solution recursion of a vector field

    L = d/dt + sum_i a_i(x, zeta) d/dx_i + sum_j b_j(x, zeta) d/dzeta_j,

its truncation residual identity, derivative growth fitting against a
weight sequence, and the device that solves a t-dependent field as a
t-independent one with t as one more x variable.

Multi-indices run over the x slots first, then the zeta slots.  A jet's
coefficients are one read-only complex array over the graded basis of the
exponents with |e| <= D (degree 0, then 1, ..., lexicographic within a
degree), built once per (nvars, D) with its index maps.  The exponents of
degree <= D - |e| are a prefix of that basis, so a product adds, for each
nonzero coefficient of the first factor, a multiple of a prefix of the
second at a cached shift.  Exponents are checked where terms come in.
Operations never mutate their operands; multiplication drops terms above
the budget and marks the result lossy.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ArityMismatch, BudgetExhausted, FitFailed
from .weights import WeightSequence, _FIT_CAP, snap_up


class _Basis:
    """Exponents with |e| <= D in graded order and the index maps of the
    jet operations.  An exponent is found by its code e . radix, which a
    sum of two exponents of total degree <= D never carries."""

    def __init__(self, nvars: int, degree: int):
        if (degree + 1) ** nvars >= 2 ** 62:
            raise ArityMismatch(f"no jet basis for {nvars} variables at D={degree}")
        exps = sorted(_exponents(nvars, degree), key=lambda e: (sum(e), e))
        self.nvars, self.degree, self.size = nvars, degree, len(exps)
        self.exps = np.array(exps, dtype=np.int64).reshape(self.size, nvars)
        self.deg = self.exps.sum(axis=1)
        self.radix = (degree + 1) ** np.arange(nvars - 1, -1, -1, dtype=np.int64)
        self.codes = self.exps @ self.radix
        self._order = np.argsort(self.codes)
        # the slots of degree <= D - |e_i|: a prefix, the order being graded
        self.fits = np.searchsorted(self.deg, degree - self.deg, side="right")
        self._shifts = [None] * self.size

    def rank(self, codes) -> np.ndarray:
        """Slots of the basis exponents with these codes."""
        return self._order[np.searchsorted(self.codes, codes, sorter=self._order)]

    def shift(self, i: int) -> np.ndarray:
        """Slots of e_i + e_j for the first fits[i] slots j."""
        if self._shifts[i] is None:
            self._shifts[i] = self.rank(self.codes[:self.fits[i]] + self.codes[i])
        return self._shifts[i]

    @functools.cache
    def diff_map(self, v: int):
        """(source slots, target slots, factor) of d/dy_v."""
        src = np.flatnonzero(self.exps[:, v])
        return (src, self.rank(self.codes[src] - self.radix[v]),
                self.exps[src, v].astype(float))

    def array(self, terms) -> np.ndarray:
        """Coefficients of {exponent: value} terms or (exponent, value)
        pairs, every exponent checked against the basis."""
        data = np.zeros(self.size, dtype=complex)
        seen = set()
        for idx, c in (terms.items() if isinstance(terms, dict) else terms):
            e = tuple(idx)
            if len(e) != self.nvars or not all(
                    isinstance(p, numbers.Integral) and not isinstance(p, bool)
                    and p >= 0 for p in e):
                raise ArityMismatch(f"multi-index {list(e)} is not a list of "
                                    f"{self.nvars} non-negative integers")
            if sum(e) > self.degree:
                raise ArityMismatch(
                    f"multi-index {list(e)} has degree above D={self.degree}")
            if e in seen:
                raise ArityMismatch(f"multi-index {list(e)} given twice")
            seen.add(e)
            data[self.rank(np.array(e, dtype=np.int64) @ self.radix)] = complex(c)
        return data


def _exponents(nvars: int, degree: int) -> list:
    if nvars == 0:
        return [()]
    return [(k,) + rest for k in range(degree + 1)
            for rest in _exponents(nvars - 1, degree - k)]


@functools.cache
def _basis(nvars: int, degree: int) -> _Basis:
    return _Basis(nvars, degree)


class Jet:
    """Coefficients `data` over `basis`, the graded basis of (nvars, D).

    coeffs: {exponent tuple: value} or (exponent, value) pairs; a wrong
    length, a negative or non-integer entry, a degree above D or a repeat
    raises ArityMismatch.
    """

    def __init__(self, n_x: int, n_zeta: int, degree: int, coeffs=(),
                 base_x=(), base_zeta=()):
        if not all(isinstance(n, numbers.Integral) and n >= 0
                   for n in (n_x, n_zeta, degree)):
            raise ArityMismatch("variable counts and D must be non-negative integers")
        self.n_x, self.n_zeta, self.degree = n_x, n_zeta, degree
        self.base_x = tuple(base_x) or (0.0,) * n_x
        self.base_zeta = tuple(base_zeta) or (0.0 + 0.0j,) * n_zeta
        if len(self.base_x) != n_x or len(self.base_zeta) != n_zeta:
            raise ArityMismatch("base point length does not match arity")
        self.basis = _basis(n_x + n_zeta, degree)
        self.data = self.basis.array(coeffs)
        self.data.flags.writeable = False
        self.lossy = False

    @property
    def nvars(self) -> int:
        return self.n_x + self.n_zeta

    @property
    def coeffs(self) -> dict:
        """A new dict of the nonzero terms, {exponent tuple: complex}."""
        nz = np.flatnonzero(self.data)
        return dict(zip(map(tuple, self.basis.exps[nz].tolist()),
                        self.data[nz].tolist()))


def _like(a: Jet, data: np.ndarray, lossy: bool) -> Jet:
    """A jet over a's variables, base point and basis holding data."""
    out = object.__new__(Jet)
    out.__dict__.update(a.__dict__, data=data, lossy=bool(lossy))
    data.flags.writeable = False
    return out


def jet_constant(value, n_x, n_zeta, degree, base_x=(), base_zeta=()) -> Jet:
    return Jet(n_x, n_zeta, degree, {(0,) * (n_x + n_zeta): value},
               base_x, base_zeta)


def jet_variable(slot: int, n_x, n_zeta, degree, base_x=(), base_zeta=()) -> Jet:
    """The coordinate function of a slot (0..n_x-1 the x's, then the zetas),
    expanded about the base point: constant term plus unit linear term."""
    j = Jet(n_x, n_zeta, degree, (), base_x, base_zeta)
    terms = {(0,) * j.nvars: (j.base_x + j.base_zeta)[slot]}
    if degree >= 1:
        terms[tuple(int(v == slot) for v in range(j.nvars))] = 1.0
    return Jet(n_x, n_zeta, degree, terms, j.base_x, j.base_zeta)


def _check_compat(a: Jet, b: Jet):
    if (a.n_x, a.n_zeta, a.degree) != (b.n_x, b.n_zeta, b.degree):
        raise ArityMismatch(
            f"jet arity/budget mismatch: ({a.n_x},{a.n_zeta},D={a.degree}) vs "
            f"({b.n_x},{b.n_zeta},D={b.degree})")
    if a.base_x != b.base_x or a.base_zeta != b.base_zeta:
        raise ArityMismatch("jets expanded about different base points")


def coeff_slots(a: Jet) -> np.ndarray:
    """Slots of the nonzero coefficients in lexicographic exponent order,
    the row order of jet_to_dict."""
    order = a.basis._order
    return order[a.data[order] != 0]


def jet_to_dict(a: Jet, rows=None) -> dict:
    """JSON-ready form: {base_point, n_x, n_zeta, D, coeffs} with every
    complex number as an [re, im] pair.  coeffs holds an [exponent, re, im]
    row per nonzero coefficient in lexicographic exponent order
    (coeff_slots), or `rows`, a stand-in for them that a writer renders
    itself."""
    base = [[complex(v).real, complex(v).imag] for v in a.base_x + a.base_zeta]
    if rows is None:
        slots = coeff_slots(a)
        rows = [[e, c.real, c.imag] for e, c in
                zip(a.basis.exps[slots].tolist(), a.data[slots].tolist())]
    return {"base_point": base, "n_x": a.n_x, "n_zeta": a.n_zeta,
            "D": a.degree, "coeffs": rows}


def jet_from_dict(d: dict) -> Jet:
    shape = Jet(d["n_x"], d["n_zeta"], d["D"])     # checks the counts and D
    base = [complex(float(v[0]), float(v[1])) if isinstance(v, (list, tuple))
            else complex(v) for v in d.get("base_point", [0.0] * shape.nvars)]
    if len(base) != shape.nvars:
        raise ArityMismatch("base point length does not match arity")
    terms = [(idx, complex(float(re), float(im))) for idx, re, im in d["coeffs"]]
    return Jet(shape.n_x, shape.n_zeta, shape.degree, terms,
               tuple(v.real for v in base[:shape.n_x]), tuple(base[shape.n_x:]))


def jet_add(a: Jet, b: Jet) -> Jet:
    _check_compat(a, b)
    return _like(a, a.data + b.data, a.lossy or b.lossy)


def jet_scale(a: Jet, s) -> Jet:
    return _like(a, a.data * complex(s), a.lossy)


def jet_mul(a: Jet, b: Jet) -> Jet:
    _check_compat(a, b)
    basis, out = a.basis, np.zeros_like(b.data)
    nz, nz_b = np.flatnonzero(a.data), np.flatnonzero(b.data)
    for i in nz:
        out[basis.shift(i)] += a.data[i] * b.data[:basis.fits[i]]
    # a term was dropped iff the top degrees (last nonzero slots) exceed D
    dropped = nz.size and nz_b.size and \
        basis.deg[nz[-1]] + basis.deg[nz_b[-1]] > a.degree
    return _like(a, out, a.lossy or b.lossy or dropped)


def jet_diff(a: Jet, slot: int) -> Jet:
    """Formal derivative in the given combined slot index."""
    if not 0 <= slot < a.nvars:
        raise ArityMismatch(f"slot {slot} out of range for {a.nvars} variables")
    src, dst, factor = a.basis.diff_map(slot)
    out = np.zeros_like(a.data)
    out[dst] = factor * a.data[src]
    return _like(a, out, a.lossy)


def _components(v, n: int, name: str) -> list:
    vs = [v] if n == 1 and not isinstance(v, (list, tuple)) else list(v)
    if len(vs) != n:
        raise ArityMismatch(f"need {n} {name} components, got {len(vs)}")
    return vs


def jet_eval(a: Jet, x=None, zeta=None):
    """Evaluate the polynomial.  x: scalar (n_x = 1) or sequence of n_x
    arrays/scalars; zeta likewise for the complex slots, the base point
    by default.  Arrays broadcast."""
    if a.n_x and x is None:
        raise ValueError("jet has x variables, x values required")
    ys = (_components(x, a.n_x, "x") if a.n_x else []) + \
        (_components(a.base_zeta if zeta is None else zeta, a.n_zeta, "zeta")
         if a.n_zeta else [])
    disps = [np.asarray(y, dtype=complex) - b
             for y, b in zip(ys, a.base_x + a.base_zeta)]
    out = None
    nz = np.flatnonzero(a.data)
    for idx, c in zip(a.basis.exps[nz].tolist(), a.data[nz].tolist()):
        term = np.asarray(c)
        for v, p in enumerate(idx):
            if p:
                term = term * disps[v] ** p
        out = term if out is None else out + term
    if out is None:
        out = np.zeros(np.broadcast(*disps).shape if disps else (), dtype=complex)
    out = np.asarray(out, dtype=complex)
    return complex(out) if out.ndim == 0 else out


def jet_max_diff(a: Jet, b: Jet) -> float:
    """Largest absolute coefficient difference."""
    _check_compat(a, b)
    return float(np.max(np.abs(a.data - b.data), initial=0.0))


# ---------------------------------------------------------------------------
# vector fields and the formal solution

@dataclass(eq=False)
class VectorFieldJet:
    """d/dt + sum a_i d/dx_i + sum b_j d/dzeta_j with jet coefficients.

    When time_dependent is true, the last x slot of every member jet is the
    time variable (expanded about t = 0) and carries no explicit a
    coefficient; len(a) is then n_x - 1.
    """
    a: list
    b: list
    time_dependent: bool = False

    def __post_init__(self):
        jets = list(self.a) + list(self.b)
        if not jets:
            raise ArityMismatch("vector field needs at least one coefficient jet")
        ref = jets[0]
        for j in jets[1:]:
            _check_compat(ref, j)
        n_spatial = ref.n_x - (1 if self.time_dependent else 0)
        if len(self.a) != n_spatial:
            raise ArityMismatch(
                f"expected {n_spatial} x-coefficients, got {len(self.a)}")
        if self.time_dependent and abs(ref.base_x[-1]) > 0:
            raise ArityMismatch("time slot must be expanded about t = 0")
        self.n_x, self.n_zeta, self.degree, self.ref = \
            ref.n_x, ref.n_zeta, ref.degree, ref


@dataclass(eq=False)
class FormalSeries:
    field: VectorFieldJet
    u: list                  # u[k], k = 0..n_max; u[k] is exact to degree D - k
    n_max: int
    # residual_check by n, built on its first call
    residuals: list = field(default=None, init=False, repr=False)


def apply_coeffs(L: VectorFieldJet, p: Jet) -> Jet:
    """sum_i a_i dp/dx_i + sum_j b_j dp/dzeta_j (no time derivative)."""
    out = jet_constant(0.0, p.n_x, p.n_zeta, p.degree, p.base_x, p.base_zeta)
    for i, ai in enumerate(L.a):
        out = jet_add(out, jet_mul(ai, jet_diff(p, i)))
    for j, bj in enumerate(L.b):
        out = jet_add(out, jet_mul(bj, jet_diff(p, p.n_x + j)))
    return out


def formal_solution(L: VectorFieldJet, f: Jet, n_max: int) -> FormalSeries:
    """u_0 = f, u_k = -(1/k)(sum a_i du_{k-1}/dx_i + sum b_j du_{k-1}/dzeta_j).

    Requires a time-independent field (augment first otherwise) and
    n_max <= D, since every step consumes one polynomial degree.  A u_k
    past the float range raises ValueError.
    """
    if L.time_dependent:
        raise ValueError("field is time-dependent; apply time_augment first")
    _check_compat(L.ref, f)
    if n_max > f.degree:
        raise BudgetExhausted(
            f"n_max={n_max} exceeds degree budget D={f.degree}")
    u = [f]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_max + 1):
            u.append(jet_scale(apply_coeffs(L, u[-1]), -1.0 / k))
            if not np.isfinite(u[-1].data).all():
                raise ValueError(f"u_{k} overflows the float range")
    return FormalSeries(L, u, n_max)


def residual_check(series: FormalSeries, n: int) -> float:
    """Max coefficient deviation of L(T^n u) from -(n+1) u_{n+1} t^n.

    Zero to rounding for exact polynomial data: the k < n coefficients of
    L(T^n u) cancel by the recursion, and the t^n coefficient reproduces
    the next term.  Entry n of the series' residual table, which the first
    call builds for every n < n_max.
    """
    if n < 0:
        raise ValueError(f"residual index n={n} is negative")
    if n + 1 > series.n_max:
        raise ValueError(f"need u_{n + 1}, computed only to n_max={series.n_max}")
    if series.residuals is None:
        series.residuals = _residual_table(series)
    return series.residuals[n]


def _residual_table(series: FormalSeries) -> list:
    """residual_check for n = 0..n_max-1, with the coefficient part of L
    applied to each u_k once and shared by every n: the t^k coefficient of
    L(T^n u) is the same jet for every n > k."""
    u = series.u
    lu = [apply_coeffs(series.field, uk) for uk in u[:-1]]
    cancel = [float(np.max(np.abs(jet_add(lu[k], jet_scale(u[k + 1], k + 1)).data),
                           initial=0.0)) for k in range(len(lu) - 1)]
    return [max(cancel[:n] + [jet_max_diff(lu[n], jet_scale(u[n + 1], -(n + 1.0)))])
            for n in range(series.n_max)]


# ---------------------------------------------------------------------------
# growth fitting

@dataclass
class GrowthEstimate:
    C_fit: float
    B_fit: float
    sup: list                # sup |u_k| over the box, k = 0..n_max


def _box_grid(jet: Jet, box: list) -> list:
    """33 points on each (lo, hi) interval of box, one per x variable."""
    if len(box) != jet.n_x or jet.n_zeta:
        raise ArityMismatch("growth fits sample x intervals of zeta-free jets")
    axes = [np.linspace(lo, hi, 33) for lo, hi in box]
    return [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]


def growth_fit(series: FormalSeries, seq: WeightSequence,
               box: list) -> GrowthEstimate:
    """Fit C in sup |u_k| <= C^{1+k} m_k over the box, a (lo, hi) interval
    per x variable, and B in the truncation bound (n+1) sup |u_{n+1}| <=
    B^{n+1} m_n.  Both are snapped up to the {2^{j/4}} grid; FitFailed when
    C would exceed 2^16.
    """
    if seq.K_max < series.n_max:
        raise ValueError(f"sequence table too short: K_max={seq.K_max} < "
                         f"{series.n_max}")
    xs = _box_grid(series.u[0], box)
    sups = [float(np.max(np.abs(jet_eval(u, x=xs)))) for u in series.u]

    log_m = seq.log_m(np.arange(series.n_max + 1))
    log_c_need = max([(np.log(s) - log_m[k]) / (1.0 + k)
                      for k, s in enumerate(sups) if s > 0.0], default=-np.inf)
    C_fit = snap_up(float(np.exp(log_c_need)))
    if C_fit > _FIT_CAP:
        raise FitFailed(f"growth fit needs C ~ {np.exp(log_c_need):.3g} > cap "
                        f"{_FIT_CAP:.3g}")

    log_b_need = max([(np.log((n + 1) * sups[n + 1]) - log_m[n]) / (n + 1.0)
                      for n in range(series.n_max) if sups[n + 1] > 0.0],
                     default=-np.inf)
    B_fit = snap_up(float(np.exp(log_b_need)))

    return GrowthEstimate(C_fit, B_fit, sups)


# ---------------------------------------------------------------------------
# time augmentation

def augment_datum(jet: Jet) -> Jet:
    """Embed an initial datum, or any jet, into the augmented variable list:
    one extra x variable, exponent 0 everywhere, base 0."""
    out = Jet(jet.n_x + 1, jet.n_zeta, jet.degree, (), jet.base_x + (0.0,),
              jet.base_zeta)
    data = np.zeros_like(out.data)
    exps = np.insert(jet.basis.exps, jet.n_x, 0, axis=1)
    data[out.basis.rank(exps @ out.basis.radix)] = jet.data
    return _like(out, data, jet.lossy)


def time_augment(L: VectorFieldJet) -> VectorFieldJet:
    """Turn d/dt + sum a_i(x, t, zeta) d/dx_i + ... into a time-independent
    field on the same variables: the time slot, the last x variable, picks
    up the unit coefficient of d/dt.  Embed the datum with augment_datum."""
    ref = L.ref
    one = jet_constant(1.0, ref.n_x, ref.n_zeta, ref.degree,
                       ref.base_x, ref.base_zeta)
    return VectorFieldJet(list(L.a) + [one], L.b, time_dependent=False)


def restrict_diagonal(series: FormalSeries) -> list:
    """Set the augmented slot equal to t in sum_k u_k(x, s) t^k at s = t.

    Returns the t-coefficients m = 0..n_max over the original variables:
    coefficient m collects the s^{m-k} part of every u_k, k <= m.
    """
    u0 = series.u[0]
    n_x = u0.n_x - 1
    if n_x < 0:
        raise ArityMismatch("series has no augmented slot to restrict")
    small = Jet(n_x, u0.n_zeta, u0.degree, (), u0.base_x[:-1], u0.base_zeta)
    s_exp = u0.basis.exps[:, n_x]
    target = small.basis.rank(np.delete(u0.basis.exps, n_x, axis=1)
                              @ small.basis.radix)
    out = np.zeros((series.n_max + 1, small.basis.size), dtype=complex)
    for k, u in enumerate(series.u):
        nz = np.flatnonzero(u.data)
        nz = nz[k + s_exp[nz] <= series.n_max]
        out[k + s_exp[nz], target[nz]] += u.data[nz]
    return [_like(small, row, False) for row in out]
