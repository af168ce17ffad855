"""Exact truncated polynomial algebra at a base point.

A Jet is a sparse multivariate Taylor polynomial in real variables
x_1..x_{n_x} and complex variables zeta_0..zeta_{n_zeta-1}, truncated at a
total degree budget D.  Jets carry all symbolic computation in the toolkit:
the formal solution recursion of a vector field

    L = d/dt + sum_i a_i(x, zeta) d/dx_i + sum_j b_j(x, zeta) d/dzeta_j,

its truncation residual identity, derivative growth fitting against a
weight sequence, and the device that turns a t-dependent field into a
t-independent one on one more variable.

Multi-indices run over the x slots first, then the zeta slots.  Operations
never mutate their operands; multiplication drops terms above the budget
and marks the result lossy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ArityMismatch, BudgetExhausted, FitFailed
from .weights import WeightSequence, snap_up

PRUNE = 1e-30


@dataclass(eq=False)
class Jet:
    n_x: int
    n_zeta: int
    degree: int
    coeffs: dict            # multi-index tuple -> complex
    base_x: tuple = ()
    base_zeta: tuple = ()
    lossy: bool = False

    def __post_init__(self):
        if not self.base_x:
            self.base_x = (0.0,) * self.n_x
        if not self.base_zeta:
            self.base_zeta = (0.0 + 0.0j,) * self.n_zeta
        if len(self.base_x) != self.n_x or len(self.base_zeta) != self.n_zeta:
            raise ArityMismatch("base point length does not match arity")

    @property
    def nvars(self) -> int:
        return self.n_x + self.n_zeta

    def __add__(self, other):
        return jet_add(self, other)

    def __mul__(self, other):
        if isinstance(other, Jet):
            return jet_mul(self, other)
        return jet_scale(self, other)

    def __rmul__(self, other):
        return jet_scale(self, other)

    def __sub__(self, other):
        return jet_add(self, jet_scale(other, -1.0))

    def __neg__(self):
        return jet_scale(self, -1.0)


def jet_constant(value, n_x, n_zeta, degree, base_x=(), base_zeta=()) -> Jet:
    c = complex(value)
    coeffs = {} if abs(c) <= PRUNE else {(0,) * (n_x + n_zeta): c}
    return Jet(n_x, n_zeta, degree, coeffs, base_x, base_zeta)


def jet_variable(slot: int, n_x, n_zeta, degree, base_x=(), base_zeta=()) -> Jet:
    """The coordinate function of a slot (0..n_x-1 the x's, then the zetas),
    expanded about the base point: constant term plus unit linear term."""
    j = jet_constant(0.0, n_x, n_zeta, degree, base_x, base_zeta)
    base = j.base_x[slot] if slot < n_x else j.base_zeta[slot - n_x]
    coeffs = {}
    if abs(complex(base)) > PRUNE:
        coeffs[(0,) * j.nvars] = complex(base)
    idx = [0] * j.nvars
    idx[slot] = 1
    if degree >= 1:
        coeffs[tuple(idx)] = 1.0 + 0.0j
    return Jet(n_x, n_zeta, degree, coeffs, j.base_x, j.base_zeta)


def _check_compat(a: Jet, b: Jet):
    if (a.n_x, a.n_zeta, a.degree) != (b.n_x, b.n_zeta, b.degree):
        raise ArityMismatch(
            f"jet arity/budget mismatch: ({a.n_x},{a.n_zeta},D={a.degree}) vs "
            f"({b.n_x},{b.n_zeta},D={b.degree})")
    if a.base_x != b.base_x or a.base_zeta != b.base_zeta:
        raise ArityMismatch("jets expanded about different base points")


def jet_to_dict(a: Jet) -> dict:
    """JSON-ready form: {base_point, n_x, n_zeta, D, coeffs} with every
    complex number as an [re, im] pair and coefficients sorted by index."""
    base = [[complex(v).real, complex(v).imag]
            for v in tuple(a.base_x) + tuple(a.base_zeta)]
    entries = [[list(idx), complex(c).real, complex(c).imag]
               for idx, c in sorted(a.coeffs.items())]
    return {"base_point": base, "n_x": a.n_x, "n_zeta": a.n_zeta,
            "D": a.degree, "coeffs": entries}


def jet_from_dict(d: dict) -> Jet:
    n_x, n_zeta = int(d["n_x"]), int(d["n_zeta"])

    def num(v):
        if isinstance(v, (list, tuple)):
            return complex(float(v[0]), float(v[1]))
        return complex(v)

    base = [num(v) for v in d.get("base_point",
                                  [0.0] * (n_x + n_zeta))]
    if len(base) != n_x + n_zeta:
        raise ArityMismatch("base point length does not match arity")
    coeffs = {}
    for idx, re, im in d["coeffs"]:
        coeffs[tuple(int(i) for i in idx)] = complex(float(re), float(im))
    return Jet(n_x, n_zeta, int(d["D"]), coeffs,
               tuple(v.real for v in base[:n_x]), tuple(base[n_x:]))


def jet_add(a: Jet, b: Jet) -> Jet:
    _check_compat(a, b)
    coeffs = dict(a.coeffs)
    for idx, c in b.coeffs.items():
        coeffs[idx] = coeffs.get(idx, 0.0) + c
    coeffs = {i: c for i, c in coeffs.items() if abs(c) > PRUNE}
    return Jet(a.n_x, a.n_zeta, a.degree, coeffs, a.base_x, a.base_zeta,
               a.lossy or b.lossy)


def jet_scale(a: Jet, s) -> Jet:
    s = complex(s)
    coeffs = {i: c * s for i, c in a.coeffs.items() if abs(c * s) > PRUNE}
    return Jet(a.n_x, a.n_zeta, a.degree, coeffs, a.base_x, a.base_zeta, a.lossy)


def jet_mul(a: Jet, b: Jet) -> Jet:
    _check_compat(a, b)
    coeffs = {}
    dropped = False
    for i1, c1 in a.coeffs.items():
        d1 = sum(i1)
        for i2, c2 in b.coeffs.items():
            if d1 + sum(i2) > a.degree:
                dropped = True
                continue
            idx = tuple(p + q for p, q in zip(i1, i2))
            coeffs[idx] = coeffs.get(idx, 0.0) + c1 * c2
    coeffs = {i: c for i, c in coeffs.items() if abs(c) > PRUNE}
    return Jet(a.n_x, a.n_zeta, a.degree, coeffs, a.base_x, a.base_zeta,
               a.lossy or b.lossy or dropped)


def jet_diff(a: Jet, slot: int) -> Jet:
    """Formal derivative in the given combined slot index."""
    if not 0 <= slot < a.nvars:
        raise ArityMismatch(f"slot {slot} out of range for {a.nvars} variables")
    coeffs = {}
    for idx, c in a.coeffs.items():
        p = idx[slot]
        if p == 0:
            continue
        nidx = list(idx)
        nidx[slot] = p - 1
        coeffs[tuple(nidx)] = coeffs.get(tuple(nidx), 0.0) + p * c
    coeffs = {i: c for i, c in coeffs.items() if abs(c) > PRUNE}
    return Jet(a.n_x, a.n_zeta, a.degree, coeffs, a.base_x, a.base_zeta, a.lossy)


def jet_eval(a: Jet, x=None, zeta=None):
    """Evaluate the polynomial.  x: scalar (n_x = 1) or sequence of n_x
    arrays/scalars; zeta likewise for the complex slots.  Arrays broadcast."""
    disps = []
    if a.n_x:
        if x is None:
            raise ValueError("jet has x variables, x values required")
        if a.n_x == 1 and not isinstance(x, (list, tuple)):
            xs = [x]
        else:
            xs = list(x)
        if len(xs) != a.n_x:
            raise ArityMismatch(f"need {a.n_x} x components, got {len(xs)}")
        for i, xi in enumerate(xs):
            disps.append(np.asarray(xi, dtype=complex) - a.base_x[i])
    if a.n_zeta:
        if zeta is None:
            zeta = a.base_zeta
        if a.n_zeta == 1 and not isinstance(zeta, (list, tuple)):
            zs = [zeta]
        else:
            zs = list(zeta)
        if len(zs) != a.n_zeta:
            raise ArityMismatch(f"need {a.n_zeta} zeta components, got {len(zs)}")
        for j, zj in enumerate(zs):
            disps.append(np.asarray(zj, dtype=complex) - a.base_zeta[j])

    out = None
    pow_cache = [dict() for _ in range(a.nvars)]

    def power(v, p):
        if p == 0:
            return 1.0
        got = pow_cache[v].get(p)
        if got is None:
            got = disps[v] ** p
            pow_cache[v][p] = got
        return got

    for idx, c in a.coeffs.items():
        term = np.asarray(c)
        for v, p in enumerate(idx):
            if p:
                term = term * power(v, p)
        out = term if out is None else out + term
    if out is None:
        shape = np.broadcast(*disps).shape if disps else ()
        out = np.zeros(shape, dtype=complex)
    out = np.asarray(out, dtype=complex)
    return complex(out) if out.ndim == 0 else out


def jet_max_diff(a: Jet, b: Jet) -> float:
    """Largest absolute coefficient difference over the union of indices."""
    _check_compat(a, b)
    keys = set(a.coeffs) | set(b.coeffs)
    if not keys:
        return 0.0
    return max(abs(a.coeffs.get(k, 0.0) - b.coeffs.get(k, 0.0)) for k in keys)


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
        self.n_x = ref.n_x
        self.n_zeta = ref.n_zeta
        self.degree = ref.degree
        self.ref = ref


@dataclass(eq=False)
class FormalSeries:
    field: VectorFieldJet
    datum: Jet
    u: list                  # u[k], k = 0..n_max
    n_max: int
    valid_degree: list       # D - k, the degree to which u[k] is trustworthy


@dataclass(eq=False)
class TimePoly:
    """Polynomial in t with Jet coefficients, coeffs[k] multiplying t^k."""
    coeffs: list


def _apply_coeffs(L: VectorFieldJet, p: Jet) -> Jet:
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
    n_max <= D, since every step consumes one polynomial degree.
    """
    if L.time_dependent:
        raise ValueError("field is time-dependent; apply time_augment first")
    _check_compat(L.ref, f)
    if n_max > f.degree:
        raise BudgetExhausted(
            f"n_max={n_max} exceeds degree budget D={f.degree}")
    u = [f]
    for k in range(1, n_max + 1):
        u.append(jet_scale(_apply_coeffs(L, u[-1]), -1.0 / k))
    valid = [f.degree - k for k in range(n_max + 1)]
    return FormalSeries(L, f, u, n_max, valid)


def truncate(series: FormalSeries, n: int) -> TimePoly:
    if n > series.n_max:
        raise ValueError(f"n={n} exceeds computed n_max={series.n_max}")
    return TimePoly(list(series.u[:n + 1]))


def apply_field(L: VectorFieldJet, p: TimePoly) -> TimePoly:
    """Exact d/dt p + (coefficient part) p, degree by degree in t."""
    n = len(p.coeffs) - 1
    out = []
    for k in range(n + 1):
        q = _apply_coeffs(L, p.coeffs[k])
        if k + 1 <= n:
            q = jet_add(q, jet_scale(p.coeffs[k + 1], k + 1))
        out.append(q)
    return TimePoly(out)


def residual_check(series: FormalSeries, n: int) -> float:
    """Max coefficient deviation of L(T^n u) from -(n+1) u_{n+1} t^n.

    Zero to rounding for exact polynomial data: the k < n coefficients of
    L(T^n u) cancel by the recursion, and the t^n coefficient reproduces
    the next term.
    """
    if n + 1 > series.n_max:
        raise ValueError(f"need u_{n + 1}, computed only to n_max={series.n_max}")
    q = apply_field(series.field, truncate(series, n))
    dev = 0.0
    for k in range(n):
        dev = max(dev, max((abs(c) for c in q.coeffs[k].coeffs.values()),
                           default=0.0))
    want = jet_scale(series.u[n + 1], -(n + 1.0))
    dev = max(dev, jet_max_diff(q.coeffs[n], want))
    return dev


# ---------------------------------------------------------------------------
# growth fitting

@dataclass
class EvalBox:
    """Sampling region for growth fits: an interval per x variable and a
    circle radius per zeta variable (polynomials attain their sup on the
    circle).  n_x_samples points per interval, n_zeta_samples per circle."""
    x_intervals: list
    zeta_radii: list = field(default_factory=list)
    n_x_samples: int = 33
    n_zeta_samples: int = 16


@dataclass
class GrowthEstimate:
    C_fit: float
    B_fit: float
    n_max: int
    box: EvalBox
    sup: list                # sup |u_k| over the box, k = 0..n_max


def _box_grid(jet: Jet, box: EvalBox):
    if len(box.x_intervals) != jet.n_x or len(box.zeta_radii) != jet.n_zeta:
        raise ArityMismatch("box does not match jet arity")
    axes = []
    for (lo, hi) in box.x_intervals:
        axes.append(np.linspace(lo, hi, box.n_x_samples))
    for rho, zb in zip(box.zeta_radii, jet.base_zeta):
        ang = 2 * np.pi * np.arange(box.n_zeta_samples) / box.n_zeta_samples
        axes.append(zb + rho * np.exp(1j * ang))
    if not axes:
        return [], []
    grids = np.meshgrid(*axes, indexing="ij")
    xs = [g.ravel() for g in grids[:jet.n_x]]
    zs = [g.ravel() for g in grids[jet.n_x:]]
    return xs, zs


def _grid_sup(jet: Jet, xs, zs) -> float:
    if not xs and not zs:
        return abs(jet_eval(jet))
    vals = jet_eval(jet, x=xs if xs else None, zeta=zs if zs else None)
    return float(np.max(np.abs(vals)))


def growth_fit(series: FormalSeries, seq: WeightSequence, box: EvalBox,
               deriv_order: int = 0, c_cap: float = 2.0 ** 16) -> GrowthEstimate:
    """Fit C in sup |d^alpha u_k| <= C^{1+|alpha|+k} M_{|alpha|+k}/k! over the
    box (alpha runs over x derivatives up to deriv_order; the default 0
    reduces the right side to C^{1+k} m_k), and B in the truncation bound
    (n+1) sup |u_{n+1}| <= B^{n+1} m_n.  Both are snapped up to the
    {2^{j/4}} grid; FitFailed when C would exceed c_cap.
    """
    need_k = series.n_max + deriv_order
    if seq.K_max < need_k:
        raise ValueError(f"sequence table too short: K_max={seq.K_max} < {need_k}")
    xs, zs = _box_grid(series.u[0], box)

    sups = [_grid_sup(u, xs, zs) for u in series.u]

    log_c_need = -np.inf
    for k, u in enumerate(series.u):
        alphas = [()]
        if deriv_order >= 1:
            todo = [(i,) for i in range(series.field.n_x)]
            alphas += todo
            for order in range(2, deriv_order + 1):
                todo = [t + (i,) for t in todo for i in range(t[-1], series.field.n_x)]
                alphas += todo
        for alpha in alphas:
            a_len = len(alpha)
            du = u
            for slot in alpha:
                du = jet_diff(du, slot)
            s = sups[k] if a_len == 0 else _grid_sup(du, xs, zs)
            if s <= 0.0:
                continue
            bound_log = seq.log_M[a_len + k] - seq.lfact[k]
            log_c_need = max(log_c_need,
                             (np.log(s) - bound_log) / (1.0 + a_len + k))

    C_fit = 1.0 if log_c_need == -np.inf else snap_up(float(np.exp(log_c_need)))
    if C_fit > c_cap:
        raise FitFailed(f"growth fit needs C ~ {np.exp(log_c_need):.3g} > cap {c_cap:.3g}")

    log_b_need = -np.inf
    for n in range(series.n_max):
        s = (n + 1) * sups[n + 1]
        if s <= 0.0:
            continue
        log_b_need = max(log_b_need, (np.log(s) - seq.log_m[n]) / (n + 1.0))
    B_fit = 1.0 if log_b_need == -np.inf else snap_up(float(np.exp(log_b_need)))

    return GrowthEstimate(C_fit, B_fit, series.n_max, box, sups)


# ---------------------------------------------------------------------------
# time augmentation

def _extend_with_slot(jet: Jet) -> Jet:
    """Re-embed with one extra x variable (exponent 0 everywhere, base 0)."""
    coeffs = {}
    for idx, c in jet.coeffs.items():
        coeffs[idx[:jet.n_x] + (0,) + idx[jet.n_x:]] = c
    return Jet(jet.n_x + 1, jet.n_zeta, jet.degree, coeffs,
               jet.base_x + (0.0,), jet.base_zeta, jet.lossy)


def time_augment(L: VectorFieldJet) -> VectorFieldJet:
    """Turn d/dt + sum a_i(x, t, zeta) d/dx_i + ... into a time-independent
    field on one more x variable: the time slot becomes x_{n_x}, picking up
    the unit coefficient of d/dt.

    For a time-dependent field the slot already exists (last x variable) and
    the result is a reinterpretation; a time-independent field first gets
    the extra slot spliced into every coefficient jet.
    """
    if L.time_dependent:
        a, b, ref = list(L.a), list(L.b), L.ref
    else:
        a = [_extend_with_slot(j) for j in L.a]
        b = [_extend_with_slot(j) for j in L.b]
        ref = _extend_with_slot(L.ref)
    one = jet_constant(1.0, ref.n_x, ref.n_zeta, ref.degree,
                       ref.base_x, ref.base_zeta)
    return VectorFieldJet(a + [one], b, time_dependent=False)


def augment_datum(f: Jet) -> Jet:
    """Embed an initial datum into the augmented variable list."""
    return _extend_with_slot(f)


def restrict_diagonal(series: FormalSeries) -> list:
    """Set the augmented slot equal to t in sum_k u_k(x, s) t^k at s = t.

    Returns the t-coefficients as jets over the original (unaugmented)
    variables: coefficient m collects the s^{m-k} part of every u_k.
    """
    n_x = series.u[0].n_x - 1
    if n_x < 0:
        raise ArityMismatch("series has no augmented slot to restrict")
    base_x = series.u[0].base_x[:-1]
    D = series.u[0].degree
    out = {}
    for k, u in enumerate(series.u):
        for idx, c in u.coeffs.items():
            m = k + idx[n_x]
            ridx = idx[:n_x] + idx[n_x + 1:]
            d = out.setdefault(m, {})
            d[ridx] = d.get(ridx, 0.0) + c
    top = max(out) if out else 0
    jets = []
    for m in range(top + 1):
        coeffs = {i: c for i, c in out.get(m, {}).items() if abs(c) > PRUNE}
        jets.append(Jet(n_x, series.u[0].n_zeta, D, coeffs, base_x,
                        series.u[0].base_zeta))
    return jets
