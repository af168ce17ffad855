"""Shipped verification suite: ten numbered checks with pinned tolerances.

Each criterion builds its own fixtures from scratch, measures against the
stated bound, and returns (name, passed, detail).  run_all executes any
subset in order, times each call and returns one AcceptanceResult per
criterion for the report lines and the CLI exit code.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import fixtures
from .dynkin import ApproxSolution, make_kernel, measure_flatness, \
    kernel_apply_poly
from .fbi import decay_classify, fbi_direction_scan, phase_bound_check
from .jets import VectorFieldJet, apply_coeffs, formal_solution, \
    growth_fit, jet_add, jet_constant, jet_eval, jet_max_diff, jet_mul, \
    jet_scale, jet_variable, residual_check
from .pde import RhsModel, chain_identity_check, hamiltonian_lift, \
    renormalize, wf_inclusion_experiment
from .weights import absorption_fit, assoc, bigN, fbi_envelope, \
    make_sequence


@dataclass
class AcceptanceResult:
    number: int
    name: str
    passed: bool
    elapsed: float
    detail: str

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (f"[{self.number:2d}] {tag}  {self.name:<28s} "
                f"{self.elapsed:7.2f} s  {self.detail}")


# ---------------------------------------------------------------------------

def criterion_1() -> tuple:
    """Associated-function plateau, minimizer count, the minimizing-index
    inequality on random triples, and the absorption fit."""
    seq = make_sequence("gevrey", s=2.0, K_max=64)
    r = np.geomspace(1.0, 10.0, 20)
    plateau = bool(np.all(assoc(seq, "h1", r) == 1.0)
                   and np.all(bigN(seq, r) == 0))
    count_04 = int(bigN(seq, 0.4))

    m = np.exp(seq.log_m(np.arange(seq.K_max + 1)))
    rng = np.random.default_rng(42)
    lemma = True
    for _ in range(1000):
        rv = float(np.exp(rng.uniform(np.log(1.0 / 64), 0.0)))
        Nr = int(bigN(seq, rv))
        if Nr == 0:
            continue
        k = int(rng.integers(0, Nr + 1))
        n = int(rng.integers(0, k + 1))
        if not m[k] * rv ** k <= m[n] * rv ** n:
            lemma = False
            break

    big = make_sequence("gevrey", s=2.0, K_max=4096)
    rr = np.geomspace(1e-3, 1.0, 40)
    c_max = 0.0
    absorbed = True
    for n in (1, 2, 3):
        fit = absorption_fit(big, n, rr)
        c_max = max(c_max, fit.C)
        absorbed = absorbed and fit.C <= 2.0 ** 10

    passed = plateau and count_04 == 2 and lemma and absorbed
    detail = (f"plateau={plateau} N(0.4)={count_04} lemma={lemma} "
              f"C_max={c_max:g}")
    return "weight sequence suite", passed, detail


def criterion_2() -> tuple:
    """Disk-kernel averages reproduce monomials t^k."""
    kernel = make_kernel()
    worst = 0.0
    for k in range(9):
        coeffs = [0.0] * k + [1.0]          # z^k; coeffs[j] multiplies z^j
        for t in (0.1, -0.1, 0.01, -0.01):
            val = kernel_apply_poly(kernel, coeffs, t)
            worst = max(worst, abs(val - t ** k) / abs(t) ** k)
    passed = worst <= 1e-8
    return "kernel reproduction", passed, f"max rel err={worst:.3g}"


def criterion_3() -> tuple:
    """Formal solutions match hand Taylor expansions; the residual identity
    holds to machine precision."""
    D, n_max = 14, 12
    x = jet_variable(0, 1, 0, D)
    one = jet_constant(1.0, 1, 0, D)

    # d/dt + d/dx with datum x^2: u(x, t) = (x - t)^2
    trans = formal_solution(VectorFieldJet(a=[one], b=[]), jet_mul(x, x),
                            n_max)
    oracle = {0: jet_mul(x, x), 1: jet_scale(x, -2.0), 2: one}
    worst = 0.0
    for k in range(n_max + 1):
        ref = oracle.get(k, jet_constant(0.0, 1, 0, D))
        worst = max(worst, jet_max_diff(trans.u[k], ref))

    # d/dt + x d/dx with datum x: u(x, t) = x e^{-t}
    dil = formal_solution(VectorFieldJet(a=[x], b=[]), x, n_max)
    for k in range(n_max + 1):
        ref = jet_scale(x, (-1.0) ** k / math.factorial(k))
        worst = max(worst, jet_max_diff(dil.u[k], ref))

    res = 0.0
    for n in range(7):
        res = max(res, residual_check(trans, n), residual_check(dil, n))

    passed = worst <= 1e-12 and res <= 1e-12
    return ("formal solution oracles", passed,
            f"coeff dev={worst:.3g} residual={res:.3g}")


def criterion_4() -> tuple:
    """Flatness of the disk-kernel solution for the dilation field with a
    rational datum, fitted against the class envelope h."""
    D, n_max = 24, 12
    x = jet_variable(0, 1, 0, D)
    # 1/(1+x^2) = sum (-1)^j x^{2j} about x = 0
    datum = jet_constant(0.0, 1, 0, D)
    xpow = jet_constant(1.0, 1, 0, D)
    x2 = jet_mul(x, x)
    for j in range(D // 2 + 1):
        datum = jet_add(datum, jet_scale(xpow, (-1.0) ** j))
        xpow = jet_mul(xpow, x2)
    series = formal_solution(VectorFieldJet(a=[x], b=[]), datum, n_max)
    kernel = make_kernel()
    x_values = np.linspace(-0.5, 0.5, 21)

    passed = True
    parts = []
    for s, kbig in ((2.0, 4096), (1.5, 2 ** 21)):
        seq = make_sequence("gevrey", s=s, K_max=kbig)
        growth = growth_fit(series, make_sequence("gevrey", s=s, K_max=256),
                            [(-0.5, 0.5)])
        sol = ApproxSolution(series, seq, kernel, growth.C_fit)
        # the top sample sits 1% inside delta so the centered time
        # difference of L stays within the validity disk
        t_values = np.geomspace(1e-3, 0.99 * sol.delta, 24)
        fit = measure_flatness(sol, x_values, t_values)
        ok = fit.sup_ratio <= 1.0 and fit.Q <= 2.0 ** 8
        passed = passed and ok
        parts.append(f"s={s}: Q={fit.Q:g} A={fit.A:g} "
                     f"ratio={fit.sup_ratio:.3f}")
    return "extension flatness", passed, "; ".join(parts)


def criterion_5() -> tuple:
    """Gaussian transform quadrature against the closed form."""
    gf = fixtures.gaussian_grid()
    mags = np.linspace(1.0, 40.0, 20)
    vals = fbi_direction_scan(gf, 0.0, [[1.0], [-1.0]], mags)
    ref = fixtures.gaussian_fbi_closed_form(0.0, mags)
    worst = float(np.max(np.abs(vals - ref) / np.abs(ref)))
    passed = worst <= 1e-6
    return "gaussian transform", passed, f"max rel err={worst:.3g}"


def criterion_6() -> tuple:
    """Decay classification: the jump fails in both directions, the
    Gaussian passes, and a planted envelope returns its own constant."""
    seq = make_sequence("gevrey", s=2.0, K_max=64)
    lams = 2.0 ** np.arange(2, 27)

    sign_fail = True
    gauss_pass = True
    for sgn in (1.0, -1.0):
        s_samp = np.abs([fixtures.sign_fbi_closed_form(sgn * l)
                         for l in lams])
        rep = decay_classify(lams, s_samp, seq)
        sign_fail = sign_fail and not rep.passed and not np.isfinite(rep.A_fit)
        with np.errstate(under="ignore"):
            g_samp = np.abs([fixtures.gaussian_fbi_closed_form(0.0, sgn * l)
                             for l in lams])
        rep = decay_classify(lams, g_samp, seq)
        gauss_pass = gauss_pass and rep.passed

    plams = np.geomspace(4.0, 256.0, 16)
    planted = fbi_envelope(seq, 2.0, plams)
    rep = decay_classify(plams, planted, seq)
    recovered = rep.passed and abs(np.log2(rep.A_fit) - 1.0) <= 0.5

    passed = sign_fail and gauss_pass and recovered
    detail = (f"sign_fail={sign_fail} gauss={gauss_pass} "
              f"planted A={rep.A_fit:g}")
    return "decay classification", passed, detail


def criterion_7() -> tuple:
    """Singular directions of the conormal wave land on the characteristic
    covectors of the linearized transport field; a holomorphic solution
    scans clean."""
    seq = make_sequence("gevrey", s=2.0, K_max=64)

    conormal = fixtures.WAVE_SOLUTIONS["conormal"]
    rep = wf_inclusion_experiment(RhsModel(conormal.rhs), conormal.u, seq)

    targets = fixtures.conormal_covectors()          # +-(1,-1)/sqrt(2)
    two = list(rep.scan.singular_indices) == [24, 56]
    near = True
    for j, cov in zip(rep.scan.singular_indices, rep.covectors):
        om = rep.scan.directions[j]
        best = max(float(om @ tgt) for tgt in targets)
        near = near and best >= np.cos(rep.step) - 1e-12
    in_char = bool(len(rep.included) == 2 and rep.included.all())

    holo = fixtures.WAVE_SOLUTIONS["holomorphic"]
    hrep = wf_inclusion_experiment(RhsModel(holo.rhs), holo.u, seq)
    clean = len(hrep.scan.singular_indices) == 0

    passed = two and near and in_char and clean
    detail = (f"singular={list(rep.scan.singular_indices)} "
              f"char dist max={np.max(rep.distances):.3g} clean={clean}")
    return "wavefront inclusion", passed, detail


def criterion_8() -> tuple:
    """Phase concavity cones of the model traces, and agreement of the
    cone direction with the measured decay side of a boundary value."""
    t_values = np.linspace(0.01, 0.2, 25)
    y_values = np.linspace(-0.1, 0.1, 21)

    # the model traces Z(t) = x +- i t at x = 0
    up = phase_bound_check(1j * t_values, t_values, y_values)
    lo = phase_bound_check(-1j * t_values, t_values, y_values)
    cones = (up.omega0[0] == -1.0 and up.C0 >= 0.5
             and up.half_angle >= np.pi / 8.0
             and lo.omega0[0] == 1.0 and lo.C0 >= 0.5
             and lo.half_angle >= np.pi / 8.0)

    pole = fixtures.pole_grid(n=4096)
    f_neg, f_pos = np.abs(fbi_direction_scan(pole, 0.0, [[-1.0], [1.0]],
                                             [64.0])[:, 0])
    decay_side = -1.0 if f_neg < f_pos else 1.0
    match = decay_side == up.omega0[0]

    passed = cones and match
    detail = (f"omega0=({up.omega0[0]:+.0f},{lo.omega0[0]:+.0f}) "
              f"C0=({up.C0:g},{lo.C0:g}) decay side={decay_side:+.0f}")
    return "phase concavity cones", passed, detail


def criterion_9() -> tuple:
    """The transport coefficient recovered from the disk-kernel trace of
    the dilation solution matches a(x) = x."""
    D, n_max = 14, 12
    x = jet_variable(0, 1, 0, D)
    series = formal_solution(VectorFieldJet(a=[x], b=[]), x, n_max)
    seq = make_sequence("gevrey", s=2.0, K_max=2048)
    sol = ApproxSolution(series, seq, make_kernel(), 1.0)

    h = 1e-3
    xs = np.arange(-0.25 - h, 0.25 + 1.5 * h, h)
    z = np.stack([sol.evaluate(xs, tv) for tv in (-h, 0.0, h)], axis=1)
    b = renormalize(z, h, h)
    dev = float(np.max(np.abs(b[:, 0] - xs[1:-1])))
    passed = dev <= 1e-4
    return "trace renormalization", passed, f"max |b - a|={dev:.3g}"


def criterion_10() -> tuple:
    """Chain identity for the lifted field on the transport fixture: the
    finite-difference residual is small, converges at second order, and
    the lifted derivatives take their exact values."""
    z1 = jet_variable(2, 1, 2, 8)
    model = RhsModel(z1)
    H = hamiltonian_lift(model)
    phis = {"z0": jet_variable(1, 1, 2, 8), "z1": z1,
            "x1": jet_variable(0, 1, 2, 8)}
    expect = {"z0": 0.0, "z1": 0.0, "x1": -1.0}

    lifted = True
    for name, phi in phis.items():
        val = complex(jet_eval(apply_coeffs(H, phi), x=0.3, zeta=[0.2, 0.4]))
        lifted = lifted and abs(val - expect[name]) <= 1e-12

    worst = 0.0
    ratios_ok = True
    for phi in phis.values():
        rep = chain_identity_check(model, lambda x, t: np.sin(x + t), phi,
                                   ux_fn=lambda x, t: np.cos(x + t),
                                   anisotropy=0.5)
        worst = max(worst, max(rep.errors))
        if rep.errors[0] > 1e-12:       # affine observables sit at zero
            ratios_ok = ratios_ok and 3.5 < rep.ratios[0] < 4.5

    passed = lifted and worst <= 1e-4 and ratios_ok
    detail = (f"lifted values={lifted} max err={worst:.3g} "
              f"second order={ratios_ok}")
    return "chain identity", passed, detail


# ---------------------------------------------------------------------------

CRITERIA = {1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
            5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
            9: criterion_9, 10: criterion_10}


def run_all(numbers) -> list:
    results = []
    for n in numbers:
        if n not in CRITERIA:
            raise ValueError(f"no criterion {n}; have 1..10")
        t0 = time.perf_counter()
        name, passed, detail = CRITERIA[n]()
        results.append(AcceptanceResult(n, name, passed,
                                        time.perf_counter() - t0, detail))
    return results


def format_results(results) -> str:
    lines = [r.line() for r in results]
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} criteria passed")
    return "\n".join(lines)
