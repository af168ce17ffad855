"""Sparse dict jets: the independent oracle for carleman.jets.

The toolkit's first jet algebra, kept as plain functions on
``{exponent tuple: complex}`` dicts truncated at total degree D.  Every
operation loops over terms and drops those below PRUNE; a product marks
itself lossy when any pair of terms exceeds D.  Base points are zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PRUNE = 1e-30


@dataclass
class DictJet:
    nvars: int
    degree: int
    coeffs: dict
    lossy: bool = False


def _pruned(coeffs: dict) -> dict:
    return {i: c for i, c in coeffs.items() if abs(c) > PRUNE}


def add(a: DictJet, b: DictJet) -> DictJet:
    coeffs = dict(a.coeffs)
    for idx, c in b.coeffs.items():
        coeffs[idx] = coeffs.get(idx, 0.0) + c
    return DictJet(a.nvars, a.degree, _pruned(coeffs), a.lossy or b.lossy)


def scale(a: DictJet, s) -> DictJet:
    s = complex(s)
    return DictJet(a.nvars, a.degree,
                   {i: c * s for i, c in a.coeffs.items() if abs(c * s) > PRUNE},
                   a.lossy)


def mul(a: DictJet, b: DictJet) -> DictJet:
    coeffs = {}
    dropped = False
    for i1, c1 in a.coeffs.items():
        for i2, c2 in b.coeffs.items():
            if sum(i1) + sum(i2) > a.degree:
                dropped = True
                continue
            idx = tuple(p + q for p, q in zip(i1, i2))
            coeffs[idx] = coeffs.get(idx, 0.0) + c1 * c2
    return DictJet(a.nvars, a.degree, _pruned(coeffs),
                   a.lossy or b.lossy or dropped)


def diff(a: DictJet, slot: int) -> DictJet:
    coeffs = {}
    for idx, c in a.coeffs.items():
        p = idx[slot]
        if p:
            nidx = idx[:slot] + (p - 1,) + idx[slot + 1:]
            coeffs[nidx] = coeffs.get(nidx, 0.0) + p * c
    return DictJet(a.nvars, a.degree, _pruned(coeffs), a.lossy)


def evaluate(a: DictJet, point):
    out = 0.0
    for idx, c in a.coeffs.items():
        term = np.asarray(c)
        for v, p in enumerate(idx):
            term = term * np.asarray(point[v], dtype=complex) ** p
        out = out + term
    return out


def apply_coeffs(coefficients: list, p: DictJet) -> DictJet:
    """sum_s c_s dp/dy_s, c_s the coefficient of slot s."""
    acc = DictJet(p.nvars, p.degree, {})
    for s, c in enumerate(coefficients):
        acc = add(acc, mul(c, diff(p, s)))
    return acc


def formal_solution(coefficients: list, f: DictJet, n_max: int) -> list:
    u = [f]
    for k in range(1, n_max + 1):
        u.append(scale(apply_coeffs(coefficients, u[-1]), -1.0 / k))
    return u


def residual(coefficients: list, u: list, n: int) -> float:
    """Max coefficient deviation of L(sum_{k<=n} u_k t^k) from
    -(n+1) u_{n+1} t^n."""
    dev = 0.0
    for k in range(n + 1):
        q = add(apply_coeffs(coefficients, u[k]), scale(u[k + 1], k + 1))
        dev = max(dev, max((abs(c) for c in q.coeffs.values()), default=0.0))
    return dev


def extend_with_slot(a: DictJet, pos: int) -> DictJet:
    return DictJet(a.nvars + 1, a.degree,
                   {i[:pos] + (0,) + i[pos:]: c for i, c in a.coeffs.items()},
                   a.lossy)


def restrict_diagonal(u: list, pos: int) -> list:
    """Coefficients of t^m, m < len(u), in sum_k u_k t^k with slot pos set
    to t."""
    out = [{} for _ in u]
    for k, uk in enumerate(u):
        for idx, c in uk.coeffs.items():
            if k + idx[pos] < len(u):
                d = out[k + idx[pos]]
                ridx = idx[:pos] + idx[pos + 1:]
                d[ridx] = d.get(ridx, 0.0) + c
    return [DictJet(u[0].nvars - 1, u[0].degree, _pruned(d)) for d in out]
