"""Per-lambda complex-product direction scan and the pointwise transform:
the oracles for carleman.fbi.fbi_direction_scan.

direction_scan is the toolkit's first scan, kept as a plain function.  For
every lambda it builds the complex phase planes g_d(y_d) e^{i lambda v_d
omega_d} of every direction along each axis and contracts the grid against
them: one complex matrix product per lambda, with no sharing between
directions and no use of a real grid.  fbi_transform is the toolkit's first
transform: one covector at a time, one tensor contraction per axis.  The
sampling guards are the toolkit's own.  gaussian_2d is the closed-form
transform of e^{-|y|^2}, which owes nothing to any quadrature.
"""

from __future__ import annotations

import numpy as np

from carleman.fbi import GridFunction, _check_sampling


def fbi_transform(gf: GridFunction, x, xi) -> complex:
    """Trapezoid discretization of int u(y) e^{i(x-y).xi - |xi|(x-y)^2} dy."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.size != gf.dim:
        raise ValueError(f"xi has {xi.size} components for a {gf.dim}-d grid")
    lam = float(np.linalg.norm(xi))
    x = _check_sampling(gf, x, [lam])
    out = gf.values
    for d in range(gf.dim - 1, -1, -1):
        v = x[d] - gf.axis(d)
        with np.errstate(under="ignore"):
            p = gf.trapezoid_weights(d) * np.exp(1j * v * xi[d] - lam * v * v)
        out = np.tensordot(out, p, axes=([d], [0]))
    return complex(out)


def direction_scan(gf: GridFunction, x, directions, lambdas) -> np.ndarray:
    """F(x, lambda omega); shape (n_directions, n_lambdas)."""
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    lams = np.atleast_1d(np.asarray(lambdas, dtype=float))
    if dirs.shape[1] != gf.dim:
        raise ValueError("direction dimension does not match the grid")
    if gf.dim not in (1, 2):
        raise NotImplementedError("direction scans cover one and two dimensions")
    out = np.empty((dirs.shape[0], lams.size), dtype=complex)
    xx = _check_sampling(gf, np.zeros(gf.dim) + np.asarray(x, dtype=float),
                         lams)
    for li, lam in enumerate(lams):
        planes = []
        for d in range(gf.dim):
            v = xx[d] - gf.axis(d)
            with np.errstate(under="ignore"):
                g = gf.trapezoid_weights(d) * np.exp(-lam * v * v)
                planes.append(g[:, None] *
                              np.exp(1j * lam * np.outer(v, dirs[:, d])))
        if gf.dim == 1:
            out[:, li] = gf.values @ planes[0]
        else:
            m = gf.values @ planes[1]
            out[:, li] = np.einsum("ad,ad->d", planes[0], m)
    return out


def _gaussian_axis(x, eta, lam):
    """G(x, eta, lam) = sqrt(pi/(1+lam)) exp((2x + i eta)^2/(4(1+lam)) - x^2):
    the 1-D transform of e^{-y^2} at frequency eta and kernel width lam."""
    return (np.sqrt(np.pi / (1.0 + lam))
            * np.exp((2.0 * x + 1j * eta) ** 2 / (4.0 * (1.0 + lam)) - x * x))


def gaussian_2d(x, dirs, lams) -> np.ndarray:
    """F(x, lam omega) of e^{-|y|^2} for every direction (rows) and lambda
    (columns).  The kernel e^{i(x-y).xi - |xi||x-y|^2} splits per axis with
    the common width lam = |xi|, so F is the product of G(x_d, lam omega_d,
    lam) over the two axes."""
    return (_gaussian_axis(x[0], lams * dirs[:, :1], lams)
            * _gaussian_axis(x[1], lams * dirs[:, 1:], lams))
