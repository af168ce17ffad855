"""Reference functions, solutions, grids, and closed forms used by the
commands, the tests and the acceptance battery.

Everything here is deterministic; grids are built on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fbi import GRID_N, GridFunction
from .jets import Jet, jet_scale, jet_variable


def smooth_step(s):
    """C-infinity cutoff in one scalar: 1 for s <= 1/2, 0 for s >= 1 and
    for NaN, strictly decreasing between.

    Between, it is a / (a + b) with a = e^{-1/(1-s)} and b = e^{-1/(s-1/2)};
    a and b cannot underflow together there, since (1-s) + (s-1/2) = 1/2."""
    s = np.asarray(s, dtype=float)
    out = np.where(s <= 0.5, 1.0, 0.0)
    band = (s > 0.5) & (s < 1.0)
    a = s[band]
    b = a - 0.5
    np.subtract(1.0, a, out=a)
    with np.errstate(under="ignore"):
        for t in (a, b):
            np.divide(-1.0, t, out=t)
            np.exp(t, out=t)
    b += a
    out[band] = np.divide(a, b, out=a)
    return out


def radial_cutoff(*coords, radius: float = 1.0):
    """smooth_step of |y|/radius; 1 inside radius/2, 0 outside radius."""
    r = np.asarray(sum(np.square(np.asarray(c, dtype=float)) for c in coords))
    np.sqrt(r, out=r)
    r /= radius
    return smooth_step(r)


# ---------------------------------------------------------------------------
# one-dimensional profiles with closed-form transforms

# the profiles' default samples and box half-width
PROFILE_N = 2048
PROFILE_HALF_WIDTH = 8.0


def gaussian_grid(n: int = PROFILE_N,
                  half_width: float = PROFILE_HALF_WIDTH) -> GridFunction:
    def fn(y):
        with np.errstate(over="ignore"):        # y^2 = inf: e^{-y^2} = 0
            return np.exp(-y * y)
    return GridFunction.from_function(fn, [-half_width], [half_width], n)


def gaussian_fbi_closed_form(x: float, xi: float) -> complex:
    """F[e^{-y^2}](x, xi) = sqrt(pi/(1+lam)) exp((2x+i xi)^2/(4(1+lam)) - x^2).

    Substituting v = x - y turns the exponent into
    -(1+lam) v^2 + v (2x + i xi) - x^2 and the Gaussian integral closes.
    """
    lam = abs(xi)
    w = 2.0 * x + 1j * xi
    return (np.sqrt(np.pi / (1.0 + lam))
            * np.exp(w * w / (4.0 * (1.0 + lam)) - x * x))


def sign_grid(n: int = PROFILE_N,
              half_width: float = PROFILE_HALF_WIDTH) -> GridFunction:
    return GridFunction.from_function(np.sign, [-half_width], [half_width], n)


def sign_fbi_closed_form(xi: float) -> complex:
    """F[sign](0, xi) = -2i dawsn(xi / (2 sqrt(lam))) / sqrt(lam)."""
    from scipy.special import dawsn     # only criterion 6 and tests need it
    lam = abs(xi)
    return -2j * dawsn(xi / (2.0 * np.sqrt(lam))) / np.sqrt(lam)


def pole_grid(n: int = PROFILE_N, half_width: float = PROFILE_HALF_WIDTH,
              offset: float = 0.05) -> GridFunction:
    """Boundary value of 1/(y + i offset): holomorphic in the lower half
    plane, singular at y = 0 from above.  At offset 0 a sample on y = 0 is
    not finite, and scans reject the grid."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return GridFunction.from_function(lambda y: 1.0 / (y + 1j * offset),
                                          [-half_width], [half_width], n)


# ---------------------------------------------------------------------------
# two-dimensional scan fixtures: solutions of du/dt = f(x, u, du/dx)

@dataclass(frozen=True, eq=False)
class WaveSolution:
    """u(x, t), pointwise and broadcasting, solving du/dt = f(x, u, du/dx)
    with f the jet rhs in (x, zeta_0 = u, zeta_1 = du/dx)."""
    rhs: Jet
    u: object


def _speed(c) -> Jet:
    """f = c zeta_1, the transport du/dt = c du/dx."""
    return jet_scale(jet_variable(2, 1, 2, 8), c)


WAVE_SOLUTIONS = {
    # C^2 but no better across the diagonal; wave front conormal to it
    "conormal": WaveSolution(_speed(-1.0), lambda x, t: np.abs(x - t) ** 3),
    # entire: empty wave front.  e^{x+it} as e^x e^{it}: on the (rows, 1)
    # x (1, n) blocks of a sparse meshgrid this takes one exponential per
    # row and per column, not per sample.  The bytes are those of
    # np.exp(x + 1j * t): complex exp gives (e^a cos b, e^a sin b), exactly
    # e^a at b = 0 and (cos b, sin b) at a = 0, and (E + 0i)(c + si) rounds
    # to (E c, E s).  The real np.exp(x) is a different kernel that differs
    # in the last bit for some x, so x + 0j keeps the complex one.  The
    # bit identity is held by
    # tests/test_fbi.py::test_holomorphic_product_form_is_bit_identical.
    "holomorphic": WaveSolution(
        _speed(1j), lambda x, t: np.exp(x + 0j) * np.exp(1j * t)),
}


def windowed_grid(u, n: int, base=(0.0, 0.0),
                  radius: float = 1.0) -> GridFunction:
    """u(x, t) radial_cutoff((x, t) - base, radius) on the square of
    half-width radius about base, n points per axis."""
    x0, t0 = float(base[0]), float(base[1])

    def fn(x, t):
        # a new array: u's result may alias the shared meshgrid axes
        return u(x, t) * radial_cutoff(x - x0, t - t0, radius=radius)
    return GridFunction.from_function(fn, np.array([x0, t0]) - radius,
                                      np.array([x0, t0]) + radius, n)


def conormal_grid(n: int = GRID_N) -> GridFunction:
    """The conormal solution |y1 - y2|^3 windowed about the origin: smooth
    off the diagonal, wave front conormal to {y1 = y2}."""
    return windowed_grid(WAVE_SOLUTIONS["conormal"].u, n)


def holomorphic_grid(n: int = GRID_N) -> GridFunction:
    """The holomorphic solution e^{y1 + i y2} windowed about the origin:
    empty wave front over the inner half of the box."""
    return windowed_grid(WAVE_SOLUTIONS["holomorphic"].u, n)


def conormal_covectors() -> np.ndarray:
    """Unit conormals of the diagonal {y1 = y2}."""
    v = np.array([1.0, -1.0]) / np.sqrt(2.0)
    return np.array([v, -v])

