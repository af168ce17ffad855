"""The windowed integrands as each grid built its own: the oracles for
carleman.fixtures.windowed_grid.

conormal and holomorphic are the integrands conormal_grid and
holomorphic_grid passed to GridFunction.from_function, each with its own
copy of the solution and the cutoff about the origin written into u's
result in place.  windowed is the closure wf_inclusion_experiment built
about its base point, with the solution passed in.
"""

from __future__ import annotations

import numpy as np

from carleman.fixtures import radial_cutoff


def conormal(y1, y2):
    d = np.abs(y1 - y2)
    np.power(d, 3, out=d)
    d *= radial_cutoff(y1, y2)
    return d


def holomorphic(y1, y2):
    z = y1 + 1j * y2
    np.exp(z, out=z)
    z *= radial_cutoff(y1, y2)
    return z


def windowed(u, base, radius):
    x0, t0 = float(base[0]), float(base[1])

    def windowed(xv, tv):
        cut = radial_cutoff(xv - x0, tv - t0, radius=radius)
        return np.multiply(u(xv, tv), cut, dtype=complex)
    return windowed
