"""The shared windowed-grid builder against the integrands each grid once
built on its own (window_oracle), bit for bit."""

import numpy as np
import pytest

import window_oracle
from carleman.fbi import GridFunction
from carleman.fixtures import (WAVE_SOLUTIONS, conormal_grid,
                               holomorphic_grid, radial_cutoff, windowed_grid)

N = 257


@pytest.mark.parametrize("build, integrand", [
    pytest.param(conormal_grid, window_oracle.conormal, id="conormal"),
    pytest.param(holomorphic_grid, window_oracle.holomorphic,
                 id="holomorphic"),
])
def test_fixture_grid_matches_its_own_integrand(build, integrand):
    got = build(N)
    want = GridFunction.from_function(integrand, [-1.0, -1.0], [1.0, 1.0], N)
    assert got.values.tobytes() == want.values.tobytes()
    assert got.lo.tobytes() == want.lo.tobytes()
    assert got.hi.tobytes() == want.hi.tobytes()


@pytest.mark.parametrize("name", sorted(WAVE_SOLUTIONS))
@pytest.mark.parametrize("base, radius", [((0.0, 0.0), 1.0),
                                          ((0.1, -0.2), 0.75)])
def test_windowed_grid_matches_the_experiments_closure(name, base, radius):
    u = WAVE_SOLUTIONS[name].u
    got = windowed_grid(u, base, radius, N)
    lo, hi = np.array(base) - radius, np.array(base) + radius
    want = GridFunction.from_function(
        window_oracle.windowed(u, base, radius), lo, hi, N)
    assert got.values.tobytes() == want.values.tobytes()
    assert got.lo.tobytes() == want.lo.tobytes()
    assert got.hi.tobytes() == want.hi.tobytes()


def test_solution_returning_an_axis_is_windowed():
    # u(x, t) = x hands back rows of the shared meshgrid axis, which a
    # window multiplied into u's result in place would write into
    x = np.linspace(-1.0, 1.0, N)
    gf = windowed_grid(lambda x, t: x, n=N)
    assert np.array_equal(gf.values[:, N // 2], x * radial_cutoff(x, 0.0))
