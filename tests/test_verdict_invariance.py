"""Metamorphic checks of the wave-front verdict.

The wave-front set of a solution does not change when u is scaled by a
nonzero constant or when a smooth solution is added, and it is mirrored
under x -> -x when the model's speed is negated too.  So each case below
needs no closed form: under u_t = -u_x at Gevrey 2, K_max 64, base (0, 0)
and the default scan, |x - t|^3 is singular along directions 24 and 56
(conormal to x = t), and every transformed solution must be too.
"""

import numpy as np
import pytest

from carleman.jets import jet_scale, jet_variable
from carleman.pde import RhsModel, wf_inclusion_experiment
from carleman.weights import make_sequence


def transport(c):
    """The model u_t = c u_x."""
    return RhsModel(jet_scale(jet_variable(2, 1, 2, 8), c))


def verdict(model, u):
    """(singular_indices, every singular covector included in Char)."""
    rep = wf_inclusion_experiment(model, u,
                                  make_sequence("gevrey", s=2.0, K_max=64))
    return list(rep.scan.singular_indices), bool(rep.included.all())


def kink(x, t):
    return np.abs(x - t) ** 3


SAME_VERDICT = {
    "kink": kink,
    "times-10": lambda x, t: 10.0 * kink(x, t),
    "times-0.01": lambda x, t: 0.01 * kink(x, t),
    "times-i": lambda x, t: 1j * kink(x, t),
    "plus-0.1-sin": lambda x, t: kink(x, t) + 0.1 * np.sin(x - t),
    "plus-0.3-sin": lambda x, t: kink(x, t) + 0.3 * np.sin(x - t),
    "plus-0.05-square": lambda x, t: kink(x, t) + 0.05 * (x - t) ** 2,
    "plus-0.1-exp": lambda x, t: kink(x, t) + 0.1 * np.exp(x - t),
}


@pytest.mark.parametrize("u", SAME_VERDICT.values(), ids=SAME_VERDICT.keys())
def test_scaling_and_smooth_solutions_keep_the_verdict(u):
    assert verdict(transport(-1.0), u) == ([24, 56], True)


def test_mirror_image_mirrors_the_verdict():
    # x -> -x with u_t = +u_x: the singular directions are conormal to
    # x = -t
    assert verdict(transport(1.0), lambda x, t: np.abs(x + t) ** 3) == \
        ([8, 40], True)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 5: with a constant offset of 0.3 the scan reports no "
    "singular direction"))
def test_constant_offset_keeps_the_verdict():
    assert verdict(transport(-1.0), lambda x, t: kink(x, t) + 0.3) == \
        ([24, 56], True)
