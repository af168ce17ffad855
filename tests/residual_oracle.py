"""Per-n residual of a truncated formal series: the oracle for the residual
table of carleman.jets.residual_check.

The toolkit's first residual, kept as plain functions.  A truncation
T^n u = sum_{k<=n} u_k t^k is a list of jets, the t^k coefficient at index
k, and the field is applied to it degree by degree in t, so every n applies
L to every u_k afresh.
"""

from __future__ import annotations

from carleman.jets import FormalSeries, VectorFieldJet, apply_coeffs, \
    jet_add, jet_scale


def truncate(series: FormalSeries, n: int) -> list:
    if n > series.n_max:
        raise ValueError(f"n={n} exceeds computed n_max={series.n_max}")
    return list(series.u[:n + 1])


def apply_field(L: VectorFieldJet, p: list) -> list:
    """Exact d/dt p + (coefficient part) p, degree by degree in t."""
    out = [apply_coeffs(L, c) for c in p]
    return [jet_add(q, jet_scale(c, k + 1)) for k, (q, c)
            in enumerate(zip(out, p[1:]))] + out[-1:]
