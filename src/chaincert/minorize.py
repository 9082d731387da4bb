"""Minorizing metric and majorizing integral, evaluated exactly.

The growth integral int_0^u phi^{-1}(1/m(B(x, eps))) d(eps) has a piecewise
constant integrand: closed-ball mass is a right-continuous step function of
the radius that jumps exactly at the sorted distances from x. Integrals are
therefore computed as finite sums over those breakpoints.
"""

from __future__ import annotations

import warnings

import numpy as np

__all__ = [
    "ball_growth_integral",
    "MinorizingMetrics",
    "majorizing_integral",
]


class _GrowthProfile:
    """Prefix integrals of eps -> phi^{-1}(1/m(B(x, eps))) for one point."""

    def __init__(self, space, phi, x):
        sorted_d, cum = space.distances_from(x)
        # unique breakpoints with the cumulative mass attained at each
        eps, last_idx = np.unique(sorted_d, return_index=True)
        counts = np.diff(np.append(last_idx, sorted_d.size))
        take = last_idx + counts - 1
        masses = cum[take]
        self.eps = eps
        self.vals = phi.inverse(1.0 / masses)
        widths = np.diff(eps)
        self.cumint = np.concatenate([[0.0], np.cumsum(self.vals[:-1] * widths)])

    def integral(self, u):
        """Exact value of the growth integral on [0, u], u within [0, D]."""
        arr = np.asarray(u, dtype=float)
        j = np.clip(np.searchsorted(self.eps, arr, side="right") - 1, 0, self.eps.size - 1)
        out = self.cumint[j] + self.vals[j] * (arr - self.eps[j])
        return float(out) if np.ndim(u) == 0 else out


def _clamped_upper(space, upper, warn_clamp):
    if upper < 0:
        raise ValueError("upper limit must be nonnegative")
    D = space.diameter
    if upper > D + 1e-12:
        if warn_clamp:
            warnings.warn(
                f"upper limit {upper} exceeds the diameter {D}; clamped "
                "(the integrand is constant 1 beyond the diameter)",
                stacklevel=3,
            )
        return D
    return min(upper, D)


def ball_growth_integral(space, phi, x, upper, warn_clamp=True):
    """int_0^upper phi^{-1}(1/m(B(x, eps))) d(eps), exact breakpoint sum."""
    u = _clamped_upper(space, upper, warn_clamp)
    if u == 0.0:
        return 0.0
    return _GrowthProfile(space, phi, x).integral(u)


class MinorizingMetrics:
    """Pairwise minorizing metric matrix and the mass-averaged growth integral."""

    def __init__(self, space, phi):
        self.space = space
        self.phi = phi
        n = space.n
        profiles = [_GrowthProfile(space, phi, x) for x in range(n)]
        rows = np.vstack([profiles[x].integral(space.dist[x]) for x in range(n)])
        self.tau = np.maximum(rows, rows.T)
        np.fill_diagonal(self.tau, 0.0)
        self.total = _mass_integral(space, profiles)

    @property
    def n(self):
        return self.space.n


def _mass_integral(space, profiles):
    D = space.diameter
    return float(np.dot(space.mass, [p.integral(D) for p in profiles]))


def majorizing_integral(space, phi):
    """Mass-weighted mean of the full growth integrals up to the diameter.

    The profiles are built one at a time, so memory stays O(n).
    """
    return _mass_integral(space, (_GrowthProfile(space, phi, x) for x in range(space.n)))
