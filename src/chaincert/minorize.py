"""Minorizing metric and majorizing integral, evaluated exactly.

The growth integral int_0^u phi^{-1}(1/m(B(x, eps))) d(eps) has a piecewise
constant integrand: closed-ball mass is a right-continuous step function of
the radius that jumps exactly at the sorted distances from x. Integrals are
therefore computed as finite sums over those breakpoints.

All growth integrals come from one growth table over rows of the space's
sorted distances (``_sorted_d``) and their cumulative masses
(``_cum_mass``). For point x and sorted position j it holds

- ``vals[j] = phi^{-1}(1 / _cum_mass[x, j])``; at the last position of a
  group of tied distances this is the integrand from that distance up to
  the next one;
- ``cumint[j]``, the integral up to ``sorted[j]``: 0 at j = 0, then the
  running sum of ``vals[j] * (sorted[j + 1] - sorted[j])``.

Within a tie group the widths are 0, and their products are set to exact 0
by a mask rather than multiplied (``vals`` is inf there while the ball has
no mass yet, and inf * 0 is nan), so ``cumint`` is constant on the group and
its partial sums are those of the distinct breakpoints. At any u the
integral is ``cumint[j] + vals[j] * (u - sorted[j])``, with j the last
position whose distance is at most u, and the same mask makes a zero-width
last step an exact 0. At a point's own distances no search is needed:
``cumint`` is scattered back to the columns through the space's ``_order``.
A ball with no mass makes the integral +inf. Tables are built for blocks of
about ``_BLOCK`` floats of rows, so their memory does not grow with n².
"""

from __future__ import annotations

import warnings

import numpy as np

from .mspace import _check_points

__all__ = [
    "ball_growth_integral",
    "MinorizingMetrics",
    "majorizing_integral",
]

_BLOCK = 2 ** 14  # floats in one array of a block of growth table rows (128 KB)


def _growth_table(space, phi, rows):
    """(sorted distances, integrand values, prefix integrals) of the points in rows, one row each."""
    sorted_d = space._sorted_d[rows]
    vals = phi.inverse(1.0 / space._cum_mass[rows])
    widths = np.diff(sorted_d, axis=1)
    steps = np.zeros_like(widths)
    np.multiply(vals[:, :-1], widths, out=steps, where=widths > 0)
    cumint = np.zeros_like(vals)
    np.cumsum(steps, axis=1, out=cumint[:, 1:])
    return sorted_d, vals, cumint


def _row_blocks(space, phi):
    """(rows, table) for consecutive blocks of points, rows a slice."""
    n = space.n
    step = max(1, _BLOCK // n)
    for a in range(0, n, step):
        rows = slice(a, min(a + step, n))
        yield rows, _growth_table(space, phi, rows)


def _growth_at(table, u):
    """Growth integral of each table row i up to its limit u[i], within [0, D]."""
    sorted_d, vals, cumint = table
    rows = np.arange(u.size)
    # j = (count of the sorted row <= u) - 1
    j = np.count_nonzero(sorted_d <= u[:, None], axis=1) - 1
    j = np.clip(j, 0, sorted_d.shape[1] - 1)
    width = u - sorted_d[rows, j]
    step = np.zeros_like(width)
    np.multiply(vals[rows, j], width, out=step, where=width > 0)
    return cumint[rows, j] + step


def _growth_at_limits(space, phi, limits):
    """growth[c, x]: the growth integral of x up to limits[c, x]; each block's table serves every row of limits."""
    growth = np.empty_like(limits)
    for rows, table in _row_blocks(space, phi):
        for c in range(limits.shape[0]):
            growth[c, rows] = _growth_at(table, limits[c, rows])
    return growth


def _own_growth(space, rows, cumint, out):
    """Fill out[i, y] with the growth integral of point rows[i] up to d(rows[i], y).

    At its own distances a row's integral is cumint, constant on tie groups,
    so it is scattered back to the columns with no search.
    """
    np.put_along_axis(out, space._order[rows], cumint, axis=1)
    return out


def _mass_weighted(space, full):
    """sum of m(x) * full[x]; full is set to 0 in place at zero-mass atoms, whose
    weight is 0 even where their integral is +inf (0 * inf would be nan)."""
    full[space.mass == 0] = 0.0
    return float(np.dot(space.mass, full))


def ball_growth_integral(space, phi, x, upper):
    """int_0^upper phi^{-1}(1/m(B(x, eps))) d(eps), exact breakpoint sum.

    An upper limit beyond the diameter is clamped to it, with a warning.
    """
    _check_points(space, x)
    if np.ndim(x) != 0:
        raise ValueError(f"x must be one point index, not an array of shape {np.shape(x)}")
    if not upper >= 0:
        raise ValueError(f"upper limit must be nonnegative, not {upper}")
    D = space.diameter
    if upper > D + 1e-12:
        warnings.warn(
            f"upper limit {upper} exceeds the diameter {D}; clamped "
            "(the integrand is constant 1 beyond the diameter)",
            stacklevel=2,
        )
    # at u = 0 the one step is the point's own, of width 0, which adds an exact 0
    return float(_growth_at(_growth_table(space, phi, [x]), np.array([min(upper, D)]))[0])


class MinorizingMetrics:
    """Pairwise minorizing metric matrix and the mass-averaged growth integral."""

    def __init__(self, space, phi):
        self.space = space
        self.phi = phi
        n = space.n
        D = space.diameter
        rows = np.empty((n, n))
        full = np.empty(n)
        for blk, table in _row_blocks(space, phi):
            _, vals, cumint = table
            _own_growth(space, blk, cumint, rows[blk])
            full[blk] = _growth_at(table, np.full(len(vals), D))
        self.tau = np.maximum(rows, rows.T)  # the diagonal is cumint[:, 0] = 0
        self.tau.flags.writeable = False
        self.total = _mass_weighted(space, full)

    @property
    def n(self):
        return self.space.n


def majorizing_integral(space, phi):
    """Mass-weighted mean of the full growth integrals up to the diameter.

    The table is built one block of rows at a time, so memory beyond the
    block stays O(n).
    """
    return _mass_weighted(space, _growth_at_limits(space, phi, np.full((1, space.n), space.diameter))[0])
