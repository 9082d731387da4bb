"""Finite metric measure spaces, ball-mass queries and critical radius tables.

A space is a point set with a symmetric distance matrix satisfying the
triangle inequality and a probability mass vector. The radius table holds,
for each level k, the smallest closed-ball radius at which the ball mass
reaches 1/phi(R^k); level 0 is pinned to the diameter. Radii vanish from the
stabilization level on when every atom carries positive mass.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

__all__ = [
    "SpaceValidationError",
    "ZeroMassAtomError",
    "MetricMeasureSpace",
    "RadiusTable",
    "radius_table",
    "generate_space",
    "space_to_json",
    "space_from_json",
]

_ATOL = 1e-12
_TRIANGLE_BLOCK = 2 ** 16  # floats of two-hop sums in one block of the triangle check (512 KB)
_TRIANGLE_ROWS = 8  # rows i per block; the block's columns j fill the rest of the budget


class SpaceValidationError(ValueError):
    pass


class ZeroMassAtomError(ValueError):
    pass


class MetricMeasureSpace:
    """Finite point set with distances and probability masses.

    Immutable after construction. Sorted per-point distance lists and their
    cumulative masses are precomputed so ball masses are lookups on them.
    """

    def __init__(self, dist, mass, labels=None, validate=True):
        dist = np.array(dist, dtype=float)
        mass = np.array(mass, dtype=float).ravel()
        if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
            raise SpaceValidationError("distance matrix must be square")
        if dist.shape[0] != mass.size:
            raise SpaceValidationError("distance matrix and mass vector disagree on size")
        labels = list(labels) if labels is not None else [str(i) for i in range(mass.size)]
        if len(labels) != mass.size:
            raise SpaceValidationError(f"{len(labels)} labels for {mass.size} points")
        if validate:
            self._validate(dist, mass)
        self.dist = dist
        self.mass = mass
        self.labels = labels
        self._order = np.argsort(dist, axis=1, kind="stable")
        self._sorted_d = np.take_along_axis(dist, self._order, axis=1)
        self._cum_mass = np.cumsum(mass[self._order], axis=1)

    @staticmethod
    def _validate(dist, mass):
        # NaN compares False everywhere, so it would slip past every check below
        if not np.isfinite(dist).all():
            raise SpaceValidationError("distances must be finite")
        if not np.isfinite(mass).all():
            raise SpaceValidationError("masses must be finite")
        if (dist < 0).any():
            raise SpaceValidationError("distances must be nonnegative")
        if (np.abs(np.diag(dist)) > _ATOL).any():
            raise SpaceValidationError("diagonal of the distance matrix must be zero")
        asym = np.subtract(dist, dist.T)  # the one n x n float temporary, freed before the triangle check
        if (np.abs(asym, out=asym) > _ATOL).any():
            raise SpaceValidationError("distance matrix must be symmetric")
        del asym
        # an off-diagonal zero shows as more zeros in dist than on its diagonal
        if np.count_nonzero(dist == 0) > np.count_nonzero(np.diagonal(dist) == 0):
            raise SpaceValidationError("distinct points must have positive distance (coincident points)")
        if (mass < 0).any():
            raise SpaceValidationError("masses must be nonnegative")
        if abs(mass.sum() - 1.0) > _ATOL:
            raise SpaceValidationError("masses must sum to 1")
        # d(i,j) <= d(i,k) + d(j,k) for all triples, up to float tolerance.
        # A block of 8 rows i and bj columns j >= i holds the two-hop sums
        # d(i,k) + d(j,k) over every pivot k, with k on the contiguous last
        # axis so that the add and the min over k both stream through rows of
        # dist; one (8, bj, n) buffer is reused, and the minima of a row block
        # fill one (8, n) strip that is compared once, so memory stays O(n^2)
        # with no n x n matrix of minima. The sum is symmetric in (i, j)
        # exactly, so one limit serves d(i,j) and d(j,i), and only columns
        # j >= a of row block a are built. The minimum is exact, so the
        # blocking changes no verdict.
        n = mass.size
        bj = min(n, max(1, _TRIANGLE_BLOCK // (_TRIANGLE_ROWS * n)))
        buf = np.empty((_TRIANGLE_ROWS, bj, n))
        strip = np.empty((_TRIANGLE_ROWS, n))
        for a in range(0, n, _TRIANGLE_ROWS):
            rows = dist[a:a + _TRIANGLE_ROWS, None, :]
            r = rows.shape[0]
            for b in range(a, n, bj):
                cols = dist[None, b:b + bj, :]
                sums = buf[:r, :cols.shape[1]]
                np.add(rows, cols, out=sums)
                sums.min(axis=2, out=strip[:r, b:b + bj])
            lim = strip[:r, a:]
            lim += _ATOL
            if (dist[a:a + r, a:] > lim).any() or (dist[a:, a:a + r].T > lim).any():
                raise SpaceValidationError("triangle inequality violated")

    @property
    def n(self):
        return self.mass.size

    @property
    def diameter(self):
        return float(self.dist.max())

    def ball_mass(self, x, eps, closed=True):
        """Mass of the closed (d <= eps) or open (d < eps) ball around point x.

        x and eps may be arrays that broadcast together; two scalars give a float."""
        eps = np.asarray(eps, dtype=float)
        if not (eps >= 0).all():
            raise ValueError("radius must be nonnegative")
        if (np.asarray(x) < 0).any():
            raise ValueError("point index must be nonnegative")
        rows = self._sorted_d[x]  # the ball is the first count entries of each sorted row
        if rows.ndim == 1:  # one row: a binary search per radius, with no (radii, n) mask
            count = np.searchsorted(rows, eps, side="right" if closed else "left")
        else:
            count = np.count_nonzero(rows <= eps[..., None] if closed else rows < eps[..., None], axis=-1)
        out = np.where(count > 0, self._cum_mass[x, count - 1], 0.0)
        return float(out) if out.ndim == 0 else out

    def distances_from(self, x):
        """Sorted distances from x and aligned cumulative masses."""
        return self._sorted_d[x], self._cum_mass[x]


@functools.lru_cache(maxsize=4)
def _triu(n):
    """The pair list np.triu_indices(n, 1), made once per n and read-only."""
    iu, iv = np.triu_indices(n, 1)
    iu.flags.writeable = False
    iv.flags.writeable = False
    return iu, iv


class RadiusTable:
    """Critical radii r_k(x) for levels k = 0..kstar of a (space, phi, R) triple."""

    def __init__(self, space, phi, R, radii, kstar):
        self.space = space
        self.phi = phi
        self.R = float(R)
        self.radii = radii  # (kstar + 1, n)
        self.kstar = int(kstar)
        # l -> the per-level extended radii, ball masks and kernel that the
        # diagnostics in verify read, each built on first use (verify._levels)
        self._levels = {}

    def radius_vector(self, k):
        return self.radii[min(k, self.kstar)]

    def radius(self, k, x):
        return float(self.radii[min(k, self.kstar), x])

    def extended_vector(self, k, l):
        """r^l_k = sum_{i=k}^{l} 2^(i-k) r_i, componentwise over points."""
        if not 0 <= k <= l:
            raise ValueError("need 0 <= k <= l")
        out = np.zeros(self.space.n)
        for i in range(k, l + 1):
            out += (2.0 ** (i - k)) * self.radius_vector(i)
        return out


def radius_table(space, phi, R, allow_zero_mass=False):
    """Build the radius table; rejects zero-mass atoms unless told otherwise.

    With allow_zero_mass the radii stabilize at the distance to the nearest
    positive-mass point instead of at zero; this diagnostic mode is not
    accepted by the certificate constructions.
    """
    if not 1 < R < math.inf:
        raise ValueError("R must be finite and exceed 1")
    mass = space.mass
    positive = mass > 0
    if not positive.all() and not allow_zero_mass:
        raise ZeroMassAtomError("zero-mass atoms are rejected (finite-support policy)")
    min_pos = float(mass[positive].min())
    logR = math.log(R)
    target = -math.log(min_pos)  # need log(phi(R^k)) >= log(1/min_pos)
    kstar = 0
    while phi.log_value_exp(kstar * logR) < target - 1e-15:
        kstar += 1
        if kstar > 100000:
            raise ArithmeticError("radius levels did not stabilize")
    n = space.n
    rows = np.arange(n)
    radii = np.zeros((kstar + 1, n))
    radii[0] = space.diameter
    for k in range(1, kstar + 1):
        lv = phi.log_value_exp(k * logR)
        theta = math.exp(-lv) if lv < 700 else 0.0  # 1/phi(R^k)
        cut = theta * (1.0 - 1e-12)
        # rows of _cum_mass are nondecreasing, so this count is searchsorted(side="left")
        idx = (space._cum_mass < cut).sum(axis=1)
        radii[k] = space._sorted_d[rows, np.minimum(idx, n - 1)]
    return RadiusTable(space, phi, R, radii, kstar)


# -- space constructors ------------------------------------------------------


def generate_space(kind, seed=None, **params):
    """Deterministic space generators.

    grid:   n points evenly spread on [0, 1] with d = scale * |s - t|**gamma,
            gamma in (0, 1], scale > 0
    tree:   balanced binary tree of the given depth with the hop metric
    random: n uniform points in the unit square with the Euclidean metric

    mass is "uniform" (default), "random" (Dirichlet, seeded) or an explicit
    list of weights.
    """
    if kind == "grid":
        return _grid_space(seed=seed, **params)
    if kind == "tree":
        return _tree_space(seed=seed, **params)
    if kind == "random":
        return _random_space(seed=seed, **params)
    raise ValueError(f"unknown space kind {kind!r}")


def _resolve_mass(mass, n, rng):
    if mass is None or mass == "uniform":
        return np.full(n, 1.0 / n)
    if mass == "random":
        return rng.dirichlet(np.ones(n))
    arr = np.asarray(mass, dtype=float)
    if arr.size != n:
        raise ValueError("mass list has the wrong length")
    return arr / arr.sum()


def _grid_space(n, gamma=1.0, scale=1.0, mass=None, seed=None):
    if n < 1:
        raise ValueError("need at least one point")
    if not 0 < gamma <= 1:
        raise ValueError("gamma must lie in (0, 1]; larger exponents break the triangle inequality")
    if scale <= 0:
        raise ValueError("scale must be positive")
    pos = np.linspace(0.0, 1.0, n) if n > 1 else np.zeros(1)
    dist = scale * np.abs(pos[:, None] - pos[None, :]) ** gamma
    rng = np.random.default_rng(seed)
    return MetricMeasureSpace(dist, _resolve_mass(mass, n, rng))


def _tree_hops(i, j):
    # 1-based heap indices; hop distance via the lowest common ancestor
    di, dj = i.bit_length() - 1, j.bit_length() - 1
    hops = 0
    while i != j:
        if di >= dj:
            i >>= 1
            di -= 1
        else:
            j >>= 1
            dj -= 1
        hops += 1
    return hops


def _tree_space(depth, mass=None, seed=None):
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    n = 2 ** (depth + 1) - 1
    dist = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            dist[a, b] = dist[b, a] = _tree_hops(a + 1, b + 1)
    rng = np.random.default_rng(seed)
    labels = [f"v{i + 1}" for i in range(n)]
    return MetricMeasureSpace(dist, _resolve_mass(mass, n, rng), labels=labels)


def _random_space(n, mass=None, seed=None):
    if n < 1:
        raise ValueError("need at least one point")
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    np.fill_diagonal(dist, 0.0)
    dist = 0.5 * (dist + dist.T)
    return MetricMeasureSpace(dist, _resolve_mass(mass, n, rng))


# -- JSON interchange ---------------------------------------------------------


def space_to_json(space):
    return json.dumps(
        {
            "labels": space.labels,
            "dist": [float(v) for v in space.dist.ravel()],
            "mass": [float(v) for v in space.mass],
        },
        sort_keys=True,
    )


def space_from_json(text):
    data = json.loads(text)
    mass = np.asarray(data["mass"], dtype=float)
    n = mass.size
    dist = np.asarray(data["dist"], dtype=float)
    if dist.size != n * n:
        raise SpaceValidationError("dist must hold n*n row-major entries")
    return MetricMeasureSpace(dist.reshape(n, n), mass, labels=data.get("labels"))
