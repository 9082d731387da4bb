"""Finite metric measure spaces, ball-mass queries and critical radius tables.

A space is a point set with a symmetric distance matrix satisfying the
triangle inequality and a probability mass vector. The radius table holds,
for each level k, the smallest closed-ball radius at which the ball mass
reaches 1/phi(R^k); level 0 is pinned to the diameter. Every atom must carry
positive mass, so radii vanish from the stabilization level on.
"""

from __future__ import annotations

import functools
import json
import math
import threading

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
_TRIANGLE_SPLIT = 128  # from this many points on, the triangle check runs as two halves, one in a helper thread


class SpaceValidationError(ValueError):
    pass


class ZeroMassAtomError(ValueError):
    pass


def _triangle_buffers(n, bj):
    """One (8, bj, n) block of two-hop sums and one (8, n) strip of their minima.

    The block starts on a 64-byte cache line: malloc aligns to 16 bytes only,
    and the add into a block that straddles cache lines ran about 25% slower.
    """
    size = _TRIANGLE_ROWS * bj * n
    raw = np.empty(size + 7)
    skip = -raw.ctypes.data % 64 // raw.itemsize
    return raw[skip:skip + size].reshape(_TRIANGLE_ROWS, bj, n), np.empty((_TRIANGLE_ROWS, n))


def _triangle_rows(dist, starts, buf, strip, stop):
    """Check the triangle inequality on the row blocks that begin at starts.

    A block of 8 rows i and bj columns j >= a holds the two-hop sums
    d(i,k) + d(j,k) over every pivot k, with k on the contiguous last axis so
    that the add and the min over k both stream through rows of dist; buf is
    reused, and the minima of a row block fill the strip, which is compared
    once, so memory stays O(n^2) with no n x n matrix of minima. The sum is
    symmetric in (i, j) exactly, so one limit serves d(i,j) and d(j,i), and
    only columns j >= a of row block a are built. On a violation, sets stop
    and returns; returns early once stop is set.
    """
    n = dist.shape[0]
    bj = buf.shape[1]
    for a in starts:
        if stop.is_set():
            return
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
            stop.set()
            return


class MetricMeasureSpace:
    """Finite point set with distances and probability masses.

    Validated, with its diagonal stored as exact 0, and immutable after
    construction: its arrays are read-only. Sorted per-point distance lists
    and their cumulative masses are precomputed so ball masses are lookups on
    them; a point is the unique first entry of its own sorted row.
    """

    def __init__(self, dist, mass, labels=None):
        dist = np.array(dist, dtype=float)
        mass = np.array(mass, dtype=float).ravel()
        if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
            raise SpaceValidationError("distance matrix must be square")
        if dist.shape[0] != mass.size:
            raise SpaceValidationError("distance matrix and mass vector disagree on size")
        labels = list(labels) if labels is not None else [str(i) for i in range(mass.size)]
        if len(labels) != mass.size:
            raise SpaceValidationError(f"{len(labels)} labels for {mass.size} points")
        self._validate(dist, mass)
        np.fill_diagonal(dist, 0.0)  # validation admits diagonal entries within _ATOL of 0
        self.dist = dist
        self.mass = mass
        self.labels = labels
        self._order = np.argsort(dist, axis=1, kind="stable")
        self._sorted_d = np.take_along_axis(dist, self._order, axis=1)
        self._cum_mass = np.cumsum(mass[self._order], axis=1)
        for arr in (self.dist, self.mass, self._order, self._sorted_d, self._cum_mass):
            arr.flags.writeable = False

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
        # d(i,j) <= d(i,k) + d(j,k) for all triples, up to float tolerance;
        # _triangle_rows checks one row block after another. From
        # _TRIANGLE_SPLIT points on, the row blocks are dealt alternately to
        # two halves, since a block's columns j >= a shrink with a; one half
        # runs here and one in a helper thread that is joined before this
        # returns or raises. numpy's add and min release the GIL, so the
        # halves overlap on two cores. A half that finds a violation sets
        # stop, and the other half quits at its next row block. The minimum
        # is exact, so the split changes no verdict.
        n = mass.size
        bj = min(n, max(1, _TRIANGLE_BLOCK // (_TRIANGLE_ROWS * n)))
        starts = range(0, n, _TRIANGLE_ROWS)
        stop = threading.Event()
        if n < _TRIANGLE_SPLIT:
            _triangle_rows(dist, starts, *_triangle_buffers(n, bj), stop)
        else:
            helper_buffers = _triangle_buffers(n, bj)  # allocated here, so a MemoryError is raised here
            finished = threading.Event()

            def helper_half():
                _triangle_rows(dist, starts[1::2], *helper_buffers, stop)
                finished.set()

            helper = threading.Thread(target=helper_half, name="chaincert-triangle")
            helper.start()
            try:
                _triangle_rows(dist, starts[::2], *_triangle_buffers(n, bj), stop)
            except BaseException:
                stop.set()  # the helper quits at its next row block; the exception goes on
                raise
            finally:
                helper.join()
            if not finished.is_set():
                raise RuntimeError("the helper thread of the triangle check failed")
        if stop.is_set():
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


def radius_table(space, phi, R):
    """Build the radius table; zero-mass atoms are rejected."""
    if not 1 < R < math.inf:
        raise ValueError("R must be finite and exceed 1")
    min_pos = float(space.mass.min())
    if not min_pos > 0:
        raise ZeroMassAtomError("zero-mass atoms are rejected (finite-support policy)")
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
