"""Deterministic verification of the certificate inequalities.

verify_thm1 / verify_thm3 check the Hölder bounds delivered by the two
certificates on a supplied function, pair by pair. proof_trace re-derives the
internal quantities of the chaining argument for one pair (bracketing level
c, start levels tau_s/tau_t, padded distances d_k) from the balls around s
and t, built on every call and kept nowhere, and measures each step
inequality. converse_witness builds the step-function witness showing the
minorizing metric is optimal up to constants. invariant_suite aggregates the
structural invariants of radii, kernels and their compositions.

Margins are reported relative to max(1, |rhs|); a check passes when its
relative margin is at least -1e-9.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .chain import (
    PreconditionError,
    _ball_rows,
    _check_agreement,
    _check_n0,
    averaging_kernel,
    constant_a,
    modulus_pairs,
)
from .minorize import _growth_at_limits, _growth_table, _own_growth
from .mspace import _check_points, _largest, _least, _pair_mask, _triu, radius_table
from .orlicz import luxemburg_norm
from .young import ConvexGauge, pair_series, product_condition, shifted_series

__all__ = [
    "REL_SLACK",
    "TestFunction",
    "Check",
    "VerificationReport",
    "verify_thm1",
    "verify_thm3",
    "ProofTrace",
    "proof_trace",
    "ConverseWitness",
    "converse_witness",
    "invariant_suite",
]

REL_SLACK = 1e-9
_BALL_BLOCK = 2 ** 16  # floats of distance rows, and of quotient rows, gathered at a time for ball averages (512 KB)


@dataclass(frozen=True)
class TestFunction:
    """Function values per point with the derived difference quotients."""

    __test__ = False  # not a pytest collectable despite the name

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).ravel()
        if v.size and not -math.inf < _least(v) <= _largest(v) < math.inf:  # a nan fails both
            raise ValueError("test functions must be finite")
        object.__setattr__(self, "values", v)

    # np.errstate as a decorator sets the error state of each call about 1 µs faster than a with
    # block; the verify path of a small space makes several such calls
    @np.errstate(over="ignore", invalid="ignore")
    def quotients(self, space):
        """|f(u) - f(v)| / d(u, v) with 0/0 = 0 on the diagonal; ValueError for a wrong length or an overflow."""
        return self._divided(space, self._differences(space))

    @np.errstate(over="ignore", invalid="ignore")
    def _pair_differences(self, space):
        """(|f(s) - f(t)| over the pairs of mspace._triu, the quotient matrix) from one |f(u) - f(v)| matrix.

        The pairs are gathered before the matrix is divided in place, so no
        second n x n array is kept.
        """
        out = self._differences(space)
        return out[_pair_mask(space.n)], self._divided(space, out)

    def _differences(self, space):
        """The matrix |f(u) - f(v)|, under the caller's errstate(over="ignore"); an overflow is an inf
        entry, which _divided rejects."""
        f = self.values
        if f.size != space.n:
            raise ValueError(f"test function has the wrong length: {f.size} values on a {space.n}-point space")
        out = f[:, None] - f
        return np.abs(out, out=out)

    @staticmethod
    def _divided(space, out):
        """out divided in place by the distances, with 0/0 = 0 on the diagonal, under the caller's
        errstate(over="ignore", invalid="ignore"); ValueError for a non-finite quotient."""
        # d > 0 off the diagonal, so any overflow is an inf quotient; 0/0 on the diagonal is set to 0
        out /= space.dist
        out.ravel()[::space.n + 1] = 0.0  # out is a new C-contiguous matrix, so ravel is a view
        if not _largest(out) < math.inf:  # the quotients are >= 0, so an inf or a nan shows in the max
            raise ValueError("difference quotients |f(s) - f(t)| / d(s, t) overflow")
        return out


class _PairLocations(Sequence):
    """The "(i,j)" location of each pair of a pair list, formatted on demand."""

    def __init__(self, iu, iv):
        self.iu = iu
        self.iv = iv

    def __len__(self):
        return self.iu.size

    def __getitem__(self, j):
        return f"({self.iu.item(j)},{self.iv.item(j)})"  # Python ints format faster than numpy ones


class _PointLocations(Sequence):
    """The "u=i" location of each point of an index array, formatted on demand."""

    def __init__(self, points):
        self.points = points

    def __len__(self):
        return self.points.size

    def __getitem__(self, j):
        return f"u={self.points.item(j)}"


@np.errstate(invalid="ignore")  # inf - inf and inf / inf are nan; comparisons with nan set no flag
def _rel_margins(lhs, rhs):
    """(rhs - lhs) / max(1, |rhs|) of float arrays; -inf where lhs is +inf or rhs is -inf
    below lhs, else inf where lhs is -inf or rhs infinite."""
    scale = np.abs(rhs)
    out = rhs - lhs
    out /= np.maximum(scale, 1.0, out=scale)  # in place: one temporary less at the size of lhs
    # an infinite or nan lhs or rhs leaves a nan or a -inf entry, except lhs = -inf under a
    # finite rhs, which leaves the +inf it is set to below; so above -inf there is nothing to set
    if not out.size or _least(out) > -math.inf:
        return out
    out[np.isinf(rhs) | (lhs == -np.inf)] = np.inf
    out[(lhs == np.inf) | (rhs == -np.inf) & (lhs > -np.inf)] = -np.inf
    return out


def _as_vector(x):
    """x as a float array of at least one dimension; a float64 array is taken as it is."""
    if isinstance(x, float):  # a Python float or a numpy float64
        return np.array([x])
    x = np.asarray(x, dtype=float)
    return x.reshape(1) if x.ndim == 0 else x


class Check:
    """One named inequality lhs <= rhs, measured at one or more locations.

    lhs and rhs hold one value per location; a single location may be given
    as a string and a single value as a float, for a check of size 1. A
    check is immutable: its attributes cannot be set or deleted, so the
    cached rel_margins cannot go stale.
    """

    def __init__(self, name: str, locations: Sequence[str], lhs, rhs):
        if isinstance(locations, str):
            locations = (locations,)
        lhs = _as_vector(lhs)  # a float64 array is kept as it is
        rhs = _as_vector(rhs)
        if not len(locations) == lhs.size == rhs.size:
            raise ValueError("a check needs one lhs and one rhs value per location")
        # one dict update, not an assignment per attribute, which __setattr__ forbids
        self.__dict__.update(name=name, locations=locations, lhs=lhs, rhs=rhs)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a check is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a check is immutable")

    def __repr__(self):
        return f"Check(name={self.name!r})"

    @property
    def iu(self):
        """First points of a check measured on a pair list."""
        return self.locations.iu

    @functools.cached_property
    def rel_margins(self):
        """The relative margin of each location (see _rel_margins); computed once per check and read-only."""
        out = _rel_margins(self.lhs, self.rhs)
        out.flags.writeable = False
        return out

    @property
    def rel_margin(self):
        """The smallest relative margin; inf for a check with no locations."""
        m = self.rel_margins
        return float(m.min()) if m.size else math.inf

    @property
    def passed(self):
        return self.rel_margin >= -REL_SLACK

    def worst(self):
        """The first location with the smallest relative margin, as a check of size 1."""
        return _worst_row(self.name, self.locations, self.lhs, self.rhs)

    @np.errstate(invalid="ignore")  # inf - inf is nan
    def columns(self):
        """The verify.csv columns: locations, then the arrays lhs, rhs, margin, rel_margin and passed."""
        rel = self.rel_margins
        return self.locations, self.lhs, self.rhs, self.rhs - self.lhs, rel, rel >= -REL_SLACK


def _worst_row(name, locations, lhs, rhs):
    """Check(name, locations, lhs, rhs).worst() for float arrays lhs and rhs,
    without building the check over all locations."""
    j = int(_rel_margins(lhs, rhs).argmin())
    return Check(name, locations[j], float(lhs[j]), float(rhs[j]))


class _CheckList:
    """Verdict and lookup over the checks list of a report, trace or witness."""

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def check(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


@dataclass
class VerificationReport(_CheckList):
    checks: list
    params: dict

    @property
    def pair_checks(self):
        """The checks measured on every point pair."""
        return [c for c in self.checks if isinstance(c.locations, _PairLocations)]

    @property
    def worst_rel_margin(self):
        return min((c.rel_margin for c in self.checks), default=math.inf)

    def failed_names(self):
        return sorted({c.name for c in self.checks if not c.passed})

    def rows(self):
        """(name, location, lhs, rhs, margin, rel_margin, passed) per location of every check."""
        for c in self.checks:
            locations, *values = c.columns()
            yield from zip(repeat(c.name), locations, *(v.tolist() for v in values))


def _as_test_function(f):
    return f if isinstance(f, TestFunction) else TestFunction(f)


def _as_number(x):
    """float(x) for a real number of any type or a 0-d array; nan for a bool, a string or anything else."""
    if isinstance(x, (bool, np.bool_, str, bytes)):
        return math.nan
    if isinstance(x, (int, float, np.number)):  # 0-d: np.ndim would make an array of it first
        return float(x)
    try:
        return float(x) if np.ndim(x) == 0 else math.nan
    except (TypeError, ValueError):
        return math.nan


def verify_thm1(cert, metrics, f, nabla_r=None):
    """Check |f(s)-f(t)| <= K * |f^d|_gauge * tau(s,t) on every pair.

    The gauge norm is the Luxemburg norm of the difference quotients under
    the certificate's pair measure with gauge (psi - 1)+. When nabla_r, a
    positive finite number, is given, psi must satisfy the product condition
    psi(x) psi(y) <= psi(nabla_r x y) for x, y >= 1 (_check_product), and the
    sup-form bound sup psi_+(|df| / (K nabla_r tau)) <= int psi_+(f^d) dnu is
    checked as well. A relaxed variant with constant A*R^(n0+1)*(1+B), the
    bound the chaining argument itself delivers, is reported for diagnosis.
    """
    f = _as_test_function(f)
    if cert.theorem != "T1":
        raise ValueError("expected a ratio-pair (T1) certificate")
    if nabla_r is not None:
        r = _as_number(nabla_r)
        if not 0 < r < math.inf:
            raise ValueError(f"nabla_r must be a positive finite number, not {nabla_r!r}")
        _check_product(cert.psi, r)
    _check_agreement(cert, metrics)
    space = metrics.space
    gauge = ConvexGauge(cert.psi)
    lhs, fd = f._pair_differences(space)
    lux = luxemburg_norm(fd.ravel(), cert.nu.ravel(), gauge)

    pairs = _PairLocations(*_triu(space.n))
    tau = metrics.tau[_pair_mask(space.n)]
    holder = Check("holder_bound", pairs, lhs, cert.K * lux * tau)

    checks = []
    relaxed_K = cert.A * cert.R ** (cert.n0 + 1) * (1.0 + cert.B)
    if lhs.size:
        checks.append(_worst_row("holder_bound_relaxed", pairs, lhs, relaxed_K * lux * tau))

    if nabla_r is not None:
        sup_lhs, rhs_int = _gauge_sup_sides(gauge, fd, cert.nu, lhs, cert.K, nabla_r, tau)
        if sup_lhs == rhs_int == math.inf:
            raise _both_sides_overflow("gauge_sup_bound")
        checks.append(Check("gauge_sup_bound", "sup", sup_lhs, rhs_int))
    checks.append(holder)

    params = {
        "theorem": "T1",
        "K": cert.K,
        "quotient_norm": lux,
        "nabla_r": nabla_r,
        "relaxed_K": relaxed_K,
    }
    return VerificationReport(checks, params)


def _check_product(psi, r):
    """PreconditionError unless psi(x) psi(y) <= psi(r x y) for x, y >= 1, the hypothesis of gauge_sup_bound.

    For a power psi = x^p it holds exactly when r >= 1, and (1, 1) witnesses
    r < 1; other kinds take the sample of young.product_condition.
    """
    if psi.kind == "power":
        ok, witness = r >= 1.0, (1.0, 1.0)
    else:
        ok, witness = product_condition(psi, r, 1.0)
    if not ok:
        raise PreconditionError(
            f"psi does not satisfy the product condition psi(x) psi(y) <= psi(nabla_r x y) for x, y >= 1 "
            f"with nabla_r={r} (first violation at (x, y)={witness})"
        )


def verify_thm3(cert, metrics, f):
    """Check sup phi_+(|df| / modulus(s,t)) <= int phi_+(f^d) dnu pairwise."""
    f = _as_test_function(f)
    if cert.theorem != "T3":
        raise ValueError("expected a radius-weighted (T3) certificate")
    space = cert.space
    gauge = ConvexGauge(cert.phi)
    diff, fd = f._pair_differences(space)
    mod = modulus_pairs(cert, metrics)  # checks that cert and metrics agree; nothing above reads metrics
    lhs, rhs_int = _modulus_sides(gauge, fd, cert.nu, diff, mod)
    if rhs_int == math.inf and (lhs == math.inf).any():
        raise _both_sides_overflow("modulus_bound")
    rhs = np.full(lhs.size, rhs_int)
    params = {"theorem": "T3", "K": cert.K, "C": cert.C, "mass_integral": metrics.total}
    return VerificationReport([Check("modulus_bound", _PairLocations(*_triu(space.n)), lhs, rhs)], params)


# The gauge sides run under errstate(over="ignore"): an overflow is an infinite side, which
# _both_sides_overflow judges.


def _gauge_integral(gauge, fd, nu):
    """int gauge(f^d) dnu of the quotient matrix fd, as a float."""
    terms = gauge.value(fd)
    terms *= nu
    return float(terms.sum())


@np.errstate(over="ignore")
def _gauge_sup_sides(gauge, fd, nu, lhs, K, nabla_r, tau):
    """(sup gauge(lhs / (K nabla_r tau)), int gauge(f^d) dnu): the sides of gauge_sup_bound."""
    rhs_int = _gauge_integral(gauge, fd, nu)
    ratios = _sup_ratios(lhs, K * nabla_r * tau)
    # t -> max(t - 1, 0) is nondecreasing on floats, so the largest gauge value is the shifted
    # largest psi value, bit for bit
    sup_lhs = max(_largest(gauge.base.value(ratios)) - 1.0, 0.0) if ratios.size else 0.0
    return sup_lhs, rhs_int


@np.errstate(divide="ignore", invalid="ignore")
def _sup_ratios(lhs, denom):
    """lhs / denom of the finite pair differences lhs >= 0, with 0/0 = 0.

    tau > 0 off the diagonal, so denom is 0 only where K nabla_r tau
    underflowed. There a positive lhs gives inf, and the nan of 0/0 is made
    0 by fmax. _divided has rejected an infinite lhs, so inf/inf cannot occur
    and fmax meets no other nan. This is the masked np.divide(where=) form
    bit for bit, at a fraction of its cost.
    """
    ratios = lhs / denom
    return np.fmax(ratios, 0.0, out=ratios)


@np.errstate(over="ignore")
def _modulus_sides(gauge, fd, nu, diff, mod):
    """(gauge(diff / mod) per pair, int gauge(f^d) dnu): the sides of modulus_bound; diff is divided in place."""
    rhs_int = _gauge_integral(gauge, fd, nu)
    diff /= mod
    return gauge.value(diff), rhs_int


def _both_sides_overflow(name):
    """The error for a gauge check whose integral side and some lhs value both overflowed to +inf,
    so that it cannot tell; a finite lhs under an infinite integral holds and raises nothing."""
    return OverflowError(f"{name}: both sides overflow a float (the gauge integral of the difference "
                         f"quotients and the gauge of a normalized difference)")


# -- proof traces -------------------------------------------------------------


@dataclass
class ProofTrace(_CheckList):
    s: int
    t: int
    l: int
    distance: float
    a: int
    b: int
    c: int
    tau_s: int
    tau_t: int
    tau: int
    anchor: int
    d_levels: np.ndarray
    checks: list


def _ball_edge(r):
    """The closed-ball edge r + 1e-12 max(1, r) of radii r: a point at a distance at most this is inside."""
    return r + 1e-12 * np.maximum(1.0, r)


def _closed_balls(dist, radii):
    """Masks d(x, .) <= _ball_edge(r(x)) of the rows of dist and radii r(x); a stack of radii gives a stack of masks."""
    return dist <= _ball_edge(radii)[..., None]


def _bracket_index(table, x, d):
    tol = 1e-12 * max(1.0, d)
    for k in range(1, table.kstar + 1):
        if table.radius(k, x) <= d + tol:
            return k
    return table.kstar


def _check_integer(value, name):
    """ValueError, naming the argument, unless value is an int or a numpy integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, not {type(value).__name__}")


def proof_trace(table, metrics, s, t, l, f=None, n=2):
    """Re-derive the chaining quantities for one pair and measure each step.

    Checks reported: start_level_gap (the padded distance at the start level
    is dominated by the previous-level radius inside the defining balls),
    geometric_level_sum, trace_metric_bound, and, when f is given,
    smoothing_difference_bound for the supplied threshold shift n.

    Every step reads only the balls around s and t and the points inside
    them, so a trace builds on each call the extended radii of s and t and
    their (l + 1, 2, n) extended-ball rows, and the smoothing check the
    level-l kernel rows of s and t and the ball rows of the points it
    averages over; nothing is kept on the table. Beyond the quotient matrix
    of f, a trace takes O(l n) memory.
    """
    _check_integer(l, "level l")
    _check_integer(n, "shift n")
    _check_agreement(table, metrics)
    space = table.space
    _check_points(space, (s, t))
    if f is not None:
        f = _as_test_function(f)
        fd = f.quotients(space)
    R = table.R
    if R <= 5:
        raise ValueError("proof traces require R > 5")
    if s == t:
        raise ValueError("need two distinct points")
    d = float(space.dist[s, t])
    D = table.radius(0, s)  # level 0 is pinned to the diameter; space.diameter reads all n^2 distances

    if d >= D * (1.0 - 1e-12):
        a = b = c = 0
    else:
        a = _bracket_index(table, s, d)
        b = _bracket_index(table, t, d)
        c = max(a, b)
    if l <= c:
        raise ValueError("need l > c")

    st = [s, t]  # index 0 is s and 1 is t in ext and balls
    ext = table.extended(l)[:, st]
    balls = _closed_balls(space.dist[st], ext)

    def condition(k, j):
        # union of the level-k extended balls sits strictly inside the
        # previous-level open ball around every point of the ball of st[j]
        if k == 1:
            return True  # level-0 open balls are the whole space by convention
        u_ball = balls[k, j]
        union = balls[k, 0] | balls[k, 1]
        r_prev = table.radius_vector(k - 1)[u_ball]
        return not _largest(space.dist[u_ball][:, union] >= r_prev[:, None])  # both balls hold their center

    # the largest level k <= max(c, 1) at which the condition holds; it holds at level 1
    tau_st = [next(k for k in range(max(c, 1), 0, -1) if condition(k, j)) for j in (0, 1)]
    tau = min(tau_st)
    anchor_j = 1 if tau == tau_st[1] else 0

    pair_ext = ext.tolist()  # the level sums below run on Python floats, with the same roundings
    d_levels = [min(ext_s + ext_t + d, D) for ext_s, ext_t in pair_ext]
    d_tau = d_levels[tau]
    checks = []

    # start_level_gap: d_tau <= r_(tau-1)(u) on the balls that define tau
    us = [balls[tau, j].nonzero()[0] for j in (0, 1) if tau_st[j] == tau]
    us = us[0] if len(us) == 1 else np.concatenate(us)
    checks.append(_worst_row("start_level_gap", _PointLocations(us),
                             np.full(us.size, d_tau), table.radius_vector(tau - 1)[us]))

    lhs_sum = d_tau * R ** tau
    lhs_sum += sum((pair_ext[k][0] + pair_ext[k][1]) * R ** k for k in range(tau, c + 1))
    rhs_sum = (R / (R - 5.0)) * R ** c * (1.5 * d + 2.0 * (pair_ext[c][0] + pair_ext[c][1]))
    checks.append(Check("geometric_level_sum", f"c={c}", lhs_sum, rhs_sum))

    A = constant_a(R)
    lhs_tm = d_tau * R ** tau
    lhs_tm += sum(pair_ext[k][j] * R ** k for j in (0, 1) for k in range(tau, l))
    checks.append(Check("trace_metric_bound", "A*tau", lhs_tm, A * float(metrics.tau[s, t])))

    if f is not None:
        checks.append(_smoothing_difference_check(table, l, f, fd, st, pair_ext, balls, tau, anchor_j, d_tau, n))

    return ProofTrace(
        s=s, t=t, l=l, distance=d, a=a, b=b, c=c,
        tau_s=tau_st[0], tau_t=tau_st[1], tau=tau, anchor=st[anchor_j],
        d_levels=np.array(d_levels), checks=checks,
    )


def _ball_averages(space, fd, radii, thresholds, rows, closed=True):
    """out[i, u]: the mass average of fd[u] over the ball of radius radii[i, u] around u where rows[i, u], else 0.

    The balls are closed with the tolerance of _closed_balls, or open
    (d < r). Quotients below thresholds[i] count as 0, so a ball without one
    at or above it averages to 0. The ball rows of the points of rows are
    built _BALL_BLOCK floats at a time, and each ball with a quotient at or
    above its threshold is summed with np.dot over its own members: a masked
    matrix product would group the terms differently and change the last
    bits.
    """
    out = np.zeros(rows.shape)
    thresholds = np.asarray(thresholds)
    levels, points = rows.nonzero()
    step = max(1, _BALL_BLOCK // space.n)
    for lo in range(0, points.size, step):
        block_i, block_u = levels[lo:lo + step], points[lo:lo + step]
        r = radii[block_i, block_u]
        balls = _closed_balls(space.dist[block_u], r) if closed else space.dist[block_u] < r[:, None]
        block_thr = thresholds[block_i]
        hits = (balls & (fd[block_u] >= block_thr[:, None])).any(axis=1)
        for i, u, ball, thr in zip(block_i[hits], block_u[hits], balls[hits], block_thr[hits]):
            member = np.flatnonzero(ball)
            w = space.mass[member]
            tot = float(w.sum())
            if tot > 0.0:
                vals = fd[u, member]
                out[i, u] = float(np.dot(w, np.where(vals >= thr, vals, 0.0))) / tot
    return out


def _index_order_sums(terms, mask):
    """Per row, terms[mask] added one at a time in index order (masked-out terms add an exact 0)."""
    return np.where(mask, terms, 0.0).cumsum(axis=-1)[..., -1]


def _smoothing_difference_check(table, l, f, fd, st, pair_ext, balls, tau, anchor_j, d_tau, n):
    """The smoothing_difference_bound of a trace; st, pair_ext (ext as lists) and balls as in proof_trace,
    st[anchor_j] the anchor and d_tau the padded distance at level tau.

    A level whose ball-average sum is 0 adds an exact 0 and its weight
    phi(R^(k+1)) is not multiplied in, so a weight that overflows to inf
    makes the bound inf only under a positive sum, never nan. No ball is
    built when every quotient is below the lowest threshold R^(tau+n).
    """
    space = table.space
    R = table.R
    phi = table.phi
    if l >= table.kstar:
        # r_l = 0 and distinct points are at a positive distance, so each level-l kernel row is the
        # unit mass at its centre and the smoothed values are f(s) and f(t), up to the sign of a zero
        lhs = abs(f.values.item(st[0]) - f.values.item(st[1]))
    else:
        smoothed = _ball_rows(space, table.radius_vector(l), centers=st) @ f.values
        lhs = abs(float(smoothed[0] - smoothed[1]))

    total = d_tau * R ** (tau + n)
    total += sum(pair_ext[k][j] * R ** (k + n) for j in (0, 1) for k in range(tau, l))
    if _largest(fd) >= R ** (tau + n):  # else every ball average is 0
        # levels k = tau..l-1: each point u of the level-(k+1) extended balls of s
        # and t adds mass(u) r_k(u) times its ball average, once for s and once for t
        outer = balls[tau + 1:l + 1].swapaxes(0, 1)  # [0] for s, [1] for t
        radii = table.radii[np.minimum(np.arange(tau, l), table.kstar)]
        avg = _ball_averages(space, fd, radii, [R ** (k + n) for k in range(tau, l)], outer[0] | outer[1])
        terms = space.mass * radii * avg
        weight = phi.value(np.array([R ** (k + 1) for k in range(tau, l)]))
        for acc in _index_order_sums(terms, outer):
            for w, a in zip(weight, acc):
                if a:
                    total += w * a
        # the anchor's start ball, each point averaged over its level-(tau-1)
        # open ball; the level-0 open ball is the whole space, radius inf
        anchor = balls[tau, anchor_j][None, :]
        prev = table.radius_vector(tau - 1) if tau > 1 else np.full(space.n, math.inf)
        avg = _ball_averages(space, fd, prev[None, :], [R ** (tau + n)], anchor, closed=False)
        acc = _index_order_sums(space.mass * avg[0], anchor[0])
        if acc:
            total += d_tau * phi.value(R ** (tau + 1)) * acc
    return Check("smoothing_difference_bound", f"n={n}", lhs, float(total))


# -- converse witness ----------------------------------------------------------


@dataclass
class ConverseWitness(_CheckList):
    base_point: int
    l: int
    tail_constant: float
    implied_factor: float
    step_values: np.ndarray
    witness_values: np.ndarray
    growth_ratios: np.ndarray
    checks: list


def _step_value(radii, R, n0, eps, l):
    """The level step function: R^(k-n0) on [r_(k+1), r_k), zero below r_(l+1)."""
    arr = np.atleast_1d(np.asarray(eps, dtype=float))
    above = (arr[:, None] < radii[None, :l + 1]).sum(axis=-1) - 1
    vals = np.where(above >= 0, R ** (above.astype(float) - n0), R ** (-float(n0)))
    vals = np.where(arr < radii[l + 1], 0.0, vals)
    return float(vals[0]) if np.ndim(eps) == 0 else vals


def _step_integral(radii, R, n0, upper, l, transform=None):
    """Exact integral of (transform of) the step function on [0, upper]."""
    total = np.zeros_like(np.asarray(upper, dtype=float))
    for k in range(l + 1):
        level = R ** (k - n0) if transform is None else transform(R ** (k - n0))
        lo, hi = radii[k + 1], radii[k]
        overlap = np.maximum(np.minimum(upper, hi) - lo, 0.0)
        total = total + level * overlap
    return total


def converse_witness(space, phi, psi, R, n0, t, l):
    """Step-function witness anchored at t for the optimality direction.

    Builds h_l from the radius ladder of t, the induced witness function
    f_l(x) = int_0^{d(t,x)} h_l, and measures: the exact shell decomposition
    of int psi(h_l(d(t,u))) dm with its series bound, the Jensen bound on the
    difference quotients of f_l, and the reconstruction inequality
    phi^{-1}(1/m(B(t,eps))) <= R^(n0+1) h(eps) at every breakpoint. Returns
    the tail constant D and the per-point ratio of the growth integral to the
    witness integral (bounded by R^(n0+1)).
    """
    _check_integer(l, "level l")
    _check_n0(n0)
    _check_points(space, t)
    if l < 0:
        raise ValueError("need l >= 0")
    series = pair_series(psi, phi, R, n0)
    if not series.converges:
        raise ValueError("sum_k psi(R^k)/phi(R^(k+n0)) must converge for the witness")
    tail = shifted_series(psi, phi, R, -n0, 0)
    Dconst = tail.total

    table = radius_table(space, phi, R)
    radii = np.array([table.radius(k, t) for k in range(l + 2)])
    dists = space.dist[:, t]
    n = space.n

    h_at = _step_value(radii, R, n0, dists, l)
    psi_h = psi.value(h_at)
    moment = float(np.dot(space.mass, psi_h))

    opened = [1.0] + space.ball_mass(t, radii[1:], closed=False).tolist()  # level 0: the whole space
    shells = 0.0
    for k in range(l + 1):
        shells += psi.value(R ** float(k - n0)) * max(opened[k] - opened[k + 1], 0.0)
    checks = [Check("step_moment_identity", "shells", abs(moment - shells), 0.0)]

    logR = math.log(R)
    bound = sum(
        math.exp(psi.log_value_exp((k - n0) * logR) - phi.log_value_exp(k * logR))
        for k in range(l + 1)
    )
    checks.append(Check("step_moment_bound", f"l={l}", moment, float(bound)))

    witness = _step_integral(radii, R, n0, dists, l)
    psi_integral = _step_integral(radii, R, n0, dists, l, transform=psi.value)
    iu, iv = _triu(n)
    if iu.size:
        pairs = _PairLocations(iu, iv)
        quot = np.abs(witness[iu] - witness[iv]) / space.dist[_pair_mask(n)]
        gap = np.abs(dists[iu] - dists[iv])
        avg = np.zeros(iu.size)
        np.divide(np.abs(psi_integral[iu] - psi_integral[iv]), gap, out=avg, where=gap > 0)
        checks.append(_worst_row("difference_jensen", pairs, psi.value(quot), avg))
        checks.append(_worst_row("step_average_bound", pairs, avg, psi_h[iu] + psi_h[iv]))

    # reconstruction against the full ladder (levels beyond l add no zeros)
    full_radii = np.array([table.radius(k, t) for k in range(table.kstar + 2)])
    breakpoints = np.unique(dists)
    closed_mass = space.ball_mass(t, breakpoints)
    factor = R ** (n0 + 1)
    checks.append(_worst_row(
        "inverse_reconstruction", [f"eps={eps:.6g}" for eps in breakpoints.tolist()],
        phi.inverse(1.0 / closed_mass), factor * _step_value(full_radii, R, n0, breakpoints, table.kstar),
    ))

    ratios = np.zeros(n)
    away = dists > 0
    cumint = _growth_table(space, phi, [t])[2]
    growth = _own_growth(space, [t], cumint, np.empty((1, n)))[0, away]
    w = _step_integral(full_radii, R, n0, dists[away], table.kstar)
    ratios[away] = np.divide(growth, w, out=np.full(w.size, math.inf), where=w > 0)

    return ConverseWitness(
        base_point=t,
        l=l,
        tail_constant=Dconst,
        implied_factor=(1.0 + 2.0 * Dconst) * factor,
        step_values=h_at,
        witness_values=witness,
        growth_ratios=ratios,
        checks=checks,
    )


# -- structural invariant suite -------------------------------------------------


def _phi_at_level(phi, k, logR):
    """phi(R^k); an OverflowError names it when it exceeds the largest float."""
    try:
        value = math.exp(phi.log_value_exp(k * logR))
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise OverflowError(f"phi(R^k) overflows a float at level k = {k}")
    return value


def _nesting_margins(dist, table, ext, k, pairs):
    """The ball_nesting margin and ball_nesting_support count at level k < l; pairs is the level-(k+1) ball mask."""
    r_k = table.radius_vector(k)
    mid = r_k + ext[k + 1]
    inner = r_k[None, :] - mid[:, None] - (REL_SLACK * np.maximum(1.0, np.abs(mid)))[:, None]
    outer = mid - ext[k] - REL_SLACK * np.maximum(1.0, np.abs(ext[k]))
    worst = max(float(inner[pairs].max()), float(outer.max()))
    # #{w : ext_k(x) < d(u, w) <= r_k(u)} is the count of u's ball less the
    # count of d(u, .) <= ext_k(x), clipped at 0; it is largest at the
    # least ext_k(x) over the x paired with u
    near = np.where(pairs, _ball_edge(ext[k])[:, None], np.inf).min(axis=0)
    below = (dist <= near[:, None]).sum(axis=1)
    return worst, int((_closed_balls(dist, r_k).sum(axis=1) - below).max())


def invariant_suite(space, phi, psi, R, n0):
    """Measure the structural invariants of one configuration.

    Covers: monotone and 1-Lipschitz radii, the ball-mass sandwich
    1/m(B_k) <= phi(R^k) <= 1/m(open B_k), the two radius-series integral
    bounds, ball nesting, composed-kernel support and stochasticity, the
    kernel averaging bound, and the averaging-operator identities. The
    random test functions come from default_rng(0).

    The level checks are one walk from l = kstar + 1 down to 0 that builds
    each kernel once and carries only the composed kernel and one ball mask.
    """
    _check_n0(n0)
    table = radius_table(space, phi, R)
    kstar = table.kstar
    l = kstar + 1
    n = space.n
    dist = space.dist
    mass = space.mass
    checks = []

    radii = table.radii
    checks.append(Check("radii_monotone", "all k", float((radii[1:] - radii[:-1]).max(initial=-np.inf)), 0.0))
    lip = max(float((np.abs(radii[k][:, None] - radii[k][None, :]) - dist).max()) for k in range(kstar + 1))
    checks.append(Check("radii_lipschitz", "all k", lip, 0.0))

    worst_lo = -math.inf
    worst_hi = -math.inf
    logR = math.log(R)
    pk = [_phi_at_level(phi, k, logR) for k in range(l + 1)]
    points = np.arange(n)
    for k in range(kstar + 1):
        if k == 0:
            closed = opened = np.float64(1.0)
        else:
            closed = space.ball_mass(points, radii[k], closed=True)
            opened = space.ball_mass(points, radii[k], closed=False)
        worst_lo = max(worst_lo, float((1.0 - pk[k] * closed).max()))
        worst_hi = max(worst_hi, float((pk[k] * opened - 1.0).max()))
    checks.append(Check("ball_mass_lower", "all x,k", worst_lo, 0.0))
    checks.append(Check("ball_mass_upper", "all x,k", worst_hi, 0.0))

    # radii are distances, so no clamp to the diameter is needed
    growth = _growth_at_limits(space, phi, radii)
    worst = _worst_series_margin([radii[k] * R ** k for k in range(kstar + 1)], (R / (R - 1.0)) * growth)
    checks.append(Check("radius_series_integral", "all x,c", worst, 0.0))

    if R > 2:
        ll = kstar + 2
        scale = R ** 2 / ((R - 1.0) * (R - 2.0))
        ext = table.extended(ll)
        worst = _worst_series_margin([ext[k] * R ** k for k in range(ll)],
                                     [scale * growth[min(c, kstar)] for c in range(ll)])
        checks.append(Check("extended_series_integral", "all x,c", worst, 0.0))

    ext = table.extended(l)
    rng = np.random.default_rng(0)
    fs = [rng.standard_normal(n) for _ in range(3)]
    g = fs[0] + np.abs(rng.standard_normal(n))
    ones = np.ones(n)
    abs_fs = [np.abs(fvals) for fvals in fs]
    weighted = [(mass * a)[None, :] for a in abs_fs]  # mass * |f| as a row, the same for every level
    nesting = stochastic = worst_support = worst_rowsum = worst_avg = unit_dev = mono = -math.inf
    support_bad = 0
    comp = None
    for k in range(l, -1, -1):
        inball = _closed_balls(dist, ext[k])
        kernel = averaging_kernel(table, k)
        stochastic = max(stochastic, float(np.abs(kernel.sum(axis=1) - 1.0).max()))
        unit_dev = max(unit_dev, float(np.abs(kernel @ ones - 1.0).max()))
        mono = max(mono, float((kernel @ fs[0] - kernel @ g).max()))
        if k == kstar:
            settle = float(np.abs(kernel @ fs[0] - fs[0]).max())
        # the composed kernel P_l ... P_k, one factor more per level
        comp = kernel if comp is None else comp @ kernel
        del kernel  # one n x n float less during the support and average checks below
        worst_support = max(worst_support, float(np.abs(comp[~inball]).max(initial=0.0)))
        worst_rowsum = max(worst_rowsum, float(np.abs(comp.sum(axis=1) - 1.0).max()))
        for a, w in zip(abs_fs, weighted):
            lhs_vec = comp @ a
            rhs_vec = pk[k] * (inball * w).sum(axis=1)
            worst_avg = max(worst_avg, float((lhs_vec - rhs_vec - REL_SLACK * np.maximum(1.0, rhs_vec)).max()))
        if k < l:
            worst, bad = _nesting_margins(dist, table, ext, k, pairs)
            nesting = max(nesting, worst)
            support_bad = max(support_bad, bad)
        pairs = inball
    checks.append(Check("ball_nesting", "all x,u,k", nesting, 0.0))
    checks.append(Check("ball_nesting_support", "all x,u,k", float(support_bad), 0.0))
    checks.append(Check("kernel_stochastic", "all k", stochastic, 0.0))
    checks.append(Check("kernel_support", "composed", max(worst_support, worst_rowsum), 0.0))
    checks.append(Check("kernel_average_bound", "composed", worst_avg, 0.0))
    checks.append(Check("operator_unit", "all k", unit_dev, 0.0))
    checks.append(Check("operator_monotone", "f<=g", mono, 0.0))
    checks.append(Check("operator_settles", "k=kstar", settle, 0.0))

    params = {"R": R, "n0": n0, "kstar": kstar, "phi": phi.spec(), "psi": psi.spec() if psi else None}
    return VerificationReport(checks, params)


def _worst_series_margin(terms, rhs):
    """Largest lhs - rhs[c] - slack over c and points, lhs = sum of terms[k] for k >= c in ascending k."""
    worst = -math.inf
    for c in range(len(terms)):
        lhs = terms[c]
        for k in range(c + 1, len(terms)):
            lhs = lhs + terms[k]
        worst = max(worst, float((lhs - rhs[c] - REL_SLACK * np.maximum(1.0, np.abs(rhs[c]))).max()))
    return worst
