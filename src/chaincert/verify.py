"""Deterministic verification of the certificate inequalities.

verify_thm1 / verify_thm3 check the Hölder bounds delivered by the two
certificates on a supplied function, pair by pair. proof_trace re-derives the
internal quantities of the chaining argument for one pair (bracketing level
c, start levels tau_s/tau_t, padded distances d_k) and measures each step
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
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .chain import _check_agreement, averaging_kernel, constant_a, modulus_pairs
from .minorize import _growth_at, _growth_table, _own_growth, _row_blocks
from .mspace import _triu, radius_table
from .orlicz import luxemburg_norm
from .young import ConvexGauge, pair_series, shifted_series

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


@dataclass(frozen=True)
class TestFunction:
    """Function values per point with the derived difference quotients."""

    __test__ = False  # not a pytest collectable despite the name

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).ravel()
        if not np.isfinite(v).all():
            raise ValueError("test functions must be finite")
        object.__setattr__(self, "values", v)

    def quotients(self, space):
        """|f(u) - f(v)| / d(u, v) with 0/0 = 0 on the diagonal; ValueError for a wrong length or an overflow."""
        f = self.values
        if f.size != space.n:
            raise ValueError(f"test function has the wrong length: {f.size} values on a {space.n}-point space")
        out = np.zeros(space.dist.shape)
        with np.errstate(over="ignore"):  # d > 0 off the diagonal, so any overflow is an inf quotient, rejected below
            np.divide(np.abs(f[:, None] - f[None, :]), space.dist, out=out, where=space.dist > 0)
        if not np.isfinite(out).all():
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
        return f"({self.iu[j]},{self.iv[j]})"

    def __iter__(self):
        return (f"({i},{j})" for i, j in zip(self.iu.tolist(), self.iv.tolist()))


def _rel_margins(lhs, rhs):
    """(rhs - lhs) / max(1, |rhs|) of float arrays; -inf where lhs is +inf or rhs is -inf
    below lhs, else inf where lhs is -inf or rhs infinite."""
    with np.errstate(invalid="ignore"):
        out = (rhs - lhs) / np.maximum(1.0, np.abs(rhs))
    out[np.isinf(rhs) | (lhs == -np.inf)] = np.inf
    out[(lhs == np.inf) | (rhs == -np.inf) & (lhs > -np.inf)] = -np.inf
    return out


@dataclass(frozen=True, eq=False)
class Check:
    """One named inequality lhs <= rhs, measured at one or more locations.

    lhs and rhs hold one value per location; a single location may be given
    as a string and a single value as a float, for a check of size 1.
    """

    name: str
    locations: Sequence[str] = field(repr=False)
    lhs: np.ndarray = field(repr=False)
    rhs: np.ndarray = field(repr=False)

    def __post_init__(self):
        if isinstance(self.locations, str):
            object.__setattr__(self, "locations", (self.locations,))
        lhs = np.atleast_1d(np.asarray(self.lhs, dtype=float))
        rhs = np.atleast_1d(np.asarray(self.rhs, dtype=float))
        if not len(self.locations) == lhs.size == rhs.size:
            raise ValueError("a check needs one lhs and one rhs value per location")
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

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

    def columns(self):
        """The verify.csv columns: locations, then the arrays lhs, rhs, margin, rel_margin and passed."""
        rel = self.rel_margins
        with np.errstate(invalid="ignore"):  # inf - inf is nan
            margin = self.rhs - self.lhs
        return self.locations, self.lhs, self.rhs, margin, rel, rel >= -REL_SLACK


def _worst_row(name, locations, lhs, rhs):
    """Check(name, locations, lhs, rhs).worst() for float arrays lhs and rhs,
    without building the check over all locations."""
    j = int(_rel_margins(lhs, rhs).argmin())
    return Check(name, locations[j], lhs[[j]], rhs[[j]])


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
    return f if isinstance(f, TestFunction) else TestFunction(np.asarray(f, dtype=float))


def verify_thm1(cert, metrics, f, nabla_r=None):
    """Check |f(s)-f(t)| <= K * |f^d|_gauge * tau(s,t) on every pair.

    The gauge norm is the Luxemburg norm of the difference quotients under
    the certificate's pair measure with gauge (psi - 1)+. When psi satisfies
    the product condition with threshold 1 and multiplier nabla_r, the
    sup-form bound sup psi_+(|df| / (K r tau)) <= int psi_+(f^d) dnu is
    checked as well. A relaxed variant with constant A*R^(n0+1)*(1+B), the
    bound the chaining argument itself delivers, is reported for diagnosis.
    """
    f = _as_test_function(f)
    if cert.theorem != "T1":
        raise ValueError("expected a ratio-pair (T1) certificate")
    _check_agreement(cert, metrics)
    space = metrics.space
    gauge = ConvexGauge(cert.psi)
    fd = f.quotients(space)
    lux = luxemburg_norm(fd.ravel(), cert.nu.ravel(), gauge)

    iu, iv = _triu(space.n)
    pairs = _PairLocations(iu, iv)
    lhs = np.abs(f.values[iu] - f.values[iv])
    tau = metrics.tau[iu, iv]
    holder = Check("holder_bound", pairs, lhs, cert.K * lux * tau)

    checks = []
    relaxed_K = cert.A * cert.R ** (cert.n0 + 1) * (1.0 + cert.B)
    if lhs.size:
        checks.append(_worst_row("holder_bound_relaxed", pairs, lhs, relaxed_K * lux * tau))

    if nabla_r is not None:
        rhs_int = float((cert.nu * gauge.value(fd)).sum())
        denom = cert.K * nabla_r * tau  # tau > 0 off the diagonal, so this is 0 only where the product underflowed
        ratios = np.divide(lhs, denom, out=np.where(lhs > 0, np.inf, 0.0), where=denom > 0)
        sup_lhs = float(gauge.value(ratios).max()) if ratios.size else 0.0
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


def verify_thm3(cert, metrics, f):
    """Check sup phi_+(|df| / modulus(s,t)) <= int phi_+(f^d) dnu pairwise."""
    f = _as_test_function(f)
    if cert.theorem != "T3":
        raise ValueError("expected a radius-weighted (T3) certificate")
    space = cert.space
    gauge = ConvexGauge(cert.phi)
    fd = f.quotients(space)
    rhs_int = float((cert.nu * gauge.value(fd)).sum())

    iu, iv = _triu(space.n)
    mod = modulus_pairs(cert, metrics)  # checks that cert and metrics agree; nothing above reads metrics
    diff = np.abs(f.values[iu] - f.values[iv])
    with np.errstate(over="ignore"):
        lhs = gauge.value(diff / mod)
    rhs = np.full(iu.size, rhs_int)
    params = {"theorem": "T3", "K": cert.K, "C": cert.C, "mass_integral": metrics.total}
    return VerificationReport([Check("modulus_bound", _PairLocations(iu, iv), lhs, rhs)], params)


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


class _Levels:
    """Per-level data of one radius table up to level l, each part built on first use.

    ext[k] is extended_vector(k, l); ext_ball[k], ball[k] and open_ball[k]
    are (n, n) masks whose row x is the closed ball of radius ext_k(x), the
    closed ball of radius r_k(x) and the open ball of radius r_k(x), for
    k = 0..l. Closed balls take the tolerance 1e-12 * max(1, r); the level-0
    open ball is the whole space by convention. kernel is the matrix of
    averaging_kernel(table, l). Memory is O(l n^2) bools.
    """

    def __init__(self, table, l):
        self.table = table
        self.l = l

    @functools.cached_property
    def ext(self):
        return np.vstack([self.table.extended_vector(k, self.l) for k in range(self.l + 1)])

    @functools.cached_property
    def radii(self):
        return np.vstack([self.table.radius_vector(k) for k in range(self.l + 1)])

    @functools.cached_property
    def ext_ball(self):
        return _closed_balls(self.table.space.dist, self.ext)

    @functools.cached_property
    def ball(self):
        return _closed_balls(self.table.space.dist, self.radii)

    @functools.cached_property
    def open_ball(self):
        out = self.table.space.dist[None, :, :] < self.radii[:, :, None]
        out[0] = True
        return out

    @functools.cached_property
    def kernel(self):
        return averaging_kernel(self.table, self.l)


def _levels(table, l):
    """The table's per-level data up to level l, kept on the table for later calls."""
    if l not in table._levels:
        table._levels[l] = _Levels(table, l)
    return table._levels[l]


def _closed_balls(dist, radii):
    """Stacked masks d(x, .) <= r(x) + 1e-12 max(1, r(x)), one per row r of radii."""
    edge = radii + 1e-12 * np.maximum(1.0, radii)
    return dist[None, :, :] <= edge[:, :, None]


def _bracket_index(table, x, d):
    tol = 1e-12 * max(1.0, d)
    for k in range(1, table.kstar + 1):
        if table.radius(k, x) <= d + tol:
            return k
    return table.kstar


def proof_trace(table, metrics, s, t, l, f=None, n=2):
    """Re-derive the chaining quantities for one pair and measure each step.

    Checks reported: start_level_gap (the padded distance at the start level
    is dominated by the previous-level radius inside the defining balls),
    geometric_level_sum, trace_metric_bound, and, when f is given,
    smoothing_difference_bound for the supplied threshold shift n.
    """
    _check_agreement(table, metrics)
    space = table.space
    if f is not None:
        f = _as_test_function(f)
        fd = f.quotients(space)
    R = table.R
    if R <= 5:
        raise ValueError("proof traces require R > 5")
    if s == t:
        raise ValueError("need two distinct points")
    d = float(space.dist[s, t])
    D = space.diameter

    if d >= D * (1.0 - 1e-12):
        a = b = c = 0
    else:
        a = _bracket_index(table, s, d)
        b = _bracket_index(table, t, d)
        c = max(a, b)
    if l <= c:
        raise ValueError("need l > c")

    levels = _levels(table, l)
    ext = levels.ext
    balls = levels.ext_ball

    def condition(k, x):
        # union of the level-k extended balls sits strictly inside the
        # previous-level open ball around every point of the x ball
        if k == 1:
            return True  # level-0 open balls are the whole space by convention
        u_ball = balls[k, x]
        union = balls[k, s] | balls[k, t]
        r_prev = table.radius_vector(k - 1)[u_ball]
        return not (space.dist[np.ix_(u_ball, union)] >= r_prev[:, None]).any()

    cap = max(c, 1)
    tau_by_point = {}
    for x in (s, t):
        satisfied = [k for k in range(1, cap + 1) if condition(k, x)]
        tau_by_point[x] = max(satisfied)
    tau_s, tau_t = tau_by_point[s], tau_by_point[t]
    tau = min(tau_s, tau_t)
    anchor = t if tau == tau_t else s

    d_levels = np.minimum(ext[:, s] + ext[:, t] + d, D)
    checks = []

    # start_level_gap: d_tau <= r_(tau-1)(u) on the balls that define tau
    us = np.concatenate([np.flatnonzero(balls[tau, x]) for x in (s, t) if tau_by_point[x] == tau])
    checks.append(_worst_row("start_level_gap", [f"u={u}" for u in us.tolist()],
                             np.full(us.size, d_levels[tau]), table.radius_vector(tau - 1)[us]))

    lhs_sum = d_levels[tau] * R ** tau
    lhs_sum += sum((ext[k][s] + ext[k][t]) * R ** k for k in range(tau, c + 1))
    rhs_sum = (R / (R - 5.0)) * R ** c * (1.5 * d + 2.0 * (ext[c][s] + ext[c][t]))
    checks.append(Check("geometric_level_sum", f"c={c}", float(lhs_sum), float(rhs_sum)))

    A = constant_a(R)
    lhs_tm = d_levels[tau] * R ** tau
    lhs_tm += sum(ext[k][x] * R ** k for x in (s, t) for k in range(tau, l))
    checks.append(Check("trace_metric_bound", "A*tau", float(lhs_tm), float(A * metrics.tau[s, t])))

    if f is not None:
        checks.append(_smoothing_difference_check(levels, f, fd, s, t, tau, anchor, d_levels, n))

    return ProofTrace(
        s=s, t=t, l=l, distance=d, a=a, b=b, c=c,
        tau_s=tau_s, tau_t=tau_t, tau=tau, anchor=anchor,
        d_levels=d_levels, checks=checks,
    )


def _ball_averages(space, fd, balls, thresholds, rows):
    """out[i, u]: the mass average of fd[u] over the ball balls[i, u] where rows[i, u], else 0.

    Quotients below thresholds[i] count as 0, so a ball without one at or
    above it averages to 0. Each other ball is summed with np.dot over its
    own members: a masked matrix product would group the terms differently
    and change the last bits.
    """
    out = np.zeros(rows.shape)
    hits = rows & (balls & (fd >= np.asarray(thresholds)[:, None, None])).any(axis=2)
    for i, u in zip(*np.nonzero(hits)):
        member = np.flatnonzero(balls[i, u])
        w = space.mass[member]
        tot = float(w.sum())
        if tot > 0.0:
            vals = fd[u, member]
            out[i, u] = float(np.dot(w, np.where(vals >= thresholds[i], vals, 0.0))) / tot
    return out


def _index_order_sums(terms, mask):
    """Per row, terms[mask] added one at a time in index order (masked-out terms add an exact 0)."""
    return np.cumsum(np.where(mask, terms, 0.0), axis=-1)[..., -1]


def _smoothing_difference_check(levels, f, fd, s, t, tau, anchor, d_levels, n):
    table, l, ext = levels.table, levels.l, levels.ext
    space = table.space
    R = table.R
    phi = table.phi
    smoothed = levels.kernel @ f.values
    lhs = abs(float(smoothed[s] - smoothed[t]))

    total = d_levels[tau] * R ** (tau + n)
    total += sum(ext[k][x] * R ** (k + n) for x in (s, t) for k in range(tau, l))
    # levels k = tau..l-1: each point u of the level-(k+1) extended balls of s
    # and t adds mass(u) r_k(u) times its ball average, once for s and once for t
    outer = levels.ext_ball[tau + 1:l + 1]
    avg = _ball_averages(space, fd, levels.ball[tau:l], [R ** (k + n) for k in range(tau, l)],
                         outer[:, s] | outer[:, t])
    terms = space.mass * levels.radii[tau:l] * avg
    acc = {x: _index_order_sums(terms, outer[:, x]) for x in (s, t)}
    weight = [phi.value(R ** (k + 1)) for k in range(tau, l)]
    for x in (s, t):
        for i in range(l - tau):
            total += weight[i] * acc[x][i]
    start = levels.ext_ball[tau, anchor][None, :]
    avg = _ball_averages(space, fd, levels.open_ball[tau - 1:tau], [R ** (tau + n)], start)
    acc = _index_order_sums(space.mass * avg[0], start[0])
    total += d_levels[tau] * phi.value(R ** (tau + 1)) * acc
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
        overlap = np.clip(np.minimum(upper, hi) - lo, 0.0, None)
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
        quot = np.abs(witness[iu] - witness[iv]) / space.dist[iu, iv]
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


def _radius_growth(space, phi, radii):
    """growth[c, x]: the growth integral of x up to r_c(x), per block of points one level at a time.

    A function of its own, so that the last block's table is freed on return
    rather than held through the rest of the suite.
    """
    growth = np.empty_like(radii)
    for rows, table in _row_blocks(space, phi):
        for c in range(radii.shape[0]):
            growth[c, rows] = _growth_at(table, radii[c, rows])
    return growth


def invariant_suite(space, phi, psi, R, n0):
    """Measure the structural invariants of one configuration.

    Covers: monotone and 1-Lipschitz radii, the ball-mass sandwich
    1/m(B_k) <= phi(R^k) <= 1/m(open B_k), the two radius-series integral
    bounds, ball nesting, composed-kernel support and stochasticity, the
    kernel averaging bound, and the averaging-operator identities. The
    random test functions come from default_rng(0).
    """
    table = radius_table(space, phi, R)
    kstar = table.kstar
    l = kstar + 1
    n = space.n
    dist = space.dist
    mass = space.mass
    kernels = [averaging_kernel(table, k) for k in range(l + 1)]
    checks = []

    radii = table.radii
    checks.append(Check("radii_monotone", "all k", float(np.max(np.diff(radii, axis=0), initial=-np.inf)), 0.0))
    lip = max(
        float(np.max(np.abs(radii[k][:, None] - radii[k][None, :]) - dist))
        for k in range(kstar + 1)
    )
    checks.append(Check("radii_lipschitz", "all k", lip, 0.0))

    worst_lo = -math.inf
    worst_hi = -math.inf
    logR = math.log(R)
    for k in range(kstar + 1):
        pk = math.exp(phi.log_value_exp(k * logR))
        if k == 0:
            closed = opened = 1.0
        else:
            closed = space.ball_mass(np.arange(n), radii[k], closed=True)
            opened = space.ball_mass(np.arange(n), radii[k], closed=False)
        worst_lo = max(worst_lo, float(np.max(1.0 - pk * closed)))
        worst_hi = max(worst_hi, float(np.max(pk * opened - 1.0)))
    checks.append(Check("ball_mass_lower", "all x,k", worst_lo, 0.0))
    checks.append(Check("ball_mass_upper", "all x,k", worst_hi, 0.0))

    # radii are distances, so no clamp to the diameter is needed
    growth = _radius_growth(space, phi, radii)
    worst = _worst_series_margin([radii[k] * R ** k for k in range(kstar + 1)], (R / (R - 1.0)) * growth)
    checks.append(Check("radius_series_integral", "all x,c", worst, 0.0))

    if R > 2:
        ll = kstar + 2
        ext = _levels(table, ll).ext
        scale = R ** 2 / ((R - 1.0) * (R - 2.0))
        worst = _worst_series_margin([ext[k] * R ** k for k in range(ll)],
                                     [scale * growth[min(c, kstar)] for c in range(ll)])
        checks.append(Check("extended_series_integral", "all x,c", worst, 0.0))

    levels = _levels(table, l)
    ext = levels.ext
    worst = -math.inf
    support_bad = 0
    for k in range(l):
        # the pairs (x, u) with u in the closed ball of radius ext_(k+1)(x)
        pairs = levels.ext_ball[k + 1]
        r_k = table.radius_vector(k)
        mid = r_k + ext[k + 1]
        inner = r_k[None, :] - mid[:, None] - (REL_SLACK * np.maximum(1.0, np.abs(mid)))[:, None]
        outer = mid - ext[k] - REL_SLACK * np.maximum(1.0, np.abs(ext[k]))
        worst = max(worst, float(inner[pairs].max()), float(outer.max()))
        # #{w : ext_k(x) < d(u, w) <= r_k(u)} is the count of u's ball less the
        # count of d(u, .) <= ext_k(x), clipped at 0; it is largest at the
        # least ext_k(x) over the x paired with u
        edge = ext[k] + 1e-12 * np.maximum(1.0, ext[k])
        near = np.where(pairs, edge[:, None], np.inf).min(axis=0)
        below = np.count_nonzero(dist <= near[:, None], axis=1)
        support_bad = max(support_bad, int((levels.ball[k].sum(axis=1) - below).max()))
    checks.append(Check("ball_nesting", "all x,u,k", worst, 0.0))
    checks.append(Check("ball_nesting_support", "all x,u,k", float(support_bad), 0.0))

    dev = max(float(np.max(np.abs(kernels[k].sum(axis=1) - 1.0))) for k in range(l + 1))
    checks.append(Check("kernel_stochastic", "all k", dev, 0.0))

    worst_support = -math.inf
    worst_rowsum = -math.inf
    rng = np.random.default_rng(0)
    fs = [rng.standard_normal(n) for _ in range(3)]
    worst_avg = -math.inf
    comp = None
    for k in range(l, -1, -1):
        # the composed kernel P_l ... P_k, one factor more per level
        comp = kernels[k] if comp is None else comp @ kernels[k]
        inball = levels.ext_ball[k]
        worst_support = max(worst_support, float(np.abs(comp[~inball]).max(initial=0.0)))
        worst_rowsum = max(worst_rowsum, float(np.max(np.abs(comp.sum(axis=1) - 1.0))))
        pk = math.exp(phi.log_value_exp(k * logR))
        for fvals in fs:
            lhs_vec = comp @ np.abs(fvals)
            rhs_vec = pk * (inball * (mass * np.abs(fvals))[None, :]).sum(axis=1)
            worst_avg = max(worst_avg, float(np.max(lhs_vec - rhs_vec - REL_SLACK * np.maximum(1.0, rhs_vec))))
    checks.append(Check("kernel_support", "composed", max(worst_support, worst_rowsum), 0.0))
    checks.append(Check("kernel_average_bound", "composed", worst_avg, 0.0))

    unit_dev = max(
        float(np.max(np.abs(kernels[k] @ np.ones(n) - 1.0))) for k in range(l + 1)
    )
    checks.append(Check("operator_unit", "all k", unit_dev, 0.0))
    g = fs[0] + np.abs(rng.standard_normal(n))
    mono = max(
        float(np.max(kernels[k] @ fs[0] - kernels[k] @ g)) for k in range(l + 1)
    )
    checks.append(Check("operator_monotone", "f<=g", mono, 0.0))
    settle = float(np.max(np.abs(kernels[min(kstar, l)] @ fs[0] - fs[0])))
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
        worst = max(worst, float(np.max(lhs - rhs[c] - REL_SLACK * np.maximum(1.0, np.abs(rhs[c])))))
    return worst
