"""Luxemburg and Amemiya norms over finite measures.

Both norms take a vector of function values, a vector of nonnegative weights
over the same index set, and a gauge (a YoungFunction or ConvexGauge). The
convention 0/0 = 0 applies to every averaged integral.
"""

from __future__ import annotations

import math

import numpy as np

from .mspace import _largest, _least
from .young import ConvexGauge

__all__ = ["luxemburg_norm", "amemiya_norm"]


def _aligned(values, weights):
    w = np.asarray(weights, dtype=float).ravel()
    v = np.abs(np.asarray(values, dtype=float).ravel())
    if v.shape != w.shape:
        raise ValueError(f"values and weights are misaligned: {v.shape} vs {w.shape}")
    if not w.size:
        return v, w
    # a nan or an infinity carries through min and max, and |v| >= 0
    lo, hi = _least(w), _largest(w)
    if not math.isfinite(lo) or not math.isfinite(hi):
        raise ValueError("weights must be finite")
    if lo < 0:
        raise ValueError("weights must be nonnegative")
    if not math.isfinite(_largest(v)):
        raise ValueError("function values must be finite")
    return v, w


def luxemburg_norm(values, weights, gauge):
    """inf{a > 0 : sum_i w_i * gauge(|v_i| / a) <= 1}, 0 when v = 0 a.e.

    Exact on the atoms with w_i > 0 and v_i != 0. With u_i = |v_i| / max|v|
    sorted in descending order and W_k the prefix sums of w:
    - x^p: a = (sum_i w_i |v_i|^p)^(1/p);
    - (x^p - 1)+: for a / max|v| in [u_(k+1), u_k] the active atoms are the
      prefix i <= k, so the integral is S_k (max|v| / a)^p - W_k with S_k the
      prefix sums of w u^p, and a = max|v| (S_k / (1 + W_k))^(1/p) on the
      segment whose integral crosses 1. Since (x^p - 1)+ >= x^p - 1,
      (a / max|v|)^p >= sum_i w_i u_i^p / (1 + sum_i w_i); only the atoms
      with u_i at least half this bound's p-th root are sorted, as the
      others are inactive at a;
    - other gauges: one bracketed root-find of sum_i w_i gauge(u_i t) = 1 in
      log t, t = max|v| / a, to relative width 1e-13. The integral is at most
      gauge(t) sum_i w_i u_i and at least W_k gauge(u_k t), which brackets t
      between gauge^-1(1 / sum_i w_i u_i) and min_k gauge^-1(1 / W_k) / u_k.
    """
    v, w = _aligned(values, weights)
    atoms = np.minimum(w, v) > 0  # w > 0 and v > 0, as both are finite
    v, w = v[atoms], w[atoms]
    if not v.size:
        return 0.0
    vmax = _largest(v)
    shifted = isinstance(gauge, ConvexGauge)
    base = gauge.base if shifted else gauge
    if base.kind == "power":
        up = v / vmax
        up **= base.p
        s = float(np.dot(w, up))
        if not shifted:
            return vmax * s ** (1.0 / base.p)
        # the lower bound on a of the docstring, halved to leave room for its rounding
        keep = (v >= 0.5 * vmax * (s / (1.0 + float(w.sum()))) ** (1.0 / base.p)).nonzero()[0]
        # sorted as the kept values alone, since the order of ties decides the bits of
        # the prefix sums; u^p is carried through, not computed again
        order = keep[(-v[keep]).argsort()]
        w, up = w[order], up[order]
        W = w.cumsum()
        S = (w * up).cumsum()
        at_values = _quotient(S, up)  # less W below: the integral at a = u_k max|v|, nondecreasing in k
        at_values -= W
        k = int(at_values.searchsorted(1.0, side="right"))
        return vmax * (S.item(k - 1) / (1.0 + W.item(k - 1))) ** (1.0 / base.p)

    order = np.argsort(-v)
    u = v[order] / vmax
    w = w[order]
    W = np.cumsum(w)

    def log_integral(s):
        total = _weighted_gauge_sum(w, gauge, u, math.exp(s))
        return math.log(total) if total > 0.0 else -math.inf

    lo = gauge.inverse(1.0 / np.dot(w, u))
    hi = float(np.min(gauge.inverse(1.0 / W) / u))
    return vmax * math.exp(-_root(log_integral, math.log(lo), math.log(hi), 1e-13))


# np.errstate as a decorator sets the error state of each call about 1 µs faster than a with block


@np.errstate(divide="ignore", over="ignore")
def _quotient(S, up):
    """S / up; a zero or subnormal up gives an infinite entry."""
    return S / up


@np.errstate(over="ignore", invalid="ignore")
def _weighted_gauge_sum(w, gauge, u, t):
    """sum_i w_i gauge(u_i t) as a float; an overflow makes it inf."""
    return float(np.dot(w, gauge.value(u * t)))


def _root(g, lo, hi, tol):
    """Zero of the nondecreasing g between lo and hi to width tol.

    False position with the Illinois modification: an end kept twice in a row
    has its value halved, so both ends close in. A bracket that rounding left
    on the wrong side of the zero is widened first, in doubling steps.
    """
    g_lo, g_hi = g(lo), g(hi)
    step = tol
    while g_lo > 0.0:
        hi, g_hi, lo = lo, g_lo, lo - step
        g_lo, step = g(lo), 2.0 * step
    while g_hi < 0.0:
        lo, g_lo, hi = hi, g_hi, hi + step
        g_hi, step = g(hi), 2.0 * step
    kept = 0
    for _ in range(100):
        if hi - lo <= tol:
            break
        if math.isfinite(g_hi - g_lo):
            s = hi - g_hi * (hi - lo) / (g_hi - g_lo)
        else:
            s = 0.5 * (lo + hi)
        # a step under tol/2 from an end that already sits on the zero ends the search
        s = min(max(s, lo + 0.5 * tol), hi - 0.5 * tol)
        g_s = g(s)
        if g_s > 0.0:
            hi, g_hi = s, g_s
            if kept > 0:
                g_lo *= 0.5
            kept = 1
        else:
            lo, g_lo = s, g_s
            if kept < 0:
                g_hi *= 0.5
            kept = -1
    return 0.5 * (lo + hi)


def amemiya_norm(values, weights, phi):
    """inf_{a>0} a * (1 + sum_i w_i * phi(|v_i| / a)).

    For a bare x^p the objective is a + S a^(1-p) with S = sum_i w_i |v_i|^p:
    for p > 1 it is least at a^p = (p - 1) S, with value a p / (p - 1), and
    for p = 1 it decreases to S as a -> 0. Other gauges: the objective is
    convex in a (perspective of a convex function plus a linear term); it is
    minimized by ternary search, to relative width 1e-12, on a bracket
    anchored at the Luxemburg norm and expanded toward 0, where the infimum
    sits for gauges with linear growth.
    """
    v, w = _aligned(values, weights)
    lux = luxemburg_norm(values, weights, phi)
    if lux == 0.0:
        return 0.0
    support = w > 0
    v = v[support]
    w = w[support]
    if not isinstance(phi, ConvexGauge) and phi.kind == "power":
        vmax = float(v.max())
        s = float(np.dot(w, (v / vmax) ** phi.p))  # S / max|v|^p
        if phi.p == 1.0:
            return vmax * s
        return vmax * ((phi.p - 1.0) * s) ** (1.0 / phi.p) * phi.p / (phi.p - 1.0)

    def objective(a):
        with np.errstate(over="ignore", invalid="ignore"):
            return a * (1.0 + float(np.sum(w * phi.value(v / a))))

    lo = lux * 1e-12
    hi = 2.0 * lux * (1.0 + 1e-12)
    best = min(objective(lux), objective(hi))
    for _ in range(240):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        f1, f2 = objective(m1), objective(m2)
        best = min(best, f1, f2)
        if f1 <= f2:
            hi = m2
        else:
            lo = m1
        if hi - lo <= 1e-12 * max(hi, 1e-300):
            break
    return min(best, objective(0.5 * (lo + hi)))
