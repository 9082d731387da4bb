"""Averaging kernels and explicit chaining certificates.

Two certificates are built. The ratio-pair certificate (tag "T1") weights
closed/open ball averaging kernels by w_k = phi(R^(k+1))/gauge_psi(R^(k+n0+1))
and yields constants (A, B, K) with K = 3*A*B*R^(n0+1). The radius-weighted
certificate (tag "T3") weights the same kernels by r_k(u)*R^(k+1) and yields
(A, B, C, K) with C = 2*A*R^5 and K = A*R/B. Both normalize the kernel sum to
a probability measure on pairs; beyond the stabilization level the bracket
matrix is constant, so only a scalar geometric tail is summed numerically.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .mspace import _pair_mask, _reprs, radius_table
from .young import ConvexGauge, pair_series, ratio_condition

__all__ = [
    "PreconditionError",
    "CertificateError",
    "ChainCertificate",
    "constant_a",
    "constant_b3",
    "averaging_kernel",
    "certificate_thm1",
    "certificate_thm3",
    "modulus_pairs",
    "certificate_to_json",
]


_TAIL_TOL = 1e-12  # the T1 weight tail is summed until the rest is below this share of the sum


class PreconditionError(ValueError):
    """A certificate precondition (growth ratio, series convergence, R range) failed."""


class CertificateError(ValueError):
    """The certificate cannot be built on the given space."""


def constant_a(R):
    """4R^3/((R-1)(R-2)(R-5)) + 3R^2/(2(R-5)); finite only for R > 5."""
    if R <= 5:
        raise ValueError("the trace constant requires R > 5")
    return 4.0 * R ** 3 / ((R - 1.0) * (R - 2.0) * (R - 5.0)) + 3.0 * R ** 2 / (2.0 * (R - 5.0))


def constant_b3(R):
    """3R^4/(R-1)^2, the normalizer bound of the radius-weighted certificate."""
    if R <= 1:
        raise ValueError("R must exceed 1")
    return 3.0 * R ** 4 / (R - 1.0) ** 2


def _ball_rows(space, radii, closed=True, centers=slice(None)):
    """Row i averages over the closed (d <= r(x)) or open (d < r(x)) ball around x = centers[i]; all points by default."""
    dist, radii = space.dist[centers], radii[centers, None]
    ind = dist <= radii if closed else dist < radii
    rowmass = ind @ space.mass
    # dense: a massless ball's row divides by inf, and the 0/1 mask zeroes the points outside the ball.
    # radius_table admits positive masses only, so each kept entry is mass/rowmass and every other one
    # +0, bit for bit the masked np.divide(where=) form, which ran about a third slower
    out = space.mass / np.where(rowmass > 0, rowmass, np.inf)[:, None]
    out *= ind
    return out


def averaging_kernel(table, k):
    """Row-stochastic matrix of the averaging operator over closed balls B(x, r_k(x))."""
    if k < 0:
        raise ValueError("level must be nonnegative")
    return _ball_rows(table.space, table.radius_vector(k))


def _ball_levels(space, table):
    """Yield the mass-weighted pair (closed_k, open_(k-1)) for k = 1..kstar.

    The level-0 open ball is the whole space, so open_0 is the product
    measure. Each matrix is built (and scaled in place) when the walk reaches
    it, so at most one closed and one open level matrix are live at a time.
    Neither is read again once the walk moves on, so the caller may overwrite both.
    """
    open_prev = np.outer(space.mass, space.mass)
    mass = space.mass[:, None]
    for k in range(1, table.kstar + 1):
        closed = _ball_rows(space, table.radius_vector(k))
        closed *= mass
        yield closed, open_prev
        if k < table.kstar:
            open_prev = _ball_rows(space, table.radius_vector(k), closed=False)
            open_prev *= mass


@dataclass(frozen=True)
class ChainCertificate:
    """Probability measure on pairs plus the constants of one construction.

    theorem "T1" stores (A, B, K) with K = 3*A*B*R^(n0+1); theorem "T3"
    stores (A, B, C, K) with C = 2*A*R^5 and K = A*R/B. R is the effective
    ratio after any escalation; escalated_from records the caller's R when
    it was raised to a power exceeding 5. space is the space it was built on,
    held by reference and not serialized.
    """

    theorem: str
    R: float
    n0: int | None
    A: float
    B: float
    K: float
    C: float | None
    nu: np.ndarray = field(repr=False)
    tail_bound: float
    phi: object = field(repr=False)
    space: object = field(repr=False, compare=False)
    psi: object = field(repr=False, default=None)
    escalated_from: float | None = None
    normalizer: float | None = None
    kstar: int = 0


def _effective_ratio(R):
    if not 1 < R < math.inf:
        raise ValueError("R must be finite and exceed 1")
    if R > 5:
        return float(R), None
    power = 1
    Reff = float(R)
    while Reff <= 5:
        power += 1
        Reff = float(R) ** power
        if power > 64:
            raise PreconditionError("could not escalate R above 5")
    return Reff, float(R)


def _log_gauge(psi, log_x_exponent):
    """log(psi(x) - 1) for x = e**log_x_exponent > 1, overflow safe."""
    lv = psi.log_value_exp(log_x_exponent)
    if lv > 36.0:
        return lv  # the -1 correction is below double precision
    return lv + math.log1p(-math.exp(-lv))


def _check_ratio(phi, R):
    chk = ratio_condition(phi, R)
    if not chk.ok:
        raise PreconditionError(
            f"growth ratios of phi are not monotone along the grid R={R} "
            f"(first violation at k={chk.first_violation})"
        )


def _weight_series(phi, psi, logR, n0, kstar, shift=0.0):
    """The T1 kernel weights w_k = phi(R^(k+1))/gauge_psi(R^(k+n0+1)) of levels 1..kstar.

    Returns (weights, weight_sum, tail_weight, tail_bound, scale). The series
    is summed past kstar, into tail_weight, until a geometric bound on the
    rest, tail_bound, is at most _TAIL_TOL of weight_sum. All four are in units
    of scale, which is 1.0 unless every weight underflows. Then the log weights
    are shifted by their maximum, so that the weights still define the pair
    measure, and scale is exp(shift) as a double (0.0 below about -745).
    """
    weights = []
    weight_sum = tail_weight = 0.0
    top = -math.inf
    prev = 0.0
    recent: list[float] = []  # the last eight ratios of consecutive positive weights
    k = 1
    while True:
        lt = phi.log_value_exp((k + 1) * logR) - _log_gauge(psi, (k + n0 + 1) * logR) - shift
        top = max(top, lt)
        wk = math.exp(lt) if lt > -745.0 else 0.0
        weight_sum += wk
        if k <= kstar:
            weights.append(wk)
        else:
            tail_weight += wk
        if prev > 0 and wk > 0:
            recent = recent[-7:] + [wk / prev]
        if k > kstar and (wk == 0.0 or (recent and max(recent) < 1.0)):
            rho = max(recent) if recent else 0.0
            bound = 0.0 if wk == 0.0 else wk * rho / (1.0 - rho)
            if bound <= _TAIL_TOL * max(weight_sum, 1e-300):
                break
        prev = wk
        k += 1
        if k > 200000:
            raise PreconditionError("weight tail could not be certified within the tail tolerance")
    if weight_sum == 0.0 and top > -math.inf:  # the shifted series holds exp(0) = 1
        return _weight_series(phi, psi, logR, n0, kstar, shift=top)[:4] + (math.exp(top),)
    return weights, weight_sum, tail_weight, bound, 1.0


def _check_n0(n0):
    """PreconditionError unless n0 is an integer >= 1; an integral float such as 2.0 counts as one."""
    try:
        valid = int(n0) == n0 and n0 >= 1
    except (TypeError, ValueError, OverflowError):  # int() of nan, inf or a non-number
        valid = False
    if not valid:
        raise PreconditionError(f"n0 must be an integer >= 1, not {n0!r}")


def certificate_thm1(space, phi, psi, R, n0):
    """Certificate with kernel weights phi(R^(k+1))/gauge_psi(R^(k+n0+1)).

    Requires R > 5 (smaller R is escalated to the least power above 5),
    monotone growth ratios for phi at the effective R, and convergence of
    sum_k phi(R^k)/psi(R^(k+n0)). The pair measure nu is exact up to the
    scalar weight tail, which is bounded geometrically by _TAIL_TOL relative
    to the weight sum.
    """
    _check_n0(n0)
    n0 = int(n0)
    Reff, escalated_from = _effective_ratio(R)
    _check_ratio(phi, Reff)
    series = pair_series(phi, psi, Reff, n0)
    if not series.converges:
        raise PreconditionError(
            "sum_k phi(R^k)/psi(R^(k+n0)) does not converge for the requested pair"
        )
    table = radius_table(space, phi, Reff)
    weights, weight_sum, tail_weight, tail_bound, scale = _weight_series(phi, psi, math.log(Reff), n0, table.kstar)

    bracket_sum = np.zeros_like(space.dist)
    level = np.empty_like(space.dist)  # wk * (2 closed + open_prev); closed itself is read again below
    closed = None
    for wk, (closed, open_prev) in zip(weights, _ball_levels(space, table)):
        np.multiply(closed, 2.0, out=level)
        level += open_prev
        level *= wk
        bracket_sum += level
    if closed is None:  # kstar = 0: a single point, whose level-0 ball is the whole space
        closed = space.mass[:, None] * _ball_rows(space, table.radius_vector(0))
    bracket_sum += tail_weight * 2.0 * closed
    total = float(bracket_sum.sum())
    if total <= 0.0:
        raise CertificateError("degenerate space: the pair measure has no mass")
    nu = bracket_sum / total
    nu.flags.writeable = False
    A = constant_a(Reff)
    B1 = 3.0 * weight_sum * scale
    K = 3.0 * A * B1 * Reff ** (n0 + 1)
    return ChainCertificate(
        theorem="T1",
        R=Reff,
        n0=n0,
        A=A,
        B=B1,
        K=K,
        C=None,
        nu=nu,
        tail_bound=3.0 * tail_bound * scale,
        phi=phi,
        space=space,
        psi=psi,
        escalated_from=escalated_from,
        normalizer=total * scale,
        kstar=table.kstar,
    )


def certificate_thm3(space, phi, R):
    """Certificate with kernel weights r_k(u) * R^(k+1).

    The radii vanish from the stabilization level on, so the kernel series
    is a finite exact sum and the recorded tail bound is exactly zero.
    """
    Reff, escalated_from = _effective_ratio(R)
    _check_ratio(phi, Reff)
    table = radius_table(space, phi, Reff)
    kstar = table.kstar

    S = np.zeros_like(space.dist)
    for k, (closed, open_prev) in enumerate(_ball_levels(space, table), start=1):
        # coef * (2 r_k closed + r_(k-1) open_prev), in place on the fresh level arrays, in that order
        closed *= 2.0 * table.radius_vector(k)[:, None]
        open_prev *= table.radius_vector(k - 1)[:, None]
        closed += open_prev
        closed *= Reff ** (k + 1)
        S += closed
    total = float(S.sum())
    if total <= 0.0:
        raise CertificateError(
            "degenerate space: every radius vanishes, no pair measure exists "
            "(single-point spaces are refused)"
        )
    normalizer = total / (1.0 - 1.0 / Reff)
    nu = S / total
    nu.flags.writeable = False
    A = constant_a(Reff)
    B3 = constant_b3(Reff)
    C = 2.0 * A * Reff ** 5
    K = A * Reff / B3
    return ChainCertificate(
        theorem="T3",
        R=Reff,
        n0=None,
        A=A,
        B=B3,
        K=K,
        C=C,
        nu=nu,
        tail_bound=0.0,
        phi=phi,
        space=space,
        psi=None,
        escalated_from=escalated_from,
        normalizer=normalizer,
        kstar=kstar,
    )


def _check_agreement(built, metrics):
    """Reject a certificate or radius table and metrics built on different space objects or for different phi."""
    if built.space is not metrics.space:
        raise ValueError(f"{type(built).__name__} and metrics were built on different spaces")
    if built.phi != metrics.phi:
        raise ValueError(f"{type(built).__name__} and metrics were built for different Young functions")


def modulus_pairs(cert, metrics):
    """C * tau(s,t) * gauge_inverse(M / (K * tau(s,t))) over the pairs s < t of
    mspace._triu, with the threshold inverse of the shifted gauge (value 1
    at 0). Metrics are a function of (space, phi), so the
    moduli are computed once per certificate and kept on it, read-only and
    outside its fields, for every metrics that agrees with it."""
    if cert.theorem != "T3":
        raise ValueError("modulus is defined for radius-weighted certificates only")
    _check_agreement(cert, metrics)
    mod = cert.__dict__.get("_moduli")
    if mod is None:
        tau = metrics.tau[_pair_mask(metrics.space.n)]
        gauge = ConvexGauge(cert.phi)
        mod = cert.C * tau * gauge.inverse_from_one(metrics.total / (cert.K * tau))
        mod.flags.writeable = False
        cert.__dict__["_moduli"] = mod
    return mod


def certificate_to_json(cert):
    """Wire format: constants plus the dense row-major pair measure.

    The text is json.dumps(payload, sort_keys=True) of the payload with nu as
    a list, byte for byte. nu's floats go through _reprs, which formats each
    distinct bit pattern once: a grid's nu holds a handful of distinct values.
    """
    nu = cert.nu.ravel()
    texts = _reprs(nu)
    if not np.isfinite(nu).all():  # json spells the repr's nan, inf and -inf NaN, Infinity and -Infinity
        texts = [json.dumps(float(t)) if t in ("nan", "inf", "-inf") else t for t in texts]
    scalars = {
        "theorem": cert.theorem,
        "R": cert.R,
        "n0": cert.n0,
        "A": cert.A,
        "B": cert.B,
        "K": cert.K,
        "C": cert.C,
        "tail_bound": cert.tail_bound,
        "escalated_R": cert.escalated_from,
    }
    fields = {key: json.dumps(value) for key, value in scalars.items()}
    fields["nu"] = f"[{', '.join(texts)}]"
    return "{" + ", ".join(f'"{key}": {fields[key]}' for key in sorted(fields)) + "}"
