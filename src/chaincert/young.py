"""Young functions normalized to phi(0)=0, phi(1)=1, and their growth conditions.

Three evaluable kinds are provided (power, normalized exponential, convex
piecewise linear), together with the predicates that the certificate
constructions require: monotonicity of the growth ratios along a geometric
grid R^k, the product condition phi(x)*phi(y) <= phi(r*x*y), and convergence
of the cross series sum_k phi(R^k)/psi(R^(k+n0)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mspace import _least

__all__ = [
    "YoungFunction",
    "ConvexGauge",
    "RatioCheck",
    "SeriesResult",
    "ratio_condition",
    "product_condition",
    "pair_series",
    "shifted_series",
]

_LOG_EM1 = math.log(math.expm1(1.0))  # log(e - 1)
_RATIO_LEVELS = 60  # ratio_condition checks the levels k = 1..60 of the grid R^k


class YoungFunction:
    """Increasing convex function on [0, inf) with value 0 at 0 and 1 at 1.

    kinds:
      power:       x**p with finite p >= 1
      exponential: (e**(x**q) - 1)/(e - 1) with finite q >= 1
      piecewise:   convex piecewise-linear interpolation of an ordered knot
                   list containing (0, 0) and (1, 1); extended linearly
                   beyond the last knot
    """

    def __init__(self, kind, *, p=None, q=None, knots=None):
        self.kind = kind
        if kind == "power":
            if p is None or not 1 <= p < math.inf:
                raise ValueError("power kind needs a finite exponent p >= 1")
            self.p = float(p)
        elif kind == "exponential":
            if q is None or not 1 <= q < math.inf:
                raise ValueError("exponential kind needs a finite exponent q >= 1")
            self.q = float(q)
        elif kind == "piecewise":
            self._init_knots(knots)
        else:
            raise ValueError(f"unknown Young function kind {kind!r}")

    @classmethod
    def power(cls, p):
        return cls("power", p=p)

    @classmethod
    def exponential(cls, q):
        return cls("exponential", q=q)

    @classmethod
    def piecewise(cls, knots):
        return cls("piecewise", knots=knots)

    def _init_knots(self, knots):
        if knots is None or len(knots) < 2:
            raise ValueError("piecewise kind needs at least two knots")
        xs = np.asarray([k[0] for k in knots], dtype=float)
        ys = np.asarray([k[1] for k in knots], dtype=float)
        # nan compares False and inf makes inf/nan slopes, so both would slip past the checks below
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError("knots must be finite")
        if xs[0] != 0.0 or ys[0] != 0.0:
            raise ValueError("first knot must be (0, 0)")
        if not ((xs == 1.0) & (ys == 1.0)).any():
            raise ValueError("knot (1, 1) is mandatory")
        if (np.diff(xs) <= 0).any():
            raise ValueError("knot abscissae must be strictly increasing")
        if (np.diff(ys) < 0).any():
            raise ValueError("knot values must be nondecreasing")
        slopes = np.diff(ys) / np.diff(xs)
        if (np.diff(slopes) < -1e-12).any():
            raise ValueError("knots must describe a convex function")
        if slopes[-1] <= 0:
            raise ValueError("final slope must be positive (unbounded growth)")
        self.knots_x = xs
        self.knots_y = ys
        self.slopes = slopes

    # -- evaluation ---------------------------------------------------------

    def value(self, x):
        """phi(x) for scalar or array x >= 0."""
        arr = np.asarray(x, dtype=float)
        least = _least(arr) if arr.size else 0.0
        if least < 0 or least != least and (arr < 0).any():  # the least entry reads nan if one is there
            raise ValueError("Young functions are evaluated on [0, inf) only")
        if self.kind == "power":
            out = arr ** self.p
        elif self.kind == "exponential":
            with np.errstate(over="ignore"):
                out = np.expm1(arr ** self.q) / math.expm1(1.0)
        else:
            out = self._pwl_value(arr)
        return float(out) if arr.ndim == 0 else out

    def _pwl_value(self, arr):
        idx = np.searchsorted(self.knots_x, arr, side="right") - 1
        idx = np.clip(idx, 0, len(self.knots_x) - 1)
        sl = self.slopes[np.clip(idx, 0, len(self.slopes) - 1)]
        return self.knots_y[idx] + sl * (arr - self.knots_x[idx])

    def inverse(self, y):
        """Smallest x >= 0 with phi(x) = y (smallest preimage on flat runs)."""
        arr = np.asarray(y, dtype=float)
        if (arr < 0).any():
            raise ValueError("inverse is defined for y >= 0 only")
        if self.kind == "power":
            out = arr ** (1.0 / self.p)
        elif self.kind == "exponential":
            out = np.log1p(arr * math.expm1(1.0)) ** (1.0 / self.q)
        else:
            out = self._pwl_inverse(arr)
        return float(out) if np.ndim(y) == 0 else out

    def _pwl_inverse(self, arr):
        # the segment below the first knot value >= y, or the last one; a knot value maps to its abscissa
        xs, ys, slopes = self.knots_x, self.knots_y, self.slopes
        j = np.searchsorted(ys, arr, side="left")
        b = np.maximum(j - 1, 0)
        with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 at y = 0 on a flat first segment, a knot value
            out = xs[b] + (arr - ys[b]) / slopes[np.minimum(b, len(slopes) - 1)]
        k = np.minimum(j, len(ys) - 1)
        return np.where(ys[k] == arr, xs[k], out)

    # -- log-space evaluation (for predicates along geometric grids) --------

    def log_value(self, x):
        """log(phi(x)) for scalar x > 0, stable against overflow."""
        return self.log_value_exp(math.log(x)) if x > 0 else -math.inf

    def log_value_exp(self, log_x):
        """log(phi(e**log_x)); accepts exponents too large to form e**log_x."""
        if self.kind == "power":
            return self.p * log_x
        if self.kind == "exponential":
            w = self.q * log_x
            if w > 700.0:
                # log(e**(x^q) - 1) ~ x^q; the correction underflows
                return math.exp(w) if w < 710.0 else math.inf
            u = math.exp(w)
            if u > 36.0:
                return u + math.log1p(-math.exp(-u)) - _LOG_EM1
            return math.log(math.expm1(u)) - _LOG_EM1
        x = math.exp(log_x) if log_x < 709.0 else math.inf
        if math.isinf(x):
            return math.inf
        v = self.value(x)
        return math.log(v) if v > 0 else -math.inf

    # -- config interchange --------------------------------------------------

    def spec(self):
        if self.kind == "power":
            return {"kind": "power", "p": self.p}
        if self.kind == "exponential":
            return {"kind": "exponential", "q": self.q}
        return {
            "kind": "piecewise",
            "knots": [[float(a), float(b)] for a, b in zip(self.knots_x, self.knots_y)],
        }

    @classmethod
    def from_spec(cls, spec):
        kind = spec["kind"]
        if kind == "power":
            return cls.power(spec["p"])
        if kind == "exponential":
            return cls.exponential(spec["q"])
        if kind == "piecewise":
            return cls.piecewise([tuple(k) for k in spec["knots"]])
        raise ValueError(f"unknown Young function kind {kind!r}")

    def __eq__(self, other):
        return other is self or isinstance(other, YoungFunction) and self.spec() == other.spec()

    def __hash__(self):
        return hash(repr(self.spec()))

    def __repr__(self):
        return f"YoungFunction({self.spec()!r})"


class ConvexGauge:
    """The shifted positive part x -> (base(x) - 1)+ of a Young function.

    Vanishes on [0, 1], convex and nondecreasing. The generalized inverse
    returns 0 for y <= 0 and the unique x > 1 with base(x) = 1 + y for y > 0.
    `inverse_from_one` is the threshold variant used by modulus formulas: it
    maps 0 to inf{x : base(x) >= 1} = 1 instead of 0.
    """

    def __init__(self, base: YoungFunction):
        self.base = base

    def value(self, x):
        out = self.base.value(x)  # a float for a scalar x, else a new array
        if isinstance(out, float):
            return max(out - 1.0, 0.0)
        out -= 1.0
        return np.maximum(out, 0.0, out=out)

    def inverse(self, y):
        arr = np.asarray(y, dtype=float)
        out = np.where(arr > 0, self.base.inverse(np.maximum(arr, 0.0) + 1.0), 0.0)
        return float(out) if np.ndim(y) == 0 else out

    def inverse_from_one(self, y):
        arr = np.maximum(np.asarray(y, dtype=float), 0.0)
        out = self.base.inverse(arr + 1.0)
        return float(out) if np.ndim(y) == 0 else out

    def __repr__(self):
        return f"ConvexGauge({self.base!r})"


@dataclass(frozen=True)
class RatioCheck:
    ok: bool
    first_violation: int | None


def ratio_condition(phi, R):
    """Check phi(R^k)/phi(R^(k+1)) <= phi(R^(k-1))/phi(R^k) for 1 <= k <= 60.

    Evaluated in log space with relative slack 1e-12; reports the first
    violating k. Along the grid this says the growth factors of phi are
    nondecreasing (log-convexity on the geometric grid).
    """
    if R <= 1:
        raise ValueError("R must exceed 1")
    logR = math.log(R)
    lv = [phi.log_value_exp(k * logR) for k in range(_RATIO_LEVELS + 2)]
    for k in range(1, _RATIO_LEVELS + 1):
        slack = 1e-12 * max(1.0, abs(lv[k - 1]), abs(lv[k + 1]))
        if 2.0 * lv[k] > lv[k - 1] + lv[k + 1] + slack:
            return RatioCheck(False, k)
    return RatioCheck(True, None)


def _default_product_grid(c):
    lo = max(c, 1e-3)
    pts = np.geomspace(lo, 1e5, 12)
    pts = np.unique(np.concatenate([[c], pts]))
    return pts[pts >= c]


def product_condition(phi, r, c):
    """Check phi(x)*phi(y) <= phi(r*x*y) for sampled x, y >= c.

    The samples are c and 12 geometric points up to 1e5 (those >= c).
    Returns (ok, witness) where witness is the first violating (x, y), if any.
    Comparisons run in log space with 1e-12 relative slack.
    """
    pts = _default_product_grid(c)
    for x in pts:
        lx = phi.log_value(x)
        for y in pts:
            ly = phi.log_value(y)
            lhs = lx + ly
            if lhs == -math.inf:
                continue
            rxy = r * x * y
            rhs = phi.log_value(rxy)
            slack = 1e-12 * max(1.0, abs(rhs))
            if lhs > rhs + slack:
                return False, (float(x), float(y))
    return True, None


@dataclass(frozen=True)
class SeriesResult:
    converges: bool
    total: float
    tail_bound: float
    terms: int
    heuristic: bool


_SERIES_TOL = 1e-14
_SERIES_MAX_TERMS = 20000


def shifted_series(num, den, R, num_shift=0, den_shift=0):
    """sum_{k>=0} num(R^(k+num_shift)) / den(R^(k+den_shift)).

    Terms are computed in log space. The sum stops once the geometric tail
    bound last_term * rho/(1 - rho) drops below 1e-14 relative to the partial
    sum; divergence is declared after 20 consecutive non-decreasing terms or
    at 20,000 terms. Verdicts for piecewise-linear kinds are flagged heuristic.
    """
    logR = math.log(R)
    heuristic = num.kind == "piecewise" or den.kind == "piecewise"
    total = 0.0
    prev = None
    rising = 0
    recent: list[float] = []
    for k in range(_SERIES_MAX_TERMS):
        lt = num.log_value_exp((k + num_shift) * logR) - den.log_value_exp((k + den_shift) * logR)
        if lt == -math.inf or math.isnan(lt):
            return SeriesResult(True, total, 0.0, k + 1, heuristic)
        t = math.exp(lt) if lt < 700.0 else math.inf
        if math.isinf(t):
            return SeriesResult(False, math.inf, math.inf, k + 1, heuristic)
        total += t
        if t == 0.0:
            return SeriesResult(True, total, 0.0, k + 1, heuristic)
        if prev is not None and prev > 0:
            rho = t / prev
            recent.append(rho)
            recent = recent[-8:]
            rising = rising + 1 if rho >= 1.0 - 1e-12 else 0
            if rising >= 20:
                return SeriesResult(False, total, math.inf, k + 1, heuristic)
            if rho < 1.0 and t <= _SERIES_TOL * max(total, 1e-300):
                rho_hat = max(recent)
                if rho_hat < 1.0:
                    bound = t * rho_hat / (1.0 - rho_hat)
                    if bound <= _SERIES_TOL * max(total, 1e-300):
                        return SeriesResult(True, total, bound, k + 1, heuristic)
        prev = t
    return SeriesResult(False, total, math.inf, _SERIES_MAX_TERMS, True)


def pair_series(num, den, R, n0):
    """sum_{k>=0} num(R^k)/den(R^(k+n0)), with convergence verdict and tail bound."""
    if R <= 1:
        raise ValueError("R must exceed 1")
    if n0 < 1:
        raise ValueError("n0 must be >= 1")
    return shifted_series(num, den, R, 0, n0)
