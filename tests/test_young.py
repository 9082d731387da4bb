import math
import warnings

import numpy as np
import pytest

from chaincert import (
    ConvexGauge,
    YoungFunction,
    pair_series,
    product_condition,
    ratio_condition,
    shifted_series,
)
from util import four_mask_pwl_inverse

POWER_KINDS = [YoungFunction.power(p) for p in (1.0, 1.5, 2.0, 4.0)]
ALL_KINDS = POWER_KINDS + [
    YoungFunction.exponential(1.0),
    YoungFunction.exponential(2.0),
    YoungFunction.piecewise([(0, 0), (1, 1), (2, 5)]),
]


def test_eval_power():
    assert YoungFunction.power(2).value(3.0) == 9.0
    assert YoungFunction.power(1).value(1.0) == 1.0


@pytest.mark.parametrize("phi", ALL_KINDS)
def test_normalization(phi):
    assert phi.value(0.0) == 0.0
    assert abs(phi.value(1.0) - 1.0) <= 1e-15


def test_negative_argument_rejected():
    with pytest.raises(ValueError):
        YoungFunction.power(2).value(-0.5)
    with pytest.raises(ValueError):
        YoungFunction.power(2).inverse(-1.0)


@pytest.mark.parametrize("phi", ALL_KINDS)
def test_convexity_sampled(phi):
    rng = np.random.default_rng(3)
    for _ in range(200):
        x, y = np.sort(rng.uniform(0.0, 8.0, 2))
        lam = rng.uniform(0.01, 0.99)
        mid = phi.value(lam * x + (1 - lam) * y)
        assert mid <= lam * phi.value(x) + (1 - lam) * phi.value(y) + 1e-12


def test_inverse_closed_forms():
    assert YoungFunction.power(2).inverse(9.0) == 3.0
    assert YoungFunction.power(1).inverse(3.0) == 3.0


def test_inverse_piecewise_interpolation():
    pwl = YoungFunction.piecewise([(0, 0), (1, 1), (2, 5)])
    # oracle: linear interpolation on the segment (1,1)-(2,5)
    expected = 1.0 + (3.0 - 1.0) / ((5.0 - 1.0) / (2.0 - 1.0))
    assert abs(pwl.inverse(3.0) - expected) <= 1e-12
    assert expected == 1.5


@pytest.mark.parametrize("y, x", [(1 - 5e-6, 0.999996875), (1 - 1e-5, 0.99999375)])
def test_inverse_near_knot_is_interpolated(y, x):
    # y lies within np.isclose of the knot value 1 but is not equal to it
    pwl = YoungFunction.piecewise([(0, 0), (0.5, 0.2), (1, 1), (3, 5)])
    assert abs(pwl.inverse(y) - x) <= 1e-12 * x
    assert pwl.inverse(1.0) == 1.0


def test_inverse_smallest_preimage_on_flat_run():
    pwl = YoungFunction.piecewise([(0, 0), (0.5, 0), (1, 1)])
    assert pwl.inverse(0.0) == 0.0
    assert pwl.value(0.25) == 0.0


@pytest.mark.parametrize("phi", ALL_KINDS)
def test_inverse_consistency(phi):
    for y in [0.0, 0.3, 1.0, 2.5, 9.0, 120.0]:
        x = phi.inverse(y)
        assert abs(phi.value(x) - y) <= 1e-10 * max(1.0, y)


@pytest.mark.parametrize("phi", ALL_KINDS)
def test_value_ratio_dominates_argument_ratio(phi):
    # x/y <= phi(x)/phi(y) whenever x >= y > 0
    rng = np.random.default_rng(11)
    for _ in range(300):
        y, x = np.sort(rng.uniform(0.05, 20.0, 2))
        if x == y:
            continue
        assert x / y <= phi.value(x) / phi.value(y) * (1 + 1e-12)


def test_ratio_condition_power_equality():
    chk = ratio_condition(YoungFunction.power(2), 2.0)
    assert chk.ok and chk.first_violation is None


def test_ratio_condition_piecewise_violation():
    pwl = YoungFunction.piecewise([(0, 0), (1, 1), (2, 2), (4, 100)])
    # direct ratio oracle: successive ratios phi(R^(k-1))/phi(R^k) at R=2
    vals = [pwl.value(2.0 ** k) for k in range(4)]
    ratios = [vals[k] / vals[k + 1] for k in range(3)]
    first_bad = next(k for k in range(1, 3) if ratios[k] > ratios[k - 1] * (1 + 1e-12))
    assert first_bad == 2
    chk = ratio_condition(pwl, 2.0)
    assert not chk.ok
    assert chk.first_violation == first_bad


def test_ratio_condition_exponential():
    phi = YoungFunction.exponential(2)
    assert ratio_condition(phi, 2.0).ok
    # direct float oracle on the first levels, before overflow kicks in
    em1 = math.expm1(1.0)
    vals = [math.expm1((2.0 ** k) ** 2) / em1 for k in range(5)]
    for k in range(1, 4):
        assert vals[k] / vals[k + 1] <= vals[k - 1] / vals[k] * (1 + 1e-12)


def test_ratio_condition_power_compatibility():
    # holding at R implies holding at R^2 and R^3
    phi = YoungFunction.exponential(2)
    for base in (2.0, 4.0, 8.0):
        assert ratio_condition(phi, base).ok


def test_product_condition_power_equality():
    ok, witness = product_condition(YoungFunction.power(3), 1.0, 0.0)
    assert ok and witness is None


@pytest.mark.parametrize("phi,R", [(YoungFunction.exponential(2), 2.0), (YoungFunction.power(2), 6.0)])
def test_ratio_implies_product_at_square(phi, R):
    assert ratio_condition(phi, R).ok
    ok, _ = product_condition(phi, R * R, 1.0)
    assert ok


def test_product_condition_piecewise_violation():
    pwl = YoungFunction.piecewise([(0, 0), (1, 1), (2, 2), (4, 100)])
    # direct oracle at (4, 4): phi(4)^2 = 10000 > phi(16) = 100 + 49*12 = 688
    assert pwl.value(4.0) ** 2 > pwl.value(16.0)
    ok, witness = product_condition(pwl, 1.0, 1.0)
    assert not ok and witness is not None


def test_gauge_basics():
    gauge = ConvexGauge(YoungFunction.power(2))
    assert gauge.value(0.5) == 0.0
    assert gauge.value(1.0) == 0.0
    assert gauge.value(2.0) == 3.0
    assert gauge.inverse(0.0) == 0.0
    assert gauge.inverse(-1.0) == 0.0
    assert abs(gauge.inverse(3.0) - 2.0) <= 1e-12
    assert gauge.inverse_from_one(0.0) == 1.0


@pytest.mark.parametrize("psi,r", [(YoungFunction.power(2), 1.0), (YoungFunction.power(4), 1.0),
                                   (YoungFunction.exponential(2), 4.0)])
def test_gauge_product_property(psi, r):
    # base in the product class beyond 1 lifts to the gauge with threshold 0
    gauge = ConvexGauge(psi)
    rng = np.random.default_rng(8)
    for _ in range(200):
        x, y = rng.uniform(0.0, 6.0, 2)
        assert gauge.value(x) * gauge.value(y) <= gauge.value(r * x * y) * (1 + 1e-12) + 1e-12


def test_pair_series_geometric():
    res = pair_series(YoungFunction.power(1), YoungFunction.power(2), 2.0, 1)
    assert res.converges
    assert abs(res.total - 0.5) <= 1e-12
    assert res.tail_bound <= 1e-12


def test_pair_series_divergent_constant_terms():
    res = pair_series(YoungFunction.power(2), YoungFunction.power(2), 2.0, 1)
    assert not res.converges


def test_pair_series_quarter_ratio():
    res = pair_series(YoungFunction.power(2), YoungFunction.power(4), 2.0, 1)
    assert res.converges
    assert abs(res.total - 1.0 / 12.0) <= 1e-12


def test_pair_series_piecewise_flagged_heuristic():
    pwl = YoungFunction.piecewise([(0, 0), (1, 1), (2, 5)])
    res = pair_series(pwl, YoungFunction.power(2), 2.0, 1)
    assert res.heuristic


def test_shifted_series_tail_constant():
    res = shifted_series(YoungFunction.power(1), YoungFunction.power(2), 2.0, -1, 0)
    assert abs(res.total - 1.0) <= 1e-12


def test_piecewise_knot_validation():
    with pytest.raises(ValueError):
        YoungFunction.piecewise([(0, 0), (2, 5)])  # (1,1) missing
    with pytest.raises(ValueError):
        YoungFunction.piecewise([(0, 0.5), (1, 1)])  # wrong origin
    with pytest.raises(ValueError):
        YoungFunction.piecewise([(0, 0), (1, 1), (2, 1.5)])  # concave


def test_spec_roundtrip():
    for phi in ALL_KINDS:
        assert YoungFunction.from_spec(phi.spec()) == phi


@pytest.mark.parametrize("kind, value", [("power", math.inf), ("power", math.nan), ("exponential", math.inf),
                                         ("exponential", math.nan), ("power", -math.inf)])
def test_non_finite_exponents_rejected(kind, value):
    # nan and inf pass a bare `< 1` test
    make = YoungFunction.power if kind == "power" else YoungFunction.exponential
    with pytest.raises(ValueError, match="finite exponent"):
        make(value)


@pytest.mark.parametrize("knots", [[(0, 0), (1, 1), (2, math.inf)], [(0, 0), (1, 1), (2, math.nan)],
                                   [(0, 0), (1, 1), (math.inf, 5)]])
def test_non_finite_knots_rejected(knots):
    # an inf knot gives an inf or nan slope, and nan passes every comparison
    with pytest.raises(ValueError, match="knots must be finite"):
        YoungFunction.piecewise(knots)


@pytest.mark.parametrize("knots", [
    [(0, 0), (1, 1)],
    [(0, 0), (1, 1), (2, 5)],
    [(0, 0), (0.5, 0.2), (1, 1), (3, 5)],
    [(0, 0), (0.5, 0), (1, 1)],
    [(0, 0), (0.25, 0), (0.5, 0), (0.75, 0), (1, 1), (2, 6)],
    [(0, 0), (0.3, 0), (0.6, 0.3), (0.9, 0.6), (1, 1), (1.5, 3), (4, 13)],
], ids=["identity", "steep", "interior-knots", "flat-first", "flat-run", "flat-then-collinear"])
def test_piecewise_inverse_matches_four_mask_oracle(knots):
    # at each knot value, one ulp above it, and at 0, 1e-300 and 1e300
    pwl = YoungFunction.piecewise(knots)
    ys = pwl.knots_y
    y = np.concatenate([ys, np.nextafter(ys, np.inf), [0.0, 1e-300, 1e300]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = pwl.inverse(y)
        assert got.tobytes() == four_mask_pwl_inverse(pwl, y).tobytes()
        for v in y.tolist():
            assert np.float64(pwl.inverse(v)).tobytes() == four_mask_pwl_inverse(pwl, np.array([v])).tobytes()
