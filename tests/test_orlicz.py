import numpy as np
import pytest

from chaincert import ConvexGauge, YoungFunction, amemiya_norm, luxemburg_norm
from util import bisection_luxemburg, ternary_amemiya

PHI2 = YoungFunction.power(2)
BASES = [YoungFunction.power(p) for p in (1, 1.5, 2, 4)] + [
    YoungFunction.exponential(1),
    YoungFunction.exponential(2),
    YoungFunction.piecewise([(0.0, 0.0), (0.5, 0.2), (1.0, 1.0), (3.0, 5.0)]),
]
GAUGES = BASES + [ConvexGauge(b) for b in BASES]


def test_luxemburg_constant_function():
    for phi in (YoungFunction.power(1), PHI2, YoungFunction.exponential(2)):
        val = luxemburg_norm([5.0, 5.0, 5.0], [0.2, 0.5, 0.3], phi)
        assert abs(val - 5.0) <= 1e-9 * 5.0


def test_luxemburg_two_atom_oracle():
    # solve (1/2) * (2/a)^2 = 1  ->  a = sqrt(2)
    val = luxemburg_norm([0.0, 2.0], [0.5, 0.5], PHI2)
    assert abs(val - np.sqrt(2.0)) <= 1e-9


def test_luxemburg_zero_function():
    assert luxemburg_norm([0.0, 0.0], [0.5, 0.5], PHI2) == 0.0
    assert luxemburg_norm([0.0, 7.0], [1.0, 0.0], PHI2) == 0.0  # zero a.e.


def test_luxemburg_gauge_single_atom_oracle():
    # gauge (x^2 - 1)+: need (2/a)^2 - 1 <= 1  ->  a >= sqrt(2)
    gauge = ConvexGauge(PHI2)
    val = luxemburg_norm([2.0], [1.0], gauge)
    assert abs(val - np.sqrt(2.0)) <= 1e-9


def test_index_mismatch_rejected():
    with pytest.raises(ValueError):
        luxemburg_norm([1.0, 2.0], [1.0], PHI2)
    with pytest.raises(ValueError):
        amemiya_norm([1.0], [0.5, 0.5], PHI2)


def test_amemiya_calculus_oracles():
    # a + 1/a minimized at a = 1 -> 2
    assert abs(amemiya_norm([1.0, 1.0], [0.5, 0.5], PHI2) - 2.0) <= 1e-9
    # a + 2/a minimized at a = sqrt(2) -> 2 sqrt(2)
    assert abs(amemiya_norm([0.0, 2.0], [0.5, 0.5], PHI2) - 2.0 * np.sqrt(2.0)) <= 1e-9
    assert amemiya_norm([0.0, 0.0], [0.5, 0.5], PHI2) == 0.0


def test_amemiya_linear_gauge_infimum_at_zero():
    # phi(x) = x: objective a + L1 decreases toward the L1 norm
    phi1 = YoungFunction.power(1)
    val = amemiya_norm([1.0, 3.0], [0.5, 0.5], phi1)
    assert abs(val - 2.0) <= 1e-9


def test_sandwich_battery():
    rng = np.random.default_rng(123)
    kinds = [YoungFunction.power(p) for p in (1, 1.5, 2, 4)] + [YoungFunction.exponential(2)]
    for i in range(120):
        n = int(rng.integers(2, 10))
        h = rng.lognormal(0.0, 1.0, n) * rng.choice([-1.0, 1.0], n)
        mu = rng.dirichlet(np.ones(n))
        phi = kinds[i % len(kinds)]
        lux = luxemburg_norm(h, mu, phi)
        am = amemiya_norm(h, mu, phi)
        assert lux <= am * (1 + 1e-9)
        assert am <= 2 * lux * (1 + 1e-9)


def test_lower_bound_for_multiplicative_gauges():
    # phi = x^p satisfies the product condition with r=1, c=0, hence
    # phi(lux(h)) <= integral phi(|h|) dmu
    rng = np.random.default_rng(5)
    for p in (1.0, 2.0, 4.0):
        phi = YoungFunction.power(p)
        for _ in range(40):
            n = int(rng.integers(2, 8))
            h = rng.standard_normal(n) * 3.0
            mu = rng.dirichlet(np.ones(n))
            lux = luxemburg_norm(h, mu, phi)
            bound = float(np.dot(mu, phi.value(np.abs(h))))
            assert phi.value(lux) <= bound * (1 + 1e-9) + 1e-12


def test_homogeneity():
    rng = np.random.default_rng(9)
    h = rng.standard_normal(6)
    mu = rng.dirichlet(np.ones(6))
    base = luxemburg_norm(h, mu, PHI2)
    for lam in (0.25, 3.0, 17.5):
        scaled = luxemburg_norm(lam * h, mu, PHI2)
        assert abs(scaled - lam * base) <= 1e-10 * max(1.0, lam * base)


def test_monotonicity():
    rng = np.random.default_rng(10)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        h1 = rng.standard_normal(n)
        h2 = np.abs(h1) + rng.uniform(0.0, 1.0, n)
        mu = rng.dirichlet(np.ones(n))
        assert luxemburg_norm(h1, mu, PHI2) <= luxemburg_norm(h2, mu, PHI2) + 1e-10


def test_weight_arrays():
    # a finite measure is an array of nonnegative weights
    assert luxemburg_norm([1.0, 1.0], np.array([0.25, 0.75]), PHI2) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError, match="nonnegative"):
        luxemburg_norm([1.0, 1.0], np.array([-0.1, 1.1]), PHI2)


def test_non_finite_weights_rejected():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            luxemburg_norm([1.0, 2.0], [bad, 0.5], PHI2)
        with pytest.raises(ValueError, match="finite"):
            amemiya_norm([1.0, 2.0], [bad, 0.5], PHI2)


def _oracle_cases(rng):
    """(values, weights) pairs: generic, ties, zeros, zero weights, one atom, all equal, long."""
    cases = []
    for n in (2, 5, 17, 60):
        cases.append((rng.lognormal(0.0, 1.5, n) * rng.choice([-1.0, 1.0], n), rng.dirichlet(np.ones(n))))
    v = np.round(rng.uniform(0.0, 3.0, 40), 1)
    cases.append((v, rng.dirichlet(np.ones(40))))
    v = rng.standard_normal(30)
    v[::3] = 0.0
    cases.append((v, rng.dirichlet(np.ones(30))))
    w = rng.dirichlet(np.ones(30)) * 3.0
    w[1::4] = 0.0
    cases.append((rng.standard_normal(30), w))
    cases.append((np.array([-2.5]), np.array([0.3])))
    cases.append((np.full(25, -1.7), rng.dirichlet(np.ones(25)) * 0.01))
    cases.append((rng.exponential(1.0, 1600), rng.dirichlet(np.ones(1600))))
    return cases


def _gauge_id(gauge):
    shifted = isinstance(gauge, ConvexGauge)
    spec = (gauge.base if shifted else gauge).spec()
    name = spec["kind"] + "".join(f"{spec[k]:g}" for k in ("p", "q") if k in spec)
    return f"({name}-1)+" if shifted else name


@pytest.mark.parametrize("gauge", GAUGES, ids=_gauge_id)
def test_luxemburg_matches_bisection_oracle(gauge):
    rng = np.random.default_rng(2024)
    for values, weights in _oracle_cases(rng):
        for scale in (1e-3, 1.0, 250.0):
            got = luxemburg_norm(scale * values, weights, gauge)
            ref = bisection_luxemburg(scale * values, weights, gauge)
            assert abs(got - ref) <= 1e-12 * ref


def test_luxemburg_bracket_survives_inexact_inverse():
    # near a knot value, rounding in the piecewise inverse can put the
    # solver's initial bracket on the wrong side
    pwl = BASES[-1]
    for gauge, knot_value in ((pwl, 1.0), (ConvexGauge(pwl), 4.0)):
        for rel in (-5e-6, 5e-6):
            w = [1.0 / (knot_value * (1.0 + rel))]
            got = luxemburg_norm([1.0], w, gauge)
            assert abs(got - bisection_luxemburg([1.0], w, gauge)) <= 1e-12 * got


@pytest.mark.parametrize("gauge", [YoungFunction.power(p) for p in (1, 1.01, 1.5, 2, 3, 4, 7.5)]
                         + [YoungFunction.exponential(2), ConvexGauge(PHI2)], ids=_gauge_id)
def test_amemiya_matches_ternary_oracle(gauge):
    # bare powers take the closed form, the other gauges the ternary search
    rng = np.random.default_rng(77)
    for values, weights in _oracle_cases(rng):
        for scale in (1e-100, 1.0, 1e100):
            got = amemiya_norm(scale * values, weights, gauge)
            ref = ternary_amemiya(scale * values, weights, gauge)
            assert abs(got - ref) <= 1e-10 * ref
