import tracemalloc

import numpy as np
import pytest

from chaincert import (
    ConvexGauge,
    TestFunction,
    YoungFunction,
    amemiya_norm,
    certificate_thm1,
    generate_space,
    luxemburg_norm,
)
from util import bisection_luxemburg, full_sort_luxemburg, shifted_power_luxemburg, ternary_amemiya

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
    # the three messages hold for every non-finite kind, and a weight check comes before the value check
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="weights must be finite"):
            luxemburg_norm([np.nan, 2.0], [0.5, bad], PHI2)
        with pytest.raises(ValueError, match="function values must be finite"):
            luxemburg_norm([1.0, bad], [0.5, 0.5], PHI2)
    with pytest.raises(ValueError, match="weights must be nonnegative"):
        luxemburg_norm([np.inf, 1.0], [0.5, -0.0001], PHI2)
    assert luxemburg_norm([], [], PHI2) == 0.0


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


SHIFTED_POWERS = [ConvexGauge(YoungFunction.power(p)) for p in (1, 1.5, 2, 3, 4)]


def test_shifted_power_matches_reference_bit_for_bit():
    # the solve carries u^p through the cut and the sort; the reference computes it again after the sort
    rng = np.random.default_rng(23)
    for gauge in SHIFTED_POWERS:
        for size in (0, 1, 2, 7, 40, 1600):
            for scale in (1e-3, 1.0, 1e3, 1e150):
                values = scale * rng.standard_normal(size)
                values[rng.random(size) < 0.2] = 0.0
                if size > 2:
                    values[: size // 3] = values[size // 3]  # ties at the top and across the cut
                weights = rng.random(size)
                weights[rng.random(size) < 0.2] = 0.0
                got, want = luxemburg_norm(values, weights, gauge), shifted_power_luxemburg(values, weights, gauge)
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), (gauge, size, scale)


def _matches_full_sort(values, weights, gauge):
    """Compare with the full-sort oracle; True when the two agree bit for bit.

    Both sorts are unstable, so atoms with equal |v| at or above the norm may
    be summed in another order: then the two agree to 1e-12 relative, and
    bit for bit otherwise.
    """
    got = luxemburg_norm(values, weights, gauge)
    ref = full_sort_luxemburg(values, weights, gauge)
    v = np.abs(np.asarray(values, dtype=float))[np.asarray(weights) > 0]
    top = v[v >= ref * (1.0 - 1e-9)]
    if np.unique(top).size == top.size:
        assert got == ref
    else:
        assert abs(got - ref) <= 1e-12 * ref
    return got == ref


def _battery_case(rng, n):
    """Heavy-tailed signed values with, at random, tied pairs among the largest
    values, zero values, zero weights, a weight total of 1e-3 to 10 and a scale
    of 1e-50, 1 or 1e50."""
    v = rng.lognormal(0.0, rng.uniform(0.1, 3.0), n) * rng.choice([-1.0, 1.0], n)
    w = rng.random(n)
    if rng.random() < 0.3:
        top = np.argsort(-np.abs(v))[:40]
        i, j = rng.choice(top, (2, rng.integers(1, 6)))
        v[i] = -v[j]
    if rng.random() < 0.2:
        v[rng.random(n) < rng.uniform(0.0, 0.5)] = 0.0
    if rng.random() < 0.2:
        w[rng.random(n) < rng.uniform(0.0, 0.5)] = 0.0
    if w.sum() > 0:
        w *= 10.0 ** rng.uniform(-3.0, 1.0) / w.sum()
    return v * 10.0 ** rng.choice([-50.0, 0.0, 50.0]), w


def test_shifted_power_matches_full_sort_battery():
    # 1,200 cases of 1 to 16,384 atoms (log-uniform) and six of 262,144, each
    # under five gauges; ties make about a fifth of them fall back to 1e-12
    rng = np.random.default_rng(13)
    exact = []
    for case in range(1200):
        n = 2 ** 18 if case % 200 == 0 else int(np.exp(rng.uniform(0.0, np.log(2.0 ** 14 + 1))))
        values, weights = _battery_case(rng, n)
        exact += [_matches_full_sort(values, weights, gauge) for gauge in SHIFTED_POWERS]
    assert sum(exact) > 0.7 * len(exact)


@pytest.mark.parametrize("gauge", SHIFTED_POWERS, ids=_gauge_id)
def test_shifted_power_cut_edge_cases(gauge):
    rng = np.random.default_rng(31)
    p = gauge.base.p
    # all values equal: the lower bound is the norm itself and every atom is kept
    w = rng.dirichlet(np.ones(50))
    got = luxemburg_norm(np.full(50, -3.0), w, gauge)
    assert got == pytest.approx(3.0 * (w.sum() / (1.0 + w.sum())) ** (1.0 / p), rel=1e-15)
    assert _matches_full_sort(np.full(50, -3.0), w, gauge)
    assert _matches_full_sort([2.5], [0.7], gauge)
    for total in (1e-12, 1e3):
        values = rng.lognormal(0.0, 2.0, 3000)
        assert _matches_full_sort(values, rng.dirichlet(np.ones(3000)) * total, gauge)


def test_shifted_power_crossing_at_last_kept_atom():
    # values 1 and 1/2 under weights 1 and 1/4, then 1e-9 under weight 4: the
    # integral in (x - 1)+ at a = 1/2 is exactly 1, and the lower bound
    # (1 + 1/8 + 4e-9) / 6.25 keeps no atom below 1/2
    gauge = SHIFTED_POWERS[0]
    values = np.concatenate([[1.0, 0.5], np.full(40, 1e-9)])
    weights = np.concatenate([[1.0, 0.25], np.full(40, 0.1)])
    assert 0.5 * np.dot(weights, values) / (1.0 + weights.sum()) > 1e-9
    assert luxemburg_norm(values, weights, gauge) == 0.5
    assert _matches_full_sort(values, weights, gauge)


def test_shifted_power_bound_underflow():
    # u^400 underflows below u = 0.16, which only lowers the bound
    gauge = ConvexGauge(YoungFunction.power(400))
    rng = np.random.default_rng(400)
    for scale in (1e-50, 1.0, 1e50):
        values = scale * rng.uniform(0.0, 1.0, 5000)
        assert _matches_full_sort(values, rng.dirichlet(np.ones(5000)), gauge)
    assert _matches_full_sort(np.concatenate([[1.0], np.full(99, 0.1)]), np.full(100, 0.01), gauge)


def test_shifted_power_memory_guard():
    # the quotients of one function under the n = 512 T1 pair measure: the
    # shifted power solve holds the atoms and their powers once, about 8 MB;
    # sorting all 261,632 atoms takes the peak to about 16 MB
    space = generate_space("random", n=512, seed=512)
    cert = certificate_thm1(space, YoungFunction.power(1), PHI2, 6.0, 1)
    fd = TestFunction(np.random.default_rng(512).standard_normal(512)).quotients(space).ravel()
    nu = cert.nu.ravel()
    tracemalloc.start()
    try:
        luxemburg_norm(fd, nu, ConvexGauge(PHI2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12e6


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
