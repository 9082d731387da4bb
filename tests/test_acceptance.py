"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. Criterion 5 is split into
its two gauge pairs: the (power 1, power 2) battery passes, while the
(power 2, power 4) battery is a strict expected failure. For that pair the
weight normalizer B is about 1.8e-6, and the composite constant
K = 3*A*B*R^(n0+1) drops far below A*R^(n0+1)*(1+B), the bound the chaining
argument actually yields; the strict pairwise inequality then fails on any
space with at least two points (see the relaxed bound reported alongside).
The (power 1, power 2) constant fails too once R is large enough; a passing
test measures that failure on the three-point line at R = 20.
"""

import time

import numpy as np
import pytest

from chaincert import (
    MinorizingMetrics,
    YoungFunction,
    ball_growth_integral,
    brownian_grid_sampler,
    certificate_thm1,
    certificate_thm3,
    converse_witness,
    empirical_corollary,
    invariant_suite,
    luxemburg_norm,
    amemiya_norm,
    majorizing_integral,
    pair_series,
    proof_trace,
    radius_table,
    sample,
    verify_thm1,
    verify_thm3,
)
from util import (
    ball_growth_integral_riemann,
    corrupted_kernels,
    line3_space,
    minorizing_metric,
    random_battery,
    two_point_space,
)

PHI1 = YoungFunction.power(1)
PHI2 = YoungFunction.power(2)
PHI4 = YoungFunction.power(4)
EXP2 = YoungFunction.exponential(2)

BATTERY_SEED = 20260809


def _battery():
    return random_battery(BATTERY_SEED, 50, 3, 40)


def test_criterion1_orlicz_sandwich():
    start = time.monotonic()
    rng = np.random.default_rng(123)
    kinds = [YoungFunction.power(p) for p in (1, 1.5, 2, 4)] + [
        YoungFunction.exponential(1),
        EXP2,
    ]
    worst = np.inf
    for i in range(500):
        n = int(rng.integers(2, 12))
        h = rng.lognormal(0.0, 1.0, n) * rng.choice([-1.0, 1.0], n)
        mu = rng.dirichlet(np.ones(n))
        phi = kinds[i % len(kinds)]
        lux = luxemburg_norm(h, mu, phi)
        am = amemiya_norm(h, mu, phi)
        worst = min(worst, (am - lux) / max(am, 1e-300), (2 * lux - am) / max(2 * lux, 1e-300))
    elapsed = time.monotonic() - start
    ok = worst >= -1e-9 and elapsed < 10.0
    print(f"[{'PASS' if ok else 'FAIL'}] criterion 1: sandwich worst rel margin "
          f"{worst:.3e} over 500 cases in {elapsed:.2f}s")
    assert worst >= -1e-9
    assert elapsed < 10.0


def test_criterion2_small_space_oracles():
    two = two_point_space()
    line = line3_space()
    tau2 = minorizing_metric(two, PHI2, 0, 1)
    t01 = minorizing_metric(line, PHI1, 0, 1)
    t02 = minorizing_metric(line, PHI1, 0, 2)
    mline = majorizing_integral(line, PHI1)
    ok = (
        abs(tau2 - np.sqrt(2.0)) <= 1e-12
        and abs(t01 - 3.0) <= 1e-12
        and abs(t02 - 4.5) <= 1e-12
        and abs(mline - 13.0 / 3.0) <= 1e-12
    )
    print(f"[{'PASS' if ok else 'FAIL'}] criterion 2: tau={tau2:.15f}, "
          f"tau(0,1)={t01}, tau(0,2)={t02}, mass integral={mline:.15f}")
    assert abs(tau2 - np.sqrt(2.0)) <= 1e-12
    assert abs(t01 - 3.0) <= 1e-12
    assert abs(t02 - 4.5) <= 1e-12
    assert abs(mline - 13.0 / 3.0) <= 1e-12


def test_criterion3_series_oracles():
    res = pair_series(PHI1, PHI2, 2.0, 1)
    witness = converse_witness(line3_space(), PHI2, PHI1, 2.0, 1, t=0, l=4)
    ok = res.converges and abs(res.total - 0.5) <= 1e-12 and abs(witness.tail_constant - 1.0) <= 1e-12
    print(f"[{'PASS' if ok else 'FAIL'}] criterion 3: series={res.total!r}, "
          f"tail constant D={witness.tail_constant!r}")
    assert res.converges
    assert abs(res.total - 0.5) <= 1e-12
    assert abs(witness.tail_constant - 1.0) <= 1e-12


def test_criterion4_constant_arithmetic():
    two = two_point_space()
    c1 = certificate_thm1(two, PHI1, PHI2, 6.0, 1)
    c3 = certificate_thm3(two, PHI2, 6.0)
    ok = (
        abs(c1.A - 97.2) <= 1e-12 * 97.2
        and abs(c3.B - 155.52) <= 1e-12 * 155.52
        and abs(c3.C - 1511654.4) <= 1e-12 * 1511654.4
        and c1.K == 3.0 * c1.A * c1.B * c1.R ** (c1.n0 + 1)
        and c3.K == c3.A * c3.R / c3.B
        and c3.C == 2.0 * c3.A * c3.R ** 5
    )
    print(f"[{'PASS' if ok else 'FAIL'}] criterion 4: A={c1.A}, B3={c3.B}, C={c3.C}, "
          f"K1={c1.K}, K3={c3.K} (bitwise products of stored parts)")
    assert abs(c1.A - 97.2) <= 1e-12 * 97.2
    assert abs(c3.B - 155.52) <= 1e-12 * 155.52
    assert abs(c3.C - 1511654.4) <= 1e-12 * 1511654.4
    assert c1.K == 3.0 * c1.A * c1.B * c1.R ** (c1.n0 + 1)
    assert c3.K == c3.A * c3.R / c3.B
    assert c3.C == 2.0 * c3.A * c3.R ** 5


def _holder_battery(phi, psi, label, expect_print=True):
    start = time.monotonic()
    worst_pair = np.inf
    worst_sup = np.inf
    for sp in _battery():
        cert = certificate_thm1(sp, phi, psi, 6.0, 1)
        mets = MinorizingMetrics(sp, phi)
        frng = np.random.default_rng(7)
        for _ in range(100):
            f = frng.standard_normal(sp.n)
            report = verify_thm1(cert, mets, f, nabla_r=1.0)
            for p in report.pair_checks:
                if p.name == "holder_bound":
                    worst_pair = min(worst_pair, p.rel_margin)
            for c in report.checks:
                if c.name == "gauge_sup_bound":
                    worst_sup = min(worst_sup, c.rel_margin)
    elapsed = time.monotonic() - start
    ok = worst_pair >= -1e-9 and worst_sup >= -1e-9 and elapsed < 120.0
    if expect_print:
        print(f"[{'PASS' if ok else 'FAIL'}] criterion 5 ({label}): worst pair margin "
              f"{worst_pair:.3e}, worst sup margin {worst_sup:.3e}, {elapsed:.1f}s")
    return worst_pair, worst_sup, elapsed


def test_criterion5_holder_bound_linear_quadratic():
    worst_pair, worst_sup, elapsed = _holder_battery(PHI1, PHI2, "power1/power2")
    assert worst_pair >= -1e-9
    assert worst_sup >= -1e-9
    assert elapsed < 120.0


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the composite constant 3*A*B*R^(n0+1) undercuts the provable bound "
    "A*R^(n0+1)*(1+B) whenever the weight normalizer B < 1; for "
    "(power 2, power 4) with R=6, n0=1, B ~ 1.8e-6 and the pairwise bound "
    "fails on every multi-point space (the relaxed bound passes)",
)
def test_criterion5_holder_bound_quadratic_quartic():
    worst_pair, worst_sup, elapsed = _holder_battery(PHI2, PHI4, "power2/power4")
    assert worst_pair >= -1e-9
    assert worst_sup >= -1e-9
    assert elapsed < 120.0


def test_composite_constant_violation_is_measured_for_linear_quadratic():
    # K = 3*A*B*R^(n0+1) falls with R for (power 1, power 2): 29.2, 4.11, 2.00
    # and 1.10 at R = 6, 10, 14 and 20. On the three-point line the pairwise
    # bound still holds at R = 14 and fails at R = 20 for the third function
    # of scenarios/line3.cfg, on one pair, while the relaxed bound holds.
    line = line3_space()
    mets = MinorizingMetrics(line, PHI1)
    f = [0.5, -0.25, 2.0]
    cert = certificate_thm1(line, PHI1, PHI2, 14.0, 1)
    assert abs(cert.K - 2.002) < 1e-3
    assert verify_thm1(cert, mets, f, nabla_r=1.0).passed
    cert = certificate_thm1(line, PHI1, PHI2, 20.0, 1)
    assert abs(cert.K - 1.095) < 1e-3
    report = verify_thm1(cert, mets, f, nabla_r=1.0)
    assert report.failed_names() == ["holder_bound"]
    locations, lhs, rhs, _, _, passed = report.check("holder_bound").columns()
    assert [x for x, ok in zip(locations, passed) if not ok] == ["(1,2)"]
    assert lhs[2] == 2.25 and abs(rhs[2] - 1.984) < 1e-3
    assert report.check("holder_bound_relaxed").passed


def test_criterion6_modulus_bound():
    start = time.monotonic()
    worst = np.inf
    for sp in _battery():
        for phi in (PHI2, EXP2):
            cert = certificate_thm3(sp, phi, 6.0)
            mets = MinorizingMetrics(sp, phi)
            frng = np.random.default_rng(11)
            for _ in range(100):
                report = verify_thm3(cert, mets, frng.standard_normal(sp.n))
                worst = min(worst, report.worst_rel_margin)
    elapsed = time.monotonic() - start
    ok = worst >= -1e-9 and elapsed < 120.0
    print(f"[{'PASS' if ok else 'FAIL'}] criterion 6: worst margin {worst:.3e}, {elapsed:.1f}s")
    assert worst >= -1e-9
    assert elapsed < 120.0


def test_criterion7_proof_trace_suite():
    start = time.monotonic()
    spaces = [two_point_space(), line3_space()] + random_battery(42, 10, 3, 36)
    worst = np.inf
    pairs = 0
    for sp in spaces:
        for phi in (PHI1, PHI2):
            table = radius_table(sp, phi, 6.0)
            mets = MinorizingMetrics(sp, phi)
            l = table.kstar + 2
            f = np.random.default_rng(5).standard_normal(sp.n)
            for s in range(sp.n):
                for t in range(s + 1, sp.n):
                    tr = proof_trace(table, mets, s, t, l, f=f, n=2)
                    pairs += 1
                    worst = min(worst, min(c.rel_margin for c in tr.checks))
            suite = invariant_suite(sp, phi, PHI2, 6.0, 1)
            worst = min(worst, suite.worst_rel_margin)

    # injected corruption must be detected
    with corrupted_kernels():
        corrupted = invariant_suite(line3_space(), PHI1, PHI2, 6.0, 1)
    elapsed = time.monotonic() - start
    ok = worst >= -1e-9 and not corrupted.passed
    print(f"[{'PASS' if ok else 'FAIL'}] criterion 7: {pairs} traced pairs, worst margin "
          f"{worst:.3e}, corruption detected={not corrupted.passed}, {elapsed:.1f}s")
    assert worst >= -1e-9
    assert not corrupted.passed
    assert "kernel_stochastic" in corrupted.failed_names()


def test_criterion8_monte_carlo_corollary():
    start = time.monotonic()
    sampler = brownian_grid_sampler(64, PHI2)
    cert = certificate_thm1(sampler.space, PHI1, PHI2, 6.0, 1)
    mets = MinorizingMetrics(sampler.space, PHI1)
    batch = sample(sampler, 10000, seed=2026)
    report = empirical_corollary(batch, cert, mets)
    ratio = report.stat("increment_ratio_sup")
    gauge = report.stat("gauge_ratio_sup")
    again = sample(sampler, 10000, seed=2026)
    deterministic = np.array_equal(batch.values, again.values)
    elapsed = time.monotonic() - start
    ok = report.passed and deterministic and elapsed < 60.0
    print(f"[{'PASS' if ok else 'FAIL'}] criterion 8: ratio sup {ratio.mean:.4g}"
          f"+-{ratio.stderr:.2g}, gauge sup {gauge.mean:.4g}+-{gauge.stderr:.2g}, "
          f"deterministic={deterministic}, {elapsed:.1f}s")
    assert ratio.mean + 3 * ratio.stderr <= 1.0
    assert gauge.mean + 3 * gauge.stderr <= 1.0
    assert deterministic
    assert elapsed < 60.0


def test_criterion9_quadrature_cross_check():
    rng = np.random.default_rng(99)
    worst = 0.0
    for sp in random_battery(99, 20, 5, 20):
        for _ in range(3):
            s, t = rng.choice(sp.n, size=2, replace=False)
            d = float(sp.dist[s, t])
            for phi in (PHI1, PHI2):
                exact = ball_growth_integral(sp, phi, int(s), d)
                approx = ball_growth_integral_riemann(sp, phi, int(s), d, panels=100000)
                worst = max(worst, abs(exact - approx) / max(exact, 1e-300))
    ok = worst <= 1e-6
    print(f"[{'PASS' if ok else 'FAIL'}] criterion 9: worst quadrature deviation {worst:.3e}")
    assert worst <= 1e-6
