import dataclasses
import json
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from chaincert import (
    CertificateError,
    ConvexGauge,
    MetricMeasureSpace,
    MinorizingMetrics,
    PreconditionError,
    YoungFunction,
    ZeroMassAtomError,
    averaging_kernel,
    certificate_thm1,
    certificate_thm3,
    certificate_to_json,
    constant_a,
    constant_b3,
    generate_space,
    modulus_pairs,
    radius_table,
    verify_thm3,
)
from chaincert import chain
from util import (
    certificate_payload,
    line3_space,
    loop_thm3_nu,
    masked_ball_rows,
    random_battery,
    two_point_space,
)

PHI1 = YoungFunction.power(1)
PHI2 = YoungFunction.power(2)
PHI4 = YoungFunction.power(4)


def test_constant_arithmetic():
    # 4*216/(5*4*1) + 3*36/2 = 43.2 + 54
    assert constant_a(6.0) == pytest.approx(97.2, rel=1e-12)
    assert constant_b3(6.0) == pytest.approx(155.52, rel=1e-12)
    assert 2.0 * constant_a(6.0) * 6.0 ** 5 == pytest.approx(1511654.4, rel=1e-12)
    with pytest.raises(ValueError):
        constant_a(5.0)


def test_averaging_kernel_levels():
    line = line3_space()
    table = radius_table(line, PHI1, 2.0)
    k0 = averaging_kernel(table, 0)
    assert np.allclose(k0, line.mass[None, :])  # full-space average
    k1 = averaging_kernel(table, 1)
    assert np.allclose(k1[0], [0.5, 0.5, 0.0])
    khigh = averaging_kernel(table, table.kstar + 3)
    assert np.array_equal(khigh, np.eye(3))
    for kern in (k0, k1, khigh):
        assert np.allclose(kern.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(kern >= 0.0)


def test_composed_kernel():
    # the composed kernel P_l ... P_k is the left-to-right product of level kernels
    line = line3_space()
    table = radius_table(line, PHI1, 2.0)
    kernels = {k: averaging_kernel(table, k) for k in range(3)}
    comp = kernels[1] @ kernels[0]
    assert np.allclose(comp, line.mass[None, :])  # averaging absorbs everything
    assert np.allclose(comp.sum(axis=1), 1.0, atol=1e-12)


def test_certificate_thm1_weight_sum_oracle():
    cert = certificate_thm1(two_point_space(), PHI1, PHI2, 6.0, 1)
    # exact rational evaluation of 3 * sum_k 6^(k+1)/(6^(2k+4) - 1)
    oracle = 3.0 * float(sum(Fraction(6 ** (k + 1), 6 ** (2 * k + 4) - 1) for k in range(1, 220)))
    assert cert.B == pytest.approx(oracle, rel=1e-11)
    assert cert.B == pytest.approx(2.7778e-3, rel=1e-3)
    assert cert.K == 3.0 * cert.A * cert.B * cert.R ** (cert.n0 + 1)
    assert abs(cert.nu.sum() - 1.0) <= 1e-10
    assert np.all(cert.nu >= 0.0)
    assert cert.tail_bound <= 1e-12 * cert.B


def test_certificate_thm1_escalates_small_ratio():
    cert = certificate_thm1(two_point_space(), PHI1, PHI2, 3.0, 1)
    assert cert.escalated_from == 3.0
    assert cert.R == 9.0
    assert cert.K == 3.0 * cert.A * cert.B * 9.0 ** 2


def test_certificate_thm1_preconditions():
    with pytest.raises(PreconditionError):
        certificate_thm1(two_point_space(), PHI2, PHI2, 6.0, 1)  # divergent series
    bad = YoungFunction.piecewise([(0, 0), (1, 1), (2, 2), (4, 100)])
    with pytest.raises(PreconditionError):
        certificate_thm1(two_point_space(), bad, PHI2, 6.0, 1)  # ratio condition fails
    with pytest.raises(PreconditionError):
        certificate_thm1(two_point_space(), PHI1, PHI2, 6.0, 0)


@pytest.mark.parametrize("R", [float("nan"), float("inf")])
def test_certificates_reject_non_finite_ratio(R):
    with pytest.raises(ValueError, match="finite"):
        certificate_thm1(two_point_space(), PHI1, PHI2, R, 1)
    with pytest.raises(ValueError, match="finite"):
        certificate_thm3(two_point_space(), PHI2, R)


def test_certificate_thm3_two_point():
    cert = certificate_thm3(two_point_space(), PHI2, 6.0)
    # only the level-1 open-ball part survives: nu is the product measure
    assert np.allclose(cert.nu, 0.25)
    assert abs(cert.nu.sum() - 1.0) <= 1e-10
    assert cert.normalizer == pytest.approx(43.2, rel=1e-12)
    assert cert.B == pytest.approx(155.52, rel=1e-12)
    assert cert.C == 2.0 * cert.A * cert.R ** 5
    assert cert.K == cert.A * cert.R / cert.B
    assert cert.tail_bound == 0.0


def test_certificate_thm3_refuses_single_point():
    single_point = generate_space("grid", n=1)
    with pytest.raises(CertificateError):
        certificate_thm3(single_point, PHI2, 6.0)


def test_certificate_thm3_normalizer_bound():
    # normalizer <= B * mass integral on every space
    for sp in random_battery(41, 6, 3, 16):
        cert = certificate_thm3(sp, PHI2, 6.0)
        mets = MinorizingMetrics(sp, PHI2)
        assert cert.normalizer <= cert.B * mets.total * (1 + 1e-9)


def test_modulus_formula():
    two = two_point_space()
    cert = certificate_thm3(two, PHI2, 6.0)
    mets = MinorizingMetrics(two, PHI2)
    tau = mets.tau[0, 1]
    gauge = ConvexGauge(PHI2)
    expected = cert.C * tau * gauge.inverse_from_one(mets.total / (cert.K * tau))
    (got,) = modulus_pairs(cert, mets)
    assert got == pytest.approx(expected, rel=1e-12)
    # hand re-evaluation: C * sqrt(2) * sqrt(1 + 1/K)
    hand = 1511654.4 * np.sqrt(2.0) * np.sqrt(1.0 + 1.0 / 3.75)
    assert got == pytest.approx(hand, rel=1e-9)


def _report_bytes(report):
    """Everything a report says, as bytes: each check's name, locations, lhs and rhs, and the params."""
    parts = [repr(report.params).encode()]
    for c in report.checks:
        parts += [c.name.encode(), repr(list(c.locations)).encode(), c.lhs.tobytes(), c.rhs.tobytes()]
    return b"|".join(parts)


_MODULI_SPACES = {
    "random": lambda: generate_space("random", n=23, seed=4),
    "random-mass": lambda: generate_space("random", n=64, seed=5, mass="random"),
    "grid": lambda: generate_space("grid", n=40, gamma=0.5),
    "tree": lambda: generate_space("tree", depth=4),
    "random-300": lambda: generate_space("random", n=300, seed=6),
}


@pytest.mark.parametrize("kind", sorted(_MODULI_SPACES))
def test_cached_moduli_give_the_reports_of_fresh_certificates(kind):
    # the moduli are built by the first call and reused by every later one,
    # also with a second metrics object that agrees with the certificate
    space = _MODULI_SPACES[kind]()
    cert = certificate_thm3(space, PHI2, 6.0)
    mets = MinorizingMetrics(space, PHI2)
    other_mets = MinorizingMetrics(space, YoungFunction.power(2))
    rng = np.random.default_rng(7)
    for _ in range(3):
        f = rng.standard_normal(space.n)
        fresh = verify_thm3(certificate_thm3(space, PHI2, 6.0), MinorizingMetrics(space, PHI2), f)
        for m in (mets, other_mets, mets):
            assert _report_bytes(verify_thm3(cert, m, f)) == _report_bytes(fresh)
    assert modulus_pairs(cert, other_mets) is modulus_pairs(cert, mets)


def test_cached_moduli_still_check_agreement():
    space = generate_space("random", n=8, seed=1)
    cert = certificate_thm3(space, PHI2, 6.0)
    mets = MinorizingMetrics(space, PHI2)
    mod = modulus_pairs(cert, mets)
    assert modulus_pairs(cert, mets) is mod
    f = np.linspace(0.0, 1.0, 8)
    for other in (MinorizingMetrics(generate_space("random", n=8, seed=2), PHI2), MinorizingMetrics(space, PHI1)):
        for call in (lambda: modulus_pairs(cert, other), lambda: verify_thm3(cert, other, f)):
            with pytest.raises(ValueError, match="different"):
                call()
    assert modulus_pairs(cert, mets) is mod


def test_cached_inputs_are_read_only():
    space = generate_space("random", n=8, seed=1)
    t1 = certificate_thm1(space, PHI1, PHI2, 6.0, 1)
    t3 = certificate_thm3(space, PHI2, 6.0)
    mets = MinorizingMetrics(space, PHI2)
    for arr in (mets.tau, t1.nu, t3.nu, modulus_pairs(t3, mets)):
        before = arr.copy()
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
        assert np.array_equal(arr, before)


def test_kernel_average_bound_line():
    # composed averages are dominated by phi(R^k) times the plain ball integral
    line = line3_space()
    R = 6.0
    table = radius_table(line, PHI1, R)
    l = table.kstar + 1
    kernels = {k: averaging_kernel(table, k) for k in range(l + 1)}
    rng = np.random.default_rng(2)
    for _ in range(5):
        f = rng.standard_normal(3)
        comp = np.eye(3)
        for k in range(l, -1, -1):
            comp = comp @ kernels[k]
            ext = table.extended(l)[k]
            for x in range(3):
                lhs = float(comp[x] @ np.abs(f))
                inside = line.dist[x] <= ext[x] + 1e-12
                rhs = PHI1.value(R ** k) * float(np.sum(line.mass[inside] * np.abs(f[inside])))
                assert lhs <= rhs * (1 + 1e-9)


def test_certificate_rejects_zero_mass():
    sp = MetricMeasureSpace([[0.0, 1.0], [1.0, 0.0]], [1.0, 0.0])
    with pytest.raises(ZeroMassAtomError):
        certificate_thm1(sp, PHI1, PHI2, 6.0, 1)
    with pytest.raises(ZeroMassAtomError):
        certificate_thm3(sp, PHI2, 6.0)


def _dense_battery():
    """Random, grid and tree spaces, with uniform and Dirichlet masses."""
    return [
        generate_space("random", n=30, seed=4),
        generate_space("random", n=25, mass="random", seed=6),
        generate_space("grid", n=33, gamma=0.5),
        generate_space("grid", n=20, mass="random", seed=4),
        generate_space("tree", depth=4),
        generate_space("tree", depth=3, mass="random", seed=5),
    ]


def test_ball_rows_match_the_masked_divide_bit_for_bit():
    # every level past kstar too, where the radii are 0 and an open ball is empty and massless
    for space in _dense_battery():
        for phi in (PHI1, PHI2):
            table = radius_table(space, phi, 6.0)
            for k in range(table.kstar + 2):
                radii = table.radius_vector(k)
                for closed in (True, False):
                    for centers in (slice(None), [0, space.n - 1], [space.n // 2]):
                        got = chain._ball_rows(space, radii, closed, centers)
                        assert got.tobytes() == masked_ball_rows(space, radii, closed, centers).tobytes()
            empty = chain._ball_rows(space, table.radius_vector(table.kstar), closed=False)
            assert not empty.any() and not np.signbit(empty).any()


def test_certificates_match_the_masked_level_sums_bit_for_bit():
    for space in _dense_battery():
        t3 = certificate_thm3(space, PHI2, 6.0)
        assert t3.nu.tobytes() == loop_thm3_nu(space, PHI2, 6.0).tobytes()
        t1 = certificate_thm1(space, PHI1, PHI2, 6.0, 1)
        with mock.patch.object(chain, "_ball_rows", masked_ball_rows):
            masked = certificate_thm1(space, PHI1, PHI2, 6.0, 1)
        assert t1.nu.tobytes() == masked.nu.tobytes() and t1.B == masked.B


def _json_battery():
    spaces = [generate_space("random", n=20, seed=8), generate_space("grid", n=64, gamma=0.5),
              generate_space("tree", depth=4), generate_space("random", n=16, mass="random", seed=9)]
    for space in spaces:
        for R in (6.0, 3.0):  # R = 3 is escalated to 27, so escalated_R is a float
            yield certificate_thm1(space, PHI1, PHI2, R, 1)
            yield certificate_thm3(space, PHI2, R)


def test_certificate_json_is_json_dumps_of_the_payload():
    certs = list(_json_battery())
    assert {c.escalated_from for c in certs} == {None, 3.0}
    for cert in certs:
        assert certificate_to_json(cert) == json.dumps(certificate_payload(cert), sort_keys=True)
    # json's spelling of nan and the infinities, signed zeros, a subnormal, repeats and distinct values
    odd = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 0.1, 0.1, np.nan, 1 / 3]).reshape(2, 5)
    for nu in (odd, np.array([[0.25, 0.25], [0.25, 0.25]]), np.zeros((0, 0))):
        cert = dataclasses.replace(certs[0], nu=nu)
        assert certificate_to_json(cert) == json.dumps(certificate_payload(cert), sort_keys=True)
    assert "NaN, Infinity, -Infinity, -0.0, 0.0, 5e-324" in certificate_to_json(dataclasses.replace(certs[0], nu=odd))
