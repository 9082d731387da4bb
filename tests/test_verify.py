import math

import numpy as np
import pytest

from chaincert import (
    MinorizingMetrics,
    TestFunction,
    VerificationReport,
    YoungFunction,
    averaging_kernel,
    certificate_thm1,
    certificate_thm3,
    converse_witness,
    generate_space,
    invariant_suite,
    proof_trace,
    radius_table,
    verify_thm1,
    verify_thm3,
)
from chaincert.chain import AveragingKernel
from chaincert.verify import PairChecks
from util import line3_space, per_check_rows, random_battery, two_point_space

PHI1 = YoungFunction.power(1)
PHI2 = YoungFunction.power(2)


def test_quotients():
    line = line3_space()
    fd = TestFunction(np.array([0.0, 1.0, 0.0])).quotients(line)
    assert np.allclose(fd, fd.T)
    assert np.all(np.diag(fd) == 0.0)
    assert fd[0, 1] == 1.0
    assert fd[0, 2] == 0.0


def test_thm1_line_passes():
    line = line3_space()
    cert = certificate_thm1(line, PHI1, PHI2, 6.0, 1)
    mets = MinorizingMetrics(line, PHI1)
    report = verify_thm1(cert, mets, np.array([0.0, 1.0, 0.0]), nabla_r=1.0)
    assert report.passed
    assert report.worst_rel_margin >= 0.0


def test_thm1_constant_function_degenerate():
    line = line3_space()
    cert = certificate_thm1(line, PHI1, PHI2, 6.0, 1)
    mets = MinorizingMetrics(line, PHI1)
    report = verify_thm1(cert, mets, np.full(3, 2.5), nabla_r=1.0)
    assert report.passed
    for p in report.pair_checks:
        assert np.all(p.lhs == 0.0) and np.all(p.rhs == 0.0)


def test_thm1_sign_symmetry():
    line = line3_space()
    cert = certificate_thm1(line, PHI1, PHI2, 6.0, 1)
    mets = MinorizingMetrics(line, PHI1)
    f = np.array([0.3, -1.2, 0.9])
    rows_pos = list(verify_thm1(cert, mets, f, nabla_r=1.0).rows())
    rows_neg = list(verify_thm1(cert, mets, -f, nabla_r=1.0).rows())
    assert rows_pos == rows_neg


def test_thm1_margin_homogeneity():
    line = line3_space()
    cert = certificate_thm1(line, PHI1, PHI2, 6.0, 1)
    mets = MinorizingMetrics(line, PHI1)
    f = np.array([0.0, 1.0, 0.25])
    base = verify_thm1(cert, mets, f).pair_checks[0]
    scaled = verify_thm1(cert, mets, 4.0 * f).pair_checks[0]
    assert np.allclose(scaled.rhs - scaled.lhs, 4.0 * (base.rhs - base.lhs), rtol=1e-9)


def test_thm1_mismatch_rejected():
    line = line3_space()
    cert = certificate_thm1(line, PHI1, PHI2, 6.0, 1)
    other = MinorizingMetrics(two_point_space(), PHI1)
    with pytest.raises(ValueError):
        verify_thm1(cert, other, np.zeros(2))
    mets = MinorizingMetrics(line, PHI2)  # different gauge
    with pytest.raises(ValueError):
        verify_thm1(cert, mets, np.zeros(3))


def test_thm3_two_point_hand_traced():
    two = two_point_space()
    cert = certificate_thm3(two, PHI2, 6.0)
    mets = MinorizingMetrics(two, PHI2)
    report = verify_thm3(cert, mets, np.array([0.0, 1.0]))
    assert report.passed
    pc = report.pair_checks[0]
    # both sides vanish: the quotient 1 sits below the gauge threshold
    assert pc.lhs.tolist() == [0.0]
    assert pc.rhs.tolist() == [0.0]


def test_thm3_random_battery():
    for sp in random_battery(51, 8, 3, 10):
        cert = certificate_thm3(sp, PHI2, 6.0)
        mets = MinorizingMetrics(sp, PHI2)
        rng = np.random.default_rng(4)
        for _ in range(10):
            report = verify_thm3(cert, mets, rng.standard_normal(sp.n))
            assert report.passed


def test_proof_trace_two_point():
    two = two_point_space()
    table = radius_table(two, PHI1, 6.0)
    mets = MinorizingMetrics(two, PHI1)
    tr = proof_trace(table, mets, 0, 1, l=3, f=np.array([0.0, 1.0]), n=2)
    assert tr.c == 0  # the pair realizes the diameter
    assert tr.tau == 1
    assert tr.passed
    assert tr.check("trace_metric_bound").rhs == pytest.approx(97.2 * mets.tau[0, 1], rel=1e-12)


def test_proof_trace_line_pair():
    line = line3_space()
    table = radius_table(line, PHI1, 6.0)
    mets = MinorizingMetrics(line, PHI1)
    tr = proof_trace(table, mets, 0, 1, l=3, f=np.array([0.0, 1.0, 0.0]), n=2)
    assert tr.passed
    assert {c.name for c in tr.checks} == {
        "start_level_gap",
        "geometric_level_sum",
        "trace_metric_bound",
        "smoothing_difference_bound",
    }


def test_proof_trace_argument_validation():
    line = line3_space()
    table = radius_table(line, PHI1, 6.0)
    mets = MinorizingMetrics(line, PHI1)
    with pytest.raises(ValueError):
        proof_trace(table, mets, 0, 0, l=3)
    with pytest.raises(ValueError):
        proof_trace(table, mets, 0, 1, l=0)
    low = radius_table(line, PHI1, 2.0)
    with pytest.raises(ValueError):
        proof_trace(low, mets, 0, 1, l=3)


def test_start_level_gap_violation_is_measured():
    # On spaces whose atoms are lighter than 1/phi(R^2) the radius ladder is
    # deep and the extended radii overestimate the actual point spread inside
    # the balls; the start-level inequality then genuinely fails. The trace
    # must measure and flag it rather than paper over it.
    sp = generate_space("random", n=40, seed=0)
    table = radius_table(sp, PHI1, 6.0)
    mets = MinorizingMetrics(sp, PHI1)
    tr = proof_trace(table, mets, 0, 12, l=table.kstar + 2)
    gap = tr.check("start_level_gap")
    assert not gap.passed
    assert gap.lhs > gap.rhs


def test_converse_witness_tail_constant():
    line = line3_space()
    w = converse_witness(line, PHI2, PHI1, 2.0, 1, t=0, l=4)
    assert abs(w.tail_constant - 1.0) <= 1e-12
    assert w.passed
    assert np.all(w.growth_ratios <= 2.0 ** 2 * (1 + 1e-9))  # bounded by R^(n0+1)


def test_converse_witness_zero_segment():
    # with l = 0 the witness integrates nothing below the first radius:
    # on five unit-spaced points the level-1 radius at the end is 1
    sp = generate_space("grid", n=5, scale=4.0)
    w = converse_witness(sp, PHI2, PHI1, 2.0, 1, t=0, l=0)
    assert w.witness_values[0] == 0.0
    assert w.witness_values[1] == 0.0  # d(t, x) = 1 = r_1(t), zero below it
    assert w.witness_values[2] == pytest.approx(0.5)
    assert w.passed


def test_converse_witness_requires_convergence():
    with pytest.raises(ValueError):
        converse_witness(line3_space(), PHI2, PHI2, 2.0, 1, t=0, l=2)


def test_invariant_suite_passes():
    assert invariant_suite(two_point_space(), PHI2, PHI2, 6.0, 1).passed
    for sp in random_battery(61, 6, 3, 12):
        report = invariant_suite(sp, PHI2, YoungFunction.power(4), 6.0, 1)
        assert report.passed, report.failed_names()


def test_invariant_suite_detects_corrupted_kernel():
    line = line3_space()
    table = radius_table(line, PHI1, 6.0)
    l = table.kstar + 1
    kernels = [averaging_kernel(table, k) for k in range(l + 1)]
    bad = kernels[1].matrix.copy()
    bad[0] *= 1.1
    kernels[1] = AveragingKernel(level=1, matrix=bad)
    report = invariant_suite(line, PHI1, PHI2, 6.0, 1, kernels=kernels)
    assert not report.passed
    assert "kernel_stochastic" in report.failed_names()


def test_pair_check_columns_with_infinities():
    inf = math.inf
    iu, iv = np.triu_indices(4, 1)
    lhs = np.array([inf, 1.0, inf, 0.5, 3.0, 0.0])
    rhs = np.array([1.0, inf, inf, 2.0, 1.0, 0.0])
    pc = PairChecks("c", iu, iv, lhs, rhs)
    report = VerificationReport([], [pc], {})
    rows = list(report.rows())
    # repr compares nan (inf - inf) as equal and tells np.float64 from float
    assert [tuple(map(repr, r)) for r in rows] == [tuple(map(repr, r)) for r in per_check_rows(report)]
    assert [r[5] for r in rows[:3]] == [-inf, inf, -inf]
    assert [r[6] for r in rows] == [False, True, False, True, False, True]
    assert math.isnan(rows[2][4])
    assert not pc.passed and pc.worst_rel_margin == -inf
    # a pair list other than np.triu_indices keeps its own locations
    odd = PairChecks("c", np.array([0, 2]), np.array([3, 1]), np.zeros(2), np.ones(2))
    assert odd.columns()[0] == ("(0,3)", "(2,1)")
