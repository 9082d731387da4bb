import gc
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from chaincert import (
    Check,
    MinorizingMetrics,
    TestFunction,
    VerificationReport,
    YoungFunction,
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
from chaincert.mspace import _triu
from chaincert.verify import _PairLocations
from util import (
    corrupted_kernels,
    line3_space,
    loop_growth_ratios,
    loop_invariant_suite,
    loop_proof_trace,
    per_check_rows,
    random_battery,
    rel_margin,
    two_point_space,
    unvalidated_space,
    worst_start_level_gap,
    worst_witness_rows,
)

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


def test_thm1_zero_constant_gives_no_nan():
    # every weight of (x, x^400) underflows, so K = 0: a pair that moves has
    # an infinite sup ratio and a pair that does not a zero one, never a nan
    line = line3_space()
    cert = certificate_thm1(line, PHI1, YoungFunction.power(400), 6.0, 1)
    assert cert.K == 0.0
    report = verify_thm1(cert, MinorizingMetrics(line, PHI1), np.array([0.0, 1.0, 0.0]), nabla_r=1.0)
    sup = report.check("gauge_sup_bound")
    assert sup.lhs[0] == np.inf and not sup.passed
    assert not np.isnan(report.check("holder_bound").rel_margins).any()


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


def test_overflowing_quotients_raise_one_error_without_warnings():
    # finite values whose quotient 1e308 / 0.5 overflows: every check that
    # reads the quotients raises the same error, and numpy warns of nothing
    grid = generate_space("grid", n=3)
    f = np.array([1e308, 0.0, 0.0])
    calls = [
        lambda: verify_thm1(certificate_thm1(grid, PHI1, PHI2, 6.0, 1), MinorizingMetrics(grid, PHI1), f),
        lambda: verify_thm3(certificate_thm3(grid, PHI2, 6.0), MinorizingMetrics(grid, PHI2), f),
        lambda: proof_trace(radius_table(grid, PHI1, 6.0), MinorizingMetrics(grid, PHI1), 0, 2, 3, f=f),
        lambda: TestFunction(f).quotients(grid),
        # a difference that overflows shows as an infinite quotient too
        lambda: TestFunction([1e308, -1e308]).quotients(two_point_space()),
    ]
    messages = set()
    for call in calls:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="overflow") as exc:
                call()
        assert caught == []
        messages.add(str(exc.value))
    assert messages == {"difference quotients |f(s) - f(t)| / d(s, t) overflow"}


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
    five = generate_space("random", n=5, seed=0)
    table = radius_table(five, PHI1, 6.0)
    with pytest.raises(ValueError, match="wrong length: 3 values on a 5-point space"):
        proof_trace(table, MinorizingMetrics(five, PHI1), 0, 1, l=table.kstar + 2, f=[0.0, 1.0, 2.0])


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
    with corrupted_kernels():
        report = invariant_suite(line3_space(), PHI1, PHI2, 6.0, 1)
    assert not report.passed
    assert "kernel_stochastic" in report.failed_names()


def test_check_columns_with_infinities():
    inf = math.inf
    iu, iv = np.triu_indices(4, 1)
    lhs = np.array([inf, 1.0, inf, 0.5, 3.0, 0.0])
    rhs = np.array([1.0, inf, inf, 2.0, 1.0, 0.0])
    pc = Check("c", _PairLocations(iu, iv), lhs, rhs)
    # an rhs of -inf fails under a finite lhs and holds under lhs = -inf
    neg = Check("n", ("finite", "both"), np.array([1.0, -inf]), np.array([-inf, -inf]))
    report = VerificationReport([Check("s", "sup", inf, inf), pc, neg], {})
    assert report.pair_checks == [pc]
    rows = list(report.rows())
    # repr compares nan (inf - inf) as equal and tells np.float64 from float
    assert [tuple(map(repr, r)) for r in rows] == [tuple(map(repr, r)) for r in per_check_rows(report)]
    assert [r[5] for r in rows[1:4]] == [-inf, inf, -inf]
    assert [r[5] for r in rows[7:]] == [-inf, inf]
    assert [r[6] for r in rows] == [False, False, True, False, True, False, True, False, True]
    assert math.isnan(rows[0][4]) and math.isnan(rows[3][4]) and math.isnan(rows[8][4])
    assert not pc.passed and pc.rel_margin == -inf
    assert not neg.passed and not Check("c", "x", 1.0, -inf).passed
    # a pair list other than np.triu_indices keeps its own locations
    odd = Check("c", _PairLocations(np.array([0, 2]), np.array([3, 1])), np.zeros(2), np.ones(2))
    assert tuple(odd.columns()[0]) == ("(0,3)", "(2,1)")
    assert odd.locations[1] == "(2,1)"


def test_check_worst_takes_first_minimum():
    iu, iv = np.triu_indices(4, 1)
    tied = Check("c", _PairLocations(iu, iv), np.array([0.0, 2.0, 1.0, 2.0, 2.0, 0.0]), np.ones(6))
    w = tied.worst()
    assert w.locations == ("(0,2)",) and w.lhs.tolist() == [2.0] and w.rhs.tolist() == [1.0]
    assert w.rel_margin == tied.rel_margin == -1.0
    # the row is copied, not a view that would keep the pair arrays alive
    assert w.lhs.base is None and w.rhs.base is None
    # infinities: an infinite lhs is the worst, before any finite shortfall
    inf = math.inf
    mixed = Check("c", ("a", "b", "c", "d"), [5.0, inf, 1.0, inf], [1.0, inf, inf, 0.0])
    assert mixed.worst().locations == ("b",)
    assert mixed.worst().rel_margin == -inf
    assert Check("c", ("a", "b"), [1.0, 2.0], [inf, inf]).worst().locations == ("a",)


def test_relaxed_holder_row_is_the_worst_row_of_the_full_check():
    # verify_thm1 keeps only the worst pair of the relaxed bound; it must be
    # the row, bit for bit, that Check.worst picks from the check over all
    # pairs, ties (a constant f) included
    rng = np.random.default_rng(17)
    for space in random_battery(17, 6, 3, 24):
        cert = certificate_thm1(space, PHI1, PHI2, 6.0, 1)
        mets = MinorizingMetrics(space, PHI1)
        iu, iv = _triu(space.n)
        for f in (rng.standard_normal(space.n), np.full(space.n, 1.5), np.arange(space.n) ** 2.0):
            report = verify_thm1(cert, mets, f)
            relaxed_K, lux = report.params["relaxed_K"], report.params["quotient_norm"]
            lhs = report.check("holder_bound").lhs
            full = Check("holder_bound_relaxed", _PairLocations(iu, iv), lhs, relaxed_K * lux * mets.tau[iu, iv])
            want, got = full.worst(), report.check("holder_bound_relaxed")
            assert got.locations == want.locations
            assert got.lhs.tobytes() == want.lhs.tobytes() and got.rhs.tobytes() == want.rhs.tobytes()


def test_rel_margins_are_computed_once_and_read_only():
    inf = math.inf
    check = Check("c", ("a", "b", "c", "d"), [5.0, inf, 1.0, 0.5], [1.0, inf, inf, 2.0])
    margins = check.rel_margins
    expected = margins.tolist()
    assert expected == [-4.0, -inf, inf, 0.75]
    assert check.rel_margins is margins
    with pytest.raises(ValueError):
        margins[0] = 1.0
    assert check.rel_margins.tolist() == expected
    assert check.rel_margin == -inf and not check.passed
    assert check.columns()[4].tolist() == expected and check.worst().locations == ("b",)
    # an lhs of -inf holds against any rhs; an lhs of +inf fails against any
    signed = Check("c", ("a", "b", "c", "d"), [-inf, -inf, inf, inf], [0.0, -inf, inf, -inf])
    assert signed.rel_margins.tolist() == [inf, inf, -inf, -inf]
    assert [rel_margin(a, b) for a, b in zip(signed.lhs, signed.rhs)] == [inf, inf, -inf, -inf]


def test_check_sizes_must_agree():
    with pytest.raises(ValueError):
        Check("c", ("a", "b"), [1.0, 2.0], [1.0])
    one = Check("c", "x", 1.0, 2.0)
    assert one.locations == ("x",) and one.lhs.shape == (1,) and one.rel_margin == 0.5


def _oracle_battery():
    spaces = [generate_space("random", n=n, seed=n) for n in (5, 17, 40, 64)]
    spaces += [generate_space("grid", n=n, gamma=0.5) for n in (6, 25)]
    spaces += [generate_space("grid", n=9, scale=8.0)]
    spaces += [generate_space("tree", depth=d) for d in (2, 4)]
    return spaces


def _assert_worst_row(check, expected):
    loc, lhs, rhs, rel = expected
    assert check.locations == (loc,), (check.name, check.locations, loc)
    assert check.lhs[0] == pytest.approx(lhs, rel=1e-12, abs=0.0)
    assert check.rhs[0] == pytest.approx(rhs, rel=1e-12, abs=0.0)
    assert check.rel_margin == pytest.approx(rel, rel=1e-12, abs=1e-300)


def test_proof_trace_worst_rows_match_scalar_oracle():
    rng = np.random.default_rng(12)
    for sp in _oracle_battery():
        for phi in (PHI1, PHI2):
            table = radius_table(sp, phi, 6.0)
            mets = MinorizingMetrics(sp, phi)
            for _ in range(6):
                s, t = (int(v) for v in rng.choice(sp.n, size=2, replace=False))
                tr = proof_trace(table, mets, s, t, l=table.kstar + 2)
                _assert_worst_row(tr.check("start_level_gap"), worst_start_level_gap(table, tr))


def test_converse_witness_worst_rows_match_scalar_oracle():
    rng = np.random.default_rng(13)
    for sp in _oracle_battery():
        for phi, psi, R in ((PHI2, PHI1, 2.0), (PHI2, PHI1, 6.0), (YoungFunction.power(3), PHI2, 3.0)):
            for t in rng.choice(sp.n, size=2, replace=False).tolist():
                for l in (1, 4):
                    w = converse_witness(sp, phi, psi, R, 1, t=t, l=l)
                    expected = worst_witness_rows(sp, phi, psi, R, 1, t, l)
                    assert [c.name for c in w.checks] == [
                        "step_moment_identity", "step_moment_bound",
                        "difference_jensen", "step_average_bound", "inverse_reconstruction",
                    ]
                    for name, row in expected.items():
                        _assert_worst_row(w.check(name), row)


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def _assert_same_checks(got, expected):
    assert [c.name for c in got] == [c.name for c in expected]
    for g, e in zip(got, expected):
        assert tuple(g.locations) == tuple(e.locations), g.name
        assert _bits(g.lhs) == _bits(e.lhs), (g.name, g.lhs, e.lhs)
        assert _bits(g.rhs) == _bits(e.rhs), (g.name, g.rhs, e.rhs)


def _assert_same_trace(got, expected):
    for name in ("a", "b", "c", "tau_s", "tau_t", "tau", "anchor"):
        assert getattr(got, name) == getattr(expected, name), name
    assert _bits(got.d_levels) == _bits(expected.d_levels)
    _assert_same_checks(got.checks, expected.checks)


def _array_battery():
    # grids and trees have tied distances, so balls gain and lose whole shells at once
    spaces = [generate_space("random", n=n, seed=n) for n in (4, 23, 64)]
    spaces += [generate_space("random", n=30, mass="random", seed=2)]
    spaces += [generate_space("grid", n=n, gamma=0.5) for n in (7, 40)]
    spaces += [generate_space("grid", n=33, mass="random", seed=3), generate_space("grid", n=9, scale=8.0)]
    spaces += [generate_space("tree", depth=d) for d in (2, 5)]
    return spaces


def test_proof_traces_match_loop_oracle():
    # large f and small threshold shifts n make ball averages nonzero, which
    # exercises the per-ball sums as well as the all-zero fast case
    rng = np.random.default_rng(21)
    spaces = [(sp, 4) for sp in _array_battery()] + [(generate_space("random", n=300, seed=9), 1)]
    for sp, pairs in spaces:
        for phi in (PHI1, PHI2):
            table = radius_table(sp, phi, 6.0)
            mets = MinorizingMetrics(sp, phi)
            for _ in range(pairs):
                s, t = (int(v) for v in rng.choice(sp.n, size=2, replace=False))
                f = rng.standard_normal(sp.n) * 10.0 ** rng.integers(0, 7)
                for l, shift in ((table.kstar + 1, 2), (table.kstar + 3, -2), (table.kstar + 2, 0)):
                    try:
                        expected = loop_proof_trace(table, mets, s, t, l, f=f, n=shift)
                    except ValueError:  # l <= c
                        continue
                    _assert_same_trace(proof_trace(table, mets, s, t, l, f=f, n=shift), expected)


def test_invariant_suite_matches_loop_oracle():
    spaces = _array_battery() + [generate_space("random", n=300, seed=9)]
    cases = ((PHI1, PHI2, 6.0), (PHI2, YoungFunction.power(4), 3.0), (PHI2, PHI2, 2.0))
    for sp in spaces:
        for phi, psi, R in cases if sp.n <= 64 else cases[:1]:
            _assert_same_checks(invariant_suite(sp, phi, psi, R, 1).checks,
                                loop_invariant_suite(sp, phi, psi, R, 1).checks)
    # on a metric space the support count is 0; a matrix that breaks the
    # triangle inequality (not validated) makes it positive
    rng = np.random.default_rng(0)
    d = np.triu(rng.uniform(0.05, 1.0, (16, 16)), 1)
    broken = unvalidated_space(d + d.T, np.full(16, 1 / 16))
    report = invariant_suite(broken, PHI1, PHI2, 3.0, 1)
    _assert_same_checks(report.checks, loop_invariant_suite(broken, PHI1, PHI2, 3.0, 1).checks)
    assert report.check("ball_nesting_support").lhs[0] > 0


def test_converse_witness_ratios_match_loop_oracle():
    for sp in _array_battery():
        for t in (0, sp.n // 2):
            w = converse_witness(sp, PHI2, PHI1, 2.0, 1, t=t, l=3)
            assert _bits(w.growth_ratios) == _bits(loop_growth_ratios(sp, PHI2, 2.0, 1, t))


def test_level_memo_matches_fresh_tables():
    sp = generate_space("grid", n=20, gamma=0.5, mass="random", seed=5)
    table = radius_table(sp, PHI1, 6.0)
    mets = MinorizingMetrics(sp, PHI1)
    rng = np.random.default_rng(8)
    fs = [rng.standard_normal(sp.n), 1e4 * rng.standard_normal(sp.n)]
    levels = [table.kstar + 3, table.kstar + 1, table.kstar + 3, table.kstar + 2]
    for l in levels:
        for f in fs:
            for s, t in ((0, 7), (7, 0), (19, 3), (3, 19)):
                fresh = proof_trace(radius_table(sp, PHI1, 6.0), mets, s, t, l, f=f, n=0)
                _assert_same_trace(proof_trace(table, mets, s, t, l, f=f, n=0), fresh)
    assert sorted(table._levels) == sorted(set(levels))


def test_pair_list_is_cached_and_read_only():
    iu, iv = _triu(6)
    assert _triu(6)[0] is iu
    assert np.array_equal(iu, np.triu_indices(6, 1)[0]) and np.array_equal(iv, np.triu_indices(6, 1)[1])
    with pytest.raises(ValueError):
        iu[0] = 1


def test_pair_labels_are_not_kept_after_the_report():
    space = generate_space("grid", n=400)
    metrics = MinorizingMetrics(space, PHI2)
    cert = certificate_thm3(space, PHI2, 6.0)
    f = np.random.default_rng(0).standard_normal(space.n)
    verify_thm3(cert, metrics, f)  # makes the cached pair list outside the measurement
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = verify_thm3(cert, metrics, f)
        assert sum(1 for _ in report.checks[0].locations) == 400 * 399 // 2
        del report
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 1 << 20
