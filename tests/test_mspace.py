import json
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from chaincert import (
    MetricMeasureSpace,
    SpaceValidationError,
    YoungFunction,
    ZeroMassAtomError,
    ball_growth_integral,
    generate_space,
    radius_table,
    space_from_json,
    space_to_json,
)
from chaincert import mc, mspace
from chaincert.cli import EXIT_CONFIG, run
from util import (
    line3_space,
    loop_tree_dist,
    random_battery,
    searchsorted_ball_mass,
    searchsorted_radii,
    tensor_triangle_violated,
    two_point_space,
)

PHI1 = YoungFunction.power(1)
PHI2 = YoungFunction.power(2)


def test_validation_rejects_bad_matrices():
    with pytest.raises(SpaceValidationError):
        MetricMeasureSpace([[0.0, 1.0], [0.5, 0.0]], [0.5, 0.5])
    with pytest.raises(SpaceValidationError):
        MetricMeasureSpace([[0.0, 1.0], [1.0, 0.1]], [0.5, 0.5])
    with pytest.raises(SpaceValidationError):
        MetricMeasureSpace([[0.0, 1.0], [1.0, 0.0]], [0.6, 0.6])
    # triangle violation: d(0,2) > d(0,1) + d(1,2)
    bad = [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]
    with pytest.raises(SpaceValidationError):
        MetricMeasureSpace(bad, [1 / 3] * 3)


def test_coincident_points_and_label_count_rejected():
    with pytest.raises(SpaceValidationError, match="coincident"):
        MetricMeasureSpace([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]], [0.25, 0.25, 0.5])
    with pytest.raises(SpaceValidationError, match="labels"):
        MetricMeasureSpace([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5], labels=["a"])


def test_coincident_points_found_beside_a_nonzero_diagonal():
    # zeros are counted against the diagonal's own zeros, so a diagonal that
    # is within tolerance of 0 but not 0 still leaves the off-diagonal zero over
    dist = np.array([[1e-13, 0.0, 1.0], [0.0, 1e-13, 1.0], [1.0, 1.0, 1e-13]])
    with pytest.raises(SpaceValidationError, match="coincident"):
        MetricMeasureSpace(dist, [0.25, 0.25, 0.5])
    dist[0, 1] = dist[1, 0] = 1.0
    assert MetricMeasureSpace(dist, [0.25, 0.25, 0.5]).n == 3


def test_space_stores_a_zero_diagonal_in_read_only_arrays():
    # a diagonal within tolerance of 0 is stored as 0, so each point is the
    # unique first entry of its own sorted row
    dist = np.array([[1e-12, 1e-13], [1e-13, 1e-12]])
    spaces = [MetricMeasureSpace(dist, [0.5, 0.5])] + random_battery(3, 4, 2, 20)
    assert dist[0, 0] == 1e-12  # the caller's matrix is copied
    for sp in spaces:
        assert not np.diagonal(sp.dist).any()
        assert (sp._order[:, 0] == np.arange(sp.n)).all()
        for arr in (sp.dist, sp.mass, *sp.distances_from(0)):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("R", [NAN, INF])
def test_radius_table_rejects_non_finite_ratio(R):
    with pytest.raises(ValueError, match="finite"):
        radius_table(two_point_space(), PHI1, R)


@pytest.mark.parametrize(
    "dist, mass, space_cfg",
    [
        pytest.param([[0.0, NAN], [NAN, 0.0]], [0.5, 0.5], None, id="nan-distance"),
        pytest.param([[0.0, INF], [INF, 0.0]], [0.5, 0.5], None, id="inf-distance"),
        pytest.param(
            [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]],
            [NAN, 1.0, 1.0],
            "kind = grid\nn = 3\nscale = 2.0\nmass = nan,1,1\n",
            id="nan-mass",
        ),
    ],
)
def test_non_finite_inputs_are_config_errors(tmp_path, dist, mass, space_cfg):
    with pytest.raises(SpaceValidationError, match="finite"):
        MetricMeasureSpace(dist, mass)
    n = len(mass)
    if space_cfg is None:
        space = {"labels": [f"p{i}" for i in range(n)], "dist": np.ravel(dist).tolist(), "mass": mass}
        (tmp_path / "space.json").write_text(json.dumps(space))
        space_cfg = "source = file\nfile = space.json\n"
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(
        "[space]\n" + space_cfg + "[phi]\nkind = power\np = 2\n"
        "[certificate]\ntheorem = T3\nR = 6\n"
        "[functions]\nsource = values\nvalues = " + ",".join(["0"] * n) + "\n"
    )
    assert run(cfg, out_dir=tmp_path / "out") == EXIT_CONFIG


@pytest.mark.parametrize("mass, total", [([-1, -1, 2], "0.0"), ([0, 0, 0], "0.0"), ([1e308, 1e308, 0], "inf")])
def test_mass_list_with_a_bad_sum_is_rejected_by_its_sum(mass, total):
    # numpy's divide and overflow warnings are errors under the pytest configuration
    with pytest.raises(ValueError, match=f"mass list must have a positive finite sum, not {total}"):
        generate_space("grid", n=3, mass=mass)


def _triangle_cases(rng):
    """Distance matrices with n = 2..70 around the edge of the triangle check.

    Per size: a Euclidean space and a collinear grid (gamma = 1, exact ties);
    from each, copies with one entry d(i,j) set just above, at and just below
    min_k d(i,k) + d(j,k) + 1e-12, each kept symmetric and once more with an
    asymmetry inside the symmetry tolerance.
    """
    for n in range(2, 71):
        pts = rng.random((n, 2))
        euclid = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        euclid = 0.5 * (euclid + euclid.T)
        np.fill_diagonal(euclid, 0.0)
        for base in (euclid, generate_space("grid", n=n, gamma=1.0).dist):
            yield base
            if n < 3:
                continue
            i, j = rng.choice(n, size=2, replace=False)
            others = np.setdiff1d(np.arange(n), [i, j])
            limit = (base[i, others] + base[j, others]).min() + 1e-12
            for v in (np.nextafter(limit, INF), limit, np.nextafter(limit, 0.0)):
                pushed = base.copy()
                pushed[i, j] = pushed[j, i] = v
                yield pushed
                skew = np.triu(rng.uniform(-4e-13, 4e-13, size=(n, n)), k=1)
                yield pushed + skew


# every block budget at the size cutoff of the two-half triangle check, where
# these spaces of n <= 70 run serially, and at cutoff 0, where every space
# runs as two halves
BLOCK_SPLITS = [
    pytest.param(block, split, id=str(block) if split else f"{block}-halves")
    for split in (mspace._TRIANGLE_SPLIT, 0)
    for block in (mspace._TRIANGLE_BLOCK, 2000, 1)
]


@pytest.mark.parametrize("block, split", BLOCK_SPLITS)
def test_triangle_check_matches_tensor_oracle(monkeypatch, block, split):
    # at n = 70 the smaller budgets give column blocks of 3 and 1 beside the
    # row blocks of 8, with ragged ends
    monkeypatch.setattr(mspace, "_TRIANGLE_BLOCK", block)
    monkeypatch.setattr(mspace, "_TRIANGLE_SPLIT", split)
    verdicts = []
    for dist in _triangle_cases(np.random.default_rng(33)):
        n = dist.shape[0]
        try:
            MetricMeasureSpace(dist, np.full(n, 1.0 / n))
            violated = False
        except SpaceValidationError as exc:
            assert str(exc) == "triangle inequality violated"
            violated = True
        assert violated == tensor_triangle_violated(dist)
        verdicts.append(violated)
    assert 200 < sum(verdicts) < len(verdicts) - 200


def _triangle_verdict(dist):
    """True when MetricMeasureSpace rejects dist for the triangle inequality alone."""
    n = dist.shape[0]
    try:
        MetricMeasureSpace(dist, np.full(n, 1.0 / n))
    except SpaceValidationError as exc:
        assert str(exc) == "triangle inequality violated"
        return True
    return False


def _skewed_below(rng, n, i, j):
    """A Euclidean matrix with a skew inside the symmetry tolerance below the
    diagonal and d(j,i), i < j, one step above its limit min_k d(i,k) + d(j,k)
    + 1e-12, while d(i,j) sits exactly at it."""
    pts = rng.random((n, 2))
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    dist = 0.5 * (dist + dist.T)
    np.fill_diagonal(dist, 0.0)
    dist += np.tril(rng.uniform(-4e-13, 4e-13, size=(n, n)), k=-1)
    others = np.setdiff1d(np.arange(n), [i, j])
    limit = (dist[i, others] + dist[j, others]).min() + 1e-12
    dist[i, j] = limit
    dist[j, i] = np.nextafter(limit, INF)
    return dist


@pytest.mark.parametrize("block, split", BLOCK_SPLITS)
def test_triangle_check_finds_violation_only_below_diagonal(monkeypatch, block, split):
    # j lies in a later row block than i, so d(j,i) is read only through the
    # transposed comparison of i's row block
    monkeypatch.setattr(mspace, "_TRIANGLE_BLOCK", block)
    monkeypatch.setattr(mspace, "_TRIANGLE_SPLIT", split)
    rng = np.random.default_rng(41)
    for n, i, j in [(12, 0, 11), (40, 3, 37), (70, 7, 8), (70, 20, 69)]:
        dist = _skewed_below(rng, n, i, j)
        assert tensor_triangle_violated(dist)
        assert _triangle_verdict(dist)
        upper = dist.copy()
        upper[j, i] = upper[i, j]
        assert not tensor_triangle_violated(upper)
        assert not _triangle_verdict(upper)


@pytest.mark.parametrize("block, split", BLOCK_SPLITS)
@pytest.mark.parametrize("n", [13, 29, 67])
def test_triangle_check_covers_ragged_last_row_block(monkeypatch, block, split, n):
    # n is not a multiple of 8, so the last row block is short; violations in
    # it, across it and in the last column are all found
    monkeypatch.setattr(mspace, "_TRIANGLE_BLOCK", block)
    monkeypatch.setattr(mspace, "_TRIANGLE_SPLIT", split)
    base = generate_space("random", n=n, seed=n).dist
    assert not _triangle_verdict(base)
    for i, j in [(n - 2, n - 1), (n - 9, n - 1), (0, n - 1)]:
        others = np.setdiff1d(np.arange(n), [i, j])
        limit = (base[i, others] + base[j, others]).min() + 1e-12
        for v, expected in [(np.nextafter(limit, INF), True), (limit, False)]:
            dist = base.copy()
            dist[i, j] = dist[j, i] = v
            assert tensor_triangle_violated(dist) == expected
            assert _triangle_verdict(dist) == expected


@pytest.mark.parametrize("i, j", [(35, 120), (90, 150), (201, 202)], ids=["even", "odd", "ragged"])
def test_triangle_halves_find_a_violation_in_either_half(i, j):
    # n = 203 runs as two halves: row blocks 0, 2, 4, ... (rows 0, 16, 32, ...)
    # in the calling thread and blocks 1, 3, 5, ... in the helper. i = 35 lies
    # in block 4, i = 90 in block 11 and i = 201 in the short last block 25 of
    # rows 200..202; j lies in a block of the other half or in the same one,
    # so only i's row block sees the pair
    n = 203
    assert n >= mspace._TRIANGLE_SPLIT
    base = generate_space("random", n=n, seed=n).dist
    others = np.setdiff1d(np.arange(n), [i, j])
    limit = (base[i, others] + base[j, others]).min() + 1e-12
    for v, expected in [(np.nextafter(limit, INF), True), (limit, False)]:
        dist = base.copy()
        dist[i, j] = dist[j, i] = v
        assert tensor_triangle_violated(dist) == expected
        assert _triangle_verdict(dist) == expected
    below = _skewed_below(np.random.default_rng(i), n, i, j)
    assert tensor_triangle_violated(below)
    assert _triangle_verdict(below)


def _triangle_use(k, below=False):
    """The triangle check's use of mspace._run_halves: the verdict on random
    Euclidean distances of _TRIANGLE_SPLIT points, or of one point fewer;
    k = 1, 2, 3 break the triangle inequality at one pair."""
    n = mspace._TRIANGLE_SPLIT - below
    pts = np.random.default_rng(n).random((n, 2))
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    if k:
        i, j = [(3, 60), (50, 51), (n - 7, n - 1)][k - 1]
        dist[i, j] = dist[j, i] = 10.0 * dist.max()
    return _triangle_verdict(dist)


def _sampler_use(k, below=False):
    """The path sampler's use: 2,048 paths, two blocks, with seed k; the
    grid's n - 1 steps make _SAMPLE_SPLIT normal draws, or 2,048 fewer.
    k = -1 is a seed that fails."""
    n = mc._SAMPLE_SPLIT // 2048 + 1 - below
    return mc.sample(mc.brownian_grid_sampler(n, YoungFunction.power(2)), 2048, seed=k).values


def _sup_use(k, below=False):
    """The Monte Carlo sup's use: the sups of 1,024 normal paths from seed k
    on the fewest points whose pairs give _SUP_SPLIT ratios per path block,
    or on one point fewer. k = -1 gives two denominators for all the pairs,
    which fails in every row."""
    n = next(m for m in range(2, 1000) if 1024 * (m * (m - 1) // 2) >= mc._SUP_SPLIT) - below
    values = np.random.default_rng(abs(k)).standard_normal((1024, n))
    return mc._path_sups(values, np.linspace(1.0, 2.0, n * (n - 1) // 2 if k >= 0 else 2))


# each use of the two-half runner: its call, a failing call, the half that
# runs in both threads, and the name in the runner's error
HALVES = {
    "triangle": (_triangle_use, lambda: _triangle_use(1), (mspace, "_triangle_rows"), "triangle check"),
    "sampler": (_sampler_use, lambda: _sampler_use(-1), (mc, "_sample_blocks"), "path sampler"),
    "sup": (_sup_use, lambda: _sup_use(-1), (mc, "_sup_half"), "Monte Carlo sup"),
}


@pytest.fixture
def started(monkeypatch):
    """The names of the threads started from here on."""
    names = []

    class Counted(threading.Thread):
        def start(self):
            names.append(self.name)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    return names


@pytest.mark.parametrize("use", HALVES)
def test_halves_leave_no_thread_behind(started, use):
    call, failing, _, _ = HALVES[use]
    before = threading.active_count()
    call(0)
    try:  # the triangle check rejects its space; the Monte Carlo calls raise
        assert failing()
    except ValueError:
        pass
    assert threading.active_count() == before
    assert len(started) == 2
    # below the cutoff the call starts no thread
    call(0, below=True)
    assert len(started) == 2


def test_runner_never_splits_fewer_than_two_items(monkeypatch, started):
    # with every cut-off at 0, the one row block of 8 points, the one point
    # row at n = 2 and the one block of 1,024 paths run in the calling thread;
    # the sampler's 64-point grid space, whose 8 row blocks would split, is
    # validated before the cut-offs drop
    sampler = mc.brownian_grid_sampler(64, YoungFunction.power(2))
    for module, split in ((mspace, "_TRIANGLE_SPLIT"), (mc, "_SAMPLE_SPLIT"), (mc, "_SUP_SPLIT")):
        monkeypatch.setattr(module, split, 0)
    dist = generate_space("random", n=8, seed=8).dist.copy()
    assert not _triangle_verdict(dist)
    dist[0, 7] = dist[7, 0] = 10.0 * dist.max()
    assert _triangle_verdict(dist)
    values = np.random.default_rng(2).standard_normal((1024, 2))
    assert np.array_equal(mc._path_sups(values, np.ones(1)), np.abs(values[:, 0] - values[:, 1]))
    assert mc.sample(sampler, 1024, seed=0).values.shape == (1024, 64)
    assert started == []


@pytest.mark.parametrize("use", HALVES)
def test_halves_of_concurrent_callers_keep_their_own_results(use):
    # four callers run at once, each with its own helper, with the
    # interpreter switching threads every microsecond; a stop event or buffer
    # shared between calls would mix their results
    call = HALVES[use][0]
    expected = [call(k) for k in range(4)]
    results = [[] for _ in expected]

    def caller(k):
        for _ in range(4):
            results[k].append(call(k))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(k,)) for k in range(len(expected))]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    for want, got in zip(expected, results):
        assert len(got) == 4 and all(np.array_equal(g, want) for g in got)
    if use == "triangle":
        assert expected == [False, True, True, True]


@pytest.mark.parametrize("use", HALVES)
def test_helper_failure_is_no_pass(monkeypatch, use):
    # a helper half that dies leaves its share of the work undone, so the
    # call raises instead of returning, with the helper's error as the cause
    call, _, (module, name), what = HALVES[use]
    half = getattr(module, name)
    main = threading.current_thread()

    def helper_fails(*args):
        if threading.current_thread() is not main:
            raise MemoryError("helper half")
        return half(*args)

    lost = []
    monkeypatch.setattr(module, name, helper_fails)
    monkeypatch.setattr(threading, "excepthook", lost.append)
    with pytest.raises(RuntimeError, match=f"helper thread of the {what} failed") as err:
        call(0)
    assert type(err.value.__cause__) is MemoryError
    assert lost == []


@pytest.mark.parametrize("n", [mspace._TRIANGLE_SPLIT - 1, mspace._TRIANGLE_SPLIT], ids=["serial", "halves"])
def test_triangle_check_runs_under_the_callers_error_state(n):
    # at a diameter of 1e308 two-hop sums overflow; the helper half ran
    # under numpy's default error state, so it warned where the caller
    # ignores overflow
    dist = generate_space("random", n=n, seed=3).dist
    dist = dist * (1e308 / dist.max())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with np.errstate(over="ignore"):
            MetricMeasureSpace(dist, np.full(n, 1.0 / n))
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow encountered in add"):
            MetricMeasureSpace(dist, np.full(n, 1.0 / n))
    assert caught == []


def test_triangle_calling_half_failure_propagates(monkeypatch):
    # the calling thread's half raises: the helper is stopped and joined
    # before the exception leaves the constructor
    n = mspace._TRIANGLE_SPLIT
    dist = generate_space("random", n=n, seed=n).dist
    rows = mspace._triangle_rows
    main = threading.current_thread()

    def calling_half_fails(*args):
        if threading.current_thread() is main:
            raise MemoryError("calling half")
        return rows(*args)

    lost = []
    monkeypatch.setattr(mspace, "_triangle_rows", calling_half_fails)
    monkeypatch.setattr(threading, "excepthook", lost.append)
    before = threading.active_count()
    with pytest.raises(MemoryError, match="calling half"):
        MetricMeasureSpace(dist, np.full(n, 1.0 / n))
    assert threading.active_count() == before
    assert lost == []


def test_triangle_verdict_is_invariant_under_relabeling():
    rng = np.random.default_rng(34)
    verdicts = []
    for dist in _triangle_cases(np.random.default_rng(33)):
        perm = rng.permutation(dist.shape[0])
        verdict = _triangle_verdict(dist)
        assert _triangle_verdict(dist[np.ix_(perm, perm)]) == verdict
        verdicts.append(verdict)
    assert 200 < sum(verdicts) < len(verdicts) - 200


def test_triangle_check_memory_guard():
    # each of the two halves holds one (8, bj, n) block of sums (512 KB) and
    # no n x n matrix of minima; an extra n x n float temporary adds 2.1 MB
    # at n = 512
    dist = generate_space("random", n=512, seed=512).dist
    mass = np.full(512, 1.0 / 512)
    tracemalloc.start()
    try:
        MetricMeasureSpace._validate(dist, mass)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6e6


def test_validation_memory_guard():
    # the symmetry check holds one n x n float temporary (2.1 MB at n = 512)
    # and the coincidence check counts zeros with no mask or copy of the
    # off-diagonal entries; a second n x n float temporary would break 3 MB
    dist = generate_space("random", n=512, seed=512).dist
    mass = np.full(512, 1.0 / 512)
    tracemalloc.start()
    try:
        MetricMeasureSpace._validate(dist, mass)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3e6


def test_triangle_check_memory_is_quadratic():
    # the n^3 tensor of two-hop sums alone would take 134 MB at n = 256
    tracemalloc.start()
    try:
        generate_space("random", n=256, seed=256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def test_ball_mass_examples():
    two = two_point_space()
    assert two.ball_mass(0, 0.5, closed=True) == 0.5
    assert two.ball_mass(0, two.diameter, closed=True) == 1.0
    assert two.ball_mass(0, 1.0, closed=False) == 0.5
    assert two.ball_mass(0, 1.0, closed=True) == 1.0


def _ball_mass_battery():
    rng = np.random.default_rng(21)
    spaces = [generate_space("random", n=n, seed=n) for n in (1, 2, 9, 30)]
    spaces += [generate_space("grid", n=n, gamma=g) for n, g in ((7, 1.0), (16, 0.5))]
    spaces += [generate_space("tree", depth=3, mass="random", seed=3)]
    # pairs of points one ulp apart on a line, so some distances differ by one ulp
    pos = np.sort(np.concatenate([np.linspace(0.0, 1.0, 5), np.nextafter(np.linspace(0.25, 1.0, 4), 2.0)]))
    spaces += [MetricMeasureSpace(np.abs(pos[:, None] - pos[None, :]), np.full(pos.size, 1.0 / pos.size))]
    out = []
    for sp in spaces:
        mass = rng.dirichlet(np.ones(sp.n))
        mass[rng.random(sp.n) < 0.3] = 0.0
        mass = mass / mass.sum() if mass.sum() > 0 else sp.mass
        out += [sp, MetricMeasureSpace(sp.dist, mass)]
    return out


def test_ball_mass_broadcasts_like_scalar_calls():
    # one point searches its sorted row, several count entries on theirs; the
    # oracle searches one row per radius
    rng = np.random.default_rng(22)
    for sp in _ball_mass_battery():
        own = sp.dist.copy()
        radii = np.concatenate([own, np.nextafter(own, np.inf), np.nextafter(own, -np.inf)], axis=1)
        radii = np.where(radii < 0, 0.0, radii)  # one step below 0 is a negative radius
        xs = np.repeat(np.arange(sp.n)[:, None], radii.shape[1], axis=1)
        for closed in (True, False):
            loop = np.array([[sp.ball_mass(int(x), float(e), closed=closed) for x, e in zip(xr, er)]
                             for xr, er in zip(xs, radii)])
            oracle = [[searchsorted_ball_mass(sp, int(x), float(e), closed) for x, e in zip(xr, er)]
                      for xr, er in zip(xs, radii)]
            assert loop.tobytes() == np.array(oracle).tobytes()
            assert sp.ball_mass(xs, radii, closed=closed).tobytes() == loop.tobytes()
            assert sp.ball_mass(np.arange(sp.n)[:, None], radii, closed=closed).tobytes() == loop.tobytes()
            for x in range(sp.n):
                assert sp.ball_mass(x, radii[x], closed=closed).tobytes() == loop[x].tobytes()
            # each radius of a row against every point: an (n, m) broadcast of (n, 1) and (m,)
            row = radii[rng.integers(sp.n)]
            grid = sp.ball_mass(np.arange(sp.n)[:, None], row, closed=closed)
            assert grid.shape == (sp.n, row.size)
            assert grid.tobytes() == np.array([[sp.ball_mass(x, float(e), closed=closed) for e in row]
                                               for x in range(sp.n)]).tobytes()
            # the sorted-row lookups against a direct sum over the ball
            d = sp.dist[xs]
            inside = d <= radii[..., None] if closed else d < radii[..., None]
            assert np.allclose(loop, (inside * sp.mass).sum(axis=2), rtol=1e-12, atol=1e-15)


def test_ball_mass_returns_float_for_scalars_and_rejects_negative_radii():
    sp = generate_space("random", n=6, seed=6)
    assert type(sp.ball_mass(2, 0.3)) is float and type(sp.ball_mass(np.int64(2), np.float64(0.3))) is float
    assert sp.ball_mass([0, 1, 2], 0.3).shape == (3,)
    radii = np.full(sp.n, 0.2)
    radii[4] = -1e-300
    for x in (np.arange(sp.n), 0):
        for closed in (True, False):
            with pytest.raises(ValueError, match="radius must be nonnegative"):
                sp.ball_mass(x, radii, closed=closed)
    with pytest.raises(ValueError):
        sp.ball_mass(0, -0.5)
    with pytest.raises(ValueError):
        sp.ball_mass(0, math.nan)
    for x in (-1, [0, -1], 6, [0, 6]):  # a negative index would read a row from the end
        with pytest.raises(ValueError, match="point index must be nonnegative and below n = 6"):
            sp.ball_mass(x, 0.5)
    # numpy would fail on a float, read a bool as a mask and a bool in a list as an integer
    for x in (1.5, True, [0, 1.5], np.bool_(False), [True, 0], (0, np.True_)):
        with pytest.raises(ValueError, match="point index must be an integer"):
            sp.ball_mass(x, 0.3)
        with pytest.raises(ValueError, match="point index must be an integer"):
            ball_growth_integral(sp, PHI2, x, 0.3)


def test_radius_table_two_point():
    table = radius_table(two_point_space(), PHI2, 2.0)
    assert table.kstar == 1
    assert table.radii.tolist() == [[1.0, 1.0], [0.0, 0.0]]


def test_radius_table_line():
    table = radius_table(line3_space(), PHI1, 2.0)
    assert table.kstar == 2
    assert table.radius(1, 0) == 1.0
    assert table.radius(1, 1) == 1.0
    assert np.all(table.radius_vector(2) == 0.0)
    assert np.all(table.radius_vector(5) == 0.0)  # levels beyond kstar stay zero


def test_radius_table_matches_per_point_loop():
    rng = np.random.default_rng(8)
    for sp in random_battery(6, 8, 2, 40):
        dirichlet = rng.dirichlet(np.ones(sp.n))
        for mass in (sp.mass, dirichlet):
            space = MetricMeasureSpace(sp.dist, mass)
            for phi, R in ((PHI1, 2.0), (PHI2, 6.0)):
                table = radius_table(space, phi, R)
                assert np.array_equal(table.radii, searchsorted_radii(space, phi, R, table.kstar))


def test_radius_level_zero_is_diameter():
    for sp in random_battery(1, 5, 3, 12):
        table = radius_table(sp, PHI2, 6.0)
        assert np.all(table.radius_vector(0) == sp.diameter)
        # nonincreasing in the level
        for k in range(table.kstar):
            assert np.all(table.radius_vector(k + 1) <= table.radius_vector(k) + 1e-15)


def test_radius_lipschitz_and_sandwich():
    for sp in random_battery(2, 5, 3, 12):
        table = radius_table(sp, PHI2, 6.0)
        for k in range(table.kstar + 1):
            rk = table.radius_vector(k)
            gap = np.abs(rk[:, None] - rk[None, :]) - sp.dist
            assert gap.max() <= 1e-12
            pk = PHI2.value(6.0 ** k)
            for x in range(sp.n):
                closed = 1.0 if k == 0 else sp.ball_mass(x, rk[x], closed=True)
                opened = 1.0 if k == 0 else sp.ball_mass(x, rk[x], closed=False)
                assert 1.0 / closed <= pk * (1 + 1e-12)
                if opened > 0:
                    assert pk <= (1.0 / opened) * (1 + 1e-12)


def test_extended_radius_examples():
    line = radius_table(line3_space(), PHI1, 2.0)
    assert line.extended(1)[1, 0] == line.radius(1, 0)
    assert line.extended(2)[1, 0] == 1.0
    two = radius_table(two_point_space(), PHI2, 2.0)
    assert two.extended(1)[0, 0] == 1.0


def test_radius_series_integral_bound():
    # sum_{k>=c} r_k R^k <= R/(R-1) * growth integral up to r_c
    R = 6.0
    for sp in random_battery(3, 6, 3, 14):
        table = radius_table(sp, PHI2, R)
        for x in range(sp.n):
            for c in range(table.kstar + 1):
                lhs = sum(table.radius(k, x) * R ** k for k in range(c, table.kstar + 1))
                rhs = R / (R - 1.0) * ball_growth_integral(sp, PHI2, x, table.radius(c, x))
                assert lhs <= rhs * (1 + 1e-9) + 1e-12


def test_extended_series_integral_bound():
    R = 6.0
    for sp in random_battery(4, 4, 3, 10):
        table = radius_table(sp, PHI1, R)
        l = table.kstar + 2
        ext = table.extended(l)
        for x in range(sp.n):
            for c in range(l):
                lhs = sum(ext[k, x] * R ** k for k in range(c, l))
                rhs = R ** 2 / ((R - 1.0) * (R - 2.0)) * ball_growth_integral(
                    sp, PHI1, x, table.radius(c, x)
                )
                assert lhs <= rhs * (1 + 1e-9) + 1e-12


def test_ball_nesting():
    R = 6.0
    for sp in random_battery(5, 4, 3, 10):
        table = radius_table(sp, PHI2, R)
        l = table.kstar + 1
        ext = table.extended(l)
        for k in range(l):
            for x in range(sp.n):
                rlk = ext[k, x]
                rlk1 = ext[k + 1, x]
                for u in range(sp.n):
                    if sp.dist[x, u] <= rlk1:
                        assert table.radius(k, u) <= table.radius(k, x) + rlk1 + 1e-12
                        assert table.radius(k, x) + rlk1 <= rlk + 1e-12
                        inside = sp.dist[u] <= table.radius(k, u)
                        assert np.all(sp.dist[x, inside] <= rlk + 1e-12)


def test_generate_grid():
    sp = generate_space("grid", n=3)
    assert np.allclose(sorted(sp.dist[0]), [0.0, 0.5, 1.0])
    sp2 = generate_space("grid", n=2, gamma=0.5)
    assert sp2.dist[0, 1] == 1.0
    with pytest.raises(ValueError):
        generate_space("grid", n=3, gamma=1.5)


def test_generate_random_deterministic():
    a = generate_space("random", n=10, seed=7)
    b = generate_space("random", n=10, seed=7)
    c = generate_space("random", n=10, seed=8)
    assert np.array_equal(a.dist, b.dist)
    assert not np.array_equal(a.dist, c.dist)
    assert abs(a.mass.sum() - 1.0) <= 1e-12


def test_generate_tree():
    sp = generate_space("tree", depth=2)
    assert sp.n == 7
    assert sp.dist[0, 3] == 2.0  # root to a leaf
    assert sp.dist[3, 4] == 2.0  # siblings via their parent
    assert sp.dist[3, 6] == 4.0  # leaves in different subtrees


def test_tree_distances_match_hop_loop_oracle():
    for depth in range(9):
        assert generate_space("tree", depth=depth).dist.tobytes() == loop_tree_dist(depth).tobytes()


def test_zero_mass_policy_and_limit_radii():
    dist = np.array([[0.0, 1.0, 1.5], [1.0, 0.0, 0.5], [1.5, 0.5, 0.0]])
    sp = MetricMeasureSpace(dist, [0.5, 0.5, 0.0])
    with pytest.raises(ZeroMassAtomError):
        radius_table(sp, PHI2, 6.0)


def test_json_roundtrip():
    sp = generate_space("random", n=6, seed=3)
    clone = space_from_json(space_to_json(sp))
    assert np.array_equal(clone.dist, sp.dist)
    assert np.array_equal(clone.mass, sp.mass)
    assert clone.labels == sp.labels
    with pytest.raises(SpaceValidationError):
        space_from_json('{"labels": ["a","b"], "dist": [0,1,0.5,0], "mass": [0.5,0.5]}')
