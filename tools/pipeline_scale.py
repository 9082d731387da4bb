"""Wall time and tracemalloc peak of each library stage on random Euclidean spaces.

    python tools/pipeline_scale.py            # n = 64, 256, 512, 1024
    python tools/pipeline_scale.py 512 2048   # other sizes
    python tools/pipeline_scale.py 8 20 40    # per-call costs at the sizes of small spaces

Each space has n uniform points in the unit square, uniform mass and the
Euclidean metric; phi = x, psi = x^2, R = 6 and n0 = 1. The stages are:

    space      generation and validation (the O(n^3) triangle check)
    metrics    MinorizingMetrics for x and for x^2
    t1         certificate_thm1 (x, x^2)
    verify1    one verify_thm1 (nabla_r = 1) of f under the t1 certificate
    luxemburg  one luxemburg_norm in (x^2 - 1)+ of the quotients of f under
               the t1 certificate's pair measure
    t3         certificate_thm3 (x^2)
    verify3    one verify_thm3 of f under the t3 certificate
    suite      invariant_suite (x, x^2)
    witness    converse_witness (x^2, x) at point 0 with l = 4
    trace      one proof_trace of f for the pair (0, n - 1) with
               l = kstar + 2; a trace keeps nothing on its radius table, so
               there is no untimed warm-up trace and every run builds all
               that the trace reads
    mc         sample of 1,024 Brownian paths on the n-point grid of
               brownian_grid_sampler(n, x^2), then empirical_corollary
               under that grid's certificate_thm1 (x, x^2) and metrics;
               the sampler, the certificate and the metrics are built
               outside the timed stage
    write      the text the CLI writes for the t1 certificate, formatted
               into strings and written to no file: the verify.csv rows of
               one verify_thm1 report of f (its pair labels built in the
               stage, as the CLI builds them once per scenario), tau.csv and
               certificate_to_json; the report is made outside the stage

Each stage is timed over three batches of calls untraced, and the fastest
batch gives its wall time per call; a batch is one call, or, for a stage
whose first call takes less than 10 ms, as many calls as take about 10 ms
together, so that the per-call times at small n are not timer and
scheduling noise. The stage then runs once more under tracemalloc for its
peak, so the tracing does not slow the timed runs. All sizes run in one
process with BLAS on one thread; the max RSS column is the process's
high-water mark after that size.
"""

import math
import os
import resource
import sys
import time
import tracemalloc
from pathlib import Path

if __name__ == "__main__":
    # before numpy loads BLAS; importing this module changes neither setting
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import chaincert as cc  # noqa: E402
from chaincert import cli  # noqa: E402

SIZES = (64, 256, 512, 1024)
REPEAT = 3  # the host's speed drifts, so one timed batch per stage is too noisy
BATCH_S = 0.01  # a stage faster than this is timed over batches of calls that take about this long
R = 6.0
N0 = 1
WITNESS_LEVEL = 4
MC_PATHS = 1024
PHI1 = cc.YoungFunction.power(1)
PHI2 = cc.YoungFunction.power(2)


def _measure(fn):
    """fn() over REPEAT batches for its best wall time per call, and once under tracemalloc;
    (result, seconds, peak bytes). A first call of BATCH_S or more is the first batch of one call."""
    start = time.perf_counter()
    out = fn()
    seconds = time.perf_counter() - start
    calls = 1 if seconds >= BATCH_S else math.ceil(BATCH_S / max(seconds, 1e-9))
    if calls > 1:
        seconds = math.inf  # the first call sized the batch; every batch is timed anew
    for _ in range(REPEAT - 1 if calls == 1 else REPEAT):
        start = time.perf_counter()
        for _ in range(calls):
            out = fn()
        seconds = min(seconds, (time.perf_counter() - start) / calls)
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, seconds, peak


def stages(n, seed=0):
    """[(stage, seconds, peak bytes)] for one random space of n points."""
    f = np.random.default_rng(seed).standard_normal(n)
    rows = []

    def run(name, fn):
        out, seconds, peak = _measure(fn)
        rows.append((name, seconds, peak))
        return out

    space = run("space", lambda: cc.generate_space("random", n=n, seed=seed))
    m1, m2 = run("metrics", lambda: (cc.MinorizingMetrics(space, PHI1), cc.MinorizingMetrics(space, PHI2)))

    t1 = run("t1", lambda: cc.certificate_thm1(space, PHI1, PHI2, R, N0))
    run("verify1", lambda: cc.verify_thm1(t1, m1, f, nabla_r=1.0))
    nu = t1.nu.ravel()
    fd = cc.TestFunction(f).quotients(space).ravel()
    run("luxemburg", lambda: cc.luxemburg_norm(fd, nu, cc.ConvexGauge(PHI2)))
    t3 = run("t3", lambda: cc.certificate_thm3(space, PHI2, R))
    run("verify3", lambda: cc.verify_thm3(t3, m2, f))
    run("suite", lambda: cc.invariant_suite(space, PHI1, PHI2, R, N0))
    run("witness", lambda: cc.converse_witness(space, PHI2, PHI1, R, N0, 0, WITNESS_LEVEL))
    table = cc.radius_table(space, PHI1, R)
    level = table.kstar + 2
    run("trace", lambda: cc.proof_trace(table, m1, 0, n - 1, level, f=f))
    sampler = cc.brownian_grid_sampler(n, PHI2)
    grid_cert = cc.certificate_thm1(sampler.space, PHI1, PHI2, R, N0)
    grid_metrics = cc.MinorizingMetrics(sampler.space, PHI1)
    run("mc", lambda: cc.empirical_corollary(cc.sample(sampler, MC_PATHS, seed), grid_cert, grid_metrics))
    report = cc.verify_thm1(t1, m1, f, nabla_r=1.0)
    run("write", lambda: _write(report, m1, t1))
    return rows


def _write(report, metrics, cert):
    """The verify.csv rows of report, the tau.csv rows and the certificate.json text, as the CLI formats them."""
    verify = "".join(cli._report_rows(report, "f0:", cli._pair_labels(metrics.space.n)))
    return verify, "".join(cli._tau_rows(metrics, cert)), cc.certificate_to_json(cert)


def main(argv):
    sizes = [int(a) for a in argv] or list(SIZES)
    print(f"{'n':>6} {'stage':<9} {'wall_s':>9} {'peak_mb':>9}")
    for n in sizes:
        rows = stages(n)
        for name, seconds, peak in rows:
            print(f"{n:>6} {name:<9} {seconds:>9.6f} {peak / 1e6:>9.3f}")
        total = sum(seconds for _, seconds, _ in rows)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"{n:>6} {'total':<9} {total:>9.6f} {'':>9} max RSS {rss:.0f} MB")


if __name__ == "__main__":
    main(sys.argv[1:])
