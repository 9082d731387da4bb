"""The three benchmark workloads: seeded inputs, one timed pass, and the
values each operation of a pass produces for the reference check.

Every input comes from a fixed pool whose outputs were recorded once at the
seed commit (see record.py); the run seed picks from the pool, so any seed
has a reference and the same seed always gives the same inputs. The library
only sees arrays, Young functions and scenario files.

An operation is one metric matrix, certificate, verification, proof trace,
invariant suite, converse witness or CLI scenario. ``Recorder.op`` stores
what each operation produced as an ``Op``:

- ``f``: deterministic values, compared to 1e-9 relative;
- ``m``: relative margins, compared to 1e-9 on the scale max(1, |ref|);
- ``c``: counts, verdicts and verdict-pattern hashes, compared exactly;
- ``s``: series terms summed inside the operation, compared exactly; only
  the traced run counts them.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import chaincert as cc
import chaincert.cli  # noqa: F401 (binds cc.cli; the package does not import it)

R = 6.0
N0 = 1
PHI1 = cc.YoungFunction.power(1)
PHI2 = cc.YoungFunction.power(2)

LARGE_POOL = 8
LARGE_N = 512
LARGE_FUNCTIONS = 4  # per theorem

SMALL_STRATA = 30  # one space per stratum, n from 3 to 40
SMALL_CANDIDATES = 2  # recorded candidates per stratum
SMALL_FUNCTIONS = 50
WITNESS_LEVEL = 4

CLI_POOL = 8
CLI_GRID = 64
CLI_FUNCTIONS = 10
CLI_PATHS = 10000


# -- recording -----------------------------------------------------------------


@dataclass
class Op:
    key: str = ""
    f: list = field(default_factory=list)
    m: list = field(default_factory=list)
    c: list = field(default_factory=list)
    s: int | None = None


class Recorder:
    """Collects the operations of one pass, with a latency per unit of work.

    ``unit`` times one space (one CLI scenario); the operations run inside
    it are turned into ``Op`` values after its clock stops, so that pass
    and unit times hold only the library's work. In the traced run,
    ``probe`` returns the running count of series terms, and each
    operation gets the terms summed inside it. ``calibrate``, when given,
    runs after every unit, outside its clock, and its return value (the
    host-speed probe's seconds per call) is kept in ``cal_s``.
    """

    def __init__(self, probe=None, calibrate=None):
        self.ops = []
        self.unit_s = []
        self.cal_s = []
        self.verifications = 0
        self.probe = probe
        self.calibrate = calibrate
        self._pending = []

    def unit(self, fn, *args):
        t0 = time.perf_counter()
        try:
            fn(self, *args)
        finally:
            self.unit_s.append(time.perf_counter() - t0)
            for key, summarize, result, terms in self._pending:
                op = summarize(result)
                op.key, op.s = key, terms
                self.ops.append(op)
            self._pending.clear()
            if self.calibrate:
                self.cal_s.append(self.calibrate())

    def op(self, key, summarize, fn, *args, **kwargs):
        before = self.probe() if self.probe else None
        result = fn(*args, **kwargs)
        terms = self.probe() - before if self.probe else None
        self._pending.append((key, summarize, result, terms))
        return result


def _weights(size):
    # fixed positive weights so that a checksum sees permutations and cannot cancel
    return 1.0 + (np.arange(size, dtype=float) * 0.6180339887498949) % 1.0


def checksum(a):
    a = np.asarray(a, dtype=float).ravel()
    finite = np.isfinite(a)
    return float(np.dot(_weights(a.size)[finite], np.abs(a[finite])))


def _pattern(items):
    text = "|".join(str(x) for x in items)
    return int(hashlib.sha256(text.encode()).hexdigest()[:12], 16)


def _metrics_op(metrics):
    return Op(f=[checksum(metrics.tau), metrics.total])


def _cert_op(cert):
    consts = [cert.A, cert.B, cert.K] + ([cert.C] if cert.C is not None else [])
    return Op(f=consts + [checksum(cert.nu), cert.normalizer], c=[cert.kstar + 1])


def _report_pairs(report):
    return sum(int(p.iu.size) for p in report.pair_checks)


def _thm1_op(report):
    return Op(f=[report.params["quotient_norm"]], m=[report.worst_rel_margin],
              c=[int(report.passed), _report_pairs(report)])


def _thm3_op(report):
    return Op(f=[float(report.pair_checks[0].rhs[0])], m=[report.worst_rel_margin],
              c=[int(report.passed), _report_pairs(report)])


def _trace_op(trace):
    return Op(f=[checksum(trace.d_levels)], m=[c.rel_margin for c in trace.checks],
              c=[int(trace.passed), trace.a, trace.b, trace.c, trace.tau])


def _suite_op(report):
    return Op(m=[c.rel_margin for c in report.checks],
              c=[int(report.passed), report.params["kstar"]])


def _witness_op(w):
    return Op(f=[w.tail_constant, w.implied_factor, checksum(w.witness_values)],
              m=[c.rel_margin for c in w.checks], c=[int(w.passed)])


# -- inputs ----------------------------------------------------------------------


def _euclidean(rng, n):
    pts = rng.random((n, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    np.fill_diagonal(dist, 0.0)
    return 0.5 * (dist + dist.T)


@dataclass
class SpaceInput:
    key: str
    dist: np.ndarray
    mass: np.ndarray
    functions: np.ndarray


def _space_input(key, entropy, n, n_functions):
    rng = np.random.default_rng(entropy)
    dist = _euclidean(rng, n)
    functions = rng.standard_normal((n_functions, n))
    return SpaceInput(key, dist, np.full(n, 1.0 / n), functions)


def _large_input(j):
    return [_space_input(f"L{j}", [1, j], LARGE_N, 2 * LARGE_FUNCTIONS)]


def _small_input(stratum, candidate):
    n = 3 + (37 * stratum) // (SMALL_STRATA - 1)
    return _space_input(f"S{stratum}-{candidate}", [2, stratum, candidate], n, SMALL_FUNCTIONS)


def make_inputs(workload, seed, work_dir):
    """Inputs of one workload for a run seed; only pool members are used.

    small-battery takes one of the candidates of every size stratum, in a
    seeded order, so every seed runs the same sizes on different points.
    """
    if workload == "large-space":
        return _large_input(seed % LARGE_POOL)
    if workload == "small-battery":
        rng = np.random.default_rng(seed)
        picks = rng.integers(SMALL_CANDIDATES, size=SMALL_STRATA)
        return [_small_input(int(i), int(picks[i])) for i in rng.permutation(SMALL_STRATA)]
    if workload == "cli-brownian":
        return CliInput(seed % CLI_POOL, work_dir)
    raise ValueError(f"unknown workload {workload!r}")


def input_keys(inputs):
    """Key prefixes of the operations that a pass over these inputs records."""
    if isinstance(inputs, CliInput):
        return [inputs.key]
    return [sp.key for sp in inputs]


def pool(workload, work_dir):
    """Every input a seed can pick, grouped into pass inputs, for recording."""
    if workload == "large-space":
        return [_large_input(j) for j in range(LARGE_POOL)]
    if workload == "small-battery":
        return [[_small_input(i, c) for i in range(SMALL_STRATA) for c in range(SMALL_CANDIDATES)]]
    if workload == "cli-brownian":
        return [CliInput(j, work_dir) for j in range(CLI_POOL)]
    raise ValueError(f"unknown workload {workload!r}")


# -- passes ----------------------------------------------------------------------


def _certified_space(rec, sp):
    """Build the space, both metric matrices and both certificates."""
    k = sp.key
    space = cc.MetricMeasureSpace(sp.dist, sp.mass)
    m1 = rec.op(f"{k}/metrics-x", _metrics_op, cc.MinorizingMetrics, space, PHI1)
    m2 = rec.op(f"{k}/metrics-x2", _metrics_op, cc.MinorizingMetrics, space, PHI2)
    c1 = rec.op(f"{k}/cert-t1", _cert_op, cc.certificate_thm1, space, PHI1, PHI2, R, N0)
    c3 = rec.op(f"{k}/cert-t3", _cert_op, cc.certificate_thm3, space, PHI2, R)
    return space, (c1, m1), (c3, m2)


def _verify_thm1(rec, key, t1, f):
    rec.verifications += 1
    rec.op(key, _thm1_op, cc.verify_thm1, *t1, f, nabla_r=1.0)


def _verify_thm3(rec, key, t3, f):
    rec.verifications += 1
    rec.op(key, _thm3_op, cc.verify_thm3, *t3, f)


def large_space_pass(rec, inp):
    (sp,) = inp
    rec.unit(_large_space, sp)


def _large_space(rec, sp):
    _, t1, t3 = _certified_space(rec, sp)
    for i in range(LARGE_FUNCTIONS):
        _verify_thm1(rec, f"{sp.key}/thm1-{i}", t1, sp.functions[i])
    for i in range(LARGE_FUNCTIONS, 2 * LARGE_FUNCTIONS):
        _verify_thm3(rec, f"{sp.key}/thm3-{i}", t3, sp.functions[i])


def small_battery_pass(rec, inp):
    for sp in inp:
        rec.unit(_small_space, sp)


def _small_space(rec, sp):
    k = sp.key
    space, t1, t3 = _certified_space(rec, sp)
    for i, f in enumerate(sp.functions):
        _verify_thm1(rec, f"{k}/thm1-{i}", t1, f)
        _verify_thm3(rec, f"{k}/thm3-{i}", t3, f)
    table = cc.radius_table(space, PHI1, R)
    level = table.kstar + 2
    for t in range(1, space.n):
        rec.op(f"{k}/trace-{t}", _trace_op, cc.proof_trace, table, t1[1], 0, t, level, f=sp.functions[0])
    rec.op(f"{k}/suite", _suite_op, cc.invariant_suite, space, PHI1, PHI2, R, N0)
    rec.op(f"{k}/witness", _witness_op, cc.converse_witness, space, PHI2, PHI1, R, N0, 0, WITNESS_LEVEL)


# -- CLI scenarios ---------------------------------------------------------------

_SCENARIO = """\
[space]
source = generate
kind = grid
n = {n}
gamma = 0.5
mass = uniform

[phi]
kind = power
p = {phi_p}
{psi}
[certificate]
theorem = {theorem}
R = 6
n0 = 1

[functions]
source = random
count = {count}
seed = 7

[verify]
invariants = true

[mc]
enabled = true
n = {n}
paths = {paths}
seed = 2026
workers = 1
"""

SCENARIOS = {
    "t1": dict(theorem="T1", phi_p=1, psi="\n[psi]\nkind = power\np = 2\n"),
    "t3": dict(theorem="T3", phi_p=2, psi=""),
}


class CliInput:
    """Scenario files written into a private directory of the checkout."""

    def __init__(self, cli_seed, work_dir):
        self.cli_seed = cli_seed
        self.key = f"C{cli_seed}"
        self.root = Path(tempfile.mkdtemp(prefix="cli-", dir=work_dir))
        self.configs = {}
        for name, params in SCENARIOS.items():
            path = self.root / f"{name}.cfg"
            path.write_text(_SCENARIO.format(n=CLI_GRID, count=CLI_FUNCTIONS, paths=CLI_PATHS, **params))
            self.configs[name] = path

    def close(self):
        shutil.rmtree(self.root, ignore_errors=True)


def cli_pass(rec, inp):
    # both scenarios run on the same 64-point grid, so the pass is one unit
    outs = {name: Path(tempfile.mkdtemp(prefix=f"out-{name}-", dir=inp.root)) for name in inp.configs}
    try:
        rec.unit(_cli_scenarios, inp, outs)
    finally:
        for out in outs.values():
            shutil.rmtree(out, ignore_errors=True)


def _cli_scenarios(rec, inp, outs):
    for name, cfg in inp.configs.items():
        out = outs[name]
        argv = ["--config", str(cfg), "--out", str(out), "--seed", str(inp.cli_seed)]
        rec.verifications += CLI_FUNCTIONS
        rec.op(f"{inp.key}/{name}", functools.partial(cli_outputs_op, out), cc.cli.main, argv)


def _csv_rows(path):
    with path.open(newline="") as fh:
        return list(csv.reader(fh))[1:]


def _num(text):
    # the CLI writes numpy scalars with their repr, e.g. "np.float64(-1e-09)"
    if text.startswith("np.float64("):
        text = text[len("np.float64("):-1]
    return float(text) if text != "" else math.nan


def cli_outputs_op(out, code):
    """Parse the CLI's file set and summarize it by value, not by bytes.

    Monte Carlo rows are kept by statistic name and verdict only, so that a
    different path stream with the same verdicts still matches.
    """
    op = Op(c=[code])
    cert = json.loads((out / "certificate.json").read_text())
    op.f += [cert[k] for k in ("R", "A", "B", "K", "C", "tail_bound") if cert[k] is not None]
    op.f.append(checksum(cert["nu"]))
    op.c += [cert["theorem"] == "T1", cert["n0"] or 0]

    tau = _csv_rows(out / "tau.csv")
    op.c += [len(tau), _pattern(r[:4] for r in tau)]
    for col in (4, 5, 6):
        op.f.append(checksum([_num(r[col]) for r in tau]))

    by_check = {}
    for r in _csv_rows(out / "verify.csv"):
        by_check.setdefault(r[0], []).append(r)
    for name, group in by_check.items():
        op.c += [_pattern([name, len(group)]), _pattern((r[1], r[6]) for r in group)]
        op.f += [checksum([_num(r[col]) for r in group]) for col in (2, 3, 4)]
        op.m.append(min(_num(r[5]) for r in group))

    op.c.append(_pattern((r[0], r[5]) for r in _csv_rows(out / "mc.csv")))

    summary = json.loads((out / "summary.json").read_text())
    op.c.append(_pattern([summary["passed"], summary["exit_code"], summary["theorem"],
                          summary["warnings"], summary["outputs"]]))
    op.f.append(summary["mass_integral"])
    op.c = [int(v) for v in op.c]
    return op


PASSES = {
    "large-space": large_space_pass,
    "small-battery": small_battery_pass,
    "cli-brownian": cli_pass,
}
