"""chaincert benchmark: one workload, measured for a fixed time, checked
against outputs recorded at the seed commit.

    python3 bench/run.py --workload large-space --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` passes alternate between
untraced and traced, and the metrics are the per-layer ones measured on the
traced passes. Detailed results (every sample, quartiles, machine facts) go
to ``bench/.work/results/``, the spans of a traced run to ``bench/.work/``.

Times are reported at a reference host speed: a fixed numpy probe
(calibrate.py) runs after every timed unit, and each pass is scaled by how
fast the probe ran during it, so that the shared host's drifting speed
cancels out; ``setup_s`` is scaled the same way, once per run. The measured
times are in the detailed results.

Load comes from this one process with no threads: BLAS runs on one thread
and the Monte Carlo stage uses one worker. Operations whose values differ
from the reference are counted as failed; ``wrong_frac`` is failed over
attempted. See README.md in this directory for the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
WORKLOADS = ("large-space", "small-battery", "cli-brownian")
SETUP_PROBES = 9
REL_TOL = 1e-9


def _import_library():
    """Import chaincert from this checkout's src/, or exit 2 without a result."""
    src = ROOT / "src"
    if not (src / "chaincert" / "__init__.py").is_file():
        sys.exit(f"bench: no chaincert sources under {src}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(src), str(BENCH)]
    import chaincert

    if Path(chaincert.__file__).resolve().parent != (src / "chaincert").resolve():
        sys.exit(f"bench: chaincert was imported from {chaincert.__file__}, not {src}")


# -- reference check ----------------------------------------------------------------


def _close(a, b, scale):
    if a == b or (math.isnan(a) and math.isnan(b)):
        return True
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    return abs(a - b) <= REL_TOL * scale(a, b)


def _rel(a, b):
    return max(abs(a), abs(b))


def _margin(a, b):
    return max(1.0, abs(b))


def op_matches(op, ref):
    """True when one operation agrees with its recorded reference."""
    if ref is None or len(op.f) != len(ref["f"]) or len(op.m) != len(ref["m"]):
        return False
    if op.c != ref["c"]:
        return False
    if op.s is not None and op.s != ref["s"]:
        return False
    return all(_close(a, b, _rel) for a, b in zip(op.f, ref["f"])) and all(
        _close(a, b, _margin) for a, b in zip(op.m, ref["m"])
    )


def load_reference(workload):
    with gzip.open(BENCH / "reference" / f"{workload}.json.gz", "rt") as fh:
        return json.load(fh)["ops"]


def expected_keys(ref, inputs):
    """The recorded operations a pass over these inputs must reproduce."""
    import workloads

    prefixes = tuple(f"{k}/" for k in workloads.input_keys(inputs))
    return [k for k in ref if k.startswith(prefixes)]


# -- passes -----------------------------------------------------------------------------


def run_pass(workload, inputs, traced):
    import calibrate
    import tracer
    import workloads

    tr = tracer.Tracer() if traced else None
    rec = workloads.Recorder(probe=tr.series_terms if tr else None,
                             calibrate=lambda: calibrate.seconds_per_call(workload))
    error = None
    if tr:
        tr.install()
    try:
        workloads.PASSES[workload](rec, inputs)
    except Exception:  # a failing operation is counted, and the run goes on
        error = traceback.format_exc()
    finally:
        if tr:
            tr.uninstall()
    return rec, tr, error


def check_pass(rec, ref, keys, error):
    """(attempted, failed) for one pass: wrong values and missing operations."""
    if error:
        print(error, file=sys.stderr, end="")
    got = {op.key: op for op in rec.ops}
    failed = sum(1 for k in keys if k not in got or not op_matches(got[k], ref.get(k)))
    failed += sum(1 for k in got if k not in ref)
    return len(keys), failed


def same_values(a, b):
    """Bitwise agreement of two passes over the same inputs."""
    return [(o.key, o.f, o.m, o.c) for o in a.ops] == [(o.key, o.f, o.m, o.c) for o in b.ops]


# -- metrics ------------------------------------------------------------------------------


def quartiles(values):
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def layer_metrics(tr, pass_s):
    import tracer

    self_s, calls = tracer.self_times(tr.spans)

    def s(*names):
        return sum(self_s[n] for n in names)

    out = {
        "mspace.space_s": s("mspace.MetricMeasureSpace"),
        "mspace.space_peak_mb": tr.space_peak_b / 2 ** 20,
        "mspace.radius_table_s": s("mspace.radius_table"),
        "mspace.radius_table_calls": calls["mspace.radius_table"],
        "minorize.metrics_s": s("minorize.MinorizingMetrics"),
        "minorize.growth_integral_s": s("minorize.ball_growth_integral"),
        "minorize.growth_integral_calls": calls["minorize.ball_growth_integral"],
        "chain.cert_t1_s": s("chain.certificate_thm1"),
        "chain.cert_t3_s": s("chain.certificate_thm3"),
        "chain.kernel_s": s("chain.averaging_kernel", "chain.composed_kernel"),
        "chain.levels": tr.counts["chain.levels"],
        "young.conditions_s": s("young.ratio_condition", "young.product_condition",
                                "young.pair_series", "young.shifted_series"),
        "young.series_terms": tr.counts["young.series_terms"],
        "orlicz.luxemburg_s": s("orlicz.luxemburg_norm"),
        "orlicz.luxemburg_calls": calls["orlicz.luxemburg_norm"],
        "orlicz.gauge_evals": tr.counts["orlicz.gauge_evals"],
        "orlicz.atoms": tr.counts["orlicz.atoms"],
        "verify.thm1_s": s("verify.verify_thm1"),
        "verify.thm3_s": s("verify.verify_thm3"),
        "verify.trace_s": s("verify.proof_trace"),
        "verify.invariant_s": s("verify.invariant_suite"),
        "verify.witness_s": s("verify.converse_witness"),
        "verify.pairs": tr.counts["verify.pairs"],
        "mc.sample_s": s("mc.sample"),
        "mc.corollary_s": s("mc.empirical_corollary"),
        "mc.pair_evals": tr.counts["mc.pair_evals"],
        "cli.run_self_s": s("cli.main", "cli.run"),
        "cli.emit_s": s("cli.emit_report"),
        "cli.bytes_written": tr.counts["cli.bytes_written"],
    }
    for layer in tracer.LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(f"{layer}."))
    out["trace.coverage"] = tracer.top_level_seconds(tr.spans) / pass_s
    return out


def machine_facts():
    facts = {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": __import__("numpy").__version__,
        "platform": platform.platform(),
        "limits": "no hardware counters and no page-cache control; memory is own-process peak RSS",
    }
    try:
        facts["cpu_model"] = next(
            line.split(":", 1)[1].strip()
            for line in Path("/proc/cpuinfo").read_text().splitlines()
            if line.startswith("model name")
        )
        mem_kb = int(Path("/proc/meminfo").read_text().split("MemTotal:")[1].split()[0])
        facts["ram_gb"] = round(mem_kb / 2 ** 20, 2)
    except (OSError, StopIteration, IndexError, ValueError):
        pass
    return facts


# -- set-up ------------------------------------------------------------------------------


def setup_probe(workload, seed):
    """Child mode: import and build the inputs, report readiness, then time
    the host-speed probe in this same process (so on the CPU that did the
    set-up) and report that too."""
    import workloads

    WORK.mkdir(exist_ok=True)
    inputs = workloads.make_inputs(workload, seed, WORK)
    print("ready", flush=True)
    import calibrate

    print(calibrate.seconds_per_call("setup"), flush=True)
    if hasattr(inputs, "close"):
        inputs.close()


def measure_setup(workload, seed):
    """Seconds from process start to inputs ready, in fresh processes, and
    the ``setup`` host-speed probe's seconds per call in each."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--setup-probe"]
    samples, probe_s = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - t0)
            rest = child.stdout.read().split()
            if child.wait() != 0 or line.strip() != "ready" or len(rest) != 1:
                sys.exit("bench: set-up probe failed")
        probe_s.append(float(rest[0]))
    return samples, probe_s


# -- main ----------------------------------------------------------------------------------


def measure(workload, seed, seconds, trace):
    import workloads

    setup = measure_setup(workload, seed)
    WORK.mkdir(exist_ok=True)
    inputs = workloads.make_inputs(workload, seed, WORK)
    ref = load_reference(workload)
    keys = expected_keys(ref, inputs)
    try:
        # an untimed warm-up pass, checked like the others, is also the
        # baseline the traced passes must reproduce bitwise
        t_start = time.perf_counter()
        warm, _, error = run_pass(workload, inputs, False)
        attempted, failed = check_pass(warm, ref, keys, error)
        passes = []  # (traced, recorder, tracer)
        min_passes = 2 if trace else 1
        while True:
            traced = trace and len(passes) % 2 == 1
            t0 = time.perf_counter()
            rec, tr, error = run_pass(workload, inputs, traced)
            wall = time.perf_counter() - t0
            a, f = check_pass(rec, ref, keys, error)
            if traced and not same_values(rec, warm):
                print("bench: traced and untraced results differ", file=sys.stderr)
                f = a
            attempted += a
            failed += f
            rec.ops.clear()  # only timings are summarized; this keeps peak RSS flat
            passes.append((traced, rec, tr))
            if len(passes) >= min_passes and time.perf_counter() - t_start + wall > seconds:
                break
    finally:
        if hasattr(inputs, "close"):
            inputs.close()
    return setup, passes, attempted, failed


def normalized(workload, rec):
    """Unit times of one pass at the reference host speed."""
    import calibrate

    scale = calibrate.factor(workload, rec.cal_s)
    return [u * scale for u in rec.unit_s]


def summarize(workload, seed, trace, setup, passes, attempted, failed):
    import calibrate

    plain = [rec for traced, rec, _ in passes if not traced]
    units = [normalized(workload, rec) for rec in plain]
    pass_s = [sum(u) for u in units]
    space_s = [x for u in units for x in u]
    measured = [sum(rec.unit_s) for rec in plain]
    setup_wall, setup_probe_s = setup
    setup_s = statistics.median(setup_wall) * calibrate.REF_S["setup"] / statistics.median(setup_probe_s)
    detail = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "machine": machine_facts(),
        "setup_s": {"value": setup_s, "measured": setup_wall, "probe_s": setup_probe_s},
        "pass_s": {"samples": pass_s, "quartiles": quartiles(pass_s),
                   "measured": measured, "measured_quartiles": quartiles(measured),
                   "probe_s": [sum(r.cal_s) / len(r.cal_s) for r in plain]},
        "space_s": {"samples": len(space_s)},
        "wrong_frac": failed / attempted,
    }
    if not trace:
        pass_median = statistics.median(pass_s)
        metrics = {
            "setup_s": (setup_s, "s"),
            "pass_s": (pass_median, "s"),
            "space_s.p50": (statistics.median(space_s), "s"),
            "space_s.p90": (p90(space_s), "s"),
            "functions_per_s": (plain[0].verifications / pass_median, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        per_pass = [layer_metrics(tr, sum(rec.unit_s)) for traced, rec, tr in passes if traced]
        traced_s = [sum(normalized(workload, rec)) for traced, rec, _ in passes if traced]
        metrics = {k: (statistics.median(p[k] for p in per_pass), _unit(k)) for k in per_pass[0]}
        metrics["trace.overhead"] = (statistics.median(traced_s) / statistics.median(pass_s) - 1, "ratio")
        detail["traced_pass_s"] = {"samples": traced_s, "quartiles": quartiles(traced_s)}
    detail["metrics"] = {k: v for k, (v, _) in metrics.items()}
    return metrics, detail


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "ratio" if name.startswith("trace.") else "count"


def write_spans(workload, seed, passes):
    path = WORK / f"spans-{workload}-seed{seed}.csv"
    with path.open("w") as fh:
        fh.write("pass,id,name,start,end,parent\n")
        for i, (traced, _, tr) in enumerate(passes):
            if traced:
                for sid, (name, start, end, parent) in enumerate(tr.spans):
                    fh.write(f"{i},{sid},{name},{start!r},{end!r},{parent}\n")


def report(metrics, detail):
    print(f"# machine: {json.dumps(detail['machine'], sort_keys=True)}")
    print(f"# {detail['workload']} seed {detail['seed']} trace {detail['trace']}: "
          f"{len(detail['pass_s']['samples'])} untraced passes, pass_s quartiles "
          + ", ".join(f"{q:.4f}" for q in detail["pass_s"]["quartiles"])
          + " at reference speed, "
          + ", ".join(f"{q:.4f}" for q in detail["pass_s"]["measured_quartiles"])
          + f" measured; {detail['space_s']['samples']} space samples")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    print(f"{'wrong_frac':32s} {detail['wrong_frac']:14.6g} ratio")
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{detail['workload']}-seed{detail['seed']}-trace{detail['trace']}.json"
    (results / name).write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    _import_library()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    setup, passes, attempted, failed = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics, detail = summarize(args.workload, args.seed, args.trace, setup, passes, attempted, failed)
    report(metrics, detail)
    if args.trace:
        write_spans(args.workload, args.seed, passes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
