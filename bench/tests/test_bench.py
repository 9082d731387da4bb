"""Tests of the benchmark itself: python3 -m pytest bench/tests -q"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import run  # noqa: E402

run._import_library()
import chaincert as cc  # noqa: E402
import workloads  # noqa: E402

SEED = 5


@pytest.fixture(scope="module")
def work_dir():
    run.WORK.mkdir(exist_ok=True)
    return run.WORK


@pytest.fixture(scope="module")
def passes(work_dir):
    """One untraced and one traced pass per workload, with its reference."""
    out = {}
    for workload in run.WORKLOADS:
        inputs = workloads.make_inputs(workload, SEED, work_dir)
        try:
            ref = run.load_reference(workload)
            keys = run.expected_keys(ref, inputs)
            plain = run.run_pass(workload, inputs, traced=False)
            traced = run.run_pass(workload, inputs, traced=True)
        finally:
            if hasattr(inputs, "close"):
                inputs.close()
        out[workload] = (plain, traced, ref, keys)
    return out


def _arrays(inputs):
    if hasattr(inputs, "configs"):
        return [inputs.cli_seed] + [p.read_text() for p in inputs.configs.values()]
    return [a for sp in inputs for a in (sp.key, sp.dist, sp.mass, sp.functions)]


def _same(a, b):
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_inputs_are_deterministic_per_seed(workload, work_dir):
    made = [workloads.make_inputs(workload, seed, work_dir) for seed in (SEED, SEED, SEED + 1)]
    try:
        first, again, other = (_arrays(m) for m in made)
    finally:
        for m in made:
            if hasattr(m, "close"):
                m.close()
    assert _same(first, again)
    assert not _same(first, other)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_wrong_frac_is_zero_at_the_seed_commit(workload, passes):
    (rec, _, error), _, ref, keys = passes[workload]
    assert error is None
    attempted, failed = run.check_pass(rec, ref, keys, error)
    assert attempted == len(rec.ops) > 0
    assert failed == 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_pass_reproduces_untraced_results(workload, passes):
    (plain, _, _), (traced, tr, error), ref, keys = passes[workload]
    assert error is None
    assert run.same_values(plain, traced)
    assert run.check_pass(traced, ref, keys, None) == (len(keys), 0)
    assert tr.spans and all(span is not None for span in tr.spans)
    # every wrapper was removed again
    assert cc.verify_thm1 is cc.verify.verify_thm1
    assert not hasattr(cc.verify.verify_thm1, "__wrapped__")


@pytest.mark.parametrize(
    "field, index, change",
    [
        ("f", 0, lambda v: v * (1 + 1e-6)),
        ("m", 0, lambda v: v - 1e-6),
        ("c", 0, lambda v: 1 - v),
        ("s", None, lambda v: v + 1),
    ],
)
def test_perturbed_reference_value_is_detected(field, index, change, passes):
    _, (rec, _, _), ref, keys = passes["large-space"]
    key = next(k for k in keys if "thm1" in k)
    bad = copy.deepcopy(ref)
    if index is None:
        bad[key][field] = change(bad[key][field])
    else:
        bad[key][field][index] = change(bad[key][field][index])
    assert run.check_pass(rec, bad, keys, None) == (len(keys), 1)


def test_tolerance_accepts_last_bit_changes(passes):
    _, (rec, _, _), ref, keys = passes["large-space"]
    near = copy.deepcopy(ref)
    for key in keys:
        near[key]["f"] = [v * (1 + 1e-12) for v in near[key]["f"]]
    assert run.check_pass(rec, near, keys, None) == (len(keys), 0)


def test_self_times_exclude_children():
    import tracer

    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1), ("b", 5.0, 6.0, 0)]
    self_s, calls = tracer.self_times(spans)
    assert self_s == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert calls["b"] == 2
    assert tracer.top_level_seconds(spans) == 10.0


def test_metric_names_and_units_match_benchmark_json(passes):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    (plain, _, _), (traced, tr, _), _, _ = passes["cli-brownian"]
    for trace, listed, runs in (
        (0, spec["end_to_end"], [(False, plain, None)]),
        (1, spec["per_layer"], [(False, plain, None), (True, traced, tr)]),
    ):
        metrics, _ = run.summarize("cli-brownian", SEED, trace, ([0.1], [0.001]), runs, 1, 0)
        assert {k: u for k, (_, u) in metrics.items()} == {m["name"]: m["unit"] for m in listed}


def test_times_scale_with_the_host_speed_probe():
    import calibrate

    ref = calibrate.REF_S["small-battery"]
    rec = workloads.Recorder()
    rec.unit_s = [1.0, 3.0]
    rec.cal_s = [ref, ref]
    assert run.normalized("small-battery", rec) == pytest.approx([1.0, 3.0])
    # a host at half speed takes twice as long for the program and the probe
    rec.unit_s = [2.0, 6.0]
    rec.cal_s = [2 * ref, 2 * ref]
    assert run.normalized("small-battery", rec) == pytest.approx([1.0, 3.0])


def test_every_timed_unit_is_followed_by_a_probe(passes):
    for workload, ((rec, _, _), _, _, _) in passes.items():
        assert len(rec.cal_s) == len(rec.unit_s) > 0, workload
