import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chaincert import (
    MinorizingMetrics,
    YoungFunction,
    certificate_thm1,
    certificate_thm3,
    generate_space,
    invariant_suite,
    modulus_pairs,
    verify_thm1,
    verify_thm3,
)
from chaincert.cli import (
    CAPITALIZED_VERDICTS,
    EXIT_ASSERTION,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PRECONDITION,
    _fmt,
    run,
)
from util import per_check_rows

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_twopoint_scenario(tmp_path):
    out = tmp_path / "out"
    assert run(SCENARIOS / "twopoint.cfg", out_dir=out) == EXIT_OK
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["theorem"] == "T3"
    assert cert["B"] == 155.52
    assert cert["R"] == 6.0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is True
    for name in ("certificate.json", "tau.csv", "verify.csv", "mc.csv", "summary.json"):
        assert (out / name).exists()


def test_line3_scenario_and_pair_rows(tmp_path):
    out = tmp_path / "out"
    assert run(SCENARIOS / "line3.cfg", out_dir=out) == EXIT_OK
    rows = (out / "tau.csv").read_text().strip().splitlines()
    assert len(rows) - 1 == 3  # n(n-1)/2 unordered pairs


def test_line3_verdict_spelling(tmp_path):
    # only the named invariant rows keep the capitalized verdicts of the recorded outputs
    out = tmp_path / "out"
    assert run(SCENARIOS / "line3.cfg", out_dir=out) == EXIT_OK
    with (out / "verify.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    capitalized = {r[0] for r in rows if r[6] in ("True", "False")}
    assert capitalized == set(CAPITALIZED_VERDICTS) == {"radius_series_integral", "ball_nesting"}
    assert all(r[6] in ("true", "false") for r in rows if r[0] not in capitalized)


def test_divergent_series_is_precondition_failure(tmp_path):
    cfg = _write(
        tmp_path,
        "bad.cfg",
        "[space]\nkind = grid\nn = 3\nscale = 2.0\n"
        "[phi]\nkind = power\np = 2\n[psi]\nkind = power\np = 2\n"
        "[certificate]\ntheorem = T1\nR = 6\nn0 = 1\n"
        "[functions]\nsource = values\nvalues = 0,1,0\n",
    )
    assert run(cfg, out_dir=tmp_path / "out") == EXIT_PRECONDITION


def test_corrupted_space_is_config_error(tmp_path):
    _write(tmp_path, "space.json", '{"labels": ["a","b"], "dist": [0,1,0.5,0], "mass": [0.5,0.5]}')
    cfg = _write(
        tmp_path,
        "bad.cfg",
        "[space]\nsource = file\nfile = space.json\n"
        "[phi]\nkind = power\np = 2\n"
        "[certificate]\ntheorem = T3\nR = 6\n"
        "[functions]\nsource = values\nvalues = 0,1\n",
    )
    assert run(cfg, out_dir=tmp_path / "out") == EXIT_CONFIG


_COINCIDENT = '{"labels": ["a","b","c"], "dist": [0,0,1, 0,0,1, 1,1,0], "mass": [0.25,0.25,0.5]}'
_LINE3 = '{"labels": ["a","b","c"], "dist": [0,1,2, 1,0,1, 2,1,0], "mass": [0.25,0.25,0.5]}'
_BAD_LABELS = '{"labels": ["a","b"], "dist": [0,1,2, 1,0,1, 2,1,0], "mass": [0.25,0.25,0.5]}'


@pytest.mark.parametrize(
    "space, theorem, R",
    [
        (_COINCIDENT, "T3", "6"),
        (_COINCIDENT, "T1", "6"),
        (_LINE3, "T1", "nan"),
        (_LINE3, "T3", "inf"),
        (_BAD_LABELS, "T3", "6"),
    ],
    ids=["coincident-T3", "coincident-T1", "R-nan", "R-inf", "label-count"],
)
def test_bad_inputs_are_config_errors(tmp_path, space, theorem, R):
    _write(tmp_path, "space.json", space)
    cfg = _write(
        tmp_path,
        "bad.cfg",
        "[space]\nsource = file\nfile = space.json\n"
        "[phi]\nkind = power\np = 1\n[psi]\nkind = power\np = 2\n"
        f"[certificate]\ntheorem = {theorem}\nR = {R}\n"
        "[functions]\nsource = values\nvalues = 0,1,0\n",
    )
    assert run(cfg, out_dir=tmp_path / "out") == EXIT_CONFIG


def test_failed_bound_is_assertion_error(tmp_path):
    # the composite constant for (power 2, power 4) is below the provable
    # bound, so the strict pairwise check fails and the exit code says so
    cfg = _write(
        tmp_path,
        "fail.cfg",
        "[space]\nkind = grid\nn = 2\n"
        "[phi]\nkind = power\np = 2\n[psi]\nkind = power\np = 4\n"
        "[certificate]\ntheorem = T1\nR = 6\nn0 = 1\n"
        "[functions]\nsource = values\nvalues = 0,1\n",
    )
    out = tmp_path / "out"
    assert run(cfg, out_dir=out) == EXIT_ASSERTION
    content = (out / "verify.csv").read_text()
    assert "holder_bound" in content and "false" in content


def test_reruns_are_byte_identical(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run(SCENARIOS / "line3.cfg", out_dir=out1) == EXIT_OK
    assert run(SCENARIOS / "line3.cfg", out_dir=out2) == EXIT_OK
    for name in ("certificate.json", "tau.csv", "verify.csv", "mc.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_outputs_write_plain_floats(tmp_path):
    names = ("certificate.json", "tau.csv", "verify.csv", "mc.csv", "summary.json")
    first = {}
    for run_dir in ("a", "b"):
        out = tmp_path / run_dir
        assert run(SCENARIOS / "line3.cfg", out_dir=out) == EXIT_OK
        for name in names:
            data = (out / name).read_bytes()
            assert b"np." not in data
            assert first.setdefault(name, data) == data
    assert b"-1e-09" in first["verify.csv"]


def test_header_only_outputs(tmp_path):
    cfg = _write(
        tmp_path,
        "empty.cfg",
        "[space]\nkind = grid\nn = 2\n"
        "[phi]\nkind = power\np = 2\n"
        "[certificate]\ntheorem = T3\nR = 6\n"
        "[functions]\nsource = random\ncount = 0\n"
        "[verify]\ninvariants = false\n",
    )
    out = tmp_path / "out"
    assert run(cfg, out_dir=out) == EXIT_OK
    assert (out / "verify.csv").read_text().strip() == "check,location,lhs,rhs,margin,rel_margin,passed"
    assert (out / "mc.csv").read_text().startswith("statistic,")


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "chaincert.cli", "--config", str(SCENARIOS / "twopoint.cfg"),
         "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK, proc.stderr


def _csv_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _oracle_tau_and_verify(space, theorem, phi, psi, functions):
    """tau.csv and verify.csv rebuilt one scalar margin per row and one _fmt per value."""
    metrics = MinorizingMetrics(space, phi)
    iu, iv = np.triu_indices(space.n, 1)
    if theorem == "T1":
        cert = certificate_thm1(space, phi, psi, 6.0, 1)
        reports = [verify_thm1(cert, metrics, f, nabla_r=1.0) for f in functions]
        mods = [""] * iu.size
    else:
        cert = certificate_thm3(space, phi, 6.0)
        reports = [verify_thm3(cert, metrics, f) for f in functions]
        mods = modulus_pairs(cert, metrics, iu, iv)
    tau_rows = [
        (i, j, space.labels[i], space.labels[j], float(space.dist[i, j]), float(metrics.tau[i, j]), mod)
        for i, j, mod in zip(iu.tolist(), iv.tolist(), mods)
    ]
    verify_rows = [
        (name, f"f{idx}:{loc}", *rest)
        for idx, report in enumerate(reports)
        for name, loc, *rest in per_check_rows(report)
    ]
    verify_rows += per_check_rows(invariant_suite(space, phi, psi, cert.R, 1))
    verify_rows = [(*r[:6], str(r[6]) if r[0] in CAPITALIZED_VERDICTS else r[6]) for r in verify_rows]
    return (
        _csv_text(["i", "j", "label_i", "label_j", "distance", "tau", "modulus"], tau_rows),
        _csv_text(["check", "location", "lhs", "rhs", "margin", "rel_margin", "passed"], verify_rows),
    )


def test_csv_rows_match_per_check_oracle(tmp_path):
    # brownian64 (T1 on three points) and a 12-point T3 grid with random functions
    t3 = _write(
        tmp_path,
        "t3grid.cfg",
        "[space]\nkind = grid\nn = 12\ngamma = 0.5\n"
        "[phi]\nkind = power\np = 2\n"
        "[certificate]\ntheorem = T3\nR = 6\n"
        "[functions]\nsource = random\ncount = 4\nseed = 3\n",
    )
    cases = [
        (SCENARIOS / "brownian64.cfg", generate_space("grid", n=3, scale=2.0), "T1",
         YoungFunction.power(1), YoungFunction.power(2), 7, 10),
        (t3, generate_space("grid", n=12, gamma=0.5), "T3", YoungFunction.power(2), None, 3, 4),
    ]
    for cfg, space, theorem, phi, psi, seed, count in cases:
        out = tmp_path / cfg.stem
        assert run(cfg, out_dir=out) == EXIT_OK
        rng = np.random.default_rng(seed)
        functions = [rng.standard_normal(space.n) for _ in range(count)]
        tau_text, verify_text = _oracle_tau_and_verify(space, theorem, phi, psi, functions)
        assert (out / "tau.csv").read_bytes() == tau_text.encode()
        assert (out / "verify.csv").read_bytes() == verify_text.encode()
