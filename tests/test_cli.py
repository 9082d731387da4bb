import json
import subprocess
import sys
from pathlib import Path

import pytest

from chaincert.cli import EXIT_ASSERTION, EXIT_CONFIG, EXIT_OK, EXIT_PRECONDITION, run

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
