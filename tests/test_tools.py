import importlib.util
import json
from pathlib import Path

import numpy as np

import chaincert as cc

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pipeline_scale_stages_run_at_small_n():
    rows = _load("pipeline_scale").stages(16)
    assert [name for name, _, _ in rows] == [
        "space", "metrics", "t1", "verify1", "luxemburg", "t3", "verify3", "suite", "witness", "trace", "mc", "write",
    ]
    for _, seconds, peak in rows:
        assert seconds >= 0 and peak > 0


def test_pipeline_scale_main_prints_every_stage(capsys):
    _load("pipeline_scale").main(["8"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 14 and lines[-1].split()[:2] == ["8", "total"]


def test_pipeline_scale_write_stage_formats_the_cli_text():
    tool = _load("pipeline_scale")
    space = cc.generate_space("random", n=12, seed=0)
    cert = cc.certificate_thm1(space, tool.PHI1, tool.PHI2, tool.R, tool.N0)
    metrics = cc.MinorizingMetrics(space, tool.PHI1)
    report = cc.verify_thm1(cert, metrics, np.random.default_rng(0).standard_normal(12), nabla_r=1.0)
    verify, tau, text = tool._write(report, metrics, cert)
    assert verify.count("\n") == sum(len(c.locations) for c in report.checks) == 66 + 2
    assert '"f0:(10,11)"' in verify and tau.count("\n") == 66 and tau.startswith("0,1,0,1,")
    assert text == cc.certificate_to_json(cert) and json.loads(text)["theorem"] == "T1"
