import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pipeline_scale_stages_run_at_small_n():
    rows = _load("pipeline_scale").stages(16)
    assert [name for name, _, _ in rows] == [
        "space", "metrics", "t1", "verify1", "luxemburg", "t3", "verify3", "suite", "witness", "trace", "mc",
    ]
    for _, seconds, peak in rows:
        assert seconds >= 0 and peak > 0


def test_pipeline_scale_main_prints_every_stage(capsys):
    _load("pipeline_scale").main(["8"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 13 and lines[-1].split()[:2] == ["8", "total"]
