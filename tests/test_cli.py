import configparser
import csv
import hashlib
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
    space_from_json,
    verify_thm1,
    verify_thm3,
)
from chaincert.cli import (
    CAPITALIZED_VERDICTS,
    EXIT_ASSERTION,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PRECONDITION,
    _field,
    _reprs,
    run,
)
from util import csv_text, per_check_rows

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


def _scenario_with(tmp_path, name, section, **values):
    """The shipped scenario `name` (or the scenario file at a path) with the given [section] keys set."""
    source = name if isinstance(name, Path) else SCENARIOS / f"{name}.cfg"
    cfg = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    cfg.read(source)
    cfg[section].update(values)
    path = tmp_path / f"{source.stem}.cfg"
    with path.open("w") as fh:
        cfg.write(fh)
    return path


def _assert_config_error(tmp_path, capsys, cfg):
    """cfg ends in exit 2 with a configuration error, before any output is written; returns the message."""
    assert run(cfg, out_dir=tmp_path / "out") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert not (tmp_path / "out").exists()
    return err


@pytest.mark.parametrize(
    "name, section, key, value",
    [
        ("brownian64", "mc", "paths", "abc"),
        ("brownian64", "mc", "paths", "0"),
        ("brownian64", "mc", "n", "1"),
        ("brownian64", "mc", "seed", "-1"),
        ("brownian64", "functions", "count", "-1"),
        ("line3", "verify", "invariants", "maybe"),
        ("brownian64", "mc", "enabled", "maybe"),
    ],
)
def test_bad_scenario_values_are_config_errors(tmp_path, capsys, name, section, key, value):
    _assert_config_error(tmp_path, capsys, _scenario_with(tmp_path, name, section, **{key: value}))


@pytest.mark.parametrize("theorem, section", [("T1", "psi"), ("T3", "phi")])
def test_unsupported_mc_gauge_is_config_error(tmp_path, capsys, theorem, section):
    # the sampler normalizes its increments to psi (T1) or phi (T3): powers and the q = 2 exponential only
    cfg = _scenario_with(tmp_path, "brownian64", section, kind="exponential", q="1")
    if theorem == "T3":
        cfg = _write(tmp_path, "t3.cfg", cfg.read_text().replace("theorem = T1", "theorem = T3"))
    assert "samplers support" in _assert_config_error(tmp_path, capsys, cfg)


_BAD_NUMBERS = [
    ("line3", "certificate", {"R": "six"}, "R"),
    ("line3", "certificate", {"n0": "1.5"}, "n0"),
    ("line3", "phi", {"p": "two"}, "p"),
    ("line3", "psi", {"kind": "exponential", "q": "two"}, "q"),
    ("line3", "phi", {"kind": "piecewise", "knots": "0,0;1,one"}, "knots"),
    ("line3", "space", {"n": "abc"}, "n"),
    ("line3", "space", {"gamma": "half"}, "gamma"),
    ("line3", "space", {"scale": "x2"}, "scale"),
    ("line3", "space", {"seed": "s"}, "seed"),
    ("line3", "space", {"mass": "0.25,0.25,half"}, "mass"),
    ("line3", "space", {"kind": "tree", "depth": "deep"}, "depth"),
    ("line3", "functions", {"values": "0,1,0; 1,x,1"}, "values"),
    ("brownian64", "functions", {"count": "ten"}, "count"),
    ("brownian64", "functions", {"seed": "7.5"}, "seed"),
    ("brownian64", "mc", {"n": "64.0"}, "n"),
    ("brownian64", "mc", {"paths": "many"}, "paths"),
    ("brownian64", "mc", {"seed": "s"}, "seed"),
]


@pytest.mark.parametrize(
    "name, section, values, key", _BAD_NUMBERS, ids=[f"{n}-{s}-{k}" for n, s, _, k in _BAD_NUMBERS]
)
def test_bad_numbers_name_their_key(tmp_path, capsys, name, section, values, key):
    err = _assert_config_error(tmp_path, capsys, _scenario_with(tmp_path, name, section, **values))
    assert err.startswith(f"configuration error: [{section}] {key} must be")


@pytest.mark.parametrize(
    "section, values",
    [("phi", {"p": "inf"}), ("phi", {"p": "nan"}), ("psi", {"p": "inf"}), ("psi", {"kind": "exponential", "q": "inf"})],
    ids=["phi-p-inf", "phi-p-nan", "psi-p-inf", "psi-q-inf"],
)
def test_non_finite_exponents_are_config_errors(tmp_path, capsys, section, values):
    err = _assert_config_error(tmp_path, capsys, _scenario_with(tmp_path, "line3", section, **values))
    assert "finite exponent" in err


@pytest.mark.parametrize("knots", ["0,0;1,1;2,inf", "0,0;1,1;2,nan", "0,0;1,1;inf,5"])
def test_non_finite_knots_are_config_errors(tmp_path, capsys, knots):
    cfg = _scenario_with(tmp_path, "line3", "phi", kind="piecewise", knots=knots)
    err = _assert_config_error(tmp_path, capsys, cfg)
    assert "knots must be finite" in err


# function values the checks cannot handle, under T1 (line3) and T3 (twopoint):
# not finite, finite with an overflowing difference, or with a difference
# quotient that overflows on a grid whose gaps are below 1
_UNUSABLE_VALUES = [
    ("line3", {}, "nan,0,1"),
    ("line3", {}, "0,1"),
    ("line3", {}, "0,1,0; 1,inf,0"),
    ("line3", {}, "1e308,-1e308,0"),
    ("line3", {"scale": "1.0"}, "1e308,0,0"),
    ("twopoint", {}, "nan,0"),
    ("twopoint", {}, "0,-inf"),
    ("twopoint", {}, "1e308,-1e308"),
    ("twopoint", {"n": "3"}, "1e308,0,0"),
]


@pytest.mark.parametrize(
    "name, space, values",
    _UNUSABLE_VALUES,
    ids=[f"{n}-{v}" + "".join(f"-{k}={x}" for k, x in s.items()) for n, s, v in _UNUSABLE_VALUES],
)
def test_unusable_function_values_are_config_errors(tmp_path, capsys, name, space, values):
    # RuntimeWarnings are errors in this suite, so the overflow tests must not warn either
    cfg = _scenario_with(tmp_path, name, "functions", values=values)
    if space:
        cfg = _scenario_with(tmp_path, cfg, "space", **space)
    err = _assert_config_error(tmp_path, capsys, cfg)
    assert err.startswith("configuration error: [functions] values")


def test_random_functions_with_overflowing_quotients_are_config_errors(tmp_path, capsys):
    # gaps of 5e-311 turn standard normal differences into infinite quotients
    cfg = _scenario_with(tmp_path, "line3", "functions", source="random", count="2")
    cfg = _scenario_with(tmp_path, cfg, "space", scale="1e-310")
    err = _assert_config_error(tmp_path, capsys, cfg)
    assert err.startswith("configuration error: [functions] values of function 0: difference quotients")


def test_space_file_with_a_tolerated_diagonal_runs_t3(tmp_path):
    # the diagonal of 1e-12 lies above d(a, b) = 1e-13 and within the
    # tolerance of 0, so it is stored as 0 and tau(a, b) stays positive
    _write(tmp_path, "space.json", '{"labels": ["a","b"], "dist": [1e-12,1e-13,1e-13,1e-12], "mass": [0.5,0.5]}')
    cfg = _write(
        tmp_path,
        "tiny.cfg",
        "[space]\nsource = file\nfile = space.json\n"
        "[phi]\nkind = power\np = 2\n"
        "[certificate]\ntheorem = T3\nR = 6\n"
        "[functions]\nsource = values\nvalues = 0,1\n",
    )
    out = tmp_path / "out"
    assert run(cfg, out_dir=out) == EXIT_OK
    with (out / "tau.csv").open(newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert float(row["tau"]) == np.sqrt(2.0) * 1e-13


def test_boolean_switches_take_configparser_spellings(tmp_path):
    cfg = _scenario_with(tmp_path, "twopoint", "verify", invariants="off")
    assert run(cfg, out_dir=tmp_path / "a") == EXIT_OK
    assert "radii_monotone" not in (tmp_path / "a" / "verify.csv").read_text()
    cfg = _scenario_with(tmp_path, "brownian64", "mc", enabled="on")
    assert run(cfg, out_dir=tmp_path / "b") == EXIT_OK
    assert "increment_ratio_sup" in (tmp_path / "b" / "mc.csv").read_text()


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


def test_one_point_scenario_passes(tmp_path):
    # kstar = 0, so radii_monotone is a max over no levels: lhs -inf holds
    cfg = _write(
        tmp_path,
        "one.cfg",
        "[space]\nkind = grid\nn = 1\n"
        "[phi]\nkind = power\np = 1\n[psi]\nkind = power\np = 2\n"
        "[certificate]\ntheorem = T1\nR = 6\nn0 = 1\n",
    )
    out = tmp_path / "out"
    assert run(cfg, out_dir=out) == EXIT_OK
    rows = {r["check"]: r for r in csv.DictReader((out / "verify.csv").open())}
    assert (rows["radii_monotone"]["lhs"], rows["radii_monotone"]["rel_margin"]) == ("-inf", "inf")
    assert json.loads((out / "summary.json").read_text())["passed"] is True


def test_escalated_ratio_warns_and_fails_under_strict(tmp_path, capsys):
    cfg = _scenario_with(tmp_path, "twopoint", "certificate", R="3")
    assert run(cfg, out_dir=tmp_path / "a") == EXIT_OK
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert "ratio escalated from 3.0 to 9.0" in summary["warnings"]
    assert summary["passed"] is True
    assert run(cfg, out_dir=tmp_path / "b", strict=True) == EXIT_PRECONDITION
    assert "warnings treated as errors" in capsys.readouterr().err
    summary = json.loads((tmp_path / "b" / "summary.json").read_text())
    assert summary["passed"] is False and summary["exit_code"] == EXIT_PRECONDITION


@pytest.mark.parametrize("name", ["line3", "brownian64"])
def test_underflowing_weights_are_assertion_errors(tmp_path, capsys, name):
    # for psi = exp(x^2) every T1 weight is below the smallest double: the
    # pair measure is built from the shifted log weights and B = K = 0.0, so
    # the strict bound fails (exit 4) instead of the space being called degenerate
    cfg = _scenario_with(tmp_path, name, "psi", kind="exponential", q="2")
    out = tmp_path / "out"
    for strict in (False, True):
        assert run(cfg, out_dir=out, strict=strict) == EXIT_ASSERTION
        assert "verification failed" in capsys.readouterr().err
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["B"] == cert["K"] == 0.0
    assert sum(cert["nu"]) == pytest.approx(1.0, rel=1e-12)
    assert json.loads((out / "summary.json").read_text())["warnings"] == []
    rows = list(csv.DictReader((out / "verify.csv").open()))
    holder = [r for r in rows if r["check"] == "holder_bound"]
    assert holder and any(r["passed"] == "false" for r in holder)
    assert all(float(r["rhs"]) == 0.0 for r in holder)
    assert all(r["passed"] == "true" for r in rows if r["check"] == "holder_bound_relaxed")
    mc = list(csv.DictReader((out / "mc.csv").open()))
    if name == "brownian64":
        assert [(r["mean"], r["stderr"], r["passed"]) for r in mc] == [("inf", "0.0", "false")] * 2


def test_reruns_are_byte_identical(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run(SCENARIOS / "line3.cfg", out_dir=out1) == EXIT_OK
    assert run(SCENARIOS / "line3.cfg", out_dir=out2) == EXIT_OK
    for name in ("certificate.json", "tau.csv", "verify.csv", "mc.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


_DIGESTS = json.loads((Path(__file__).resolve().parent / "cli_digests.json").read_text())


@pytest.mark.parametrize("name", sorted(_DIGESTS))
def test_outputs_match_recorded_digests(tmp_path, name):
    # SHA-256 of the byte-identical output set of each shipped scenario; a
    # digest changes only together with a CHANGES.md entry that says why
    out = tmp_path / "out"
    assert run(SCENARIOS / f"{name}.cfg", out_dir=out) == EXIT_OK
    got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in _DIGESTS[name]}
    assert got == _DIGESTS[name]


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
        mods = modulus_pairs(cert, metrics)
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
        csv_text(["i", "j", "label_i", "label_j", "distance", "tau", "modulus"], tau_rows),
        csv_text(["check", "location", "lhs", "rhs", "margin", "rel_margin", "passed"], verify_rows),
    )


# labels that csv.writer must quote, or must not: the delimiter, the quote, the line breaks
# ("\r" is quoted only when the line terminator holds it), a leading blank and a JSON integer
_AWKWARD_LABELS = ["a,b", 'q"x', "two\nlines", "cr\rx", " lead", 7]


@pytest.mark.parametrize("text", [str(x) for x in _AWKWARD_LABELS] + ["", "plain", 'a,"b"\n'])
def test_field_quotes_as_csv_writer(text):
    assert csv_text(["h"], [[text, ""]]) == f"h\n{_field(text)},\n"


def test_csv_rows_match_per_check_oracle(tmp_path):
    # brownian64 (T1 on three points), a 12-point T3 grid with random functions
    # and a 6-point line read from a JSON file whose labels need csv quoting
    pos = np.arange(6.0)
    labelled = json.dumps({
        "labels": _AWKWARD_LABELS,
        "dist": np.abs(pos[:, None] - pos[None, :]).ravel().tolist(),
        "mass": [0.125] * 4 + [0.25] * 2,
    })
    _write(tmp_path, "labelled.json", labelled)
    labelled_cfg = _write(
        tmp_path,
        "labelled.cfg",
        "[space]\nsource = file\nfile = labelled.json\n"
        "[phi]\nkind = power\np = 2\n"
        "[certificate]\ntheorem = T3\nR = 6\n"
        "[functions]\nsource = random\ncount = 3\nseed = 5\n",
    )
    t3 = _write(
        tmp_path,
        "t3grid.cfg",
        "[space]\nkind = grid\nn = 12\ngamma = 0.5\n"
        "[phi]\nkind = power\np = 2\n"
        "[certificate]\ntheorem = T3\nR = 6\n"
        "[functions]\nsource = random\ncount = 4\nseed = 3\n",
    )
    # the benchmark's T3 size: 64 points, where the modulus_bound rows repeat
    # their values and the writer formats each distinct float once
    t3_64 = _write(
        tmp_path,
        "t3grid64.cfg",
        "[space]\nkind = grid\nn = 64\ngamma = 0.5\n"
        "[phi]\nkind = power\np = 2\n"
        "[certificate]\ntheorem = T3\nR = 6\n"
        "[functions]\nsource = random\ncount = 10\nseed = 11\n",
    )
    cases = [
        (SCENARIOS / "brownian64.cfg", generate_space("grid", n=3, scale=2.0), "T1",
         YoungFunction.power(1), YoungFunction.power(2), 7, 10),
        (t3, generate_space("grid", n=12, gamma=0.5), "T3", YoungFunction.power(2), None, 3, 4),
        (labelled_cfg, space_from_json(labelled), "T3", YoungFunction.power(2), None, 5, 3),
        (t3_64, generate_space("grid", n=64, gamma=0.5), "T3", YoungFunction.power(2), None, 11, 10),
    ]
    for cfg, space, theorem, phi, psi, seed, count in cases:
        out = tmp_path / cfg.stem
        assert run(cfg, out_dir=out) == EXIT_OK
        rng = np.random.default_rng(seed)
        functions = [rng.standard_normal(space.n) for _ in range(count)]
        tau_text, verify_text = _oracle_tau_and_verify(space, theorem, phi, psi, functions)
        assert (out / "tau.csv").read_bytes() == tau_text.encode()
        assert (out / "verify.csv").read_bytes() == verify_text.encode()
    with (out / "verify.csv").open(newline="") as fh:
        rhs = [r[3] for r in csv.reader(fh) if r[0] == "modulus_bound"]
    assert len(rhs) == 10 * 64 * 63 // 2 and len(set(rhs)) == 10


def _repr_battery():
    """Float arrays for the _reprs oracle: distinct, equal, repeated and special values."""
    rng = np.random.default_rng(2024)
    pool = rng.standard_normal(7)
    nans = np.array([0x7FF8000000000001, 0x7FF8000000000002, -0x0008000000000001], dtype=np.int64).view(np.float64)
    subnormals = np.array([5e-324, -5e-324, 2.5e-310, np.nextafter(2.2250738585072014e-308, 0.0)])
    return {
        "distinct": rng.standard_normal(300),
        "equal": np.full(40, 0.1),
        "runs": np.repeat(rng.standard_normal(6), rng.integers(1, 9, 6)),
        "pool": rng.choice(pool, 500),
        "signed-zeros": rng.choice([0.0, -0.0, 1.0], 60),
        "infinities": rng.choice([np.inf, -np.inf, 1.5, -0.0], 60),
        "nan-payloads": rng.choice(np.concatenate([nans, [np.nan, 2.0]]), 60),
        "subnormals": rng.choice(np.concatenate([subnormals, [0.0, -0.0]]), 80),
        "strided": rng.choice(pool, 90)[::3],
        "empty": np.empty(0),
        "one": np.array([-0.0]),
    }


_REPR_BATTERY = _repr_battery()


@pytest.mark.parametrize("values", _REPR_BATTERY.values(), ids=_REPR_BATTERY.keys())
def test_reprs_match_repr_of_each_value(values):
    assert _reprs(values) == list(map(repr, values.tolist()))
