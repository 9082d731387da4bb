"""Fixed-seed scenario fuzzer: mutated copies of the shipped scenarios, run in-process by cli.run.

Each scenario is a shipped .cfg with one to three keys set to values from
fixed pools: small and large numbers, the float extremes, non-finite and
non-numeric text, the empty string, and the words each key takes. Sizes
stay small: at most 64 points, 200 Monte Carlo paths and 5 random
functions. Every run must end in exit 0, 2, 3 or 4 without raising, its
warnings must all be caught by the run itself, and a run that passes must
have written a finite mass integral and a tau.csv without inf or nan.
"""

import configparser
import csv
import json
import math
import random
import shutil
import warnings
from pathlib import Path

from chaincert.cli import EXIT_ASSERTION, EXIT_CONFIG, EXIT_OK, EXIT_PRECONDITION, run

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SEED = 20260321
COUNT = 300

NUMBERS = ["0", "1", "-1", "0.5", "2", "3", "50", "200", "400", "1e3",
           "1e308", "-1e308", "1e-308", "inf", "-inf", "nan", "abc", "1,2", ""]
WORDS = {
    "kind": ["power", "exponential", "piecewise", "grid", "tree", "random", "line"],
    "theorem": ["T1", "T3", "t3", "T2"],
    "source": ["values", "random", "generate", "file"],
    "invariants": ["true", "false", "on", "maybe"],
    "enabled": ["true", "false", "on", "maybe"],
}
LISTS = {"mass", "values", "knots"}
# the most each size key may take: 64 grid, random or mc points, a tree of
# depth 5 (63 points), 200 paths and 5 random functions
CAPS = {("space", "n"): 64, ("space", "depth"): 5, ("mc", "n"): 64, ("mc", "paths"): 200, ("functions", "count"): 5}
KEYS = [
    ("space", "n"), ("space", "gamma"), ("space", "scale"), ("space", "mass"), ("space", "seed"),
    ("space", "kind"), ("space", "depth"),
    ("phi", "kind"), ("phi", "p"), ("phi", "q"), ("phi", "knots"),
    ("psi", "kind"), ("psi", "p"), ("psi", "q"),
    ("certificate", "theorem"), ("certificate", "R"), ("certificate", "n0"),
    ("functions", "source"), ("functions", "values"), ("functions", "count"), ("functions", "seed"),
    ("verify", "invariants"),
    ("mc", "enabled"), ("mc", "n"), ("mc", "paths"), ("mc", "seed"),
]


def _finite_number(text):
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _value(rng, section, key):
    """A pool value for [section] key; a size key never gets a finite number above its cap."""
    if key in WORDS and rng.random() < 0.5:
        return rng.choice(WORDS[key])
    pool = NUMBERS
    cap = CAPS.get((section, key))
    if cap is not None:
        pool = [v for v in NUMBERS if not _finite_number(v) or float(v) <= cap]
    if key in LISTS:
        sep = ";" if key == "knots" else ","
        return sep.join(rng.choice(pool) for _ in range(rng.randint(1, 4)))
    return rng.choice(pool)


def _base(name):
    """The shipped scenario with its Monte Carlo stage and random functions cut to the size caps."""
    cfg = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    cfg.read(SCENARIOS / f"{name}.cfg")
    if not cfg.has_section("mc"):
        cfg.add_section("mc")
    cfg["mc"]["paths"] = "200"
    if cfg.has_option("functions", "count"):
        cfg["functions"]["count"] = "5"
    return cfg


def _scenarios():
    rng = random.Random(SEED)
    names = sorted(p.stem for p in SCENARIOS.glob("*.cfg"))
    for _ in range(COUNT):
        name = rng.choice(names)
        changes = {}
        for section, key in rng.sample(KEYS, rng.randint(1, 3)):
            changes[section, key] = _value(rng, section, key)
        yield name, changes


def _non_finite_taus(path):
    with path.open(newline="") as fh:
        return [row["tau"] for row in csv.DictReader(fh) if not math.isfinite(float(row["tau"]))]


def test_mutated_scenarios_end_in_a_verdict(tmp_path, capsys):
    cfg_path = tmp_path / "scenario.cfg"
    out = tmp_path / "out"
    failures = []
    for idx, (name, changes) in enumerate(_scenarios()):
        cfg = _base(name)
        for (section, key), value in changes.items():
            if not cfg.has_section(section):
                cfg.add_section(section)
            cfg[section][key] = value
        with cfg_path.open("w") as fh:
            cfg.write(fh)
        shutil.rmtree(out, ignore_errors=True)
        where = f"#{idx} {name} {changes}"
        with warnings.catch_warnings(record=True) as escaped:
            warnings.simplefilter("always")
            try:
                code = run(cfg_path, out_dir=out)
            except Exception as exc:  # every exception is a finding
                failures.append(f"{where}: raised {type(exc).__name__}: {exc}")
                continue
        capsys.readouterr()
        if code not in (EXIT_OK, EXIT_CONFIG, EXIT_PRECONDITION, EXIT_ASSERTION):
            failures.append(f"{where}: exit {code}")
        if escaped:
            failures.append(f"{where}: escaped warnings {[str(w.message) for w in escaped]}")
        if code == EXIT_OK:
            total = json.loads((out / "summary.json").read_text())["mass_integral"]
            bad_taus = _non_finite_taus(out / "tau.csv")
            if not math.isfinite(total) or bad_taus:
                failures.append(f"{where}: exit 0 with mass integral {total} and taus {bad_taus[:3]}")
    assert not failures, "\n".join(failures)
