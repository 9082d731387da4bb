"""Config-driven scenario runner.

Reads an INI-style scenario, runs the selected pipeline (growth conditions,
radius table, minorizing metrics, certificate, deterministic verification,
optional Monte Carlo), and writes a fixed file set into the output directory:
certificate.json, tau.csv, verify.csv, mc.csv and summary.json. Outputs are
byte-identical across reruns of the same scenario and seed.

Exit codes: 0 success, 2 configuration error (unreadable or malformed
config, non-numeric values, invalid parameter ranges, non-boolean switches,
invalid spaces or a non-finite grid scale, a Monte Carlo gauge the sampler
cannot normalize or whose moment E|Z|^p overflows), 3 precondition failure
(growth-ratio or series divergence, degenerate certificates, a minorizing
metric or a phi(R^k) that overflows, a gauge check whose two sides both
overflow), 4 failed verification assertion.
Warnings from every stage, parsing included, are listed in summary.json; a
run that stops on an error prints them to stderr after its message.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import math
import sys
import warnings
from functools import partial
from itertools import chain, repeat
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .chain import (
    CertificateError,
    PreconditionError,
    certificate_thm1,
    certificate_thm3,
    certificate_to_json,
    modulus_pairs,
)
from .mc import _normalizer, brownian_grid_sampler, empirical_corollary, sample
from .minorize import MinorizingMetrics
from .mspace import ZeroMassAtomError, _pair_mask, _reprs, _triu, generate_space, space_from_json
from .verify import TestFunction, invariant_suite, verify_thm1, verify_thm3
from .young import YoungFunction

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_ASSERTION = 4


class ConfigError(ValueError):
    pass


def _fmt(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _get(cfg, section, key, kind=None, default=None, required=False):
    """[section] key as text, or read by _number when kind is given; default when it is absent."""
    if not cfg.has_option(section, key):
        if required:
            raise ConfigError(f"missing [{section}] {key}")
        return default
    text = cfg.get(section, key)
    return text if kind is None else _number(kind, text, section, key)


_NUMBER_KINDS = {int: "an integer", float: "a number", bool: "a boolean"}


def _number(kind, text, section, key):
    """text read as kind (int, float, or bool as configparser spells it); else a ConfigError naming [section] key."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()] if kind is bool else kind(text)
    except (ValueError, KeyError):
        raise ConfigError(f"[{section}] {key} must be {_NUMBER_KINDS[kind]}, not {text!r}") from None


def _parse_young(cfg, section):
    kind = _get(cfg, section, "kind", required=True)
    if kind == "power":
        return YoungFunction.power(_get(cfg, section, "p", float, required=True))
    if kind == "exponential":
        return YoungFunction.exponential(_get(cfg, section, "q", float, required=True))
    if kind == "piecewise":
        raw = _get(cfg, section, "knots", required=True)
        knots = []
        for part in raw.split(";"):
            xs = part.split(",")
            if len(xs) != 2:
                raise ConfigError(f"bad knot {part!r} in [{section}]")
            knots.append((_number(float, xs[0], section, "knots"), _number(float, xs[1], section, "knots")))
        return YoungFunction.piecewise(knots)
    raise ConfigError(f"unknown Young function kind {kind!r} in [{section}]")


def _parse_space(cfg, base_dir):
    source = _get(cfg, "space", "source", default="generate")
    if source == "file":
        path = Path(_get(cfg, "space", "file", required=True))
        if not path.is_absolute():
            path = base_dir / path
        if not path.exists():
            raise ConfigError(f"space file {path} does not exist")
        return space_from_json(path.read_text())
    if source != "generate":
        raise ConfigError(f"unknown space source {source!r}")
    kind = _get(cfg, "space", "kind", default="grid")
    seed = _get(cfg, "space", "seed", int)
    params = {}  # generate_space rejects an unknown kind, and _parse makes that a ConfigError
    if kind == "grid":
        params["n"] = _get(cfg, "space", "n", int, required=True)
        params["gamma"] = _get(cfg, "space", "gamma", float, default=1.0)
        params["scale"] = _get(cfg, "space", "scale", float, default=1.0)
    elif kind == "tree":
        params["depth"] = _get(cfg, "space", "depth", int, required=True)
    elif kind == "random":
        params["n"] = _get(cfg, "space", "n", int, required=True)
    mass = _get(cfg, "space", "mass", default="uniform")
    if mass not in ("uniform", "random"):
        mass = [_number(float, v, "space", "mass") for v in mass.split(",")]
    params["mass"] = mass
    return generate_space(kind, seed=seed, **params)


def _check_values(vals, space, name):
    """The function called name as a TestFunction; a wrong length, or values or quotients not all finite, are a ConfigError."""
    try:
        f = TestFunction(vals)
        f.quotients(space)
    except ValueError as exc:
        raise ConfigError(f"[functions] {name}: {exc}") from None
    return f


def _parse_functions(cfg, space, seed_override):
    source = _get(cfg, "functions", "source", default="random")
    if source == "values":
        raw = _get(cfg, "functions", "values", required=True)
        rows = [[_number(float, v, "functions", "values") for v in part.split(",")] for part in raw.split(";")]
        return [_check_values(vals, space, f"values of function {idx}") for idx, vals in enumerate(rows)]
    if source != "random":
        raise ConfigError(f"unknown function source {source!r}")
    count = _get(cfg, "functions", "count", int, default=20)
    if count < 0:
        raise ConfigError(f"[functions] count must be >= 0, not {count}")
    seed = _get(cfg, "functions", "seed", int, default=0)
    if seed_override is not None:
        seed = seed_override
    rng = np.random.default_rng(seed)
    return [_check_values(rng.standard_normal(space.n), space, f"random function {idx}") for idx in range(count)]


def _parse_mc(cfg, seed_override, gauge):
    """(grid points, paths, seed) of the Monte Carlo stage, or None when it is disabled.

    gauge is the one the sampler normalizes its increments to: psi for T1, phi for T3.
    """
    if not _get(cfg, "mc", "enabled", bool, default=False):
        return None
    n_grid = _get(cfg, "mc", "n", int, default=64)
    paths = _get(cfg, "mc", "paths", int, default=10000)
    mc_seed = _get(cfg, "mc", "seed", int, default=0) if seed_override is None else seed_override
    if n_grid < 2 or paths < 1 or mc_seed < 0:
        raise ConfigError(f"[mc] needs n >= 2, paths >= 1 and seed >= 0 (n = {n_grid}, paths = {paths}, seed = {mc_seed})")
    try:
        _normalizer(gauge)  # the sampler's own test, so the supported gauges are listed in one place
    except ValueError as exc:
        raise ConfigError(f"[mc] cannot sample this gauge: {exc}") from None
    return n_grid, paths, mc_seed


def _certify(theorem, space, phi, psi, R, n0):
    """Metrics, the selected certificate and its check of one function on space."""
    metrics = MinorizingMetrics(space, phi)
    if theorem == "T1":
        cert = certificate_thm1(space, phi, psi, R, n0)
        nabla_r = 1.0 if psi.kind == "power" else None
        return metrics, cert, partial(verify_thm1, cert, metrics, nabla_r=nabla_r)
    cert = certificate_thm3(space, phi, R)
    return metrics, cert, partial(verify_thm3, cert, metrics)


def _field(text):
    """text as one csv field, quoted exactly where csv.writer quotes it."""
    buf = io.StringIO()
    # a row of one empty field is written '""', so the field goes out with an empty one after it
    csv.writer(buf, lineterminator="\n").writerow((text, ""))
    return buf.getvalue()[:-2]


def _tau_rows(metrics, cert):
    """tau.csv text, one string per first point i of the pairs (i, j > i); the modulus is empty for T1."""
    space = metrics.space
    n = space.n
    mods = None if cert.theorem == "T1" else modulus_pairs(cert, metrics)

    def blocks():
        pairs = _pair_mask(n)
        dists = _reprs(space.dist[pairs])
        taus = _reprs(metrics.tau[pairs])
        row_mods = repeat("") if mods is None else iter(_reprs(mods))
        labels = [_field(_fmt(x)) for x in space.labels]
        start = 0
        for i in range(n - 1):
            stop = start + n - 1 - i
            yield "".join([
                f"{i},{j},{labels[i]},{labels[j]},{d},{t},{m}\n"
                for j, d, t, m in zip(range(i + 1, n), dists[start:stop], taus[start:stop], row_mods)
            ])
            start = stop

    return blocks()


_BOOL = {True: "true", False: "false"}
# Verdicts that verify.csv spells True/False, as numpy booleans once wrote them;
# the benchmark's recorded references hash that text (ROADMAP item 6 re-records them).
CAPITALIZED_VERDICTS = frozenset({"radius_series_integral", "ball_nesting"})


def _pair_labels(n):
    """The "(i,j)" label of each pair of mspace._triu(n), the pair list of every pair check."""
    return [f"({i},{j})" for i, j in zip(*(a.tolist() for a in _triu(n)))]


def _report_rows(report, prefix, pair_labels):
    """verify.csv text of one report, one string per check, joined column by column.

    pair_labels is _pair_labels(n) of the report's space, made once per
    scenario, so each pair row takes a ready label.
    """
    pair_checks = report.pair_checks
    for c in report.checks:
        locations, lhs, rhs, margin, rel, passed = c.columns()
        columns = (_reprs(lhs), _reprs(rhs), _reprs(margin), _reprs(rel))
        verdict = str if c.name in CAPITALIZED_VERDICTS else _BOOL.__getitem__
        verdicts = map(verdict, passed.tolist())
        name = _field(c.name)
        if c in pair_checks:
            # "(i,j)" holds the delimiter, so csv.writer quotes every pair location;
            # the prefix "f<idx>:" holds no quote, so nothing inside needs escaping
            yield "".join([
                f'{name},"{prefix}{p}",{a},{b},{m},{r},{v}\n'
                for p, a, b, m, r, v in zip(pair_labels, *columns, verdicts)
            ])
        else:
            yield "".join([
                f"{name},{_field(prefix + x)},{a},{b},{m},{r},{v}\n"
                for x, a, b, m, r, v in zip(locations, *columns, verdicts)
            ])


def _mc_rows(mc_report):
    """mc.csv text, one line per statistic."""
    return [
        ",".join([_field(s.name)] + [_fmt(v) for v in (s.mean, s.stderr, s.n_paths, s.threshold, s.passed)]) + "\n"
        for s in mc_report.checks
    ]


_CSV_HEADERS = {
    "tau": "i,j,label_i,label_j,distance,tau,modulus\n",
    "verify": "check,location,lhs,rhs,margin,rel_margin,passed\n",
    "mc": "statistic,mean,stderr,paths,threshold,passed\n",
}


def emit_report(results, out_dir):
    """Write the fixed file set; overwrites are idempotent.

    The csv entries of results are iterables of blocks of ready csv lines,
    one block per check (verify.csv), per first point (tau.csv) or per
    statistic (mc.csv). They may be lazy, so the lines are formatted here,
    one block at a time, while the files are written.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cert_path = out / "certificate.json"
    cert_path.write_text(certificate_to_json(results["certificate"]) + "\n")
    written = [cert_path]
    for name, header in _CSV_HEADERS.items():
        path = out / f"{name}.csv"
        with path.open("w", newline="") as fh:
            fh.write(header)
            fh.writelines(results[f"{name}_rows"])
        written.append(path)

    summary_path = out / "summary.json"
    summary = {key: results[key] for key in ("passed", "exit_code", "theorem", "mass_integral", "warnings")}
    summary["outputs"] = [p.name for p in written]
    summary_path.write_text(json.dumps(summary, sort_keys=True, separators=(",", ":")) + "\n")
    written.append(summary_path)
    return written


# the exceptions a run ends in, each with its exit code and stderr prefix; the parse stage
# turns any configparser error, ValueError, KeyError or ArithmeticError into a ConfigError
_FAILURES = {ConfigError: (EXIT_CONFIG, "configuration error")} | dict.fromkeys(
    (PreconditionError, CertificateError, ZeroMassAtomError, ArithmeticError), (EXIT_PRECONDITION, "precondition failure")
)


def _parse(config_path, out_dir, seed):
    """The scenario at config_path, read and checked, with the directory its outputs go to."""
    try:
        cfg = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        if not cfg.read(config_path):
            raise ConfigError(f"cannot read config {config_path}")
        theorem = _get(cfg, "certificate", "theorem", default="T1").upper()
        if theorem not in ("T1", "T3"):
            raise ConfigError(f"unknown theorem selection {theorem!r}")
        R = _get(cfg, "certificate", "R", float, default=6.0)
        n0 = _get(cfg, "certificate", "n0", int, default=1)
        if not 1 < R < math.inf or n0 < 1:
            raise ConfigError("need a finite R > 1 and n0 >= 1")
        space = _parse_space(cfg, config_path.parent)
        phi = _parse_young(cfg, "phi")
        psi = _parse_young(cfg, "psi") if cfg.has_section("psi") else None
        if theorem == "T1" and psi is None:
            raise ConfigError("theorem T1 needs a [psi] section")
        functions = _parse_functions(cfg, space, seed)
        invariants = _get(cfg, "verify", "invariants", bool, default=True)
        gauge = psi if theorem == "T1" else phi  # the one the sampler normalizes its increments to
        mc = _parse_mc(cfg, seed, gauge)
        out = Path(out_dir) if out_dir else Path(_get(cfg, "output", "dir", default="out"))
    except ConfigError:
        raise
    except (configparser.Error, ValueError, KeyError, ArithmeticError) as exc:
        raise ConfigError(exc) from None
    return SimpleNamespace(theorem=theorem, R=R, n0=n0, space=space, phi=phi, psi=psi, functions=functions,
                           invariants=invariants, gauge=gauge, mc=mc, out=config_path.parent / out)


def _compute(sc):
    """The certify, functions, suite and mc stages of scenario sc: the results for emit_report but its warnings and exit code."""
    metrics, cert, check = _certify(sc.theorem, sc.space, sc.phi, sc.psi, sc.R, sc.n0)
    if not math.isfinite(metrics.total):
        raise PreconditionError(f"minorizing metric overflows: its mass integral is {metrics.total}")
    if cert.escalated_from is not None:
        warnings.warn(f"ratio escalated from {cert.escalated_from} to {cert.R}")
    tau_rows = _tau_rows(metrics, cert)
    reports = [(check(fvals), f"f{idx}:") for idx, fvals in enumerate(sc.functions)]
    if sc.invariants:
        reports.append((invariant_suite(sc.space, sc.phi, sc.psi, cert.R, sc.n0), ""))
    passed = all(report.passed for report, _ in reports)
    mc_rows = []
    if sc.mc is not None:
        n_grid, paths, mc_seed = sc.mc
        sampler = brownian_grid_sampler(n_grid, sc.gauge)
        mc_metrics, mc_cert, _ = _certify(sc.theorem, sampler.space, sc.phi, sc.psi, sc.R, sc.n0)
        mc_report = empirical_corollary(sample(sampler, paths, mc_seed), mc_cert, mc_metrics)
        passed &= mc_report.passed
        mc_rows = _mc_rows(mc_report)
    labels = _pair_labels(sc.space.n)
    verify_rows = chain.from_iterable(_report_rows(r, prefix, labels) for r, prefix in reports)
    return dict(certificate=cert, theorem=cert.theorem, mass_integral=metrics.total, passed=passed,
                tau_rows=tau_rows, verify_rows=verify_rows, mc_rows=mc_rows)


def run(config_path, out_dir=None, seed=None, strict=False):
    """Execute one scenario; returns the process exit code."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            scenario = _parse(Path(config_path), out_dir, seed)
            results = _compute(scenario)
        except tuple(_FAILURES) as exc:
            code, prefix = next(_FAILURES[c] for c in type(exc).__mro__ if c in _FAILURES)
            print(f"{prefix}: {exc}", file=sys.stderr)
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)
            return code
    results["warnings"] = [str(w.message) for w in caught]
    if strict and results["warnings"]:
        print("warnings treated as errors:\n  " + "\n  ".join(results["warnings"]), file=sys.stderr)
        results["passed"], code = False, EXIT_PRECONDITION
    else:
        code = EXIT_OK if results["passed"] else EXIT_ASSERTION
    results["exit_code"] = code
    emit_report(results, scenario.out)
    if code == EXIT_ASSERTION:
        print("verification failed; see verify.csv / mc.csv", file=sys.stderr)
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="chaincert",
        description="Compute chaining certificates on finite metric measure "
        "spaces and verify the resulting continuity bounds.",
    )
    parser.add_argument("--config", required=True, help="scenario file (INI format)")
    parser.add_argument("--out", default=None, help="output directory (overrides the config)")
    parser.add_argument("--seed", type=int, default=None, help="override function and mc seeds")
    parser.add_argument("--strict", action="store_true", help="treat warnings as errors")
    args = parser.parse_args(argv)
    return run(args.config, out_dir=args.out, seed=args.seed, strict=args.strict)


if __name__ == "__main__":
    sys.exit(main())
