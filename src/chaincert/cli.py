"""Config-driven scenario runner.

Reads an INI-style scenario, runs the selected pipeline (growth conditions,
radius table, minorizing metrics, certificate, deterministic verification,
optional Monte Carlo), and writes a fixed file set into the output directory:
certificate.json, tau.csv, verify.csv, mc.csv and summary.json. Outputs are
byte-identical across reruns of the same scenario and seed.

Exit codes: 0 success, 2 configuration error, 3 precondition failure
(growth-ratio or series divergence, invalid parameter ranges), 4 failed
verification assertion.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import sys
import warnings
from functools import partial
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .chain import (
    CertificateError,
    PreconditionError,
    certificate_thm1,
    certificate_thm3,
    certificate_to_json,
    modulus_pairs,
)
from .mc import brownian_grid_sampler, empirical_corollary, sample
from .minorize import MinorizingMetrics
from .mspace import SpaceValidationError, ZeroMassAtomError, generate_space, space_from_json
from .verify import invariant_suite, verify_thm1, verify_thm3
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


def _get(cfg, section, key, default=None, required=False):
    if cfg.has_option(section, key):
        return cfg.get(section, key)
    if required:
        raise ConfigError(f"missing [{section}] {key}")
    return default


def _parse_young(cfg, section):
    kind = _get(cfg, section, "kind", required=True)
    if kind == "power":
        return YoungFunction.power(float(_get(cfg, section, "p", required=True)))
    if kind == "exponential":
        return YoungFunction.exponential(float(_get(cfg, section, "q", required=True)))
    if kind == "piecewise":
        raw = _get(cfg, section, "knots", required=True)
        knots = []
        for part in raw.split(";"):
            xs = part.split(",")
            if len(xs) != 2:
                raise ConfigError(f"bad knot {part!r} in [{section}]")
            knots.append((float(xs[0]), float(xs[1])))
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
    seed = _get(cfg, "space", "seed")
    seed = int(seed) if seed is not None else None
    params = {}
    if kind == "grid":
        params["n"] = int(_get(cfg, "space", "n", required=True))
        params["gamma"] = float(_get(cfg, "space", "gamma", default="1.0"))
        params["scale"] = float(_get(cfg, "space", "scale", default="1.0"))
    elif kind == "tree":
        params["depth"] = int(_get(cfg, "space", "depth", required=True))
    elif kind == "random":
        params["n"] = int(_get(cfg, "space", "n", required=True))
    else:
        raise ConfigError(f"unknown space kind {kind!r}")
    mass = _get(cfg, "space", "mass", default="uniform")
    if mass not in ("uniform", "random"):
        mass = [float(v) for v in mass.split(",")]
    params["mass"] = mass
    return generate_space(kind, seed=seed, **params)


def _parse_functions(cfg, n, seed_override):
    source = _get(cfg, "functions", "source", default="random")
    if source == "values":
        raw = _get(cfg, "functions", "values", required=True)
        out = []
        for part in raw.split(";"):
            vals = [float(v) for v in part.split(",")]
            if len(vals) != n:
                raise ConfigError(f"function of length {len(vals)} on a {n}-point space")
            out.append(np.asarray(vals))
        return out
    if source != "random":
        raise ConfigError(f"unknown function source {source!r}")
    count = int(_get(cfg, "functions", "count", default="20"))
    seed = int(_get(cfg, "functions", "seed", default="0"))
    if seed_override is not None:
        seed = seed_override
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(n) for _ in range(count)]


def _certify(theorem, space, phi, psi, R, n0, tail_tol):
    """Metrics, the selected certificate and its check of one function on space."""
    metrics = MinorizingMetrics(space, phi)
    if theorem == "T1":
        cert = certificate_thm1(space, phi, psi, R, n0, tail_tol=tail_tol)
        nabla_r = 1.0 if psi.kind == "power" else None
        return metrics, cert, partial(verify_thm1, cert, metrics, nabla_r=nabla_r)
    cert = certificate_thm3(space, phi, R, tail_tol=tail_tol)
    return metrics, cert, partial(verify_thm3, cert, metrics)


def _write_csv(path, header, rows):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _tau_rows(space, metrics, cert):
    """tau.csv rows as strings, one column at a time; the modulus is empty for T1."""
    iu, iv = np.triu_indices(space.n, 1)
    mods = repeat("") if cert.theorem == "T1" else map(repr, modulus_pairs(cert, metrics, iu, iv).tolist())
    labels = [_fmt(x) for x in space.labels]
    iu_list, iv_list = iu.tolist(), iv.tolist()
    return zip(
        map(str, iu_list), map(str, iv_list),
        map(labels.__getitem__, iu_list), map(labels.__getitem__, iv_list),
        map(repr, space.dist[iu, iv].tolist()), map(repr, metrics.tau[iu, iv].tolist()),
        mods,
    )


_BOOL = {True: "true", False: "false"}
# Verdicts that verify.csv spells True/False, as numpy booleans once wrote them;
# the benchmark's recorded references hash that text (ROADMAP item 5 re-records them).
CAPITALIZED_VERDICTS = frozenset({"radius_series_integral", "ball_nesting"})


def _report_rows(report, prefix):
    """verify.csv rows of one report as strings, each check column by column."""
    for c in report.checks:
        loc, lhs, rhs, margin, rel, ok = c.columns()
        verdict = str if c.name in CAPITALIZED_VERDICTS else _BOOL.__getitem__
        yield from zip(
            repeat(c.name), [prefix + x for x in loc], map(repr, lhs), map(repr, rhs),
            map(repr, margin), map(repr, rel), map(verdict, ok),
        )


def emit_report(results, out_dir):
    """Write the fixed file set; overwrites are idempotent.

    The csv rows in results are iterables of ready strings; they may be lazy,
    so their formatting happens here, while the files are written.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    cert = results.get("certificate")
    cert_path = out / "certificate.json"
    cert_path.write_text(certificate_to_json(cert) + "\n" if cert else "null\n")
    written.append(cert_path)

    tau_rows = results.get("tau_rows", [])
    tau_path = out / "tau.csv"
    _write_csv(tau_path, ["i", "j", "label_i", "label_j", "distance", "tau", "modulus"], tau_rows)
    written.append(tau_path)

    verify_rows = results.get("verify_rows", [])
    verify_path = out / "verify.csv"
    _write_csv(
        verify_path,
        ["check", "location", "lhs", "rhs", "margin", "rel_margin", "passed"],
        verify_rows,
    )
    written.append(verify_path)

    mc_rows = results.get("mc_rows", [])
    mc_path = out / "mc.csv"
    _write_csv(mc_path, ["statistic", "mean", "stderr", "paths", "threshold", "passed"], mc_rows)
    written.append(mc_path)

    summary_path = out / "summary.json"
    summary = {
        "passed": results.get("passed", False),
        "exit_code": results.get("exit_code", EXIT_OK),
        "theorem": results.get("theorem"),
        "mass_integral": results.get("mass_integral"),
        "warnings": results.get("warnings", []),
        "outputs": [p.name for p in written],
    }
    summary_path.write_text(json.dumps(summary, sort_keys=True, separators=(",", ":")) + "\n")
    written.append(summary_path)
    return written


def run(config_path, out_dir=None, seed=None, strict=False):
    """Execute one scenario; returns the process exit code."""
    config_path = Path(config_path)
    results = {"warnings": []}
    try:
        cfg = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        read = cfg.read(config_path)
        if not read:
            raise ConfigError(f"cannot read config {config_path}")
        theorem = _get(cfg, "certificate", "theorem", default="T1").upper()
        if theorem not in ("T1", "T3"):
            raise ConfigError(f"unknown theorem selection {theorem!r}")
        R = float(_get(cfg, "certificate", "R", default="6"))
        n0 = int(_get(cfg, "certificate", "n0", default="1"))
        tail_tol = float(_get(cfg, "certificate", "tail_tol", default="1e-12"))
        if not 1 < R < math.inf or n0 < 1:
            raise ConfigError("need a finite R > 1 and n0 >= 1")
        space = _parse_space(cfg, config_path.parent)
        phi = _parse_young(cfg, "phi")
        psi = _parse_young(cfg, "psi") if cfg.has_section("psi") else None
        if theorem == "T1" and psi is None:
            raise ConfigError("theorem T1 needs a [psi] section")
        functions = _parse_functions(cfg, space.n, seed)
        out = Path(out_dir) if out_dir else Path(_get(cfg, "output", "dir", default="out"))
        if not out.is_absolute():
            out = config_path.parent / out
    except (ConfigError, SpaceValidationError, ValueError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            metrics, cert, check = _certify(theorem, space, phi, psi, R, n0, tail_tol)
        except (PreconditionError, CertificateError, ZeroMassAtomError, ArithmeticError) as exc:
            print(f"precondition failure: {exc}", file=sys.stderr)
            return EXIT_PRECONDITION

        results["certificate"] = cert
        results["theorem"] = cert.theorem
        results["mass_integral"] = metrics.total
        if cert.escalated_from is not None:
            results["warnings"].append(f"ratio escalated from {cert.escalated_from} to {cert.R}")

        results["tau_rows"] = _tau_rows(space, metrics, cert)

        reports = [(check(fvals), f"f{idx}:") for idx, fvals in enumerate(functions)]
        all_passed = all(report.passed for report, _ in reports)
        if _get(cfg, "verify", "invariants", default="true").lower() in ("1", "true", "yes"):
            suite = invariant_suite(space, phi, psi, cert.R, n0)
            all_passed &= suite.passed
            reports.append((suite, ""))
        results["verify_rows"] = chain.from_iterable(_report_rows(r, prefix) for r, prefix in reports)

        mc_rows = []
        if cfg.has_section("mc") and _get(cfg, "mc", "enabled", default="false").lower() in ("1", "true", "yes"):
            try:
                n_grid = int(_get(cfg, "mc", "n", default="64"))
                paths = int(_get(cfg, "mc", "paths", default="10000"))
                mc_seed = int(_get(cfg, "mc", "seed", default="0"))
                if seed is not None:
                    mc_seed = seed
                sampler = brownian_grid_sampler(n_grid, psi if theorem == "T1" else phi)
                mc_metrics, mc_cert, _ = _certify(theorem, sampler.space, phi, psi, R, n0, tail_tol)
                batch = sample(sampler, paths, mc_seed)
                mc_report = empirical_corollary(batch, mc_cert, mc_metrics)
                all_passed &= mc_report.passed
                for s in mc_report.stats:
                    mc_rows.append([_fmt(v) for v in (s.name, s.mean, s.stderr, s.n_paths, s.threshold, s.passed)])
            except (PreconditionError, CertificateError, ValueError) as exc:
                print(f"precondition failure in mc stage: {exc}", file=sys.stderr)
                return EXIT_PRECONDITION
        results["mc_rows"] = mc_rows

        for w in caught:
            results["warnings"].append(str(w.message))

    if strict and results["warnings"]:
        print("warnings treated as errors:\n  " + "\n  ".join(results["warnings"]), file=sys.stderr)
        results["passed"] = False
        results["exit_code"] = EXIT_PRECONDITION
        emit_report(results, out)
        return EXIT_PRECONDITION

    results["passed"] = all_passed
    results["exit_code"] = EXIT_OK if all_passed else EXIT_ASSERTION
    emit_report(results, out)
    if not all_passed:
        print("verification failed; see verify.csv / mc.csv", file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


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
