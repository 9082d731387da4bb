"""Config-driven scenario runner.

Reads an INI-style scenario, runs the selected pipeline (growth conditions,
radius table, minorizing metrics, certificate, deterministic verification,
optional Monte Carlo), and writes a fixed file set into the output directory:
certificate.json, tau.csv, verify.csv, mc.csv and summary.json. Outputs are
byte-identical across reruns of the same scenario and seed.

Exit codes: 0 success, 2 configuration error (unreadable or malformed
config, non-numeric values, invalid parameter ranges, non-boolean switches,
invalid spaces, a Monte Carlo gauge the samplers cannot normalize),
3 precondition failure (growth-ratio or series divergence, degenerate
certificates), 4 failed verification assertion.
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
from .mspace import SpaceValidationError, ZeroMassAtomError, _triu, generate_space, space_from_json
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


def _get(cfg, section, key, default=None, required=False):
    if cfg.has_option(section, key):
        return cfg.get(section, key)
    if required:
        raise ConfigError(f"missing [{section}] {key}")
    return default


_NUMBER_KINDS = {int: "an integer", float: "a number"}


def _number(kind, text, section, key):
    """text converted by kind (int or float); a value it cannot convert is a ConfigError naming [section] key."""
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"[{section}] {key} must be {_NUMBER_KINDS[kind]}, not {text!r}") from None


def _get_number(cfg, section, key, kind, default=None, required=False):
    """[section] key read by _number, or None when it is absent and has no default."""
    text = _get(cfg, section, key, default, required)
    return None if text is None else _number(kind, text, section, key)


def _parse_young(cfg, section):
    kind = _get(cfg, section, "kind", required=True)
    if kind == "power":
        return YoungFunction.power(_get_number(cfg, section, "p", float, required=True))
    if kind == "exponential":
        return YoungFunction.exponential(_get_number(cfg, section, "q", float, required=True))
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
    seed = _get_number(cfg, "space", "seed", int)
    params = {}
    if kind == "grid":
        params["n"] = _get_number(cfg, "space", "n", int, required=True)
        params["gamma"] = _get_number(cfg, "space", "gamma", float, default="1.0")
        params["scale"] = _get_number(cfg, "space", "scale", float, default="1.0")
    elif kind == "tree":
        params["depth"] = _get_number(cfg, "space", "depth", int, required=True)
    elif kind == "random":
        params["n"] = _get_number(cfg, "space", "n", int, required=True)
    else:
        raise ConfigError(f"unknown space kind {kind!r}")
    mass = _get(cfg, "space", "mass", default="uniform")
    if mass not in ("uniform", "random"):
        mass = [_number(float, v, "space", "mass") for v in mass.split(",")]
    params["mass"] = mass
    return generate_space(kind, seed=seed, **params)


def _check_values(vals, space, idx):
    """Function idx as a TestFunction; a wrong length, or values or difference quotients that are not all finite, are a ConfigError."""
    try:
        f = TestFunction(vals)
        f.quotients(space)
    except ValueError as exc:
        raise ConfigError(f"[functions] values of function {idx}: {exc}") from None
    return f


def _parse_functions(cfg, space, seed_override):
    source = _get(cfg, "functions", "source", default="random")
    if source == "values":
        raw = _get(cfg, "functions", "values", required=True)
        return [
            _check_values([_number(float, v, "functions", "values") for v in part.split(",")], space, idx)
            for idx, part in enumerate(raw.split(";"))
        ]
    if source != "random":
        raise ConfigError(f"unknown function source {source!r}")
    count = _get_number(cfg, "functions", "count", int, default="20")
    if count < 0:
        raise ConfigError(f"[functions] count must be >= 0, not {count}")
    seed = _get_number(cfg, "functions", "seed", int, default="0")
    if seed_override is not None:
        seed = seed_override
    rng = np.random.default_rng(seed)
    return [_check_values(rng.standard_normal(space.n), space, idx) for idx in range(count)]


def _get_bool(cfg, section, key, default):
    try:
        return cfg.getboolean(section, key, fallback=default)
    except ValueError:
        raise ConfigError(f"[{section}] {key} must be a boolean, not {cfg.get(section, key)!r}") from None


def _parse_mc(cfg, seed_override, gauge):
    """(grid points, paths, seed) of the Monte Carlo stage, or None when it is disabled.

    gauge is the one the sampler normalizes its increments to: psi for T1, phi for T3.
    """
    if not _get_bool(cfg, "mc", "enabled", False):
        return None
    n_grid = _get_number(cfg, "mc", "n", int, default="64")
    paths = _get_number(cfg, "mc", "paths", int, default="10000")
    mc_seed = _get_number(cfg, "mc", "seed", int, default="0") if seed_override is None else seed_override
    if n_grid < 2 or paths < 1 or mc_seed < 0:
        raise ConfigError(f"[mc] needs n >= 2, paths >= 1 and seed >= 0 (n = {n_grid}, paths = {paths}, seed = {mc_seed})")
    try:
        _normalizer(gauge)  # the samplers' own test, so the supported gauges are listed in one place
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


def _write_lines(path, header, blocks):
    """Write the header line, then the blocks of ready csv lines in order."""
    with path.open("w", newline="") as fh:
        fh.write(header)
        fh.writelines(blocks)


def _reprs(values):
    """The repr of each float of values, formatting each distinct bit pattern once.

    Keyed on the bits rather than on float equality, so -0.0 and 0.0 (and
    NaNs of different payloads) stay apart; repr is a function of the bits,
    so the strings are exactly those of repr on each value.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.size < 2:
        return list(map(repr, values.tolist()))
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    if bits.size == values.size:
        return list(map(repr, values.tolist()))
    texts = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    return texts[inverse].tolist()


def _tau_rows(metrics, cert):
    """tau.csv text, one string per first point i of the pairs (i, j > i); the modulus is empty for T1."""
    space = metrics.space
    n = space.n
    mods = None if cert.theorem == "T1" else modulus_pairs(cert, metrics)

    def blocks():
        pairs = _triu(n)
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


def _report_rows(report, prefix):
    """verify.csv text of one report, one string per check, joined column by column."""
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
                f'{name},"{prefix}({i},{j})",{a},{b},{m},{r},{v}\n'
                for i, j, a, b, m, r, v in zip(locations.iu.tolist(), locations.iv.tolist(), *columns, verdicts)
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
        for s in mc_report.stats
    ]


def emit_report(results, out_dir):
    """Write the fixed file set; overwrites are idempotent.

    The csv entries of results are iterables of blocks of ready csv lines,
    one block per check (verify.csv), per first point (tau.csv) or per
    statistic (mc.csv). They may be lazy, so the lines are formatted here,
    one block at a time, while the files are written.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    cert = results.get("certificate")
    cert_path = out / "certificate.json"
    cert_path.write_text(certificate_to_json(cert) + "\n" if cert else "null\n")
    written.append(cert_path)

    tau_path = out / "tau.csv"
    _write_lines(tau_path, "i,j,label_i,label_j,distance,tau,modulus\n", results.get("tau_rows", []))
    written.append(tau_path)

    verify_path = out / "verify.csv"
    _write_lines(verify_path, "check,location,lhs,rhs,margin,rel_margin,passed\n", results.get("verify_rows", []))
    written.append(verify_path)

    mc_path = out / "mc.csv"
    _write_lines(mc_path, "statistic,mean,stderr,paths,threshold,passed\n", results.get("mc_rows", []))
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
        R = _get_number(cfg, "certificate", "R", float, default="6")
        n0 = _get_number(cfg, "certificate", "n0", int, default="1")
        if not 1 < R < math.inf or n0 < 1:
            raise ConfigError("need a finite R > 1 and n0 >= 1")
        space = _parse_space(cfg, config_path.parent)
        phi = _parse_young(cfg, "phi")
        psi = _parse_young(cfg, "psi") if cfg.has_section("psi") else None
        if theorem == "T1" and psi is None:
            raise ConfigError("theorem T1 needs a [psi] section")
        functions = _parse_functions(cfg, space, seed)
        invariants = _get_bool(cfg, "verify", "invariants", True)
        sampled_gauge = psi if theorem == "T1" else phi
        mc = _parse_mc(cfg, seed, sampled_gauge)
        out = Path(out_dir) if out_dir else Path(_get(cfg, "output", "dir", default="out"))
        if not out.is_absolute():
            out = config_path.parent / out
    except (ConfigError, SpaceValidationError, ValueError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            metrics, cert, check = _certify(theorem, space, phi, psi, R, n0)
        except (PreconditionError, CertificateError, ZeroMassAtomError, ArithmeticError) as exc:
            print(f"precondition failure: {exc}", file=sys.stderr)
            return EXIT_PRECONDITION

        results["certificate"] = cert
        results["theorem"] = cert.theorem
        results["mass_integral"] = metrics.total
        if cert.escalated_from is not None:
            results["warnings"].append(f"ratio escalated from {cert.escalated_from} to {cert.R}")

        results["tau_rows"] = _tau_rows(metrics, cert)

        reports = [(check(fvals), f"f{idx}:") for idx, fvals in enumerate(functions)]
        all_passed = all(report.passed for report, _ in reports)
        if invariants:
            suite = invariant_suite(space, phi, psi, cert.R, n0)
            all_passed &= suite.passed
            reports.append((suite, ""))
        results["verify_rows"] = chain.from_iterable(_report_rows(r, prefix) for r, prefix in reports)

        if mc is not None:
            n_grid, paths, mc_seed = mc
            try:
                sampler = brownian_grid_sampler(n_grid, sampled_gauge)
                mc_metrics, mc_cert, _ = _certify(theorem, sampler.space, phi, psi, R, n0)
                batch = sample(sampler, paths, mc_seed)
                mc_report = empirical_corollary(batch, mc_cert, mc_metrics)
                all_passed &= mc_report.passed
                results["mc_rows"] = _mc_rows(mc_report)
            except (PreconditionError, CertificateError, ValueError) as exc:
                print(f"precondition failure in mc stage: {exc}", file=sys.stderr)
                return EXIT_PRECONDITION

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
