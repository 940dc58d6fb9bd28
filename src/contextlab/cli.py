"""Command-line surface: reproducible experiment runs and reports.

Every run is driven by an explicit configuration (flags, optionally layered
over a JSON config file via --config; flags win).  The merged effective
config is written beside the outputs, and feeding that file back through
--config reproduces the artifacts byte for byte.  No seed ever defaults to
wall-clock time.  Exit codes: 0 success, 1 usage error, 2 data or model
validation error, which only `run_command` sets; a failing command raises.
Each command resolves each output path once, by `out_path`, under the
CONTEXTLAB_OUTDIR environment variable when the path is relative.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import asdict, dataclass, replace
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import __version__
from .analysis import (
    DEFAULT_CHSH_SETTINGS,
    DEFAULT_SWEEP_GRID,
    calibration_sweep,
    chsh,
    estimate_correlations,
    lhv_bound_enumeration,
    no_signaling_report,
    quadrature_chsh,
)
from .coins import (
    BoxEnsemble,
    box_run,
    d1_run,
    d2_run,
    d3_run,
    e4_run,
    hole_protocol,
    read_coin_csv,
    write_coin_csv,
)
from .errors import ConfigError, ContextLabError, InsufficientDataError
from .models import load_model
from .randtests import (
    autocorrelation_test,
    block_variance_test,
    frequency_test,
    homogeneity_test,
    inhomogeneity_breakdown_demo,
    runs_test,
    ternary_to_indicators,
)
from .seeding import substream
from .simulate import (
    DEFAULT_CHUNK_SIZE,
    MalusModel,
    PairCounts,
    SelectiveModel,
    SettingsSchedule,
    read_stream_blocks,
    run_counts,
    write_run_csv,
)


class UsageError(Exception):
    """Bad flags or malformed argument values; exits with status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Field parsers: a flag string or a config-file value -> the value a command
# uses.  A TypeError, ValueError or ArithmeticError ('pi/0') is a usage error.
# ---------------------------------------------------------------------------

_ANGLE_RE = re.compile(r"^(?P<sign>-?)(?P<coef>\d+(?:\.\d+)?)?\s*pi(?:/(?P<div>\d+(?:\.\d+)?))?$")


def parse_angle(token: str) -> float:
    """Angle token: a float, or '[-][k]pi[/m]' such as 'pi/8', '3pi/8' or '-pi/4'."""
    m = _ANGLE_RE.match(token.strip())
    if m:
        coef = float(m.group("coef")) if m.group("coef") else 1.0
        div = float(m.group("div")) if m.group("div") else 1.0
        angle = coef * math.pi / div
        return -angle if m.group("sign") else angle
    return float(token)


def _items(value) -> list[str]:
    """The non-blank items of comma-separated text."""
    if not isinstance(value, str):
        raise TypeError("expected comma-separated text")
    return [t.strip() for t in value.split(",") if t.strip()]


def parse_angle_list(text: str) -> tuple[float, ...]:
    return tuple(parse_angle(t) for t in _items(text))


def integer(value) -> int:
    """An int, an integral float or the text of an int; never a bool."""
    if type(value) is str or (type(value) in (int, float) and value == int(value)):
        return int(value)
    raise TypeError("expected an integer")


def number(value) -> float:
    """An int, a float or the text of one; never a bool."""
    if type(value) in (int, float, str):
        return float(value)
    raise TypeError("expected a number")


def text(value) -> str:
    """A non-empty string: a path or a name."""
    if isinstance(value, str) and value:
        return value
    raise TypeError("expected a non-empty string")


def optional(value) -> str | None:
    """An output path that may be left out."""
    return None if value is None else text(value)


def switch(value) -> bool:
    """A flag without an argument; true, false or null in a config file."""
    if value is None or isinstance(value, bool):
        return bool(value)
    raise TypeError("expected true or false")


def four_angles(value) -> tuple[float, ...]:
    """The CHSH settings a, a', b, b'."""
    settings = parse_angle_list(value)
    if len(settings) != 4 or not all(map(math.isfinite, settings)):
        raise ValueError("expected four finite angles a,a',b,b'")
    return settings


def numbers(value) -> tuple[float, ...]:
    return tuple(float(t) for t in _items(value))


def choice(*names: str):
    def parse(value) -> str:
        if value in names:
            return value
        raise ValueError(f"expected one of {', '.join(names)}")

    return parse


def choices(*names: str):
    """A non-empty comma-separated list of `names`, in the order given."""

    def parse(value) -> tuple[str, ...]:
        picked = tuple(choice(*names)(t) for t in _items(value))
        if not picked:
            raise ValueError(f"expected at least one of {', '.join(names)}")
        return picked

    return parse


@dataclass(frozen=True)
class Field:
    parse: Callable[[Any], Any]
    default: Any = None


@dataclass(frozen=True)
class Command:
    help: str
    fields: dict[str, Field]
    run: Callable[[dict, dict], None]  # (parsed values, config as given); a failure raises


def out_path(name: str | Path) -> Path:
    p = Path(name)
    if not p.is_absolute():
        base = os.environ.get("CONTEXTLAB_OUTDIR")
        if base:
            p = Path(base) / p
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def merge_config(name: str, args: argparse.Namespace) -> tuple[dict, dict]:
    """defaults < config file < explicit flags (flags parse to None when absent).

    Returns the merged config as given, which `write_effective_config` echoes,
    and every field parsed once, before the command does any work.
    """
    fields = TABLE[name].fields
    config = {key: field.default for key, field in fields.items()}
    try:
        file_config = {} if args.config is None else json.loads(Path(args.config).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(file_config, dict):
        raise ConfigError(f"config {args.config} must hold a JSON object")
    for key, value in file_config.items():
        if key not in fields and key != "command":
            raise ConfigError(f"unknown config field {key!r}")
        config[key] = value
    for key in fields:
        flag = getattr(args, key.replace("-", "_"))
        if flag is not None:
            config[key] = flag
    config["command"] = name  # whatever the file says
    values = {}
    for key, field in fields.items():
        try:
            values[key] = field.parse(config[key])
        except (TypeError, ValueError, ArithmeticError) as exc:
            if config[key] is None:
                raise UsageError(f"{name} requires --{key}") from None
            raise UsageError(f"{key}: cannot use {config[key]!r} ({exc})") from None
    return config, values


def write_effective_config(config: dict, artifact: Path) -> Path:
    path = artifact.with_suffix(artifact.suffix + ".config.json")
    path.write_text(json.dumps(config, indent=1, sort_keys=True))
    return path


def write_report(doc: dict, path: Path, config: dict, sort_keys: bool = True) -> Path:
    """Write a JSON report and echo the effective config beside it."""
    path.write_text(json.dumps(doc, indent=1, sort_keys=sort_keys))
    write_effective_config(config, path)
    return path


def emit_plot_data(series, path: Path) -> Path:
    """Write a (header, rows) pair to `path` as labeled whitespace-separated columns.

    Any plotter can read them; a missing value (None) is written as nan.
    """
    def cell(v) -> str:
        return "nan" if v is None else repr(v) if isinstance(v, float) else str(v)

    header, rows = series
    with path.open("w") as fh:
        fh.write("# " + " ".join(str(h) for h in header) + "\n")
        for row in rows:
            fh.write(" ".join(cell(v) for v in row) + "\n")
    return path


# ---------------------------------------------------------------------------
# Subcommands: each takes the parsed values and the config as given
# ---------------------------------------------------------------------------


def cmd_bell_run(v: dict, config: dict) -> None:
    if v["model"] == "malus":
        model = MalusModel()
    elif v["model"] == "selective":
        model = SelectiveModel(v["sharpness"], v["asymmetry"])
    elif v["model"].endswith(".json"):
        model = load_model(v["model"])
    else:
        raise ConfigError(f"unknown model {v['model']!r} (use malus, selective, or a .json path)")
    schedule = SettingsSchedule(
        v["schedule"], v["x-settings"], v["y-settings"], seed=v["schedule-seed"]
    )
    n, seed, chunk_size = v["n-trials"], v["master-seed"], v["chunk-size"]
    target = out_path(v["out"])
    write_run_csv(target, model, schedule, n, seed, chunk_size)
    print(f"wrote {n} trials to {target}")
    print(f"effective config: {write_effective_config(config, target)}")


def cmd_bell_analyze(v: dict, config: dict) -> None:
    folded = PairCounts.from_blocks(read_stream_blocks(v["stream"]))
    estimates = estimate_correlations(folded)

    print(f"{'x':>10} {'y':>10} {'n':>8} {'raw E':>9} {'raw SE':>8} {'coinc E':>9} {'coinc SE':>9}")
    correlations, rows = [], []
    for pair, est in estimates.items():
        ce, cse = est.coincidence_expectation, est.coincidence_se
        print(
            f"{pair.x:10.4f} {pair.y:10.4f} {est.n_trials:8d} "
            f"{est.raw_expectation:9.4f} {est.raw_se:8.4f} "
            f"{'undef' if ce is None else f'{ce:9.4f}':>9} "
            f"{'' if cse is None else f'{cse:9.4f}':>9}"
        )
        entry = asdict(est)
        entry.update(entry.pop("pair"), n=entry.pop("n_trials"), counts=est.counts.tolist())
        correlations.append(entry)
        rows.append((pair.x, pair.y, pair.x - pair.y, est.raw_expectation, est.raw_se, ce, cse))
    doc: dict = {"n_trials": len(folded), "correlations": correlations}

    settings = v["chsh-settings"]
    modes = ("raw", "coincidence") if v["mode"] == "both" else (v["mode"],)
    for mode in modes:
        try:
            result = chsh(estimates, *settings, mode=mode)
        except ContextLabError as exc:
            print(f"CHSH ({mode}): unavailable ({exc})")
            continue
        print(f"CHSH ({mode}): S = {result.s_value:+.4f} +- {result.se:.4f}")
        doc[f"chsh_{mode}"] = {
            "settings": list(result.settings),
            "s": result.s_value,
            "se": result.se,
            "terms": list(result.terms),
        }

    try:
        ns = no_signaling_report(folded, v["alpha-raw"], v["alpha-postselected"])
        for t in ns.all_tests():
            flag = "REJECT" if t.reject else "ok"
            print(f"{t.name:<40} chi2={t.statistic:9.3f} p={t.p_value:.3g} [{flag}]")
        doc["no_signaling"] = [t.to_dict() for t in ns.all_tests()]
    except InsufficientDataError as exc:
        print(f"no-signaling comparison skipped: {exc}")

    if v["report"]:
        print(f"report: {write_report(doc, out_path(v['report']), config)}")
    if v["plot-data"]:
        header = ("x_rad", "y_rad", "theta", "raw_e", "raw_se", "coinc_e", "coinc_se")
        print(f"plot data: {emit_plot_data((header, rows), out_path(v['plot-data']))}")


def cmd_lhv_bound(v: dict, config: dict) -> None:
    result = lhv_bound_enumeration()
    print(" A(a) A(a') B(b) B(b')     S")
    for aa, ap, bb, bp, s in result.vertices:
        print(f"{aa:+5d} {ap:+5d} {bb:+4d} {bp:+5d} {s:+6d}")
    print(f"max |S| over deterministic strategies: {result.max_abs_s:g}")
    print(result.note)
    if v["report"]:
        doc = asdict(result)
        # the keys stay in field order, as this report has always been written
        print(f"report: {write_report(doc, out_path(v['report']), config, sort_keys=False)}")


def cmd_sweep(v: dict, config: dict) -> None:
    result = calibration_sweep(
        v["d-grid"], v["settings"], v["trials-per-point"], v["master-seed"], v["asymmetry"]
    )
    print(f"{'d':>6} {'|S| quad':>10} {'|S| MC':>10} {'discrepancy':>12} {'min rate':>9}")
    for row in result.rows:
        print(
            f"{row.sharpness:6.2f} {abs(row.s_quadrature):10.4f} "
            f"{abs(row.s_monte_carlo):10.4f} {row.discrepancy:12.4f} "
            f"{row.min_coincidence_rate:9.4f}"
        )
    print(
        f"best sharpness d = {result.best.sharpness:g}: "
        f"|S| = {abs(result.best.s_quadrature):.4f} (quadrature), "
        f"{abs(result.best.s_monte_carlo):.4f} (Monte Carlo)"
    )
    if v["report"]:
        doc = asdict(result)
        doc["best_sharpness"] = doc.pop("best")["sharpness"]
        print(f"report: {write_report(doc, out_path(v['report']), config)}")
    if v["plot-data"]:
        print(f"plot data: {emit_plot_data(result.series(), out_path(v['plot-data']))}")


def cmd_coins_run(v: dict, config: dict) -> None:
    kind, n, seed = v["experiment"], v["n"], v["seed"]
    summary: dict = {"experiment": kind, "seed": seed}
    if kind == "e1":
        faces = d1_run(v["input-face"], n)
    elif kind == "e2":
        faces = d2_run(n, seed)
    elif kind == "e3":
        faces = d3_run(n, seed, v["p-blue"])
    elif kind == "e4":
        faces, blue_counts = e4_run(v["urn-n"], v["draws-per-round"], v["rounds"], seed)
        summary["blue_counts_per_round"] = blue_counts.tolist()
        summary["blue_count_mean"] = float(blue_counts.mean())
        summary["blue_count_variance"] = float(blue_counts.var(ddof=1)) if len(blue_counts) > 1 else 0.0
    elif kind in ("e5", "e6"):
        box = (
            BoxEnsemble("mixed", n_blue=v["n-blue"], n_red=v["n-red"])
            if kind == "e5"
            else BoxEnsemble("pure", n_coins=v["n-coins"])
        )
        faces = box_run(box, n, substream(seed, 0, 0))
    else:
        box = BoxEnsemble("mixed", n_blue=v["n-blue"], n_red=v["n-red"])
        result = hole_protocol(box, v["n-removed"], seed, v["trials-after"], v["alpha"])
        summary.update(
            box_before={"n_blue": box.n_blue, "n_red": box.n_red},
            box_after={"n_blue": result.box_after.n_blue, "n_red": result.box_after.n_red},
            removed_blue=result.removed_blue,
            removed_red=result.removed_red,
            before_frequency=result.before_frequency,
            after_frequency=result.after_frequency,
            test=result.report.to_dict(),
        )
        faces = None
        print(
            f"hole protocol: before {result.before_frequency:.4f}, "
            f"after {result.after_frequency:.4f}, "
            f"p = {result.report.p_value:.3g} "
            f"({'REJECT' if result.report.reject else 'no difference detected'})"
        )
    target = out_path(v["out"])
    if faces is not None:
        frequency = float(np.mean(faces == "B"))
        summary["blue_frequency"] = frequency
        write_coin_csv(faces, target, summary)
        print(f"wrote {len(faces)} outcomes to {target} (blue frequency {frequency:.4f})")
    else:
        # the hole protocol has no stream; its summary is the artifact
        target.write_text(json.dumps(summary, indent=1, sort_keys=True))
        print(f"wrote hole-protocol summary to {target}")
    print(f"effective config: {write_effective_config(config, target)}")


# stream-test's battery: test name -> report on a stream under the parsed values
TESTS = {
    "runs": lambda bits, v: runs_test(bits, v["alpha"]),
    "frequency": lambda bits, v: frequency_test(bits, v["p0"], v["alpha"]),
    "block-variance": lambda bits, v: block_variance_test(bits, v["block-size"], v["alpha"]),
    "homogeneity": lambda bits, v: homogeneity_test(bits, v["subsamples"], v["alpha"]),
    "autocorrelation": lambda bits, v: autocorrelation_test(bits, v["max-lag"], v["alpha"]),
}


def cmd_stream_test(v: dict, config: dict) -> None:
    doc: dict = {}
    if v["kind"] == "coins":
        faces = read_coin_csv(v["stream"])
        reports = [TESTS[name](faces, v) for name in v["tests"]]
    else:
        wing = v["wing"].upper()
        # copies: a view of a column would keep its block's 26-byte records alive;
        # they are freed once concatenated
        column = (rows[wing.lower()].copy() for rows in read_stream_blocks(v["stream"]))
        outcomes = np.concatenate([np.empty(0, np.int8), *column])
        if len(outcomes) == 0:
            raise InsufficientDataError("empty stream")
        indicators = ternary_to_indicators(outcomes)
        # an outcome the wing never gives has no stream to test
        doc["absent_outcomes"] = [symbol for symbol, bits in indicators.items() if not bits.any()]
        reports = [
            replace(t, name=f"{t.name}[wing={wing}, outcome={symbol:+d}]")
            for symbol, bits in indicators.items()
            if symbol not in doc["absent_outcomes"]
            for t in (TESTS[name](bits, v) for name in v["tests"])
        ]
        for symbol in doc["absent_outcomes"]:
            print(f"outcome={symbol:+d} never occurs at wing {wing}: not tested")
    for t in reports:
        flag = "REJECT" if t.reject else "ok"
        print(f"{t.name:<55} stat={t.statistic:10.3f} p={t.p_value:10.3g} [{flag}]")
    if v["report"]:
        doc["tests"] = [t.to_dict() for t in reports]
        print(f"report: {write_report(doc, out_path(v['report']), config)}")


def cmd_demo(v: dict, config: dict) -> None:
    quick, seed = v["quick"], v["seed"]
    n = 100000 if quick else v["trials"]
    out_dir = out_path(Path(v["out-dir"]) / "x").parent
    doc: dict = {"quick": quick, "trials": n, "seed": seed}

    print("== deterministic shared-space bound ==")
    bound = lhv_bound_enumeration()
    print(f"max |S| over the 16 deterministic strategies: {bound.max_abs_s:g}")
    doc["lhv_bound"] = bound.max_abs_s

    print("== half-cosine correlation of the no-rejection model ==")
    a, ap, b, bp = DEFAULT_CHSH_SETTINGS
    model = MalusModel()
    theta_rows = []
    max_err = 0.0
    for k in range(8):
        theta = k * math.pi / 8
        folded = run_counts(model, SettingsSchedule("cycle", (theta,), (0.0,)), n, (seed, 10 + k))
        est = next(iter(estimate_correlations(folded).values()))
        target = -0.5 * math.cos(2 * theta)
        max_err = max(max_err, abs(est.raw_expectation - target))
        theta_rows.append((theta, est.raw_expectation, target))
    emit_plot_data((("theta", "raw_e", "target"), theta_rows), out_dir / "malus_curve.dat")
    s_raw = quadrature_chsh(model, mode="raw")
    print(f"max |E - (-cos(2 theta)/2)| over the 8-point grid: {max_err:.4f}")
    print(f"raw CHSH at the optimal angles (quadrature): |S| = {abs(s_raw):.4f}")
    doc["malus_max_abs_error"] = max_err
    doc["malus_raw_chsh"] = abs(s_raw)

    print("== rejection-law sweep and the coincidence violation ==")
    sweep = calibration_sweep(
        trials_per_point=max(n // 10, 20000), master_seed=seed, asymmetry=0.25
    )
    emit_plot_data(sweep.series(), out_dir / "sweep.dat")
    best = sweep.best
    print(
        f"best d = {best.sharpness:g}: |S| = {abs(best.s_quadrature):.3f} (quadrature) "
        f"vs {abs(best.s_monte_carlo):.3f} (Monte Carlo)"
    )
    doc["sweep_best"] = {
        "sharpness": best.sharpness,
        "s_quadrature": best.s_quadrature,
        "s_monte_carlo": best.s_monte_carlo,
    }
    witness = SelectiveModel(best.sharpness, 0.25)
    schedule = SettingsSchedule("random", (a, ap), (b, bp), seed=seed + 1)
    ns = no_signaling_report(run_counts(witness, schedule, n, (seed, 20)))
    raw, post = ns.any_raw_rejection(), ns.any_postselected_rejection()
    print(
        f"raw singles across counterpart settings: {'REJECT' if raw else 'no dependence detected'}"
    )
    print(f"post-selected singles: {'setting-dependent (REJECT)' if post else 'flat'}")
    doc["no_signaling"] = {"raw_rejected": raw, "postselected_rejected": post}

    print("== coin devices ==")
    rounds = 100 if quick else 1000
    faces_e4, blue_counts = e4_run(51, 100, rounds, seed)
    faces_e3 = d3_run(rounds * 100, seed + 1)
    r_e4 = block_variance_test(faces_e4, 100)
    r_e3 = block_variance_test(faces_e3, 100)
    print(
        f"block dispersion ratio: urn draws {r_e4.details['variance_ratio']:.3f} "
        f"(p = {r_e4.p_value:.3g}), Bernoulli {r_e3.details['variance_ratio']:.3f} "
        f"(p = {r_e3.p_value:.3g})"
    )
    doc["urn_variance_ratio"] = r_e4.details["variance_ratio"]
    doc["urn_flagged"] = r_e4.reject
    doc["bernoulli_flagged"] = r_e3.reject

    print("== box ensembles and the hole protocol ==")
    trials_phase = 20000 if quick else 100000
    hole_mixed = hole_protocol(BoxEnsemble("mixed", n_blue=50, n_red=50), 90, seed, trials_phase)
    hole_pure = hole_protocol(BoxEnsemble("pure", n_coins=100), 90, seed, trials_phase)
    print(
        f"mixed box after removing 90 unobserved coins: "
        f"{hole_mixed.box_after.n_blue} blue / {hole_mixed.box_after.n_red} red, "
        f"frequency {hole_mixed.before_frequency:.3f} -> {hole_mixed.after_frequency:.3f} "
        f"({'detected' if hole_mixed.report.reject else 'not detected'})"
    )
    print(
        f"pure box after the same removal: frequency "
        f"{hole_pure.before_frequency:.3f} -> {hole_pure.after_frequency:.3f} "
        f"({'detected' if hole_pure.report.reject else 'no change, as it must be'})"
    )
    doc["hole_mixed"] = {
        "after_blue": hole_mixed.box_after.n_blue,
        "after_red": hole_mixed.box_after.n_red,
        "detected": hole_mixed.report.reject,
    }
    doc["hole_pure_detected"] = hole_pure.report.reject

    print("== inhomogeneity breaks pooled analysis ==")
    breakdown = inhomogeneity_breakdown_demo(
        (0.4, 0.6), n=4000, seed=seed, replications=100 if quick else 1000
    )
    print(
        f"naive CI coverage of the regime truths: "
        f"{', '.join(f'{c:.3f}' for c in breakdown.coverage)} "
        f"(nominal {breakdown.nominal_coverage})"
    )
    print(f"homogeneity test flags the mixture in {breakdown.homogeneity_rejection_rate:.0%} of runs")
    doc["breakdown_coverage"] = list(breakdown.coverage)
    doc["breakdown_flag_rate"] = breakdown.homogeneity_rejection_rate

    print(f"combined report: {write_report(doc, out_dir / 'demo_report.json', config)}")


# ---------------------------------------------------------------------------
# The command table and the entry point
# ---------------------------------------------------------------------------

_REPORT = {"report": Field(optional)}
_OUTPUTS = {**_REPORT, "plot-data": Field(optional)}

TABLE = {
    "bell-run": Command("generate a click stream from a model", {
        "model": Field(text, "malus"),
        "sharpness": Field(number, 0.0),
        "asymmetry": Field(number, 0.0),
        "x-settings": Field(parse_angle_list, "0,pi/4"),
        "y-settings": Field(parse_angle_list, "pi/8,3pi/8"),
        "schedule": Field(text, "random"),
        "schedule-seed": Field(integer, 1),
        "n-trials": Field(integer, 100000),
        "master-seed": Field(integer, 0),
        "chunk-size": Field(integer, DEFAULT_CHUNK_SIZE),
        "out": Field(text, "stream.csv"),
    }, cmd_bell_run),
    "bell-analyze": Command("estimate correlations, CHSH and no-signaling from a stream", {
        "stream": Field(text),
        "chsh-settings": Field(four_angles, "0,pi/4,pi/8,3pi/8"),
        "mode": Field(choice("both", "raw", "coincidence"), "both"),
        "alpha-raw": Field(number, 0.01),
        "alpha-postselected": Field(number, 0.001),
        **_OUTPUTS,
    }, cmd_bell_analyze),
    "lhv-bound": Command("enumerate the 16 deterministic CHSH strategies", _REPORT, cmd_lhv_bound),
    "sweep": Command("calibrate the rejection sharpness for the coincidence CHSH", {
        "d-grid": Field(numbers, ",".join(str(d) for d in DEFAULT_SWEEP_GRID)),
        "asymmetry": Field(number, 0.25),
        "settings": Field(four_angles, "0,pi/4,pi/8,3pi/8"),
        "trials-per-point": Field(integer, 1000000),
        "master-seed": Field(integer, 0),
        **_OUTPUTS,
    }, cmd_sweep),
    "coins-run": Command("run a coin-device or box experiment", {
        "experiment": Field(choice("e1", "e2", "e3", "e4", "e5", "e6", "hole")),
        "n": Field(integer, 10000),
        "seed": Field(integer, 0),
        "input-face": Field(text, "B"),
        "p-blue": Field(number, 0.5),
        "urn-n": Field(integer, 51),
        "draws-per-round": Field(integer, 100),
        "rounds": Field(integer, 100),
        "n-blue": Field(integer, 50),
        "n-red": Field(integer, 50),
        "n-coins": Field(integer, 100),
        "n-removed": Field(integer, 90),
        "trials-after": Field(integer, 100000),
        "alpha": Field(number, 0.01),
        "out": Field(text, "coins.csv"),
    }, cmd_coins_run),
    "stream-test": Command("run randomness/purity tests on a stored stream", {
        "stream": Field(text),
        "kind": Field(choice("coins", "bell"), "coins"),
        "wing": Field(choice("A", "B", "a", "b"), "A"),
        "tests": Field(choices(*TESTS), ",".join(TESTS)),
        "p0": Field(number, 0.5),
        "block-size": Field(integer, 100),
        "subsamples": Field(integer, 10),
        "max-lag": Field(integer, 10),
        "alpha": Field(number, 0.01),
        **_REPORT,
    }, cmd_stream_test),
    "demo": Command("full walk-through writing one combined report", {
        "out-dir": Field(text, "demo-out"),
        "trials": Field(integer, 1000000),
        "seed": Field(integer, 0),
        "quick": Field(switch),
    }, cmd_demo),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="contextlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"contextlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in TABLE.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="JSON config file; flags override its fields")
        for key, field in command.fields.items():
            if field.parse is switch:
                p.add_argument("--" + key, action="store_const", const=True)
            else:
                p.add_argument("--" + key)
    return parser


def execute(name: str, args: argparse.Namespace) -> int:
    config, values = merge_config(name, args)
    TABLE[name].run(values, config)
    return 0


COMMANDS = {name: partial(execute, name) for name in TABLE}


def run_command(argv) -> int:
    """Parse and execute; returns the process exit status."""
    try:
        args = build_parser().parse_args(argv)
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ContextLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
