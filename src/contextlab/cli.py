"""Command-line surface: reproducible experiment runs and reports.

Every run is driven by an explicit configuration (flags, optionally layered
over a JSON config file via --config; flags win).  The merged effective
config is written beside the outputs, and feeding that file back through
--config reproduces the artifacts byte for byte.  No seed ever defaults to
wall-clock time.  Exit codes: 0 success, 1 usage error, 2 data or model
validation error.  The CONTEXTLAB_OUTDIR environment variable supplies the
default directory for relative output paths.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import asdict, replace
from pathlib import Path

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
from .models import SettingPair, load_model
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
    MalusModel,
    PairCounts,
    SelectiveModel,
    SettingsSchedule,
    read_stream_csv,
    run_counts,
    run_experiment,
    stream_metadata,
    write_stream_csv,
)

OUTDIR_ENV = "CONTEXTLAB_OUTDIR"


class UsageError(Exception):
    """Bad flags or malformed argument values; exits with status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Argument helpers
# ---------------------------------------------------------------------------

_ANGLE_RE = re.compile(r"^(?P<sign>-?)(?P<coef>\d+(?:\.\d+)?)?\s*pi(?:/(?P<div>\d+(?:\.\d+)?))?$")


def parse_angle(token: str) -> float:
    """Angle token: a float, or '[-][k]pi[/m]' such as 'pi/8', '3pi/8' or '-pi/4'."""
    token = token.strip()
    m = _ANGLE_RE.match(token)
    if m:
        coef = float(m.group("coef")) if m.group("coef") else 1.0
        div = float(m.group("div")) if m.group("div") else 1.0
        angle = coef * math.pi / div
        return -angle if m.group("sign") else angle
    try:
        return float(token)
    except ValueError:
        raise UsageError(f"cannot parse angle {token!r}") from None


def parse_angle_list(text: str) -> tuple[float, ...]:
    return tuple(parse_angle(t) for t in text.split(",") if t.strip())


def parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(t) for t in text.split(",") if t.strip())
    except ValueError as exc:
        raise UsageError(f"cannot parse number list {text!r}: {exc}") from None


def _number(config: dict, key: str, kind: type = int):
    """`config[key]` as an int or a float; a value that does not parse is a usage error."""
    try:
        return kind(config[key])
    except (TypeError, ValueError):
        raise UsageError(f"{key} must be of type {kind.__name__}, got {config[key]!r}") from None


def out_path(name: str | Path) -> Path:
    p = Path(name)
    if not p.is_absolute():
        base = os.environ.get(OUTDIR_ENV)
        if base:
            p = Path(base) / p
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return data


def merge_config(args: argparse.Namespace, file_config: dict, defaults: dict) -> dict:
    """defaults < config file < explicit flags (flags parse to None when absent)."""
    merged = dict(defaults)
    for key, value in file_config.items():
        if key == "command":
            continue
        if key not in defaults:
            raise ConfigError(f"unknown config field {key!r}")
        merged[key] = value
    for key in defaults:
        flag = getattr(args, key.replace("-", "_"), None)
        if flag is not None:
            merged[key] = flag
    return merged


def write_effective_config(config: dict, command: str, artifact: Path) -> Path:
    doc = {"command": command, **config}
    path = artifact.with_suffix(artifact.suffix + ".config.json")
    path.write_text(json.dumps(doc, indent=1, sort_keys=True))
    return path


def emit_plot_data(results, path) -> Path:
    """Write labeled whitespace-separated columns consumable by any plotter.

    Accepts a (header, rows) pair, an object with a .series() method, or a
    correlation-estimate mapping.
    """
    if hasattr(results, "series"):
        header, rows = results.series()
    elif isinstance(results, dict):
        header = ("x_rad", "y_rad", "theta", "raw_e", "raw_se", "coinc_e", "coinc_se")
        rows = [
            (
                pair.x,
                pair.y,
                pair.x - pair.y,
                est.raw_expectation,
                est.raw_se,
                est.coincidence_expectation if est.coincidence_expectation is not None else "nan",
                est.coincidence_se if est.coincidence_se is not None else "nan",
            )
            for pair, est in results.items()
        ]
    else:
        header, rows = results
    p = out_path(path)
    with p.open("w") as fh:
        fh.write("# " + " ".join(str(h) for h in header) + "\n")
        for row in rows:
            fh.write(" ".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")
    return p


def build_model(config: dict):
    kind = config["model"]
    if kind == "malus":
        return MalusModel()
    if kind == "selective":
        return SelectiveModel(
            _number(config, "sharpness", float), _number(config, "asymmetry", float)
        )
    if isinstance(kind, str) and kind.endswith(".json"):
        return load_model(kind)
    raise ConfigError(f"unknown model {kind!r} (use malus, selective, or a .json path)")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

BELL_RUN_DEFAULTS = {
    "model": "malus",
    "sharpness": 0.0,
    "asymmetry": 0.0,
    "x-settings": "0,pi/4",
    "y-settings": "pi/8,3pi/8",
    "schedule": "random",
    "schedule-seed": 1,
    "n-trials": 100000,
    "master-seed": 0,
    "chunk-size": 65536,
    "out": "stream.csv",
}


def cmd_bell_run(args) -> int:
    config = merge_config(args, load_config_file(args.config), BELL_RUN_DEFAULTS)
    model = build_model(config)
    xs = parse_angle_list(str(config["x-settings"]))
    ys = parse_angle_list(str(config["y-settings"]))
    schedule = SettingsSchedule(
        str(config["schedule"]), xs, ys, seed=_number(config, "schedule-seed")
    )
    n = _number(config, "n-trials")
    seed = _number(config, "master-seed")
    chunk_size = _number(config, "chunk-size")
    stream = run_experiment(model, schedule, n, seed, chunk_size)
    target = out_path(config["out"])
    write_stream_csv(stream, target, stream_metadata(model, schedule, n, seed, chunk_size))
    config_path = write_effective_config(config, "bell-run", target)
    print(f"wrote {len(stream)} trials to {target}")
    print(f"effective config: {config_path}")
    return 0


BELL_ANALYZE_DEFAULTS = {
    "stream": None,
    "chsh-settings": "0,pi/4,pi/8,3pi/8",
    "mode": "both",
    "alpha-raw": 0.01,
    "alpha-postselected": 0.001,
    "report": None,
    "plot-data": None,
}


def cmd_bell_analyze(args) -> int:
    config = merge_config(args, load_config_file(args.config), BELL_ANALYZE_DEFAULTS)
    if not config["stream"]:
        raise UsageError("bell-analyze requires --stream")
    stream = read_stream_csv(config["stream"])
    folded = PairCounts.from_stream(stream)
    estimates = estimate_correlations(folded)

    print(f"{'x':>10} {'y':>10} {'n':>8} {'raw E':>9} {'raw SE':>8} {'coinc E':>9} {'coinc SE':>9}")
    for pair, est in estimates.items():
        ce = "undef" if est.coincidence_expectation is None else f"{est.coincidence_expectation:9.4f}"
        cse = "" if est.coincidence_se is None else f"{est.coincidence_se:9.4f}"
        print(
            f"{pair.x:10.4f} {pair.y:10.4f} {est.n_trials:8d} "
            f"{est.raw_expectation:9.4f} {est.raw_se:8.4f} {ce:>9} {cse:>9}"
        )

    doc: dict = {
        "n_trials": len(stream),
        "correlations": [
            {
                "x": pair.x,
                "y": pair.y,
                "n": est.n_trials,
                "counts": est.counts.tolist(),
                "raw_expectation": est.raw_expectation,
                "raw_se": est.raw_se,
                "n_coincidences": est.n_coincidences,
                "coincidence_expectation": est.coincidence_expectation,
                "coincidence_se": est.coincidence_se,
            }
            for pair, est in estimates.items()
        ],
    }

    settings = parse_angle_list(str(config["chsh-settings"]))
    modes = ("raw", "coincidence") if config["mode"] == "both" else (str(config["mode"]),)
    have = set(estimates)
    a, ap, b, bp = settings
    wanted = {SettingPair(a, b), SettingPair(a, bp), SettingPair(ap, b), SettingPair(ap, bp)}
    if wanted <= have:
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
        ns = no_signaling_report(
            folded,
            _number(config, "alpha-raw", float),
            _number(config, "alpha-postselected", float),
        )
        for t in ns.all_tests():
            flag = "REJECT" if t.reject else "ok"
            print(f"{t.name:<40} chi2={t.statistic:9.3f} p={t.p_value:.3g} [{flag}]")
        doc["no_signaling"] = [t.to_dict() for t in ns.all_tests()]
    except InsufficientDataError as exc:
        print(f"no-signaling comparison skipped: {exc}")

    if config["report"]:
        path = out_path(config["report"])
        path.write_text(json.dumps(doc, indent=1, sort_keys=True))
        write_effective_config(config, "bell-analyze", path)
        print(f"report: {path}")
    if config["plot-data"]:
        print(f"plot data: {emit_plot_data(estimates, config['plot-data'])}")
    return 0


LHV_DEFAULTS = {"report": None}


def cmd_lhv_bound(args) -> int:
    config = merge_config(args, load_config_file(args.config), LHV_DEFAULTS)
    result = lhv_bound_enumeration()
    print(" A(a) A(a') B(b) B(b')     S")
    for aa, ap, bb, bp, s in result.vertices:
        print(f"{aa:+5d} {ap:+5d} {bb:+4d} {bp:+5d} {s:+6d}")
    print(f"max |S| over deterministic strategies: {result.max_abs_s:g}")
    print(result.note)
    if config["report"]:
        path = out_path(config["report"])
        path.write_text(
            json.dumps(
                {
                    "max_abs_s": result.max_abs_s,
                    "vertices": [list(v) for v in result.vertices],
                    "note": result.note,
                },
                indent=1,
            )
        )
        write_effective_config(config, "lhv-bound", path)
        print(f"report: {path}")
    return 0


SWEEP_DEFAULTS = {
    "d-grid": ",".join(str(d) for d in DEFAULT_SWEEP_GRID),
    "asymmetry": 0.25,
    "settings": "0,pi/4,pi/8,3pi/8",
    "trials-per-point": 1000000,
    "master-seed": 0,
    "report": None,
    "plot-data": None,
}


def cmd_sweep(args) -> int:
    config = merge_config(args, load_config_file(args.config), SWEEP_DEFAULTS)
    result = calibration_sweep(
        d_grid=parse_float_list(str(config["d-grid"])),
        settings=parse_angle_list(str(config["settings"])),
        trials_per_point=_number(config, "trials-per-point"),
        master_seed=_number(config, "master-seed"),
        asymmetry=_number(config, "asymmetry", float),
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
    if config["report"]:
        path = out_path(config["report"])
        doc = asdict(result)
        doc["best_sharpness"] = doc.pop("best")["sharpness"]
        path.write_text(json.dumps(doc, indent=1, sort_keys=True))
        write_effective_config(config, "sweep", path)
        print(f"report: {path}")
    if config["plot-data"]:
        print(f"plot data: {emit_plot_data(result, config['plot-data'])}")
    return 0


COINS_DEFAULTS = {
    "experiment": None,
    "n": 10000,
    "seed": 0,
    "input-face": "B",
    "p-blue": 0.5,
    "urn-n": 51,
    "draws-per-round": 100,
    "rounds": 100,
    "n-blue": 50,
    "n-red": 50,
    "n-coins": 100,
    "n-removed": 90,
    "trials-after": 100000,
    "alpha": 0.01,
    "out": "coins.csv",
}


def cmd_coins_run(args) -> int:
    config = merge_config(args, load_config_file(args.config), COINS_DEFAULTS)
    kind = config["experiment"]
    if kind not in ("e1", "e2", "e3", "e4", "e5", "e6", "hole"):
        raise UsageError("--experiment must be one of e1..e6 or hole")
    n = _number(config, "n")
    seed = _number(config, "seed")
    summary: dict = {"experiment": kind, "seed": seed}
    if kind == "e1":
        faces = d1_run(str(config["input-face"]), n)
    elif kind == "e2":
        faces = d2_run(n, seed)
    elif kind == "e3":
        faces = d3_run(n, seed, _number(config, "p-blue", float))
    elif kind == "e4":
        faces, blue_counts = e4_run(
            _number(config, "urn-n"),
            _number(config, "draws-per-round"),
            _number(config, "rounds"),
            seed,
        )
        summary["blue_counts_per_round"] = blue_counts.tolist()
        summary["blue_count_mean"] = float(blue_counts.mean())
        summary["blue_count_variance"] = float(blue_counts.var(ddof=1)) if len(blue_counts) > 1 else 0.0
    elif kind in ("e5", "e6"):
        box = (
            BoxEnsemble("mixed", n_blue=_number(config, "n-blue"), n_red=_number(config, "n-red"))
            if kind == "e5"
            else BoxEnsemble("pure", n_coins=_number(config, "n-coins"))
        )
        faces = box_run(box, n, substream(seed, 0, 0))
    else:
        box = BoxEnsemble(
            "mixed", n_blue=_number(config, "n-blue"), n_red=_number(config, "n-red")
        )
        result = hole_protocol(
            box, _number(config, "n-removed"), seed, _number(config, "trials-after"),
            _number(config, "alpha", float),
        )
        summary.update(
            {
                "box_before": {"n_blue": box.n_blue, "n_red": box.n_red},
                "box_after": {
                    "n_blue": result.box_after.n_blue,
                    "n_red": result.box_after.n_red,
                },
                "removed_blue": result.removed_blue,
                "removed_red": result.removed_red,
                "before_frequency": result.before_frequency,
                "after_frequency": result.after_frequency,
                "test": result.report.to_dict(),
            }
        )
        faces = None
        print(
            f"hole protocol: before {result.before_frequency:.4f}, "
            f"after {result.after_frequency:.4f}, "
            f"p = {result.report.p_value:.3g} "
            f"({'REJECT' if result.report.reject else 'no difference detected'})"
        )
    target = out_path(config["out"])
    if faces is not None:
        frequency = float(np.mean(faces == "B"))
        summary["n"] = len(faces)
        summary["blue_frequency"] = frequency
        write_coin_csv(faces, target, summary)
        print(f"wrote {len(faces)} outcomes to {target} (blue frequency {frequency:.4f})")
    else:
        # the hole protocol has no stream; its summary is the artifact
        target.write_text(json.dumps(summary, indent=1, sort_keys=True))
        print(f"wrote hole-protocol summary to {target}")
    config_path = write_effective_config(config, "coins-run", target)
    print(f"effective config: {config_path}")
    return 0


STREAM_TEST_DEFAULTS = {
    "stream": None,
    "kind": "coins",
    "wing": "A",
    "tests": "runs,frequency,block-variance,homogeneity,autocorrelation",
    "p0": 0.5,
    "block-size": 100,
    "subsamples": 10,
    "max-lag": 10,
    "alpha": 0.01,
    "report": None,
}


def _run_named_tests(bits, names, config) -> list:
    out = []
    alpha = _number(config, "alpha", float)
    for name in names:
        if name == "runs":
            out.append(runs_test(bits, alpha))
        elif name == "frequency":
            out.append(frequency_test(bits, _number(config, "p0", float), alpha))
        elif name == "block-variance":
            out.append(block_variance_test(bits, _number(config, "block-size"), alpha))
        elif name == "homogeneity":
            out.append(homogeneity_test(bits, _number(config, "subsamples"), alpha))
        elif name == "autocorrelation":
            out.append(autocorrelation_test(bits, _number(config, "max-lag"), alpha))
        else:
            raise UsageError(f"unknown test {name!r}")
    return out


def cmd_stream_test(args) -> int:
    config = merge_config(args, load_config_file(args.config), STREAM_TEST_DEFAULTS)
    if not config["stream"]:
        raise UsageError("stream-test requires --stream")
    names = [t.strip() for t in str(config["tests"]).split(",") if t.strip()]
    reports = []
    if config["kind"] == "coins":
        faces = read_coin_csv(config["stream"])
        reports = _run_named_tests(faces, names, config)
    elif config["kind"] == "bell":
        stream = read_stream_csv(config["stream"])
        wing = str(config["wing"]).upper()
        if wing not in ("A", "B"):
            raise UsageError("--wing must be A or B")
        values = stream.a if wing == "A" else stream.b
        for symbol, bits in ternary_to_indicators(values).items():
            for t in _run_named_tests(bits, names, config):
                reports.append(replace(t, name=f"{t.name}[wing={wing}, outcome={symbol:+d}]"))
    else:
        raise UsageError("--kind must be 'bell' or 'coins'")
    for t in reports:
        flag = "REJECT" if t.reject else "ok"
        print(f"{t.name:<55} stat={t.statistic:10.3f} p={t.p_value:10.3g} [{flag}]")
    if config["report"]:
        path = out_path(config["report"])
        path.write_text(
            json.dumps({"tests": [t.to_dict() for t in reports]}, indent=1, sort_keys=True)
        )
        write_effective_config(config, "stream-test", path)
        print(f"report: {path}")
    return 0


DEMO_DEFAULTS = {
    "out-dir": "demo-out",
    "trials": 1000000,
    "seed": 0,
    "quick": None,
}


def cmd_demo(args) -> int:
    config = merge_config(args, load_config_file(args.config), DEMO_DEFAULTS)
    quick = bool(config["quick"])
    n = 100000 if quick else _number(config, "trials")
    seed = _number(config, "seed")
    out_dir = out_path(Path(str(config["out-dir"])) / "x")
    out_dir = out_dir.parent
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
    emit_plot_data(sweep, out_dir / "sweep.dat")
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
    print(
        f"raw singles across counterpart settings: "
        f"{'REJECT' if ns.any_raw_rejection() else 'no dependence detected'}"
    )
    print(
        f"post-selected singles: "
        f"{'setting-dependent (REJECT)' if ns.any_postselected_rejection() else 'flat'}"
    )
    doc["no_signaling"] = {
        "raw_rejected": ns.any_raw_rejection(),
        "postselected_rejected": ns.any_postselected_rejection(),
    }

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
    mixed = BoxEnsemble("mixed", n_blue=50, n_red=50)
    pure = BoxEnsemble("pure", n_coins=100)
    trials_phase = 20000 if quick else 100000
    hole_mixed = hole_protocol(mixed, 90, seed, trials_phase)
    hole_pure = hole_protocol(pure, 90, seed, trials_phase)
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

    report_path = out_dir / "demo_report.json"
    report_path.write_text(json.dumps(doc, indent=1, sort_keys=True))
    write_effective_config(config, "demo", report_path)
    print(f"combined report: {report_path}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="contextlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"contextlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, defaults):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override its fields")
        for key, default in defaults.items():
            flag = "--" + key
            if isinstance(default, bool) or key == "quick":
                p.add_argument(flag, action="store_const", const=True, default=None)
            else:
                p.add_argument(flag, default=None)
        return p

    add("bell-run", "generate a click stream from a model", BELL_RUN_DEFAULTS)
    add("bell-analyze", "estimate correlations, CHSH and no-signaling from a stream", BELL_ANALYZE_DEFAULTS)
    add("lhv-bound", "enumerate the 16 deterministic CHSH strategies", LHV_DEFAULTS)
    add("sweep", "calibrate the rejection sharpness for the coincidence CHSH", SWEEP_DEFAULTS)
    add("coins-run", "run a coin-device or box experiment", COINS_DEFAULTS)
    add("stream-test", "run randomness/purity tests on a stored stream", STREAM_TEST_DEFAULTS)
    add("demo", "full walk-through writing one combined report", DEMO_DEFAULTS)
    return parser


COMMANDS = {
    "bell-run": cmd_bell_run,
    "bell-analyze": cmd_bell_analyze,
    "lhv-bound": cmd_lhv_bound,
    "sweep": cmd_sweep,
    "coins-run": cmd_coins_run,
    "stream-test": cmd_stream_test,
    "demo": cmd_demo,
}


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
