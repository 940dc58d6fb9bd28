"""Tests of the benchmark itself, at tiny workload sizes.

    python3 -m pytest bench/test_bench.py -q

They are not part of the tier-1 suite (pytest's testpaths is `tests`).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = "0.02"

# the traced layers each workload must reach; every other span must stay at
# zero calls there, which is how a bypassed layer shows
REACHED = {
    "bell-pipeline": {
        "seeding.substream",
        "simulate.run_experiment",
        "simulate.SettingsSchedule.indices",
        "simulate.wing_outcome",
        "simulate.write_stream_csv",
        "simulate.read_stream_csv",
        "analysis.estimate_correlations",
        "analysis.no_signaling_report",
        "analysis.chi_square_table",
    },
    "sweep": {
        "seeding.substream",
        "simulate.run_experiment",
        "simulate.SettingsSchedule.indices",
        "simulate.wing_outcome",
        "analysis.estimate_correlations",
        "analysis.model_curves",
    },
    "coin-lab": {
        "seeding.substream",
        "coins.e4_run",
        "coins.write_coin_csv",
        "coins.read_coin_csv",
        "coins.hole_protocol",
        "randtests.runs_test",
        "randtests.frequency_test",
        "randtests.block_variance_test",
        "randtests.homogeneity_test",
        "randtests.autocorrelation_test",
    },
    "finite-oracle": {
        "seeding.substream",
        "simulate.run_experiment",
        "simulate.SettingsSchedule.indices",
        "models.FiniteContextualModel.sampling_tables",
        "analysis.estimate_correlations",
        "analysis.no_signaling_report",
        "analysis.chi_square_table",
        "models.load_model",
        "models.pair_expectation",
        "models.coincidence_expectation",
    },
}
COMMANDS = {
    "bell-pipeline": {"bell-run", "bell-analyze"},
    "sweep": {"sweep"},
    "coin-lab": {"coins-run", "stream-test"},
    "finite-oracle": set(),
}


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.fixture(scope="module", params=sorted(REACHED))
def outputs(request):
    """stdout of an untraced and a traced tiny run of one workload."""
    name = request.param
    runs = {}
    for trace in ("0", "1"):
        done = bench("--workload", name, "--seed", "5", "--seconds", "0", "--trace", trace, "--scale", TINY)
        assert done.returncode == 0, done.stderr
        runs[trace] = done.stdout
    return name, runs


def test_every_metric_printed_with_its_unit(outputs):
    _, runs = outputs
    for trace, declared in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
        lines = runs[trace].splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in declared}
        for m in declared:
            value = result["metrics"][m["name"]]
            assert value["unit"] == m["unit"]
            assert f"{m['name']} = {value['value']} {m['unit']}" in lines
        assert "failed_ratio = 0.0 1" in lines
    end_to_end = json.loads(runs["0"].splitlines()[-1])["metrics"]
    assert all(v["value"] > 0 for v in end_to_end.values())


def test_named_layers_are_reached_and_bypassed_ones_are_not(outputs):
    name, runs = outputs
    metrics = {k: v["value"] for k, v in json.loads(runs["1"].splitlines()[-1])["metrics"].items()}
    for span in tracer.SPAN_NAMES:
        assert (metrics[f"{span}.calls"] > 0) == (span in REACHED[name]), span
    for command in run.CLI_COMMANDS:
        assert (metrics[f"cli.{command}.wall_s"] > 0) == (command in COMMANDS[name]), command
        assert (metrics[f"cli.{command}.peak_rss_mb"] > 0) == (command in COMMANDS[name]), command
    assert metrics["import.contextlab_cli_s"] > metrics["import.scipy_stats_s"] > 0
    assert metrics["import.numpy_s"] > 0


def test_dropped_csv_row_raises_failed_ratio(monkeypatch):
    original = run.Harness.repetition

    def drop_last_row(self, index, traced):
        rep = original(self, index, traced)
        stream = rep.path / "stream.csv"
        stream.write_text("".join(stream.read_text().splitlines(keepends=True)[:-1]))
        return rep

    monkeypatch.setattr(run.Harness, "repetition", drop_last_row)
    result = run.measure("bell-pipeline", 5, 0.0, False, float(TINY))
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["record"]["failed_ratio"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_import_times_take_outermost_lines():
    # scipy loads scipy.stats through importlib, so only its submodules appear
    log = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     numpy.core",
            "import time:       200 |        300 |   numpy",
            "import time:        50 |         50 |       scipy.stats._a",
            "import time:        70 |        120 |     scipy.stats._b",
            "import time:        10 |         10 |     scipy",
            "import time:      1000 |       1500 |   contextlab.randtests",
            "import time:       100 |       1900 | contextlab.cli",
        ]
    )
    assert run.import_times(log, "contextlab.cli") == pytest.approx(
        {"import.contextlab_cli_s": 1900e-6, "import.scipy_stats_s": 130e-6, "import.numpy_s": 300e-6}
    )


def test_self_time_excludes_child_spans():
    spans = [
        ["models.coincidence_expectation", 0.0, 5.0, -1, {"fsum_terms": 4}],
        ["models.pair_expectation", 1.0, 3.0, 0, {"fsum_terms": 4}],
        ["models.pair_expectation", 6.0, 7.0, -1, {"fsum_terms": 4}],
    ]
    totals = tracer.layer_totals(spans)
    assert totals["models.coincidence_expectation"] == {"calls": 1, "s": 5.0, "self_s": 3.0, "fsum_terms": 4}
    assert totals["models.pair_expectation"] == {"calls": 2, "s": 3.0, "self_s": 3.0, "fsum_terms": 8}
