import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from contextlab.analysis import estimate_correlations
from contextlab.cli import emit_plot_data, parse_angle, parse_angle_list, run_command
from contextlab.models import SettingPair
from contextlab.simulate import read_stream_csv, stream_digest


def run(argv, capsys=None):
    code = run_command(argv)
    return code


# --- argument parsing ----------------------------------------------------------


def test_parse_angle_tokens():
    assert parse_angle("pi/8") == pytest.approx(math.pi / 8)
    assert parse_angle("3pi/8") == pytest.approx(3 * math.pi / 8)
    assert parse_angle("pi") == pytest.approx(math.pi)
    assert parse_angle("0.5") == 0.5
    assert parse_angle_list("0,pi/4") == (0.0, pytest.approx(math.pi / 4))


def test_negative_pi_angles_parse_bit_for_bit():
    assert parse_angle("-pi/4") == -(math.pi / 4)
    assert parse_angle("-3pi/8") == -(3 * math.pi / 8)
    assert parse_angle("-2pi") == -(2 * math.pi)
    assert parse_angle_list("-pi/4,pi/4") == (-(math.pi / 4), math.pi / 4)


def test_bad_angle_is_a_usage_error(tmp_path):
    code = run(["bell-run", "--x-settings", "frog", "--out", str(tmp_path / "s.csv")])
    assert code == 1


def test_unknown_subcommand_and_flag_are_usage_errors():
    assert run(["definitely-not-a-command"]) == 1
    assert run(["lhv-bound", "--frobnicate"]) == 1


def test_missing_stream_is_a_usage_error():
    assert run(["bell-analyze"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["bell-run", "--n-trials", "abc"],
        ["bell-run", "--model", "selective", "--sharpness", "steep"],
        ["sweep", "--trials-per-point", "1e6"],
        ["coins-run", "--experiment", "e3", "--p-blue", "half"],
    ],
)
def test_unparsable_numbers_are_usage_errors(capsys, argv):
    assert run(argv) == 1
    assert "usage error" in capsys.readouterr().err


def test_unparsable_config_value_is_a_usage_error(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"n-trials": "abc", "out": str(tmp_path / "s.csv")}))
    assert run(["bell-run", "--config", str(config)]) == 1
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("settings", ["0,2pi", "nan", "0,inf", "pi/4,pi/4"])
def test_colliding_or_non_finite_settings_are_data_errors(tmp_path, settings):
    out = tmp_path / "s.csv"
    assert run(["bell-run", "--x-settings", settings, "--n-trials", "1000", "--out", str(out)]) == 2
    assert not out.exists()


def test_non_finite_selective_parameters_are_data_errors(tmp_path):
    out = tmp_path / "s.csv"
    base = ["bell-run", "--model", "selective", "--n-trials", "100", "--out", str(out)]
    assert run(base + ["--sharpness", "nan"]) == 2
    assert run(base + ["--sharpness", "inf"]) == 2
    assert run(base + ["--sharpness", "1", "--asymmetry", "nan"]) == 2
    assert not out.exists()


def test_importing_the_cli_and_generating_load_no_scipy(tmp_path):
    # scipy is imported only where a p-value is computed, and scipy.stats only
    # for the exact binomial test of a short stream
    script = (
        "import sys\n"
        "from contextlab.cli import run_command\n"
        "loaded = ['scipy' in sys.modules]\n"
        f"run_command(['bell-run', '--n-trials', '100', '--out', {str(tmp_path / 's.csv')!r}])\n"
        f"run_command(['coins-run', '--experiment', 'e4', '--out', {str(tmp_path / 'u.csv')!r}])\n"
        "loaded.append('scipy' in sys.modules)\n"
        f"run_command(['bell-analyze', '--stream', {str(tmp_path / 's.csv')!r}])\n"
        "loaded.append('scipy' in sys.modules)\n"
        "loaded.append('scipy.stats' in sys.modules)\n"
        f"run_command(['stream-test', '--kind', 'coins', '--stream', {str(tmp_path / 'u.csv')!r}])\n"
        "loaded.append('scipy.stats' in sys.modules)\n"
        "print(loaded)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[False, False, True, False, False]"


# --- lhv-bound -------------------------------------------------------------------


def test_lhv_bound_prints_the_table(tmp_path, capsys):
    report = tmp_path / "bound.json"
    assert run(["lhv-bound", "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "max |S| over deterministic strategies: 2" in out
    assert out.count("+2") + out.count("-2") >= 16
    doc = json.loads(report.read_text())
    assert doc["max_abs_s"] == 2.0
    assert len(doc["vertices"]) == 16


# --- bell-run / bell-analyze --------------------------------------------------------


def test_bell_run_is_reproducible_byte_for_byte(tmp_path):
    args = [
        "bell-run",
        "--model", "malus",
        "--n-trials", "5000",
        "--master-seed", "7",
        "--schedule-seed", "3",
    ]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(p1)]) == 0
    assert run(args + ["--out", str(p2)]) == 0
    assert stream_digest(p1) == stream_digest(p2)


def test_config_echo_reproduces_the_artifact(tmp_path):
    first = tmp_path / "first.csv"
    assert (
        run(
            [
                "bell-run",
                "--model", "selective",
                "--sharpness", "2.0",
                "--asymmetry", "0.25",
                "--n-trials", "4000",
                "--master-seed", "11",
                "--out", str(first),
            ]
        )
        == 0
    )
    config_path = tmp_path / "first.csv.config.json"
    assert config_path.exists()
    echoed = json.loads(config_path.read_text())
    echoed["out"] = str(tmp_path / "second.csv")
    rerun_config = tmp_path / "rerun.json"
    rerun_config.write_text(json.dumps(echoed))
    assert run(["bell-run", "--config", str(rerun_config)]) == 0
    assert stream_digest(first) == stream_digest(tmp_path / "second.csv")


def test_analyze_round_trip_matches_in_memory_counts(tmp_path, capsys):
    stream_path = tmp_path / "s.csv"
    assert (
        run(
            [
                "bell-run",
                "--model", "malus",
                "--n-trials", "8000",
                "--master-seed", "5",
                "--schedule-seed", "2",
                "--out", str(stream_path),
            ]
        )
        == 0
    )
    report_path = tmp_path / "report.json"
    assert (
        run(
            [
                "bell-analyze",
                "--stream", str(stream_path),
                "--report", str(report_path),
                "--plot-data", str(tmp_path / "curve.dat"),
            ]
        )
        == 0
    )
    doc = json.loads(report_path.read_text())
    estimates = estimate_correlations(read_stream_csv(stream_path))
    assert doc["n_trials"] == 8000
    for entry in doc["correlations"]:
        pair = SettingPair(entry["x"], entry["y"])
        assert np.array_equal(np.array(entry["counts"]), estimates[pair].counts)
    assert "chsh_raw" in doc
    assert "no_signaling" in doc
    out = capsys.readouterr().out
    assert "CHSH (raw)" in out
    lines = (tmp_path / "curve.dat").read_text().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 1 + 4  # header + four setting pairs


@pytest.mark.parametrize("outcome", ["255", "1.5", "2"])
def test_out_of_range_outcome_in_a_stream_is_a_data_error(tmp_path, capsys, outcome):
    stream = tmp_path / "s.csv"
    stream.write_text(f"trial,x_rad,y_rad,a,b\r\n0,0.0,0.5,1,1\r\n1,0.0,0.5,{outcome},1\r\n")
    assert run(["bell-analyze", "--stream", str(stream)]) == 2
    assert "error:" in capsys.readouterr().err


def test_stream_and_coin_bytes_are_pinned(tmp_path):
    # recorded with the row-by-row csv.writer the vectorized writers replaced
    stream, urn = tmp_path / "s.csv", tmp_path / "urn.csv"
    bell = ["bell-run", "--model", "selective", "--sharpness", "2", "--asymmetry", "0.25"]
    settings = ["--x-settings=-0.0,pi/4", "--y-settings", "pi/8,3pi/8"]
    seeds = ["--n-trials", "3000", "--master-seed", "7", "--schedule-seed", "3"]
    assert run(bell + settings + seeds + ["--out", str(stream)]) == 0
    coins = ["coins-run", "--experiment", "e4", "--urn-n", "51", "--draws-per-round", "100"]
    assert run(coins + ["--rounds", "20", "--seed", "3", "--out", str(urn)]) == 0
    assert stream_digest(stream) == (
        "02f84897f747368a7e9d944ce37acb0e52d8eab7a17cbd446f6e06d09acabeaf"
    )
    assert stream_digest(tmp_path / "s.csv.meta.json") == (
        "60a30e12b0728ab5512b5811b910845ccd4942bccf721a333f23bb468243b6f7"
    )
    assert stream_digest(urn) == (
        "c3b92c23c5b9c12dba9b45409cc965dd3d12b339c16512f1a859fb1e2a1aee50"
    )
    # holds blue_counts_per_round; recorded with the per-draw urn loop
    assert stream_digest(tmp_path / "urn.csv.meta.json") == (
        "1d02cbae0a1e450f5659cf3b4cb0facd2306c02892c67a1b891959671bdcce98"
    )


def test_alternating_device_bytes_are_pinned(tmp_path):
    # recorded with the per-flip D2 loop
    out = tmp_path / "e2.csv"
    assert run(["coins-run", "--experiment", "e2", "--n", "101", "--seed", "4", "--out", str(out)]) == 0
    assert stream_digest(out) == (
        "d9b6044a703b0b037024a27f328aa3d5b6355bd2f79795ffd080c924e2d8df20"
    )


def test_p_value_report_bytes_are_pinned(tmp_path):
    # recorded when every chi-square and normal tail came from scipy.stats; the
    # autocorrelation test's exact values are pinned by
    # test_autocorrelations_are_the_exact_ratios_rounded_once instead
    stream, urn = tmp_path / "s.csv", tmp_path / "urn.csv"
    bell = ["bell-run", "--model", "selective", "--sharpness", "2", "--asymmetry", "0.25"]
    assert run(bell + ["--n-trials", "20000", "--master-seed", "3", "--out", str(stream)]) == 0
    assert run(["bell-analyze", "--stream", str(stream), "--report", str(tmp_path / "r.json")]) == 0
    coins = ["coins-run", "--experiment", "e4", "--urn-n", "51", "--draws-per-round", "100"]
    assert run(coins + ["--rounds", "50", "--seed", "3", "--out", str(urn)]) == 0
    tests = ["stream-test", "--stream", str(urn), "--kind", "coins"]
    tests += ["--tests", "runs,frequency,block-variance,homogeneity"]
    assert run(tests + ["--report", str(tmp_path / "t.json")]) == 0
    assert stream_digest(tmp_path / "r.json") == (
        "fa76219184e4188f649cf448c58baac1c118b156985f0ad3fb0f091aa87f9a3c"
    )
    assert stream_digest(tmp_path / "t.json") == (
        "b629eb2ec482a7c7e4f9b38e3bdc337249f70cd1178df9f96b2d213b20c94121"
    )


def test_unreadable_stream_is_a_data_error(tmp_path):
    missing = tmp_path / "nope.csv"
    assert run(["bell-analyze", "--stream", str(missing)]) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,stream\n")
    assert run(["bell-analyze", "--stream", str(bad)]) == 2


def test_malformed_config_is_a_data_error(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{nope")
    assert run(["bell-run", "--config", str(cfg)]) == 2
    cfg.write_text(json.dumps({"unknown-field": 1}))
    assert run(["bell-run", "--config", str(cfg)]) == 2


def test_model_file_path_round_trip(tmp_path):
    from contextlab.models import random_model, save_model

    model_path = tmp_path / "model.json"
    save_model(random_model(np.random.default_rng(1)), model_path)
    out = tmp_path / "stream.csv"
    code = run(
        [
            "bell-run",
            "--model", str(model_path),
            "--x-settings", "0,pi/4",
            "--y-settings", "pi/8,3pi/8",
            "--n-trials", "2000",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert len(read_stream_csv(out)) == 2000


# --- sweep ------------------------------------------------------------------------


def test_sweep_writes_report_and_plot_data(tmp_path, capsys):
    report = tmp_path / "sweep.json"
    plot = tmp_path / "sweep.dat"
    code = run(
        [
            "sweep",
            "--d-grid", "0,1",
            "--trials-per-point", "20000",
            "--asymmetry", "0.25",
            "--report", str(report),
            "--plot-data", str(plot),
        ]
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["best_sharpness"] == 1.0
    assert abs(doc["rows"][0]["s_quadrature"]) == pytest.approx(math.sqrt(2), abs=1e-6)
    assert len(plot.read_text().splitlines()) == 3


def test_sweep_report_bytes_are_pinned(tmp_path):
    # recorded when each sweep point still built a full stream, so it checks
    # that folding counts chunk by chunk changes no byte of the report
    report = tmp_path / "sweep.json"
    argv = ["sweep", "--d-grid", "0,1.5,3", "--asymmetry", "0.25", "--trials-per-point", "20000"]
    assert run(argv + ["--master-seed", "7", "--report", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == (
        "d41d346f04669921a61f24823d49151b3eaff9db6f29d01a246caab02347f91b"
    )


# --- coins-run / stream-test ----------------------------------------------------------


def test_coins_run_e4_and_stream_test(tmp_path, capsys):
    out = tmp_path / "urn.csv"
    code = run(
        [
            "coins-run",
            "--experiment", "e4",
            "--urn-n", "51",
            "--draws-per-round", "100",
            "--rounds", "50",
            "--seed", "3",
            "--out", str(out),
        ]
    )
    assert code == 0
    meta = json.loads((tmp_path / "urn.csv.meta.json").read_text())
    assert set(meta["blue_counts_per_round"]) <= {49, 50, 51}

    report = tmp_path / "tests.json"
    code = run(
        [
            "stream-test",
            "--stream", str(out),
            "--kind", "coins",
            "--tests", "runs,frequency,block-variance",
            "--block-size", "100",
            "--report", str(report),
        ]
    )
    assert code == 0
    doc = json.loads(report.read_text())
    names = {t["name"] for t in doc["tests"]}
    assert names == {"runs", "frequency", "block-variance"}
    by_name = {t["name"]: t for t in doc["tests"]}
    assert by_name["block-variance"]["reject"] is True
    assert by_name["frequency"]["reject"] is False


def test_coins_run_hole_protocol_summary(tmp_path):
    out = tmp_path / "hole.json"
    code = run(
        [
            "coins-run",
            "--experiment", "hole",
            "--n-removed", "90",
            "--trials-after", "5000",
            "--seed", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["box_after"]["n_blue"] + doc["box_after"]["n_red"] == 10
    assert "test" in doc


@pytest.mark.parametrize("n", ["0", "-1"])
@pytest.mark.parametrize(
    "experiment, flag",
    [
        ("e1", "--n"),
        ("e2", "--n"),
        ("e3", "--n"),
        ("e5", "--n"),
        ("e6", "--n"),
        ("e4", "--draws-per-round"),
        ("e4", "--rounds"),
        ("hole", "--trials-after"),
    ],
)
def test_coins_run_refuses_sample_sizes_below_one(tmp_path, capsys, experiment, flag, n):
    argv = ["coins-run", "--experiment", experiment, flag, n, "--out", str(tmp_path / "c.csv")]
    assert run(argv) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("alpha", ["2", "1", "0", "-1", "nan"])
def test_out_of_range_alpha_is_a_data_error(tmp_path, capsys, alpha):
    stream, urn = tmp_path / "s.csv", tmp_path / "urn.csv"
    assert run(["bell-run", "--n-trials", "2000", "--out", str(stream)]) == 0
    assert run(["coins-run", "--experiment", "e3", "--n", "2000", "--out", str(urn)]) == 0
    capsys.readouterr()
    for argv in (
        ["stream-test", "--stream", str(urn), "--kind", "coins", "--alpha", alpha],
        ["stream-test", "--stream", str(stream), "--kind", "bell", "--alpha", alpha],
        ["bell-analyze", "--stream", str(stream), "--alpha-raw", alpha],
        ["bell-analyze", "--stream", str(stream), "--alpha-postselected", alpha],
        ["coins-run", "--experiment", "hole", "--trials-after", "1000", "--alpha", alpha,
         "--out", str(tmp_path / "hole.json")],
    ):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert "alpha must be in (0, 1)" in captured.err
        assert "skipped" not in captured.out


def test_stream_test_bell_wing_maps_to_indicators(tmp_path):
    stream_path = tmp_path / "s.csv"
    assert (
        run(
            [
                "bell-run",
                "--model", "selective",
                "--sharpness", "2.0",
                "--asymmetry", "0.25",
                "--n-trials", "6000",
                "--out", str(stream_path),
            ]
        )
        == 0
    )
    report = tmp_path / "wing.json"
    code = run(
        [
            "stream-test",
            "--stream", str(stream_path),
            "--kind", "bell",
            "--wing", "A",
            "--tests", "runs,frequency",
            "--p0", "0.5",
            "--report", str(report),
        ]
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert len(doc["tests"]) == 6  # three indicator streams x two tests


def test_outdir_env_var_applies_to_relative_paths(tmp_path, monkeypatch):
    monkeypatch.setenv("CONTEXTLAB_OUTDIR", str(tmp_path))
    assert run(["bell-run", "--n-trials", "500", "--out", "rel.csv"]) == 0
    assert (tmp_path / "rel.csv").exists()


# --- plot data -------------------------------------------------------------------------


def test_emit_plot_data_empty_results_writes_header_only(tmp_path):
    path = tmp_path / "empty.dat"
    emit_plot_data((("theta", "e"), []), path)
    assert path.read_text() == "# theta e\n"


def test_emit_plot_data_malus_curve_values(tmp_path):
    rows = [(k * math.pi / 8, -0.5 * math.cos(2 * k * math.pi / 8)) for k in range(8)]
    path = emit_plot_data((("theta", "e"), rows), tmp_path / "curve.dat")
    lines = path.read_text().splitlines()
    assert len(lines) == 9
    first = lines[1].split()
    assert float(first[0]) == 0.0
    assert float(first[1]) == -0.5


# --- demo --------------------------------------------------------------------------------


def test_demo_quick_writes_combined_report(tmp_path, capsys):
    code = run(["demo", "--quick", "--out-dir", str(tmp_path / "demo"), "--seed", "1"])
    assert code == 0
    doc = json.loads((tmp_path / "demo" / "demo_report.json").read_text())
    assert doc["lhv_bound"] == 2.0
    assert doc["malus_raw_chsh"] == pytest.approx(math.sqrt(2), abs=1e-6)
    assert abs(doc["sweep_best"]["s_quadrature"]) > 2.0
    assert doc["no_signaling"]["raw_rejected"] is False
    assert doc["no_signaling"]["postselected_rejected"] is True
    assert doc["urn_flagged"] is True
    assert doc["bernoulli_flagged"] is False
    assert (tmp_path / "demo" / "malus_curve.dat").exists()
    assert (tmp_path / "demo" / "sweep.dat").exists()
