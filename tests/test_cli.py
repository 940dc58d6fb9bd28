import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from contextlab.analysis import estimate_correlations
from contextlab.cli import TABLE, emit_plot_data, parse_angle, parse_angle_list, run_command
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


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_parse_angle_reads_repr_back_bit_for_bit(x):
    # -0.0 and subnormals included: the bits, not just the value, come back
    assert np.float64(parse_angle(repr(x))).tobytes() == np.float64(x).tobytes()


@given(st.integers(-(10**12), 10**12), st.integers(1, 10**12))
def test_parse_angle_pi_fractions_are_exact(k, m):
    assert np.float64(parse_angle(f"{k}pi/{m}")).tobytes() == np.float64(k * math.pi / m).tobytes()


def test_bad_angle_is_a_usage_error(tmp_path):
    code = run(["bell-run", "--x-settings", "frog", "--out", str(tmp_path / "s.csv")])
    assert code == 1


def test_unknown_subcommand_and_flag_are_usage_errors():
    assert run(["definitely-not-a-command"]) == 1
    assert run(["lhv-bound", "--frobnicate"]) == 1


def test_missing_stream_is_a_usage_error():
    assert run(["bell-analyze"]) == 1


@pytest.fixture(scope="module")
def streams(tmp_path_factory):
    """A small Bell stream and a small coin stream, for flags checked before reading."""
    base = tmp_path_factory.mktemp("streams")
    bell, coins = str(base / "bell.csv"), str(base / "coins.csv")
    assert run(["bell-run", "--n-trials", "2000", "--out", bell]) == 0
    assert run(["coins-run", "--experiment", "e3", "--n", "2000", "--out", coins]) == 0
    return {"BELL": bell, "COINS": coins}


@pytest.mark.parametrize(
    "argv",
    [
        ["bell-run", "--n-trials", "abc"],
        ["bell-run", "--model", "selective", "--sharpness", "steep"],
        ["sweep", "--trials-per-point", "1e6"],
        ["coins-run", "--experiment", "e3", "--p-blue", "half"],
        # each of these died with a ValueError traceback
        ["bell-analyze", "--stream", "BELL", "--mode", "bogus"],
        ["bell-analyze", "--stream", "BELL", "--chsh-settings", "0,1"],
        ["sweep", "--settings", "0,1", "--trials-per-point", "1000"],
        # this one ran no test, never checked alpha and exited 0
        ["stream-test", "--stream", "COINS", "--tests", ",", "--alpha", "5"],
    ],
)
def test_unparsable_numbers_are_usage_errors(capsys, streams, argv):
    assert run([streams.get(a, a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "field",
    [
        {"n-trials": "abc"},
        {"n-trials": 1.5},
        {"n-trials": True},
        {"master-seed": 2.7},
        {"sharpness": True},
        {"x-settings": [0, 1]},
        {"schedule-seed": None},
    ],
    ids=["n-trials-abc", "n-trials-1.5", "n-trials-true", "master-seed-2.7", "sharpness-true",
         "x-settings-list", "schedule-seed-null"],
)
def test_unparsable_config_value_is_a_usage_error(tmp_path, capsys, field):
    # a fraction or a bool used to be truncated to an int and run silently
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"n-trials": 100, "out": str(tmp_path / "s.csv")} | field))
    assert run(["bell-run", "--config", str(config)]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize(
    "command, field",
    [
        ("demo", {"quick": "yes"}),
        ("coins-run", {"experiment": 4}),
        ("coins-run", {"experiment": "e1", "input-face": 1}),
        ("stream-test", {"stream": 5}),
        ("stream-test", {"stream": "s.csv", "tests": ["runs"]}),
        ("sweep", {"d-grid": 0.5}),
        ("bell-analyze", {"stream": "s.csv", "report": False}),
    ],
)
def test_wrong_json_type_in_a_config_is_a_usage_error(tmp_path, capsys, command, field):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(field))
    assert run([command, "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and list(field)[-1] in err  # the last field is the wrong one


def test_integral_config_numbers_run_and_are_echoed_as_given(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"n-trials": 300.0, "out": str(tmp_path / "s.csv")}))
    assert run(["bell-run", "--config", str(config)]) == 0
    assert len(read_stream_csv(tmp_path / "s.csv")) == 300
    assert json.loads((tmp_path / "s.csv.config.json").read_text())["n-trials"] == 300.0


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


def _echo_runs(d):
    """command -> (a setup run or None, the command's flags), all paths under d."""
    bell, coins = str(d / "in.csv"), str(d / "in-coins.csv")
    selective = ["--model", "selective", "--sharpness", "2.0", "--asymmetry", "0.25"]
    return {
        "bell-run": (None, selective + ["--n-trials", "4000", "--master-seed", "11",
                                        "--out", str(d / "first.csv")]),
        "bell-analyze": (
            ["bell-run", *selective, "--n-trials", "3000", "--out", bell],
            ["--stream", bell, "--mode", "raw", "--report", str(d / "r.json"),
             "--plot-data", str(d / "r.dat")],
        ),
        "lhv-bound": (None, ["--report", str(d / "bound.json")]),
        "sweep": (None, ["--d-grid", "0,3", "--trials-per-point", "2000", "--master-seed", "3",
                         "--report", str(d / "sweep.json"), "--plot-data", str(d / "sweep.dat")]),
        "coins-run": (None, ["--experiment", "e4", "--rounds", "10", "--seed", "2",
                             "--out", str(d / "urn.csv")]),
        "stream-test": (
            ["coins-run", "--experiment", "e3", "--n", "500", "--out", coins],
            ["--stream", coins, "--tests", "runs,frequency", "--report", str(d / "t.json")],
        ),
        "demo": (None, ["--quick", "--out-dir", str(d / "demo"), "--seed", "2"]),
    }


@pytest.mark.parametrize("command", list(TABLE))  # every command needs a case above
def test_config_echo_reproduces_the_artifact(tmp_path, command):
    setup, flags = _echo_runs(tmp_path)[command]
    if setup:
        assert run(setup) == 0
    before = set(tmp_path.rglob("*"))
    assert run([command, *flags]) == 0
    written = {p: p.read_bytes() for p in set(tmp_path.rglob("*")) - before if p.is_file()}
    (echoed,) = [p for p in written if p.name.endswith(".config.json")]
    rerun = tmp_path / "rerun.json"
    rerun.write_bytes(written[echoed])
    for p in written:
        p.unlink()
    assert run([command, "--config", str(rerun)]) == 0
    assert {p: p.read_bytes() for p in written} == written


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


def test_malus_stream_bytes_are_pinned(tmp_path):
    # recorded when MalusModel kept its own survival and response functions
    stream = tmp_path / "m.csv"
    argv = ["bell-run", "--model", "malus", "--n-trials", "5000", "--master-seed", "12"]
    assert run(argv + ["--schedule-seed", "8", "--out", str(stream)]) == 0
    assert stream_digest(stream) == (
        "29ab3e9e82de63795a5102cb968c63255ba11073af6eb52525db4db72092a56e"
    )
    assert stream_digest(tmp_path / "m.csv.meta.json") == (
        "f320c919b8f8632fe6f602276c59998ee2bd77470785a12a4fdb72542f3f9a1f"
    )


@pytest.mark.parametrize("face, count", [("B", 0), ("R", 1000)])
def test_stream_test_counts_blue_in_a_one_face_coin_stream(tmp_path, face, count):
    # D1 turns every inserted face into the other one
    out, report = tmp_path / "d1.csv", tmp_path / "t.json"
    coins = ["coins-run", "--experiment", "e1", "--input-face", face, "--n", "1000"]
    assert run(coins + ["--out", str(out)]) == 0
    tests = ["stream-test", "--stream", str(out), "--kind", "coins", "--tests", "frequency"]
    assert run(tests + ["--report", str(report)]) == 0
    details = json.loads(report.read_text())["tests"][0]["details"]
    assert details == {"count": count, "frequency": count / 1000, "p0": 0.5}


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


def test_effective_config_bytes_are_pinned(tmp_path, monkeypatch):
    # recorded before the command table replaced the per-command defaults:
    # flags are echoed as the strings given, defaults with their JSON types
    monkeypatch.setenv("CONTEXTLAB_OUTDIR", str(tmp_path))
    seeds = ["--n-trials", "2000", "--master-seed", "3", "--schedule-seed", "2"]
    assert run(["bell-run", *seeds, "--chunk-size", "512", "--out", "s.csv"]) == 0
    hole = ["coins-run", "--experiment", "hole", "--trials-after", "1000", "--seed", "1"]
    assert run(hole + ["--out", "hole.json"]) == 0
    assert run(["lhv-bound", "--report", "bound.json"]) == 0
    assert run(["demo", "--quick", "--out-dir", "demo", "--seed", "1"]) == 0
    digests = {
        name: stream_digest(tmp_path / name)
        for name in (
            "s.csv.config.json",
            "hole.json.config.json",
            "bound.json",
            "bound.json.config.json",
            "demo/demo_report.json",
            "demo/demo_report.json.config.json",
        )
    }
    assert digests == {
        "s.csv.config.json": (
            "83a95394fc519dc1b004bea6c6a3a8ce9d5aba88af49765eb2afad404755b3ac"
        ),
        "hole.json.config.json": (
            "59c87bb55eddc9bbfcf3f05013698228c41ec30de41f568d64997315dd7d767b"
        ),
        "bound.json": (
            "7a675ffea8382aa1bd881ba16c25014d4d2eb388ff81cc190581ef88eb5c97ab"
        ),
        "bound.json.config.json": (
            "f422d062e852677c477815dc03e6f30fd41cbae90682a083fb66cda51e1b90dd"
        ),
        "demo/demo_report.json": (
            "1e897c3203a36614ab3e447167c07e6217e38e46bf8498751470da14ee6d8005"
        ),
        "demo/demo_report.json.config.json": (
            "ebedbc76056b4bebe2c70b958b0bf656624d0c579dfe3ea262d9ce44c2498ef9"
        ),
    }


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


def test_undefined_coincidences_are_plotted_as_nan(tmp_path, capsys):
    # Bob never clicks at the first pair, so its coincidence estimate is undefined
    stream = tmp_path / "s.csv"
    rows = ["0,0.0,0.5,1,0", "1,0.0,0.5,-1,0", "2,1.0,0.5,1,1", "3,1.0,0.5,-1,1"]
    stream.write_text("\r\n".join(["trial,x_rad,y_rad,a,b", *rows, ""]))
    assert run(["bell-analyze", "--stream", str(stream), "--plot-data", str(tmp_path / "p.dat")]) == 0
    assert "undef" in capsys.readouterr().out
    assert (tmp_path / "p.dat").read_text().splitlines()[1:] == [
        "0.0 0.5 -0.5 0.0 0.0 nan nan",
        "1.0 0.5 0.5 0.0 1.0 0.0 1.0",
    ]


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
