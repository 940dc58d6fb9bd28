import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from contextlab import randtests, simulate
from contextlab.analysis import DEFAULT_CHSH_SETTINGS, estimate_correlations
from contextlab.cli import (
    TABLE,
    TESTS,
    build_parser,
    emit_plot_data,
    merge_config,
    parse_angle,
    parse_angle_list,
    run_command,
)
from contextlab.coins import BoxEnsemble
from contextlab.errors import ConfigError, InsufficientDataError, ModelValidationError
from contextlab.models import SettingPair, load_model
from contextlab.simulate import read_stream_csv
from stream_records import stream_digest


ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


def run(argv, capsys=None):
    code = run_command(argv)
    return code


def run_python(script: str, cwd) -> str:
    """Run a script in a fresh interpreter that imports this checkout; its last stdout line."""
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


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


@pytest.mark.parametrize(
    "argv, key", [(["bell-analyze", "--stream", "s.csv"], "chsh-settings"), (["sweep"], "settings")]
)
def test_default_chsh_text_parses_to_the_library_settings_bit_for_bit(argv, key):
    text = "0,pi/4,pi/8,3pi/8"
    for flags in ([], ["--" + key, text]):  # the field's default, then the same text as a flag
        config, values = merge_config(argv[0], build_parser().parse_args(argv + flags))
        assert config[key] == text
        assert np.array(values[key]).tobytes() == np.array(DEFAULT_CHSH_SETTINGS).tobytes()


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
        # a zero divisor died with a ZeroDivisionError traceback
        ["bell-run", "--x-settings", "pi/0"],
        ["sweep", "--settings", "0,pi/0,pi/8,3pi/8"],
        ["bell-analyze", "--stream", "BELL", "--chsh-settings", "0,pi/0,pi/8,3pi/8"],
    ],
)
def test_unparsable_numbers_are_usage_errors(capsys, streams, argv):
    assert run([streams.get(a, a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("angle", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "argv, field",
    [
        (["bell-analyze", "--stream", "BELL", "--chsh-settings"], "chsh-settings"),
        (["sweep", "--trials-per-point", "1000", "--settings"], "settings"),
    ],
    ids=["bell-analyze", "sweep"],
)
def test_non_finite_chsh_angles_are_usage_errors(capsys, streams, argv, field, angle):
    # bell-analyze exited 0 with no CHSH line, and sweep ran every quadrature rule
    # on the nan before it failed
    argv = [streams.get(a, a) for a in argv] + [f"0,{angle},pi/8,3pi/8"]
    assert run_command(argv) == 1
    captured = capsys.readouterr()
    assert f"usage error: {field}: " in captured.err
    assert "(expected four finite angles a,a',b,b')" in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_a_stream_without_the_chsh_pairs_reports_them_unavailable(tmp_path, capsys):
    # this stream holds one setting pair; no CHSH line was printed at all
    stream, report = str(tmp_path / "s.csv"), tmp_path / "r.json"
    argv = ["bell-run", "--schedule", "cycle", "--x-settings", "0", "--y-settings", "pi/8"]
    assert run_command(argv + ["--n-trials", "500", "--out", stream]) == 0
    capsys.readouterr()
    assert run_command(["bell-analyze", "--stream", stream, "--report", str(report)]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("CHSH")]
    assert [line.partition(":")[0] for line in lines] == ["CHSH (raw)", "CHSH (coincidence)"]
    for line in lines:
        assert ": unavailable (setting pair SettingPair(x=0.0, y=" in line
        assert line.endswith(" missing from the stream)")
    assert not [key for key in json.loads(report.read_text()) if key.startswith("chsh")]


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


@pytest.mark.parametrize(
    "refused",
    [
        pytest.param(["--n-trials", "0"], id="--n-trials"),
        pytest.param(["--chunk-size", "0"], id="--chunk-size"),
        # these three are refused while the rows are generated, after the output is opened
        pytest.param(["--master-seed", "-1"], id="--master-seed"),
        pytest.param(["--schedule", "random", "--schedule-seed", "-3"], id="--schedule-seed"),
        pytest.param(["--model", "m.json", "--x-settings", "0,0.3"], id="--model-settings"),
    ],
)
def test_a_refused_run_keeps_the_stream_already_at_its_out_path(tmp_path, monkeypatch, refused):
    from contextlab.models import random_model, save_model

    monkeypatch.chdir(tmp_path)
    save_model(random_model(np.random.default_rng(1)), "m.json")  # settings 0 and pi/4 on x
    out = tmp_path / "s.csv"
    base = ["bell-run", "--n-trials", "50", "--schedule-seed", "1", "--out", str(out)]
    assert run(base) == 0
    sidecar = tmp_path / "s.csv.meta.json"
    before = out.read_bytes(), sidecar.read_bytes()
    assert run(base + refused) == 2
    assert (out.read_bytes(), sidecar.read_bytes()) == before
    assert not (tmp_path / "s.csv.part").exists()


def test_importing_the_cli_and_generating_load_no_scipy(tmp_path):
    # every p-value comes from the standard library, so no command loads scipy; and
    # no command calls the np.unique forms that import numpy.ma (about 13 ms)
    s, u, short = (str(tmp_path / name) for name in ("s.csv", "u.csv", "short.csv"))
    tests = ("runs", "frequency", "block-variance", "homogeneity", "autocorrelation")
    commands = [
        ["bell-run", "--n-trials", "20000", "--out", s],
        ["bell-analyze", "--stream", s],
        *(["coins-run", "--experiment", e, "--out", str(tmp_path / f"{e}.csv")]
          for e in ("e1", "e2", "e3", "e5", "e6", "hole")),
        ["coins-run", "--experiment", "e4", "--out", u],
        ["coins-run", "--experiment", "e1", "--n", "20", "--out", short],
        ["stream-test", "--kind", "coins", "--stream", u],
        ["stream-test", "--kind", "bell", "--stream", s],
        *(["stream-test", "--kind", kind, "--stream", path, "--tests", test]
          for kind, path in (("coins", u), ("bell", s)) for test in tests),
        ["stream-test", "--kind", "coins", "--stream", short, "--tests", "frequency"],
        ["sweep", "--d-grid", "0,1", "--trials-per-point", "20000"],
        ["lhv-bound"],
        ["demo", "--quick", "--out-dir", str(tmp_path / "demo")],
    ]
    script = (
        "import json, sys\n"
        "from contextlab.cli import run_command\n"
        "def heavy(): return any(m.split('.')[0] == 'scipy' or m == 'numpy.ma'\n"
        "                        for m in sys.modules)\n"
        "loaded = [heavy()]\n"
        f"for argv in json.loads({json.dumps(commands)!r}):\n"
        "    assert run_command(argv) == 0, argv\n"
        "    loaded.append(heavy())\n"
        "print(loaded)\n"
    )
    assert run_python(script, tmp_path) == str([False] * (len(commands) + 1))


def test_the_finite_oracle_driver_loads_no_scipy(tmp_path):
    from contextlab.models import random_model, save_model

    save_model(random_model(np.random.default_rng(4), n1=6, n2=6, n_inst=3), tmp_path / "m.json")
    script = (
        "import runpy, sys\n"
        f"oracle = runpy.run_path({str(ROOT / 'bench' / 'finite_oracle.py')!r})\n"
        "assert oracle['main'](['m.json', 'o.json', '--trials', '4000', '--seed', '1']) == 0\n"
        "print(any(m.split('.')[0] == 'scipy' or m == 'numpy.ma' for m in sys.modules))\n"
    )
    assert run_python(script, tmp_path) == "False"
    assert json.loads((tmp_path / "o.json").read_text())["no_signaling"]


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


def assert_equal_but_p_values(doc, fixture, path=""):
    """Every field equal, except `p_value` fields within a relative 2e-13."""
    if isinstance(fixture, dict):
        assert sorted(doc) == sorted(fixture), path
        for key in fixture:
            if key == "p_value":
                assert abs(doc[key] - fixture[key]) <= 2e-13 * fixture[key], path
            else:
                assert_equal_but_p_values(doc[key], fixture[key], f"{path}/{key}")
    elif isinstance(fixture, list):
        assert len(doc) == len(fixture), path
        for i, (a, b) in enumerate(zip(doc, fixture)):
            assert_equal_but_p_values(a, b, f"{path}[{i}]")
    else:
        assert doc == fixture and type(doc) is type(fixture), path


def test_p_value_report_bytes_are_pinned(tmp_path):
    # the fixtures are these reports as written when the tails came from
    # scipy.special; the autocorrelation test's exact values are pinned by
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
    for report, fixture in (("r.json", "p_value_report_bell.json"), ("t.json", "p_value_report_coins.json")):
        doc = json.loads((tmp_path / report).read_text())
        assert_equal_but_p_values(doc, json.loads((DATA / fixture).read_text()))
    assert stream_digest(tmp_path / "r.json") == (
        "7cf823c5436524dbd776dd9497d33e9a29a3a76f784031673f634d9841d76957"
    )
    assert stream_digest(tmp_path / "t.json") == (
        "8a221cd0276d5c52d7d96615e5569040b30df26f1afaf53259c66270c392411b"
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
        # re-recorded when the tanh-sinh rule replaced the midpoint rule: the
        # last bit of malus_raw_chsh (now sqrt 2 correctly rounded) and
        # sweep_best.s_quadrature (by 5.3e-11) moved; no other byte did
        "demo/demo_report.json": (
            "4cba0687ba8d5338d940d9a482817df1afafcb0f7317b4e3f10001c06ad80549"
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
    cfg.write_bytes(b'{"seed": "\xff"}')  # not UTF-8
    assert run(["lhv-bound", "--config", str(cfg)]) == 2


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


def _model_document(edit):
    from contextlab.models import model_to_dict, random_model

    doc = model_to_dict(random_model(np.random.default_rng(1)))
    return json.dumps(edit(doc) or doc).encode()


def _extra_setting(key):
    """A model file whose Alice wing also declares `key`, with the tables of angle 0.0."""
    return _model_document(lambda d: d["alice"].update({key: d["alice"]["0.0"]}))


@pytest.mark.parametrize(
    "content, guard",
    [
        (_extra_setting("inf"), "must be nonempty, finite and distinct mod 2*pi"),
        (_extra_setting("abc"), "could not convert string to float: 'abc'"),
        (_extra_setting("nan"), "must be nonempty, finite and distinct mod 2*pi"),
        # 2 pi: three settings declared, two angles
        (_extra_setting("6.283185307179586"), "must be nonempty, finite and distinct mod 2*pi"),
        (_model_document(lambda d: d.update(alice=[1, 2])), "malformed model document"),
        (_model_document(lambda d: [d]), "malformed model document"),
        (b"\xff\xfe{}", "not valid JSON"),  # not UTF-8
        (_model_document(lambda d: d.update(lambda1_space=[])), "source spaces must be nonempty"),
        (_model_document(lambda d: d.update(source_dist=[])), "source_dist: empty probability table"),
        (
            _model_document(lambda d: d["source_dist"][0].__setitem__(0, math.nan)),
            "non-finite probability",
        ),
        (
            _model_document(lambda d: d.update(source_dist=sum(d["source_dist"], []))),
            "source_dist shape (9,)",
        ),
        (
            _model_document(lambda d: d["alice"]["0.0"]["dist"].append(0.0)),
            "dist length != space size",
        ),
        (
            _model_document(lambda d: d["alice"]["0.0"]["outcome"].__delitem__(-1)),
            "outcome table shape (2, 2)",
        ),
    ],
    ids=[
        "inf-key", "abc-key", "nan-key", "colliding-keys", "list-wing", "list-document", "bytes",
        "empty-space", "empty-source", "nan-entry", "flat-source", "long-dist", "short-outcome",
    ],
)
def test_malformed_model_file_is_a_data_error(tmp_path, capsys, content, guard):
    model_path = tmp_path / "model.json"
    model_path.write_bytes(content)
    with pytest.raises(ModelValidationError) as caught:
        load_model(model_path)
    assert guard in str(caught.value)
    out = tmp_path / "stream.csv"
    assert run(["bell-run", "--model", str(model_path), "--n-trials", "10", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {caught.value}\n"
    assert not out.exists()


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


def test_a_sweep_whose_every_job_fails_is_a_data_error(tmp_path, capsys):
    report = tmp_path / "sweep.json"
    before = threading.active_count()
    assert run(["sweep", "--trials-per-point", "0", "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert "n_trials must be >= 1" in err and "Traceback" not in err
    assert not report.exists()
    assert threading.active_count() == before


def test_sweep_report_bytes_are_pinned(tmp_path):
    # recorded when each sweep point still built a full stream, so it checks
    # that folding counts chunk by chunk changes no byte of the report.
    # Re-recorded when the tanh-sinh rule replaced the midpoint rule: each row
    # gained s_quadrature_bound and s_monte_carlo_se, and s_quadrature and
    # discrepancy moved by -2.2e-16, -9.4e-9 and 5.3e-11 at d 0, 1.5 and 3;
    # the Monte Carlo fields and best_sharpness kept every byte
    report = tmp_path / "sweep.json"
    argv = ["sweep", "--d-grid", "0,1.5,3", "--asymmetry", "0.25", "--trials-per-point", "20000"]
    assert run(argv + ["--master-seed", "7", "--report", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == (
        "0f873ae29df1310e9710639c631a48c1d82e6581dcc6058402373c8d2747d7f4"
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


@pytest.mark.parametrize(
    "kind, make",
    [("coins", ["coins-run", "--experiment", "e3", "--n", "5000"]),
     ("bell", ["bell-run", "--n-trials", "5000"])],
)
def test_a_file_cut_short_of_its_sidecar_is_a_data_error(tmp_path, capsys, kind, make):
    path = tmp_path / "s.csv"
    assert run(make + ["--out", str(path)]) == 0
    path.write_bytes(b"".join(path.read_bytes().splitlines(keepends=True)[:-1]))
    capsys.readouterr()
    assert run(["stream-test", "--stream", str(path), "--kind", kind]) == 2
    assert "sidecar has" in capsys.readouterr().err


@pytest.mark.parametrize("n_blue", ["2000000000", "99999999999999999999"])
def test_a_hole_box_too_large_to_draw_from_is_a_data_error(tmp_path, capsys, n_blue):
    # numpy's hypergeometric draw raised a ValueError or OverflowError traceback
    out = tmp_path / "hole.json"
    argv = ["coins-run", "--experiment", "hole", "--n-blue", n_blue, "--n-red", "10",
            "--n-removed", "5", "--out", str(out)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "10**9" in err and "Traceback" not in err
    assert not out.exists()


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


def test_stream_test_skips_and_names_an_outcome_the_wing_never_gives(tmp_path, capsys):
    # the malus model never rejects, so outcome 0 never occurs at either wing
    stream, report = tmp_path / "s.csv", tmp_path / "t.json"
    assert run(["bell-run", "--model", "malus", "--n-trials", "20000", "--out", str(stream)]) == 0
    capsys.readouterr()
    assert run(["stream-test", "--stream", str(stream), "--kind", "bell", "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "outcome=+0 never occurs at wing A: not tested" in out
    assert "outcome=+0]" not in out
    doc = json.loads(report.read_text())
    assert doc["absent_outcomes"] == [0]
    assert len(doc["tests"]) == 2 * len(TESTS)
    assert not any("outcome=+0" in t["name"] for t in doc["tests"])


def test_stream_test_bell_holds_one_byte_per_row_not_the_parsed_stream(tmp_path, capsys, monkeypatch):
    """tracemalloc peak of `stream-test --kind bell` on a 50,000-row stream.

    The command keeps one int8 outcome per row.  At most seven one-byte arrays
    of the stream's length are alive at once: the concatenated outcomes (the
    per-block copies are freed once concatenated, and while they live no test
    runs), the three indicator streams, and up to three temporaries of the
    step that runs (a comparison mask and its uint8 cast, `np.unique`'s
    sorted copy and mask, `np.diff`).  Reading adds one block: its text, its
    26 B records (fewer bytes than their rows' text, about 42 B here) and
    `loadtxt`'s working copies, bounded together by 16 blocks of text.
    Holding every block's records instead, through views of their columns,
    adds 26 B per row: 1.3 MB here.
    """
    monkeypatch.setattr(simulate, "READ_BLOCK_BYTES", 1 << 15)
    rows, stream = 50_000, tmp_path / "s.csv"
    argv = ["bell-run", "--model", "selective", "--sharpness", "2.0", "--n-trials", str(rows)]
    assert run(argv + ["--out", str(stream)]) == 0
    argv = ["stream-test", "--stream", str(stream), "--kind", "bell", "--tests", "runs,frequency"]
    assert run(argv) == 0  # first-call allocations are not the command's
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 7 * rows + 16 * simulate.READ_BLOCK_BYTES, peak


@pytest.mark.parametrize("wing", ["A", "B"])
def test_stream_test_on_an_empty_bell_stream_is_a_data_error(tmp_path, capsys, wing):
    # a header-only file has no outcome to test: it must not pass with an empty report
    stream, report = tmp_path / "s.csv", tmp_path / "t.json"
    stream.write_bytes(b"trial,x_rad,y_rad,a,b\r\n")
    argv = ["stream-test", "--stream", str(stream), "--kind", "bell", "--wing", wing]
    assert run(argv + ["--report", str(report)]) == 2
    captured = capsys.readouterr()
    assert "empty stream" in captured.err
    assert "not tested" not in captured.out
    assert not report.exists()


def test_stream_test_gives_a_one_symbol_coin_stream_the_degenerate_rejection(tmp_path):
    # D1 turns every inserted face into the other one, so e1's default stream is all red
    stream, report = tmp_path / "d1.csv", tmp_path / "t.json"
    assert run(["coins-run", "--experiment", "e1", "--out", str(stream)]) == 0
    assert run(["stream-test", "--stream", str(stream), "--report", str(report)]) == 0
    reports = {t["name"]: t for t in json.loads(report.read_text())["tests"]}
    assert list(reports) == list(TESTS)
    for name in ("runs", "block-variance", "autocorrelation"):
        assert (reports[name]["null_ref"], reports[name]["p_value"]) == ("degenerate-exact", 0.0)
        assert reports[name]["details"]["degenerate"] is True
    assert reports["homogeneity"]["p_value"] == 1.0 and reports["frequency"]["reject"]


def test_stream_test_gives_an_outcome_a_wing_always_gives_the_degenerate_rejection(tmp_path, capsys):
    from contextlab.models import FiniteContextualModel, save_model

    always = ((0,), [1.0], [[1]])  # Alice's one instrument value gives +1 at both settings
    coin = ((0, 1), [0.5, 0.5], [[1, -1]])
    bob = {math.pi / 8: coin, 3 * math.pi / 8: coin}
    save_model(FiniteContextualModel((0,), (0,), [[1.0]], {0.0: always, math.pi / 4: always}, bob),
               tmp_path / "m.json")
    stream, report = tmp_path / "s.csv", tmp_path / "t.json"
    argv = ["bell-run", "--model", str(tmp_path / "m.json"), "--n-trials", "5000", "--out", str(stream)]
    assert run(argv) == 0
    assert run(["stream-test", "--stream", str(stream), "--kind", "bell", "--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["absent_outcomes"] == [-1, 0]
    assert [t["name"] for t in doc["tests"]] == [f"{name}[wing=A, outcome=+1]" for name in TESTS]
    assert [t["null_ref"] == "degenerate-exact" for t in doc["tests"]] == [True, False, True, False, True]


def test_outdir_env_var_applies_to_relative_paths(tmp_path, monkeypatch):
    monkeypatch.setenv("CONTEXTLAB_OUTDIR", str(tmp_path))
    assert run(["bell-run", "--n-trials", "500", "--out", "rel.csv"]) == 0
    assert (tmp_path / "rel.csv").exists()


def test_a_relative_outdir_is_applied_to_each_output_path_once(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("CONTEXTLAB_OUTDIR", "o")
    assert run(["demo", "--quick", "--out-dir", "demo-out"]) == 0
    assert run(["bell-run", "--n-trials", "2000", "--out", "s.csv"]) == 0
    analyze = ["bell-analyze", "--stream", "o/s.csv", "--report", "a/r.json", "--plot-data", "a/p.dat"]
    assert run(analyze) == 0
    sweep = ["sweep", "--d-grid", "0,1", "--trials-per-point", "2000"]
    assert run(sweep + ["--report", "w/r.json", "--plot-data", "w/p.dat"]) == 0
    written = {str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file()}
    assert written == {
        *(f"o/demo-out/{name}" for name in ("demo_report.json", "demo_report.json.config.json",
                                            "sweep.dat", "malus_curve.dat")),
        "o/s.csv", "o/s.csv.meta.json", "o/s.csv.config.json",
        *(f"o/{d}/{name}" for d in "aw" for name in ("r.json", "r.json.config.json", "p.dat")),
    }


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


# --- error guards that no other test reaches ------------------------------------------------


def _config_not_an_object(tmp):
    (tmp / "config.json").write_text("[1]")
    return ["bell-run", "--config", str(tmp / "config.json"), "--out", str(tmp / "s.csv")]


def _analyze(*run_args):
    """argv of `bell-analyze` on a 2,000-trial `bell-run` stream made with `run_args`."""

    def argv(tmp):
        stream = str(tmp / "s.csv")
        assert run(["bell-run", *run_args, "--n-trials", "2000", "--out", stream]) == 0
        return ["bell-analyze", "--stream", stream]

    return argv


BITS = [0, 1] * 500
GUARDS = {
    # a command: its argv in a temporary directory, its exit code and a line it prints
    "config-not-an-object": (_config_not_an_object, 2, "must hold a JSON object"),
    "unknown-model": (
        lambda tmp: ["bell-run", "--model", "foo", "--out", str(tmp / "s.csv")], 2, "unknown model 'foo'",
    ),
    "negative-coin-count": (
        lambda tmp: ["coins-run", "--experiment", "e5", "--n-blue", "-1", "--out", str(tmp / "c.csv")],
        2,
        "coin counts must be nonnegative",
    ),
    "no-joint-detection": (lambda tmp: ["sweep", "--d-grid", "1000000"], 2, "joint detection rate vanishes"),
    "chsh-unavailable": (
        _analyze("--model", "selective", "--sharpness", "1000000"), 0, "CHSH (coincidence): unavailable",
    ),
    "no-signaling-skipped": (
        _analyze("--x-settings", "0", "--y-settings", "0.3"), 0, "no-signaling comparison skipped",
    ),
    # a library call: the error it raises and its message
    "pure-box-given-colors": (
        lambda: BoxEnsemble("pure", n_blue=1), ConfigError, "pure boxes use n_coins only",
    ),
    "p-value-past-1": (
        lambda: randtests.TestReport("t", 0.0, "none", 1.5, 0.01, 1), ValueError, r"p-value 1.5 outside",
    ),
    "empty-stream": (lambda: randtests.runs_test([]), InsufficientDataError, "empty stream"),
    "empty-samples": (
        lambda: randtests.two_proportion_test(0, 0, 1, 1), InsufficientDataError, "both samples must be nonempty",
    ),
    "block-size-0": (
        lambda: randtests.block_variance_test(BITS, 0), InsufficientDataError, "block_size must be >= 1",
    ),
    "group-below-min-subsample": (
        lambda: randtests.homogeneity_test_groups([BITS, BITS[: randtests.MIN_SUBSAMPLE - 1]]),
        InsufficientDataError,
        f"every group needs >= {randtests.MIN_SUBSAMPLE} entries",
    ),
    "one-subsample": (
        lambda: randtests.homogeneity_test(BITS, 1), InsufficientDataError, "n_subsamples must be >= 2",
    ),
    "max-lag-0": (lambda: randtests.autocorrelation_test(BITS, 0), InsufficientDataError, "max_lag must be >= 1"),
    "short-breakdown-demo": (
        lambda: randtests.inhomogeneity_breakdown_demo((0.2, 0.8), 10, 0),
        InsufficientDataError,
        "stream too short for the demonstration",
    ),
}


@pytest.mark.parametrize("call, expected, message", GUARDS.values(), ids=GUARDS.keys())
def test_guards_no_other_test_reaches(call, expected, message, tmp_path, capsys):
    if isinstance(expected, int):  # a command: the exit code, the line and no traceback
        code = run(call(tmp_path))
        out, err = capsys.readouterr()
        assert code == expected, err
        assert message in out + err
        assert "Traceback" not in err
    else:
        with pytest.raises(expected, match=message) as caught:
            call()
        assert type(caught.value) is expected
