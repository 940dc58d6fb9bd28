"""Stream and coin CSV files: bytes, lossless round trips and checks on read."""

import csv
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from contextlab.coins import COIN_CSV_HEADER, read_coin_csv, write_coin_csv
from contextlab.errors import StreamFormatError
from contextlab.simulate import (
    CSV_HEADER,
    MalusModel,
    SettingsSchedule,
    TrialStream,
    read_stream_csv,
    run_experiment,
    stream_metadata,
    write_stream_csv,
)

PROPERTY = settings(
    max_examples=200,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# signed zeros, the smallest subnormal, the largest finite float and its neighbours
EDGE_FLOATS = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308,
)
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))


def reference_stream_bytes(stream, path) -> bytes:
    """The bytes of the row-by-row `csv.writer` the stream format is defined by."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for t, x, y, a, b in zip(stream.trial, stream.x, stream.y, stream.a, stream.b):
            writer.writerow((int(t), repr(float(x)), repr(float(y)), int(a), int(b)))
    return path.read_bytes()


def reference_coin_bytes(faces, path) -> bytes:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COIN_CSV_HEADER)
        for i, face in enumerate(faces):
            writer.writerow((i, face))
    return path.read_bytes()


@st.composite
def streams(draw):
    """Short streams whose settings come from small pools, so rows share tails."""
    xs = draw(st.lists(FLOATS, min_size=1, max_size=4))
    ys = draw(st.lists(FLOATS, min_size=1, max_size=4))
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(1, 2**40),
                st.sampled_from(xs),
                st.sampled_from(ys),
                st.sampled_from((-1, 0, 1)),
                st.sampled_from((-1, 0, 1)),
            ),
            max_size=40,
        )
    )
    start = draw(st.integers(-(2**40), 2**40))
    if not rows:
        return TrialStream([], [], [], [], [])
    steps, x, y, a, b = zip(*rows)
    return TrialStream(start + np.cumsum(steps), x, y, a, b)


@PROPERTY
@given(streams())
# both zeros in one column: a writer keyed on values rather than bits merges them
@example(TrialStream([0, 1, 2], [0.0, -0.0, 0.0], [-0.0, 5e-324, 0.0], [1, 0, -1], [-1, 0, 1]))
def test_stream_round_trip_is_bit_exact_and_matches_csv_writer(stream):
    with tempfile.TemporaryDirectory() as tmp:
        path, reference = Path(tmp) / "s.csv", Path(tmp) / "ref.csv"
        write_stream_csv(stream, path)
        assert path.read_bytes() == reference_stream_bytes(stream, reference)
        back = read_stream_csv(path)
    assert np.array_equal(back.trial, stream.trial)
    assert np.array_equal(back.x.view(np.int64), stream.x.view(np.int64))  # -0.0 included
    assert np.array_equal(back.y.view(np.int64), stream.y.view(np.int64))
    assert np.array_equal(back.a, stream.a) and np.array_equal(back.b, stream.b)


@PROPERTY
@given(st.lists(st.sampled_from(("B", "R")), max_size=60))
def test_coin_round_trip_matches_csv_writer(faces):
    with tempfile.TemporaryDirectory() as tmp:
        path, reference = Path(tmp) / "c.csv", Path(tmp) / "ref.csv"
        write_coin_csv(faces, path)
        assert path.read_bytes() == reference_coin_bytes(faces, reference)
        assert read_coin_csv(path).tolist() == faces


ROW = "0,0.0,0.5,1,-1\r\n"


@pytest.mark.parametrize(
    "body",
    [
        ROW + "\r\n" + "1,0.0,0.5,1,1\r\n",  # blank line between rows
        ROW + "\r\n",  # blank line at the end
        "\n" + ROW,  # blank line first
        ROW + "   \r\n",
        "#" + ROW,
        "# a comment\r\n" + ROW,
        "0,0.0,0.5,1\r\n",
        "0,0.0,0.5,1,1,1\r\n",
        "0,0.0,0.5,1,1,\r\n",
        "x,0.0,0.5,1,1\r\n",
        "0.5,0.0,0.5,1,1\r\n",
        "0,abc,0.5,1,1\r\n",
        "0,0.0,,1,1\r\n",
        "0,0.0,0.5,255,1\r\n",
        "0,0.0,0.5,1.5,1\r\n",
        "0,0.0,0.5,1,2\r\n",
        "0,0.0,0.5,1,-2\r\n",
    ],
)
def test_malformed_stream_rows_are_format_errors(tmp_path, body):
    path = tmp_path / "s.csv"
    path.write_bytes((",".join(CSV_HEADER) + "\r\n" + body).encode())
    with pytest.raises(StreamFormatError):
        read_stream_csv(path)


def test_header_only_and_unterminated_last_row_are_valid(tmp_path):
    path = tmp_path / "s.csv"
    path.write_bytes(b"trial,x_rad,y_rad,a,b\r\n")
    assert len(read_stream_csv(path)) == 0
    path.write_bytes(b"trial,x_rad,y_rad,a,b\n0,0.0,0.5,1,-1\n1,-0.0,0.5,0,0")
    back = read_stream_csv(path)
    assert back.trial.tolist() == [0, 1] and back.b.tolist() == [-1, 0]


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: {**doc, "n_trials": doc["n_trials"] + 1},
        lambda doc: {**doc, "format": "trial-stream/2"},
        lambda doc: {**doc, "columns": ["trial", "x", "y", "a", "b"]},
        lambda doc: {key: value for key, value in doc.items() if key != "format"},
        lambda doc: [doc],
    ],
    ids=["n_trials", "format", "columns", "format-missing", "not-an-object"],
)
def test_sidecar_that_disagrees_with_the_file_is_a_format_error(tmp_path, edit):
    schedule = SettingsSchedule("cycle", (0.0,), (0.5,))
    path = tmp_path / "s.csv"
    write_stream_csv(
        run_experiment(MalusModel(), schedule, 10, 1),
        path,
        stream_metadata(MalusModel(), schedule, 10, 1, 65536),
    )
    assert len(read_stream_csv(path)) == 10
    sidecar = tmp_path / "s.csv.meta.json"
    sidecar.write_text(json.dumps(edit(json.loads(sidecar.read_text()))))
    with pytest.raises(StreamFormatError):
        read_stream_csv(path)
    sidecar.write_text("{not json")
    with pytest.raises(StreamFormatError):
        read_stream_csv(path)


@pytest.mark.parametrize(
    "body",
    ["0,B\r\n\r\n1,R\r\n", "#0,B\r\n", "0,B,R\r\n", "0\r\n", "0,BB\r\n", "0,\r\n", "0, B\r\n", "x,B\r\n"],
)
def test_malformed_coin_rows_are_format_errors(tmp_path, body):
    path = tmp_path / "c.csv"
    path.write_bytes(("trial,outcome\r\n" + body).encode())
    with pytest.raises(StreamFormatError):
        read_coin_csv(path)
