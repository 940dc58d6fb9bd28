"""Stream and coin CSV files: bytes, lossless round trips and checks on read."""

import csv
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from contextlab import simulate
from contextlab.coins import COIN_CSV_HEADER, read_coin_csv, write_coin_csv
from contextlab.errors import StreamFormatError
from contextlab.models import normalize_angle, random_model
from contextlab.simulate import (
    CSV_HEADER,
    MalusModel,
    PairCounts,
    SelectiveModel,
    SettingsSchedule,
    meta_path,
    read_stream_blocks,
    read_stream_csv,
    run_experiment,
    stream_metadata,
    write_run_csv,
    write_stream_csv,
)
from stream_records import records

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
        return records([], [], [], [])
    steps, x, y, a, b = zip(*rows)
    return records(x, y, a, b, trial=start + np.cumsum(steps))


@PROPERTY
@given(streams())
# both zeros in one column: a writer keyed on values rather than bits merges them
@example(records([0.0, -0.0, 0.0], [-0.0, 5e-324, 0.0], [1, 0, -1], [-1, 0, 1]))
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


# --- streamed reads: checks that span block boundaries ------------------------------

HEADER = ",".join(CSV_HEADER) + "\r\n"


def stream_rows(*rows) -> str:
    return "".join(f"{t},0.0,0.5,{a},{b}\r\n" for t, a, b in rows)


def read_in_blocks(path, monkeypatch, block_bytes) -> list:
    monkeypatch.setattr(simulate, "READ_BLOCK_BYTES", block_bytes)
    return [len(block) for block in read_stream_blocks(path)]


def test_a_blank_line_that_starts_a_block_is_a_format_error(tmp_path, monkeypatch):
    path = tmp_path / "s.csv"
    head, tail = stream_rows((0, 1, 1), (1, 1, 1)), stream_rows((2, 1, 1), (3, 1, 1))
    path.write_text(HEADER + head + tail, newline="")
    assert read_in_blocks(path, monkeypatch, len(head)) == [2, 2]  # an edge before row 2
    path.write_text(HEADER + head + "\r\n" + tail, newline="")
    with pytest.raises(StreamFormatError, match="blank"):
        read_in_blocks(path, monkeypatch, len(head))


@pytest.mark.parametrize("block_bytes", [1, 5, 16, 20, 1 << 18])
def test_an_unterminated_last_row_is_read_at_any_block_size(tmp_path, monkeypatch, block_bytes):
    path = tmp_path / "s.csv"
    path.write_text(HEADER + stream_rows((0, 1, -1), (1, 0, 0), (2, -1, 1))[:-2], newline="")
    assert sum(read_in_blocks(path, monkeypatch, block_bytes)) == 3
    back = read_stream_csv(path)
    assert back.trial.tolist() == [0, 1, 2] and back.b.tolist() == [-1, 0, 1]


def test_a_trial_index_that_decreases_across_a_block_edge_is_a_format_error(tmp_path, monkeypatch):
    path = tmp_path / "s.csv"
    head = stream_rows((0, 1, 1), (5, 1, 1))
    for tail in (stream_rows((5, 1, 1), (6, 1, 1)), stream_rows((4, 1, 1), (6, 1, 1))):
        path.write_text(HEADER + head + tail, newline="")
        with pytest.raises(StreamFormatError, match="strictly increasing"):
            read_in_blocks(path, monkeypatch, len(head))  # each block of two rows increases


def test_an_outcome_out_of_range_in_a_later_block_is_a_format_error(tmp_path, monkeypatch):
    path = tmp_path / "s.csv"
    head = stream_rows((0, 1, 1), (1, 1, 1))
    path.write_text(HEADER + head + stream_rows((2, 0, 0), (3, 2, 0)), newline="")
    with pytest.raises(StreamFormatError, match="outcomes"):
        read_in_blocks(path, monkeypatch, len(head))


def test_the_sidecar_row_count_is_the_total_over_blocks(tmp_path, monkeypatch):
    schedule = SettingsSchedule("cycle", (0.0,), (0.5,))
    path = tmp_path / "s.csv"
    write_run_csv(path, MalusModel(), schedule, 10, 1)
    blocks = read_in_blocks(path, monkeypatch, 64)
    assert len(blocks) > 1 and sum(blocks) == 10
    sidecar = meta_path(path)
    doc = json.loads(sidecar.read_text())
    sidecar.write_text(json.dumps({**doc, "n_trials": blocks[0]}))
    with pytest.raises(StreamFormatError, match="sidecar"):
        read_in_blocks(path, monkeypatch, 64)


def test_coin_files_read_in_blocks_keep_every_face_and_the_sidecar_count(tmp_path, monkeypatch):
    faces = ["B", "R", "R"] * 20
    path = tmp_path / "c.csv"
    write_coin_csv(faces, path, {})
    monkeypatch.setattr(simulate, "READ_BLOCK_BYTES", 16)
    assert read_coin_csv(path).tolist() == faces
    data = path.read_bytes()
    path.write_bytes(data[: data.rstrip().rfind(b"\n") + 1])  # the last row cut off
    with pytest.raises(StreamFormatError, match="sidecar"):
        read_coin_csv(path)


# --- the streamed fold and the direct writer ------------------------------------------


def assert_same_counts(got: PairCounts, want: PairCounts):
    assert got.x_settings == want.x_settings and got.y_settings == want.y_settings
    assert got.pairs == want.pairs
    assert got.counts.dtype == want.counts.dtype and np.array_equal(got.counts, want.counts)


@PROPERTY
@given(streams(), st.integers(1, 200))
@example(records([0.0, -0.0, 2 * math.pi], [-0.0, 5e-324, 0.0], [1, 0, -1], [-1, 0, 1]), 17)
def test_streamed_fold_of_a_written_file_equals_folding_the_stream(stream, block_bytes):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate, "READ_BLOCK_BYTES", block_bytes)
        path = Path(tmp) / "s.csv"
        write_stream_csv(stream, path)
        folded = PairCounts.from_blocks(read_stream_blocks(path))
    assert_same_counts(folded, PairCounts.from_stream(stream))


def test_settings_first_seen_in_a_later_block_fold_like_the_whole_stream(tmp_path, monkeypatch):
    # the second block brings a new setting (1.0), a raw alias of one already
    # seen (2*pi for 0.0) and a -0.0, each extending the carried settings table
    head = [(0, 0.0, 0.5, 1, -1), (1, 0.25, 0.5, 0, 1), (2, 0.0, 0.5, 1, 1)]
    tail = [(3, 2 * math.pi, 0.5, -1, -1), (4, 1.0, -0.0, 1, 0), (5, -0.0, 0.5, 0, 0),
            (6, 1.0, 0.5, -1, 1), (7, 0.25, -0.0, 1, 1)]
    text = [
        "".join(f"{t},{x!r},{y!r},{a},{b}\r\n" for t, x, y, a, b in rows) for rows in (head, tail)
    ]
    path = tmp_path / "s.csv"
    path.write_text(HEADER + "".join(text), newline="")
    monkeypatch.setattr(simulate, "READ_BLOCK_BYTES", len(text[0]))
    blocks = list(read_stream_blocks(path))
    assert blocks[0]["trial"].tolist() == [0, 1, 2] and sum(map(len, blocks)) == 8
    assert all(block.dtype == simulate.STREAM_ROW for block in blocks)
    folded = PairCounts.from_blocks(blocks)
    assert_same_counts(folded, PairCounts.from_stream(read_stream_csv(path)))
    brute: dict = {}
    for _, x, y, a, b in head + tail:
        cell = brute.setdefault((normalize_angle(x), normalize_angle(y)), np.zeros((3, 3), int))
        cell[a + 1, b + 1] += 1
    assert folded.x_settings == (0.0, 0.25, 1.0) and folded.y_settings == (0.0, 0.5)
    found = [((folded.x_settings[i], folded.y_settings[j]), cell.tolist())
             for (i, j), cell in zip(folded.pairs, folded.counts)]
    assert found == [(key, cell.tolist()) for key, cell in brute.items()]


# schedule settings with signed zeros, subnormals, 2*pi aliases and large angles
SETTING_LISTS = st.lists(
    st.one_of(
        st.sampled_from((0.0, -0.0, 5e-324, 2 * math.pi, -math.pi / 4)),
        st.floats(-1e6, 1e6),  # a huge angle overflows the cosines to nan
    ),
    min_size=1,
    max_size=3,
    unique_by=normalize_angle,
)


def finite_case(seed):
    model = random_model(np.random.default_rng(seed))
    return model, model.alice_settings, model.bob_settings


@settings(PROPERTY, max_examples=80)
@given(
    case=st.one_of(
        st.tuples(st.just(MalusModel()), SETTING_LISTS, SETTING_LISTS),
        st.tuples(
            st.builds(SelectiveModel, st.sampled_from((0.5, 3.0)), st.sampled_from((0.0, 0.25))),
            SETTING_LISTS,
            SETTING_LISTS,
        ),
        st.builds(finite_case, st.integers(0, 2**16)),
    ),
    mode=st.sampled_from(("random", "cycle")),
    n_trials=st.integers(1, 300),
    chunk_size=st.integers(1, 120),
    batch_rows=st.integers(1, 50),
    seed=st.integers(0, 2**16),
)
@example(case=(MalusModel(), (0.0, -0.0 + math.pi), (2 * math.pi,)), mode="cycle",
         n_trials=100, chunk_size=7, batch_rows=3, seed=1)
def test_direct_writer_bytes_equal_writing_the_generated_stream(
    case, mode, n_trials, chunk_size, batch_rows, seed
):
    model, xs, ys = case
    schedule = SettingsSchedule(mode, xs, ys, seed=seed + 1)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate, "WRITE_BATCH_ROWS", batch_rows)
        direct, written, reference = (Path(tmp) / name for name in ("d.csv", "w.csv", "r.csv"))
        write_run_csv(direct, model, schedule, n_trials, seed, chunk_size)
        stream = run_experiment(model, schedule, n_trials, seed, chunk_size)
        meta = stream_metadata(model, schedule, n_trials, seed, chunk_size)
        write_stream_csv(stream, written, meta)
        assert direct.read_bytes() == written.read_bytes()
        assert direct.read_bytes() == reference_stream_bytes(stream, reference)
        assert meta_path(direct).read_bytes() == meta_path(written).read_bytes()


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_write_and_fold_keep_memory_flat_in_the_trial_count(tmp_path, monkeypatch):
    # blocks of about a thousand rows: each block leaves some 100 bytes in
    # CPython's object free lists, which tracemalloc counts and a full gc frees
    monkeypatch.setattr(simulate, "READ_BLOCK_BYTES", 1 << 15)
    model = SelectiveModel(3.0, 0.25)
    schedule = SettingsSchedule("random", (0.0, math.pi / 4), (math.pi / 8, 3 * math.pi / 8), seed=2)

    def peaks(n):
        path = tmp_path / f"{n}.csv"
        write = traced_peak(lambda: write_run_csv(path, model, schedule, n, 1, 2048))
        fold = traced_peak(lambda: PairCounts.from_blocks(read_stream_blocks(path)))
        return write, fold

    peaks(2048)  # first-call allocations are not the pipeline's
    small, large = peaks(8_000), peaks(32_000)
    # holding every trial would add at least 12 bytes per extra row to either peak
    for name, before, after in zip(("write", "fold"), small, large):
        assert after <= 1.10 * before, (name, before, after)
