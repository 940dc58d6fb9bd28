"""Event-by-event click streams from contextual models.

The generation contract is a protocol that every model kind implements:
`source(u_src)` maps one source uniform per trial to the source pair
(lambda1, lambda2), and `outcomes(wing, src, settings, index, u)` gives one
wing's outcomes (wing 0 is Alice, 1 is Bob) from that wing's source values,
its own setting list, each trial's index into it and one instrument uniform
per trial.  Per chunk the settings are drawn first (from the schedule's own
seed), then one source, one Alice and one Bob uniform per trial whatever the
model or the outcomes.  No code that computes one wing's outcomes sees the
other wing's setting, source value or uniform, so replaying the
hidden-variable streams under a different counterpart setting never changes
a wing's outcome sequence.  Trials are generated in fixed-size chunks with
per-chunk derived substreams; the chunk size is part of the reproducibility
contract and is recorded in the stream metadata.  Within a chunk the outcomes
are computed `TILE` trials at a time, each substream drawing its uniforms one
tile after the other; consecutive draws from a generator concatenate to one
draw of their total length, so the tile size is not part of the contract.

Two continuous reference models are provided.  `SelectiveModel` is the
cosine-squared response with wing-local non-detection: the source draws a
polarization angle phi uniformly on [0, pi) and hands lambda1 = phi to Alice
and lambda2 = phi + pi/2 to Bob.  A wing at setting s survives with
probability sp = (|cos 2(lambda-s)| * |cos(lambda-s)|^asymmetry) ** sharpness,
and its instrument uniform is partitioned into +1 on [0, sp*c), -1 on
[sp*c, sp) and 0 (no click) on [sp, 1), where c = cos^2(lambda - s);
rejection is independent of the would-be outcome.  `wing_outcome` forms
cos(lambda - s) once per wing for both the survival's |cos|^asymmetry factor
and c, and gives the outcomes as int8 directly.  `MalusModel` is
`SelectiveModel` at sharpness 0: every trial clicks, and the raw correlation
is -cos(2(x-y))/2.
"""

from __future__ import annotations

import io
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import __version__
from .errors import ConfigError, StreamFormatError
from .models import (
    SETTINGS_RULE,
    WINGS,
    FiniteContextualModel,
    SettingPair,
    check_settings,
    valid_settings,
)
from .seeding import STREAM_ALICE, STREAM_BOB, STREAM_SETTINGS, STREAM_SOURCE, substream

DEFAULT_CHUNK_SIZE = 65536
TILE = 8192  # trials per kernel call: 64 KB float temporaries stay in cache and off mmap
READ_BLOCK_BYTES = 1 << 18  # a stream file is parsed this many bytes at a time
WRITE_BATCH_ROWS = 1 << 14  # and its text is built this many rows at a time
STREAM_FORMAT = "trial-stream/1"
CSV_HEADER = ("trial", "x_rad", "y_rad", "a", "b")
# one stream row, in memory and as parsed from a file: its CSV columns in order
STREAM_ROW = np.dtype([("trial", "i8"), ("x", "f8"), ("y", "f8"), ("a", "i1"), ("b", "i1")])


# ---------------------------------------------------------------------------
# Continuous reference models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectiveModel:
    """Cosine-squared response with wing-local non-detection.

    `sharpness` >= 0 steers how strongly surviving events concentrate near
    instrument alignment; 0 disables rejection entirely.  `asymmetry` >= 0
    mixes in an alignment factor with the full polarization period, which
    breaks the half-period symmetry that would otherwise force all
    post-selected single-wing expectations to zero.
    """

    sharpness: float
    asymmetry: float = 0.0

    def __post_init__(self):
        for name, value in (("sharpness", self.sharpness), ("asymmetry", self.asymmetry)):
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be a finite number >= 0")

    def survival(self, delta, cos=None, cos2=None):
        """Detection probability at `delta`, reusing a caller's np.cos(delta) or np.cos(2 * delta)."""
        delta = np.asarray(delta, dtype=float)
        if self.sharpness == 0.0:  # x ** 0.0 == 1.0 for every float, nan included
            return np.ones_like(delta)
        base = np.abs(np.cos(2.0 * delta) if cos2 is None else cos2)
        if self.asymmetry != 0.0:
            base = base * np.abs(np.cos(delta) if cos is None else cos) ** self.asymmetry
        return base ** self.sharpness  # not np.power, which skips the sqrt/square fast paths

    def source(self, u_src):
        return source_angles(u_src * math.pi)

    def outcomes(self, wing, src, settings, index, u):
        return wing_outcome(self, src, settings[index], u)

    def descriptor(self) -> dict:
        return {
            "kind": "selective",
            "sharpness": float(self.sharpness),
            "asymmetry": float(self.asymmetry),
        }


class MalusModel(SelectiveModel):
    """`SelectiveModel` at sharpness 0: the bare cosine-squared response, no rejection."""

    def __init__(self):
        super().__init__(0.0)

    def descriptor(self) -> dict:
        return {"kind": "malus"}


def wing_outcome(model, lam, setting, u) -> np.ndarray:
    """Outcome of one wing given hidden angle(s), setting(s) and uniform(s).

    The single instrument uniform encodes both the click/no-click decision and
    the sign: +1 on [0, sp*c), -1 on [sp*c, sp), 0 on [sp, 1).  The int8
    outcome is 2*[u < sp*c] - [u < sp], exact because the rounded sp*c <= sp
    (c <= 1, sp >= 0); a nan delta gives 0.
    """
    delta = np.asarray(lam, dtype=float) - np.asarray(setting, dtype=float)
    cos = np.cos(delta)
    sp = model.survival(delta, cos)
    u = np.asarray(u, dtype=float)
    return 2 * (u < sp * cos**2).view(np.int8) - (u < sp).view(np.int8)


def source_angles(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Source pairing for the continuous models: lambda2 is phi rotated 90 deg."""
    return phi, phi + math.pi / 2


# ---------------------------------------------------------------------------
# Trial streams and their counts
# ---------------------------------------------------------------------------


def _check_rows(rows) -> None:
    """Raise `StreamFormatError` unless `rows` are valid `STREAM_ROW` records:
    outcomes in {-1, 0, +1}, strictly increasing trial indices and finite
    settings.  Any other dtype is refused before a value is read, so no value
    is ever narrowed."""
    if getattr(rows, "dtype", None) != STREAM_ROW or rows.ndim != 1:
        raise StreamFormatError(f"a stream must be a 1-d array of STREAM_ROW records {STREAM_ROW}")
    if len(rows) and not all(rows[w].min() >= -1 and rows[w].max() <= 1 for w in "ab"):
        raise StreamFormatError("outcomes must be in {-1, 0, +1}")
    if not np.all(rows["trial"][1:] > rows["trial"][:-1]):  # np.diff would wrap around int64
        raise StreamFormatError("trial indices must be strictly increasing")
    if not (np.all(np.isfinite(rows["x"])) and np.all(np.isfinite(rows["y"]))):
        raise StreamFormatError("settings must be finite angles")


@dataclass(frozen=True)
class PairCounts:
    """Outcome counts per setting pair, the sufficient statistic of a stream.

    `pairs[k]` is a `SettingPair` that occurs, in order of first appearance,
    and `counts[k, a + 1, b + 1]` (int64) the number of its trials whose
    outcomes were (a, b).  A `SettingPair` normalizes its angles to
    [0, 2*pi), so two raw angles that name the same setting share one pair.
    """

    pairs: tuple[SettingPair, ...]
    counts: np.ndarray

    def __len__(self) -> int:
        return int(self.counts.sum())

    @classmethod
    def from_stream(cls, stream: np.ndarray) -> "PairCounts":
        """The counts of checked `STREAM_ROW` records, folded by `DEFAULT_CHUNK_SIZE` rows."""
        _check_rows(stream)
        size = DEFAULT_CHUNK_SIZE
        return cls.from_blocks(stream[k : k + size] for k in range(0, len(stream), size))

    @classmethod
    def from_blocks(cls, blocks) -> "PairCounts":
        """`from_stream` of the concatenated `STREAM_ROW` blocks, folded one block at a time."""
        return _fold(_indexed(blocks))


def _indexed(blocks):
    """Yield `(xs, ys, xi, yi, a, b)` per `STREAM_ROW` block, indexing the
    settings into sorted tables of the raw values seen so far."""
    xs = ys = np.empty(0)
    for rows in blocks:
        (xs, xi), (ys, yi) = _lookup(xs, rows["x"]), _lookup(ys, rows["y"])
        yield xs, ys, xi, yi, rows["a"], rows["b"]


def _lookup(table, column):
    """The sorted `table` and each value's index into it: a `searchsorted` and an
    equality check, with `np.union1d` only when the column holds a new value."""
    i = np.searchsorted(table, column)
    if not (i.max(initial=0) < len(table) and np.array_equal(table[i], column)):
        table = np.union1d(table, column)
        i = np.searchsorted(table, column)
    return table, i


def _fold(blocks) -> PairCounts:
    """Histogram `(xs, ys, xi, yi, a, b)` blocks into `PairCounts`.

    `xs` and `ys` are raw setting tables and `xi`, `yi` each trial's index
    into them.  One unique-with-counts per block over the cell code
    (pair*3 + a+1)*3 + b+1 of each trial, pair = xi*ny + yi, gives the
    occurring pairs as code // 9, so memory stays linear in the stream however
    many settings the tables hold.  The cells are keyed by `SettingPair` in
    order of first appearance; only a block holding a pair not seen before is
    ordered by first appearance.
    """
    cells: dict[SettingPair, np.ndarray] = {}
    for xs, ys, xi, yi, a, b in blocks:
        ny = len(ys)
        pair = xi * ny + yi
        codes, n = np.unique(_cell_codes(pair, a, b), return_counts=True)
        occurring, k = np.unique(codes // 9, return_inverse=True)
        block = np.zeros((len(occurring), 9), np.int64)
        block[k, codes % 9] = n
        keys = [SettingPair(xs[p // ny], ys[p % ny]) for p in occurring.tolist()]
        if any(key not in cells for key in keys):
            first = np.unique(pair, return_index=True)[1]
            for k in np.argsort(first).tolist():
                cells.setdefault(keys[k], np.zeros(9, np.int64))
        for key, cell in zip(keys, block):
            cells[key] += cell
    return PairCounts(tuple(cells), np.array([*cells.values()], dtype=np.int64).reshape(-1, 3, 3))


def _cell_codes(pair, a, b) -> np.ndarray:
    """Cell code (pair*3 + a+1)*3 + b+1 of each trial, pair = xi*ny + yi."""
    return (pair * 3 + a + 1) * 3 + b + 1


def _cell_tail(x_settings, y_settings):
    """Cell code -> the row text after the trial index: settings by repr, outcomes, CRLF."""
    ny = len(y_settings)

    def tail(c):
        x, y = x_settings[c // 9 // ny], y_settings[c // 9 % ny]
        return f",{x!r},{y!r},{c // 3 % 3 - 1},{c % 3 - 1}\r\n"

    return tail


# ---------------------------------------------------------------------------
# Settings schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SettingsSchedule:
    """How the (x, y) pair is chosen for each trial.

    `random` draws both indices uniformly from its own seed; `cycle` walks the
    x-major Cartesian product of the two setting lists.  The settings draw
    never touches the hidden-variable streams.
    """

    mode: str
    x_settings: tuple[float, ...]
    y_settings: tuple[float, ...]
    seed: int | None = None

    def __post_init__(self):
        if self.mode not in ("random", "cycle"):
            raise ConfigError(f"schedule mode must be 'random' or 'cycle', got {self.mode!r}")
        object.__setattr__(self, "x_settings", tuple(float(v) for v in self.x_settings))
        object.__setattr__(self, "y_settings", tuple(float(v) for v in self.y_settings))
        for wing, values in (("x", self.x_settings), ("y", self.y_settings)):
            if not valid_settings(values):
                raise ConfigError(f"{wing} settings {values} must be {SETTINGS_RULE}")
        if self.mode == "random" and self.seed is None:
            raise ConfigError("random schedule requires an explicit seed")

    def indices(self, start: int, count: int, chunk_index: int) -> tuple[np.ndarray, np.ndarray]:
        nx, ny = len(self.x_settings), len(self.y_settings)
        if self.mode == "random":
            rng = substream(self.seed, chunk_index, STREAM_SETTINGS)
            return rng.integers(0, nx, size=count), rng.integers(0, ny, size=count)
        period = np.repeat(np.arange(nx), ny), np.tile(np.arange(ny), nx)  # x-major (xi, yi)
        offset = start % (nx * ny)
        reps = (offset + count - 1) // (nx * ny) + 1
        return tuple(np.tile(column, reps)[offset : offset + count] for column in period)

    def descriptor(self) -> dict:
        return {
            "mode": self.mode,
            "x_settings": list(self.x_settings),
            "y_settings": list(self.y_settings),
            "seed": self.seed,
        }


# ---------------------------------------------------------------------------
# Trial generation
# ---------------------------------------------------------------------------


def _chunks(model, schedule: SettingsSchedule, n_trials: int, master_seed, chunk_size: int):
    """Check the run's sizes, then return a generator of one `_fold` block
    `(xs, ys, xi, yi, a, b)` per chunk: the schedule's setting tables, each
    trial's indices into them and the outcomes.  Checking on the call, not on
    the first `next()`, lets a caller refuse a run before it opens its output."""
    if n_trials < 1:
        raise ConfigError("n_trials must be >= 1")
    if chunk_size < 1:
        raise ConfigError("chunk_size must be >= 1")
    return (
        _chunk(model, schedule, master_seed, k, start, min(chunk_size, n_trials - start))
        for k, start in enumerate(range(0, n_trials, chunk_size))
    )


def _chunk(model, schedule: SettingsSchedule, master_seed, chunk_index, start, count):
    """One chunk's block, its outcomes computed `TILE` trials at a time into int8
    columns, each substream drawing one tile's uniforms after the other."""
    xs = np.asarray(schedule.x_settings)
    ys = np.asarray(schedule.y_settings)
    xi, yi = schedule.indices(start, count, chunk_index)
    rngs = [
        substream(master_seed, chunk_index, stream_id)
        for stream_id in (STREAM_SOURCE, STREAM_ALICE, STREAM_BOB)
    ]
    a, b = np.empty(count, np.int8), np.empty(count, np.int8)
    for tile in range(0, count, TILE):
        rows = slice(tile, min(tile + TILE, count))
        u_src, u_a, u_b = (rng.random(rows.stop - tile) for rng in rngs)
        lam1, lam2 = model.source(u_src)
        a[rows] = model.outcomes(0, lam1, xs, xi[rows], u_a)
        b[rows] = model.outcomes(1, lam2, ys, yi[rows], u_b)
    return xs, ys, xi, yi, a, b


def run_experiment(
    model,
    schedule: SettingsSchedule,
    n_trials: int,
    master_seed,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> np.recarray:
    """Generate `n_trials` `STREAM_ROW` records, trials 0 to n_trials - 1, as a
    `np.recarray` (`.trial`, `.x`, `.y`, `.a`, `.b`); bit-identical for
    identical arguments."""
    chunks = _chunks(model, schedule, n_trials, master_seed, chunk_size)
    stream = np.empty(n_trials, STREAM_ROW).view(np.recarray)
    for k, (xs, ys, xi, yi, a, b) in enumerate(chunks):
        start = k * chunk_size
        rows = stream[start : start + len(a)]
        rows.trial = np.arange(start, start + len(a))
        np.take(xs, xi, out=rows.x)
        np.take(ys, yi, out=rows.y)
        rows.a, rows.b = a, b
    return stream


def run_counts(
    model,
    schedule: SettingsSchedule,
    n_trials: int,
    master_seed,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> PairCounts:
    """`PairCounts.from_stream(run_experiment(...))` in every field, folded chunk
    by chunk from the schedule's own setting indices, so no pass maps values to
    indices.  Memory stays at one chunk however many trials run.
    """
    return _fold(_chunks(model, schedule, n_trials, master_seed, chunk_size))


# ---------------------------------------------------------------------------
# Discretization
# ---------------------------------------------------------------------------


def discretize(
    model,
    settings_x: Sequence[float],
    settings_y: Sequence[float],
    n_source: int = 360,
    n_alice: int = 1000,
    n_bob: int = 1000,
    max_cells: int = 10**8,
) -> FiniteContextualModel:
    """Midpoint discretization of a continuous model onto finite tables.

    The source angle grid has `n_source` uniform cells over [0, pi) with the
    paired lambda2 values rotated by pi/2; each wing's instrument uniform is
    absorbed into a midpoint grid over [0, 1).  `max_cells` caps the total
    number of stored table cells (source plus all outcome tables).
    """
    for wing, settings in zip(WINGS, (settings_x, settings_y)):
        check_settings(wing, settings)
    if min(n_source, n_alice, n_bob) < 2:
        raise ConfigError("discretization needs at least 2 cells per variable")
    stored = (
        n_source * n_source
        + len(tuple(settings_x)) * n_source * n_alice
        + len(tuple(settings_y)) * n_source * n_bob
    )
    if stored > max_cells:
        raise ConfigError(
            f"discretization would store {stored} cells, above the cap {max_cells}"
        )
    phi = (np.arange(n_source) + 0.5) * (math.pi / n_source)
    lam1, lam2 = source_angles(phi)
    source = np.zeros((n_source, n_source))
    np.fill_diagonal(source, 1.0 / n_source)

    def tables(lam, settings, n_inst):
        u = (np.arange(n_inst) + 0.5) / n_inst
        dist = np.full(n_inst, 1.0 / n_inst)
        out = {}
        for s in settings:
            outcome = wing_outcome(model, lam[:, None], float(s), u[None, :])
            out[float(s)] = (tuple(u), dist, outcome)
        return out

    return FiniteContextualModel(
        tuple(lam1),
        tuple(lam2),
        source,
        tables(lam1, settings_x, n_alice),
        tables(lam2, settings_y, n_bob),
    )


# ---------------------------------------------------------------------------
# Stream persistence
# ---------------------------------------------------------------------------


def stream_metadata(model, schedule, n_trials, master_seed, chunk_size) -> dict:
    seed = list(master_seed) if isinstance(master_seed, (tuple, list)) else master_seed
    return {
        "format": STREAM_FORMAT,
        "columns": list(CSV_HEADER),
        "model": model.descriptor(),
        "schedule": schedule.descriptor(),
        "master_seed": seed,
        "chunk_size": int(chunk_size),
        "n_trials": int(n_trials),
        "tool_version": __version__,
    }


def meta_path(path) -> Path:
    p = Path(path)
    return p.with_suffix(p.suffix + ".meta.json")


def write_rows(path, header, blocks, tail, metadata: dict | None = None) -> None:
    """Write `header` and, per `(keys, codes)` block, each row's key then `tail(code)`.

    Blocks are written in batches of `WRITE_BATCH_ROWS` rows; each distinct code's
    tail (the other fields and CRLF, unquoted as `csv.writer` writes them) is
    formatted once.  `metadata` goes to the JSON sidecar.
    """
    text: dict = {}
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for keys, codes in blocks:
            for start in range(0, len(keys), WRITE_BATCH_ROWS):
                rows = slice(start, start + WRITE_BATCH_ROWS)
                batch = codes[rows].tolist()
                text.update((code, tail(code)) for code in set(batch).difference(text))
                lines = zip(keys[rows].tolist(), batch)
                fh.write("".join([str(key) + text[code] for key, code in lines]))
    if metadata is not None:
        meta_path(path).write_text(json.dumps(metadata, indent=1, sort_keys=True))


def read_rows(path, header, dtype) -> Iterator[np.ndarray]:
    """Yield the rows after `header` in blocks of whole lines, each parsed by `np.loadtxt`.

    About `READ_BLOCK_BYTES` are read at a time and cut after the last newline.
    A wrong header, a malformed row and a blank line (which `loadtxt` would
    skip, so each block's lines are counted) are each a `StreamFormatError`.
    """
    with open(path, "rb") as fh:
        found = fh.readline().rstrip(b"\r\n")
        if found != ",".join(header).encode():
            raise StreamFormatError(f"{path}: expected header {','.join(header)}, got {found!r}")
        rest = b""
        for data in iter(lambda: fh.read(READ_BLOCK_BYTES), b""):
            data = rest + data
            cut = data.rfind(b"\n") + 1
            block, rest = data[:cut], data[cut:]
            if block:
                yield _parse_block(path, block, dtype)
        if rest:  # an unterminated last row
            yield _parse_block(path, rest, dtype)


def _parse_block(path, block: bytes, dtype) -> np.ndarray:
    lines = block.count(b"\n") + (not block.endswith(b"\n"))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # blank lines only: no rows
            rows = np.loadtxt(io.BytesIO(block), dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except ValueError as exc:
        raise StreamFormatError(f"{path}: malformed row: {exc}") from None
    if len(rows) != lines:
        raise StreamFormatError(f"{path}: {lines - len(rows)} of {lines} lines are blank")
    return rows


def write_run_csv(
    path,
    model,
    schedule: SettingsSchedule,
    n_trials: int,
    master_seed,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> None:
    """Write `write_stream_csv(run_experiment(...), path, stream_metadata(...))`'s bytes.

    Each generated chunk is written as it comes, its rows coded from the
    schedule's setting indices, so memory stays at one chunk however many
    trials run.
    """
    ny = len(schedule.y_settings)
    chunks = _chunks(model, schedule, n_trials, master_seed, chunk_size)
    blocks = (
        (np.arange(k * chunk_size, k * chunk_size + len(a)), _cell_codes(xi * ny + yi, a, b))
        for k, (_, _, xi, yi, a, b) in enumerate(chunks)
    )
    tail = _cell_tail(schedule.x_settings, schedule.y_settings)
    metadata = stream_metadata(model, schedule, n_trials, master_seed, chunk_size)
    write_rows(path, CSV_HEADER, blocks, tail, metadata)


def write_stream_csv(stream: np.ndarray, path, metadata: dict | None = None) -> None:
    """Write checked `STREAM_ROW` records as `trial,x_rad,y_rad,a,b` rows and a sidecar.

    Floats are written with repr (shortest round-trip form), so rewriting the
    same stream is byte-identical and reading back is lossless.  Settings are
    keyed on their bits, so -0.0 keeps its own repr.
    """
    _check_rows(stream)
    (xs, xi), (ys, yi) = (np.unique(stream[c].view(np.int64), return_inverse=True) for c in "xy")
    codes = _cell_codes(xi * len(ys) + yi, stream["a"], stream["b"])
    tail = _cell_tail(xs.view(float).tolist(), ys.view(float).tolist())
    write_rows(path, CSV_HEADER, [(stream["trial"], codes)], tail, metadata)


def check_sidecar(path, expected: dict) -> None:
    """Raise `StreamFormatError` unless `path`'s sidecar, if any, holds `expected`'s items."""
    meta = meta_path(path)
    if meta.exists():
        try:
            doc = json.loads(meta.read_text())
        except ValueError as exc:
            raise StreamFormatError(f"{meta}: {exc}") from None
        found = {key: doc.get(key) for key in expected} if isinstance(doc, dict) else doc
        if found != expected:
            raise StreamFormatError(f"{meta}: sidecar has {found}, the file {expected}")


def read_stream_blocks(path) -> Iterator[np.ndarray]:
    """Yield a stream file's rows as checked `STREAM_ROW` blocks.

    Trial indices increase across blocks too, and once the last block is read
    a sidecar, when present, must agree with the file.
    """
    n, last = 0, None
    for rows in read_rows(path, CSV_HEADER, STREAM_ROW):
        _check_rows(rows)
        if last is not None and rows["trial"][0] <= last:
            raise StreamFormatError("trial indices must be strictly increasing")
        n, last = n + len(rows), rows["trial"][-1]
        yield rows
    check_sidecar(path, {"format": STREAM_FORMAT, "columns": list(CSV_HEADER), "n_trials": n})


def read_stream_csv(path) -> np.recarray:
    """Read a whole stream file as `run_experiment`'s `STREAM_ROW` records; a
    sidecar, when present, must agree with it."""
    return np.concatenate([np.empty(0, STREAM_ROW), *read_stream_blocks(path)]).view(np.recarray)
