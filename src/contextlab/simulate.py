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
contract and is recorded in the stream metadata.

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

import functools
import hashlib
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .errors import ConfigError, StreamFormatError
from .models import (
    SETTINGS_RULE,
    WINGS,
    FiniteContextualModel,
    check_settings,
    normalize_angle,
    valid_settings,
)
from .seeding import STREAM_ALICE, STREAM_BOB, STREAM_SETTINGS, STREAM_SOURCE, substream

DEFAULT_CHUNK_SIZE = 65536
STREAM_FORMAT = "trial-stream/1"
CSV_HEADER = ("trial", "x_rad", "y_rad", "a", "b")
STREAM_ROW = np.dtype(list(zip(CSV_HEADER, ("i8", "f8", "f8", "i1", "i1"))))


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
# Trial streams and their count tensor
# ---------------------------------------------------------------------------


class TrialStream:
    """Column-oriented trial storage."""

    def __init__(self, trial, x, y, a, b):
        trial, a, b = np.asarray(trial), np.asarray(a), np.asarray(b)
        # checked before narrowing, which would wrap or refuse 255 and truncate 1.5
        if not (np.isin(a, (-1, 0, 1)).all() and np.isin(b, (-1, 0, 1)).all()):
            raise StreamFormatError("outcomes must be in {-1, 0, +1}")
        if not _fits_int64(trial):
            raise StreamFormatError("trial indices must be integers in the int64 range")
        self.trial = np.ascontiguousarray(trial, dtype=np.int64)
        self.x = np.ascontiguousarray(x, dtype=float)
        self.y = np.ascontiguousarray(y, dtype=float)
        self.a = np.ascontiguousarray(a, dtype=np.int8)
        self.b = np.ascontiguousarray(b, dtype=np.int8)
        n = len(self.trial)
        if not (len(self.x) == len(self.y) == len(self.a) == len(self.b) == n):
            raise StreamFormatError("stream columns have unequal lengths")
        if n and np.any(np.diff(self.trial) <= 0):
            raise StreamFormatError("trial indices must be strictly increasing")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))):
            raise StreamFormatError("settings must be finite angles")

    def __len__(self) -> int:
        return len(self.trial)


def _fits_int64(values: np.ndarray) -> bool:
    """Whether narrowing to int64 keeps every value: no truncation, no wrap."""
    if values.dtype.kind == "f":
        return bool(np.all((np.trunc(values) == values) & (abs(values) < 2.0**63)))
    # object arrays, numpy's form for Python ints beyond 64 bits, are refused
    return values.dtype.kind in "bi" or (values.dtype.kind == "u" and values.max(initial=0) < 2**63)


@dataclass(frozen=True)
class PairCounts:
    """Outcome counts per setting pair, the sufficient statistic of a stream.

    `counts[i, j, a + 1, b + 1]` (int64) is the number of trials at settings
    (x_settings[i], y_settings[j]) whose outcomes were (a, b).  The settings
    are distinct angles normalized to [0, 2*pi), so two raw angles that name
    the same setting share one row; `pairs` lists the (i, j) that occur, in
    order of first appearance.
    """

    x_settings: tuple[float, ...]
    y_settings: tuple[float, ...]
    counts: np.ndarray
    pairs: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return int(self.counts.sum())

    @classmethod
    def from_stream(cls, stream: TrialStream) -> "PairCounts":
        xs, xi = _setting_index(stream.x)
        ys, yi = _setting_index(stream.y)
        return _fold(xs, ys, [(xi, yi, stream.a, stream.b)])


def _setting_index(column: np.ndarray) -> tuple[tuple[float, ...], np.ndarray]:
    """Distinct normalized settings of a column and each trial's index into them."""
    raw, inverse = np.unique(column, return_inverse=True)
    table, merged = np.unique([normalize_angle(v) for v in raw.tolist()], return_inverse=True)
    return tuple(table.tolist()), merged[inverse]


def _fold(x_settings, y_settings, chunks) -> PairCounts:
    """Histogram `(xi, yi, a, b)` chunks into the [nx, ny, 3, 3] tensor.

    One bincount per chunk over the cell code ((xi*ny + yi)*3 + a+1)*3 + b+1;
    only a chunk holding a pair not seen before is sorted for first appearances.
    """
    nx, ny = len(x_settings), len(y_settings)
    flat = np.zeros(nx * ny * 9, dtype=np.int64)
    order: list[int] = []
    for xi, yi, a, b in chunks:
        pair = xi * ny + yi
        chunk = np.bincount((pair * 3 + a + 1) * 3 + b + 1, minlength=flat.size)
        flat += chunk
        new = chunk.reshape(-1, 9).any(axis=1)
        new[order] = False
        if new.any():
            codes, first = np.unique(pair, return_index=True)
            fresh = new[codes]
            order += codes[fresh][np.argsort(first[fresh])].tolist()
    pairs = tuple(divmod(p, ny) for p in order)
    return PairCounts(tuple(x_settings), tuple(y_settings), flat.reshape(nx, ny, 3, 3), pairs)


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
        pair = (np.arange(start, start + count)) % (nx * ny)
        return pair // ny, pair % ny

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
    """Yield `(xi, yi, a, b)` per chunk: schedule setting indices and outcomes."""
    if n_trials < 1:
        raise ConfigError("n_trials must be >= 1")
    if chunk_size < 1:
        raise ConfigError("chunk_size must be >= 1")
    xs = np.asarray(schedule.x_settings)
    ys = np.asarray(schedule.y_settings)
    for chunk_index, start in enumerate(range(0, n_trials, chunk_size)):
        count = min(chunk_size, n_trials - start)
        xi, yi = schedule.indices(start, count, chunk_index)
        u_src, u_a, u_b = (
            substream(master_seed, chunk_index, stream_id).random(count)
            for stream_id in (STREAM_SOURCE, STREAM_ALICE, STREAM_BOB)
        )
        lam1, lam2 = model.source(u_src)
        a = model.outcomes(0, lam1, xs, xi, u_a)
        b = model.outcomes(1, lam2, ys, yi, u_b)
        del u_src, u_a, u_b, lam1, lam2  # a generator's locals outlive its yield
        yield xi, yi, a, b


def run_experiment(
    model,
    schedule: SettingsSchedule,
    n_trials: int,
    master_seed,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> TrialStream:
    """Generate `n_trials` records; bit-identical for identical arguments."""
    xs = np.asarray(schedule.x_settings)
    ys = np.asarray(schedule.y_settings)
    parts = [
        (xs[xi], ys[yi], a, b)
        for xi, yi, a, b in _chunks(model, schedule, n_trials, master_seed, chunk_size)
    ]
    x, y, a, b = (np.concatenate(column) for column in zip(*parts))
    return TrialStream(np.arange(n_trials), x, y, a, b)


def run_counts(
    model,
    schedule: SettingsSchedule,
    n_trials: int,
    master_seed,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> PairCounts:
    """`PairCounts.from_stream(run_experiment(...))`, folded chunk by chunk.

    Pairs, counts and pair order are the same; the settings tables are the
    schedule's, normalized.  Memory stays at one chunk however many trials run.
    """
    return _fold(
        tuple(normalize_angle(v) for v in schedule.x_settings),
        tuple(normalize_angle(v) for v in schedule.y_settings),
        _chunks(model, schedule, n_trials, master_seed, chunk_size),
    )


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


def write_rows(path, header, keys, cells, tail, metadata: dict | None = None) -> None:
    """Write `header` and, per row, its key then `tail(code)` for its cell code.

    `cells(rows)` codes the rows of the slice `rows`, one chunk at a time; each
    distinct code's tail (the other fields and CRLF, unquoted as `csv.writer`
    writes them) is formatted once.  `metadata` goes to the JSON sidecar.
    """
    tail = functools.cache(tail)
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(keys), DEFAULT_CHUNK_SIZE):
            rows = slice(start, start + DEFAULT_CHUNK_SIZE)
            codes, inverse = np.unique(cells(rows), return_inverse=True)
            text = [tail(code) for code in codes.tolist()]
            chunk = zip(keys[rows].tolist(), inverse.tolist())
            fh.write("".join([f"{key}{text[i]}" for key, i in chunk]))
    if metadata is not None:
        meta_path(path).write_text(json.dumps(metadata, indent=1, sort_keys=True))


def read_rows(path, header, dtype) -> np.ndarray:
    """The rows after `header`, parsed by one `np.loadtxt` call into `dtype`.

    A wrong header, a malformed row and a blank line (which `loadtxt` would skip,
    so lines are counted) are each a `StreamFormatError`.
    """
    with open(path, "rb") as fh:
        found = fh.readline().rstrip(b"\r\n")
        if found != ",".join(header).encode():
            raise StreamFormatError(f"{path}: expected header {','.join(header)}, got {found!r}")
        body, lines, end = fh.tell(), 0, b"\n"
        for block in iter(lambda: fh.read(1 << 20), b""):
            lines, end = lines + block.count(b"\n"), block[-1:]
        lines += end != b"\n"
        fh.seek(body)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no rows is an empty table
                rows = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, ndmin=1)
        except ValueError as exc:
            raise StreamFormatError(f"{path}: malformed row: {exc}") from None
    if len(rows) != lines:
        raise StreamFormatError(f"{path}: {lines - len(rows)} of {lines} lines are blank")
    return rows


def write_stream_csv(stream: TrialStream, path, metadata: dict | None = None) -> None:
    """Write `trial,x_rad,y_rad,a,b` rows plus a metadata sidecar.

    Floats are written with repr (shortest round-trip form), so rewriting the
    same stream is byte-identical and reading back is lossless.  Settings are
    keyed on their bits, so -0.0 keeps its own repr.
    """
    xs, ys = (np.unique(column.view(np.int64)) for column in (stream.x, stream.y))
    x, y = xs.view(float).tolist(), ys.view(float).tolist()

    def cells(rows):
        xi = np.searchsorted(xs, stream.x[rows].view(np.int64))
        yi = np.searchsorted(ys, stream.y[rows].view(np.int64))
        return ((xi * len(y) + yi) * 3 + stream.a[rows] + 1) * 3 + stream.b[rows] + 1

    def tail(c):
        return f",{x[c // 9 // len(y)]!r},{y[c // 9 % len(y)]!r},{c // 3 % 3 - 1},{c % 3 - 1}\r\n"

    write_rows(path, CSV_HEADER, stream.trial, cells, tail, metadata)


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


def read_stream_csv(path) -> TrialStream:
    """Read a stream file; a sidecar, when present, must agree with it."""
    rows = read_rows(path, CSV_HEADER, STREAM_ROW)
    expected = {"format": STREAM_FORMAT, "columns": list(CSV_HEADER), "n_trials": len(rows)}
    check_sidecar(path, expected)
    return TrialStream(*(rows[name] for name in CSV_HEADER))


def stream_digest(path) -> str:
    """SHA-256 of a stream file, for reproducibility assertions."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
