"""Coin-flipping devices, urn draws, and box ensembles.

Three desk devices flip a two-colored coin (faces 'B' and 'R'): D1 is a
deterministic face inverter, D2 alternates its output with only the first
result uncertain, and D3 is a fair Bernoulli device (an optional bias models
an external perturbation).  The urn experiment draws coins without
replacement from a box holding N blue and N red coins, where the chance of
blue at the next draw after k draws containing m blues is (N-m)/(2N-k); the
box is refilled between rounds.  The box ensembles contrast a mixed
collection (single-colored coins, the drawn coin's fixed color is reported)
with a pure one (identical two-sided coins put through D3), and the hole
protocol removes unobserved coins and compares frequencies before and after.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, EmptyUrnError, StreamFormatError
from .randtests import TestReport, two_proportion_test
from .seeding import substream
from .simulate import check_sidecar, read_rows, write_rows

FACES = ("B", "R")
COIN_CSV_HEADER = ("trial", "outcome")
# outcomes as two bytes, so that a longer field cannot pass as a face
COIN_ROW = np.dtype([("trial", "i8"), ("outcome", "S2")])
E4_BLOCK_DRAWS = 1 << 18


def _check_n(n: int) -> None:
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")


# ---------------------------------------------------------------------------
# Flipping devices
# ---------------------------------------------------------------------------


def d1_step(face: str) -> str:
    """Deterministic inverter: B in gives R out and vice versa."""
    if face not in FACES:
        raise ConfigError(f"face must be 'B' or 'R', got {face!r}")
    return "R" if face == "B" else "B"


def d1_run(first_face: str, n: int) -> np.ndarray:
    """Feed the same face n times; the output is the constant opposite."""
    _check_n(n)
    return np.full(n, d1_step(first_face))


def d2_run(n: int, seed) -> np.ndarray:
    """Alternating flipper: the first output is a fair draw, then it strictly
    alternates regardless of the inserted face."""
    _check_n(n)
    first_blue = substream(seed, 0, 0).random() < 0.5
    return np.where((np.arange(n) % 2 == 0) == first_blue, "B", "R")


def d3_run(n: int, seed, p_blue: float = 0.5) -> np.ndarray:
    """Bernoulli flipper; p_blue != 0.5 models a perturbed device."""
    _check_n(n)
    if not 0.0 <= p_blue <= 1.0:
        raise ConfigError(f"p_blue must be in [0, 1], got {p_blue}")
    return _flip(substream(seed, 0, 0), n, p_blue)


def _flip(rng: np.random.Generator, n: int, p_blue: float) -> np.ndarray:
    """n faces from `rng`, each blue with probability `p_blue`: the D3 draw."""
    return np.where(rng.random(n) < p_blue, "B", "R")


# ---------------------------------------------------------------------------
# Urn without replacement
# ---------------------------------------------------------------------------


def e4_run(
    N: int, draws_per_round: int, rounds: int, seed
) -> tuple[np.ndarray, np.ndarray]:
    """Rounds of without-replacement draws; the urn refills between rounds.

    Round r takes its uniforms from `substream(seed, r, 0)`, and draw k of
    every round is blue when its uniform is below (N-m)/(2N-k), m being the
    round's blues so far; the rounds of a block of at most `E4_BLOCK_DRAWS`
    uniforms (or one round) advance together, one draw index at a time.
    Returns the concatenated face stream and the per-round blue counts.
    """
    if draws_per_round > 2 * N:
        raise ConfigError(
            f"cannot draw {draws_per_round} coins from an urn of {2 * N}"
        )
    if draws_per_round < 1 or rounds < 1:
        raise ConfigError("draws_per_round and rounds must be >= 1")
    if N > 2**52:
        # below this every count is an exact float64, so each quotient is the
        # correctly rounded (N-m)/(2N-k) and int64 arithmetic cannot overflow
        raise ConfigError(f"N must be at most 2**52, got {N}")
    faces = np.full((rounds, draws_per_round), "R")
    m = np.zeros(rounds, dtype=np.int64)
    per_block = max(1, E4_BLOCK_DRAWS // draws_per_round)
    uniforms = np.empty((min(per_block, rounds), draws_per_round))
    for first in range(0, rounds, per_block):
        block = slice(first, first + per_block)
        u = uniforms[: len(m[block])]
        for row, r in zip(u, range(first, rounds)):
            substream(seed, r, 0).random(out=row)
        for k in range(draws_per_round):
            blue = u[:, k] < (N - m[block]) / (2 * N - k)
            m[block] += blue
            faces[block, k][blue] = "B"
    return faces.ravel(), m


# ---------------------------------------------------------------------------
# Box ensembles and the hole protocol
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoxEnsemble:
    """Mixed box of single-colored coins or pure box of two-sided coins.

    Mixed-box draws report the picked coin's fixed color (the flipping device
    cannot change a single-colored coin) and return it to the box; pure-box
    draws put an identical two-sided coin through the Bernoulli device.
    """

    kind: str
    n_blue: int = 0
    n_red: int = 0
    n_coins: int = 0

    def __post_init__(self):
        if self.kind not in ("mixed", "pure"):
            raise ConfigError(f"kind must be 'mixed' or 'pure', got {self.kind!r}")
        if min(self.n_blue, self.n_red, self.n_coins) < 0:
            raise ConfigError("coin counts must be nonnegative")
        if self.kind == "mixed" and self.n_coins:
            raise ConfigError("mixed boxes use n_blue/n_red only")
        if self.kind == "pure" and (self.n_blue or self.n_red):
            raise ConfigError("pure boxes use n_coins only")

    @property
    def size(self) -> int:
        return self.n_blue + self.n_red if self.kind == "mixed" else self.n_coins


def box_run(box: BoxEnsemble, n: int, rng: np.random.Generator) -> np.ndarray:
    _check_n(n)
    if box.size < 1:
        raise EmptyUrnError("box is empty")
    return _flip(rng, n, box.n_blue / box.size if box.kind == "mixed" else 0.5)


@dataclass(frozen=True)
class HoleProtocolResult:
    """Before/after comparison around an unobserved removal of coins."""

    box_after: BoxEnsemble
    removed_blue: int | None
    removed_red: int | None
    before_frequency: float
    after_frequency: float
    report: TestReport


def remove_coins(box: BoxEnsemble, n_removed: int, rng: np.random.Generator):
    """Take n_removed coins out uniformly at random, without looking at them."""
    if not 0 <= n_removed < box.size:
        raise ConfigError(
            f"n_removed must be in [0, {box.size - 1}], got {n_removed}"
        )
    if box.kind == "mixed" and n_removed and max(box.n_blue, box.n_red) >= 10**9:
        raise ConfigError(f"the removal draw takes under 10**9 coins of each color, got {box}")
    if box.kind == "mixed":
        removed_blue = int(rng.hypergeometric(box.n_blue, box.n_red, n_removed)) if n_removed else 0
        removed_red = n_removed - removed_blue
        after = BoxEnsemble(
            "mixed", n_blue=box.n_blue - removed_blue, n_red=box.n_red - removed_red
        )
        return after, removed_blue, removed_red
    return BoxEnsemble("pure", n_coins=box.n_coins - n_removed), None, None


def hole_protocol(
    box: BoxEnsemble, n_removed: int, seed, trials_after: int, alpha: float = 0.01
) -> HoleProtocolResult:
    """Run trials, remove unobserved coins, run the same number again.

    The two phases are compared with a pooled two-proportion z-test.  A pure
    box is unchanged by any removal; a mixed box shifts whenever the removal
    happened to change the color proportion.
    """
    if trials_after < 1:
        raise ConfigError("trials_after must be >= 1")
    rng = substream(seed, 0, 0)
    before = box_run(box, trials_after, rng)
    after_box, removed_blue, removed_red = remove_coins(box, n_removed, rng)
    after = box_run(after_box, trials_after, rng)
    k_before = int(np.sum(before == "B"))
    k_after = int(np.sum(after == "B"))
    report = two_proportion_test(
        k_before, trials_after, k_after, trials_after, alpha=alpha, name="hole-protocol"
    )
    return HoleProtocolResult(
        box_after=after_box,
        removed_blue=removed_blue,
        removed_red=removed_red,
        before_frequency=k_before / trials_after,
        after_frequency=k_after / trials_after,
        report=report,
    )


# ---------------------------------------------------------------------------
# Coin stream persistence
# ---------------------------------------------------------------------------


def write_coin_csv(faces: Sequence[str], path, metadata: dict | None = None) -> None:
    """Write `trial,outcome` rows; `metadata`, with the row count `n`, goes to the sidecar."""
    faces = np.asarray(faces, dtype=str)
    metadata = None if metadata is None else {**metadata, "n": len(faces)}
    write_rows(path, COIN_CSV_HEADER, [(np.arange(len(faces)), faces)], ",{}\r\n".format, metadata)


def read_coin_csv(path) -> np.ndarray:
    """Read a coin file; a sidecar, when present, must give its row count `n`."""
    blocks = [rows["outcome"] for rows in read_rows(path, COIN_CSV_HEADER, COIN_ROW)]
    faces = np.concatenate([np.empty(0, COIN_ROW["outcome"]), *blocks])
    check_sidecar(path, {"n": len(faces)})
    if not np.isin(faces, np.array(FACES, dtype="S1")).all():
        raise StreamFormatError(f"{path}: every outcome must be one of {FACES}")
    return faces.astype("U1")
