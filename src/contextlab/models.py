"""Finite contextual hidden-variable models and their exact expectations.

A model couples a two-sided source with per-setting instrument variables:
the source emits a pair (lambda1, lambda2) with joint distribution P, wing 0
(Alice) at setting x carries its own instrument variable lambda_x with
distribution P_x, and the registered outcome is A_x(lambda1, lambda_x) in
{-1, 0, +1} (0 means no detection).  Wing 1 (Bob) mirrors this with lambda_y,
P_y and B_y(lambda2, lambda_y); every per-wing function takes the wing index.
The parameter space is setting-pair specific: the pair expectation sums
A_x * B_y * P_x * P_y * P over Lambda1 x Lambda2 x Lambda_x x Lambda_y, and
single-wing marginals sum the same factors with the other wing removed.
Because A never references lambda_y and B never references lambda_x, the sums
are evaluated as a factored contraction: per-source-value instrument
reductions first (computed once per setting, at construction), then the
source contraction.  All reductions use math.fsum, which rounds the exact sum
of its terms once, so results are deterministic bit-for-bit whatever the order
of the terms.

Probability tables are validated against a 1e-12 normalization tolerance and
then renormalized so that their compensated float sum is exactly 1.0; this
makes the marginalization-consistency and sure-conditioning identities hold
exactly, not approximately.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    ModelValidationError,
    UndefinedConditionalError,
    UnknownSettingError,
)

TWO_PI = 2.0 * math.pi
PROB_TOLERANCE = 1e-12

MODEL_FORMAT = "finite-contextual-model/1"
WINGS = ("alice", "bob")  # wing index 0 is Alice, 1 is Bob
SETTINGS_RULE = "nonempty, finite and distinct mod 2*pi"  # for each wing's settings


def normalize_angle(theta: float) -> float:
    """Map an angle in radians to the canonical interval [0, 2*pi)."""
    t = math.fmod(float(theta), TWO_PI)
    if t < 0.0:
        t += TWO_PI
    return 0.0 if t >= TWO_PI or t == 0.0 else t  # -0.0 becomes +0.0


def valid_settings(settings: Sequence[float]) -> bool:
    """Whether one wing's settings follow `SETTINGS_RULE`."""
    finite = len(settings) > 0 and all(map(math.isfinite, settings))
    return finite and len(set(map(normalize_angle, settings))) == len(settings)


def check_settings(wing: str, settings) -> None:
    """Raise `ModelValidationError` unless the wing's settings follow `SETTINGS_RULE`."""
    settings = tuple(map(float, settings))
    if not valid_settings(settings):
        raise ModelValidationError(f"{wing}: settings {settings} must be {SETTINGS_RULE}")


@dataclass(frozen=True)
class SettingPair:
    """One (Alice, Bob) pair of analyzer settings, angles in [0, 2*pi)."""

    x: float
    y: float

    def __post_init__(self):
        object.__setattr__(self, "x", normalize_angle(self.x))
        object.__setattr__(self, "y", normalize_angle(self.y))


def _exact_probabilities(table, name: str) -> np.ndarray:
    """Validate a probability table and renormalize to an exact float sum of 1.

    Rejects negative, non-finite, or out-of-tolerance input rather than
    silently fixing it; the post-renormalization residual (at most a few ulp)
    is folded into the largest cell so that math.fsum over the table returns
    exactly 1.0.
    """
    arr = np.array(table, dtype=float)
    if arr.size == 0:
        raise ModelValidationError(f"{name}: empty probability table")
    if not np.all(np.isfinite(arr)):
        raise ModelValidationError(f"{name}: non-finite probability entries")
    if np.any(arr < 0.0):
        raise ModelValidationError(f"{name}: negative probability entries")
    total = math.fsum(arr.flat)
    if abs(total - 1.0) > PROB_TOLERANCE:
        raise ModelValidationError(
            f"{name}: probabilities sum to {total!r}, outside tolerance "
            f"{PROB_TOLERANCE:g} of 1"
        )
    out = arr / total
    for _ in range(32):
        residual = 1.0 - math.fsum(out.flat)
        if residual == 0.0:
            break
        idx = np.unravel_index(int(np.argmax(out)), out.shape)
        out[idx] += residual
    else:
        raise ModelValidationError(f"{name}: renormalization did not converge")
    out.setflags(write=False)
    return out


def _validated_outcomes(table, n_source: int, n_inst: int, name: str) -> np.ndarray:
    arr = np.array(table)
    if arr.shape != (n_source, n_inst):
        raise ModelValidationError(
            f"{name}: outcome table shape {arr.shape} != ({n_source}, {n_inst})"
        )
    as_int = np.asarray(np.rint(arr), dtype=np.int8)
    if not np.array_equal(as_int, arr) or not np.all(np.isin(as_int, (-1, 0, 1))):
        raise ModelValidationError(f"{name}: outcome entries must be exactly -1, 0, or +1")
    as_int.setflags(write=False)
    return as_int


def _fsum_rows(terms: np.ndarray) -> np.ndarray:
    """math.fsum of each row of a 2-D array."""
    return np.array([math.fsum(row) for row in terms.tolist()])


class WingTables(NamedTuple):
    """Instrument data bound to one setting of one wing, with its reductions.

    The first three fields are the (space, dist, outcome) triple that the
    model's constructor takes: `outcome[i, k]` is the registered outcome for
    source value i and instrument value k, `dist[k]` the instrument
    distribution.  The rest is derived from them at construction: `cum`, the
    CDF of `dist`; `response[i]`, fsum_k outcome[i, k] * dist[k]; and
    `detection[i]`, fsum_k [outcome[i, k] != 0] * dist[k].
    """

    space: tuple
    dist: np.ndarray
    outcome: np.ndarray
    cum: np.ndarray
    response: np.ndarray
    detection: np.ndarray


def _check_wing(wing) -> None:
    if wing not in (0, 1):
        raise ValueError(f"wing must be 0 (Alice) or 1 (Bob), got {wing!r}")


class FiniteContextualModel:
    """Discrete source/instrument spaces with per-setting outcome tables.

    `alice` and `bob` map each declared setting (radians, normalized to
    [0, 2*pi)) to its (space, dist, outcome) tables; they are stored as
    wings 0 and 1, each setting as a `WingTables`.  The source distribution
    is shared by all setting pairs and never indexed by a setting.
    """

    def __init__(
        self,
        lambda1_space: Sequence,
        lambda2_space: Sequence,
        source_dist,
        alice: Mapping[float, tuple],
        bob: Mapping[float, tuple],
    ):
        self.lambda1_space = tuple(lambda1_space)
        self.lambda2_space = tuple(lambda2_space)
        n1, n2 = len(self.lambda1_space), len(self.lambda2_space)
        if n1 == 0 or n2 == 0:
            raise ModelValidationError("source spaces must be nonempty")
        self.source_dist = _exact_probabilities(source_dist, "source_dist")
        if self.source_dist.shape != (n1, n2):
            raise ModelValidationError(
                f"source_dist shape {self.source_dist.shape} != ({n1}, {n2})"
            )
        self._wings = tuple(map(self._build_wing, (alice, bob), (n1, n2), WINGS))
        # the source CDF over the positive cells and the last: the first dense entry
        # above a uniform adds a positive probability, or is the last, pinned to 1.0
        flat = self.source_dist.ravel()
        self._source_cells = np.union1d(np.flatnonzero(flat), [flat.size - 1])
        self._source_cum = np.cumsum(flat[self._source_cells])
        self._source_cum[-1] = 1.0

    @staticmethod
    def _build_wing(tables, n_source: int, wing: str) -> dict[float, WingTables]:
        check_settings(wing, tables)
        built: dict[float, WingTables] = {}
        for setting, (space, dist, outcome) in tables.items():
            s = normalize_angle(setting)
            name = f"{wing}[{s!r}]"
            dist = _exact_probabilities(dist, name)
            if dist.ndim != 1 or len(dist) != len(tuple(space)):
                raise ModelValidationError(f"{name}: dist length != space size")
            outcome = _validated_outcomes(outcome, n_source, len(dist), name)
            cum = np.cumsum(dist)
            cum[-1] = 1.0  # so uniform draws in [0, 1) always land inside the table
            derived = cum, _fsum_rows(outcome * dist), _fsum_rows((outcome != 0) * dist)
            for array in derived:
                array.setflags(write=False)
            built[s] = WingTables(tuple(space), dist, outcome, *derived)
        return built

    @property
    def alice_settings(self) -> tuple[float, ...]:
        return tuple(self._wings[0])

    @property
    def bob_settings(self) -> tuple[float, ...]:
        return tuple(self._wings[1])

    def tables(self, wing: int, setting: float) -> WingTables:
        """The tables of wing 0 (Alice) or 1 (Bob) at one declared setting."""
        _check_wing(wing)
        try:
            return self._wings[wing][normalize_angle(setting)]
        except KeyError:
            raise UnknownSettingError(
                f"{WINGS[wing].capitalize()} setting {float(setting)!r} not declared "
                f"(have {tuple(self._wings[wing])})"
            ) from None

    # -- the generation protocol (see `simulate`) --

    def source(self, u_src):
        """Source value indices (i1, i2) per trial, by inverse CDF of one uniform."""
        flat = self._source_cells[np.searchsorted(self._source_cum, u_src, side="right")]
        return np.divmod(flat, len(self.lambda2_space))

    def sampling_tables(self, wing: int, setting: float):
        """Instrument CDF and outcome table of wing 0 (Alice) or 1 (Bob) at one setting.

        Both are built once, at construction; the final cumulative entry is
        pinned to 1.0 so uniform draws in [0, 1) always land inside the table.
        """
        tables = self.tables(wing, setting)
        return tables.cum, tables.outcome

    def outcomes(self, wing: int, src, settings, index, u) -> np.ndarray:
        """One wing's outcomes, trials grouped by that wing's own setting."""
        out = np.empty(len(index), dtype=np.int8)
        for k in np.flatnonzero(np.bincount(index)):  # the settings that occur, with no sort
            rows = np.nonzero(index == k)[0]
            cum, outcome = self.sampling_tables(wing, settings[k])
            out[rows] = outcome[src[rows], np.searchsorted(cum, u[rows], side="right")]
        return out

    def descriptor(self) -> dict:
        """Compact identifying summary for stream metadata."""
        return {
            "kind": "finite",
            "n_lambda1": len(self.lambda1_space),
            "n_lambda2": len(self.lambda2_space),
            "alice_settings": [float(s) for s in self.alice_settings],
            "bob_settings": [float(s) for s in self.bob_settings],
        }


# ---------------------------------------------------------------------------
# Exact expectations
# ---------------------------------------------------------------------------


def _source_contract(source: np.ndarray, a_factor: np.ndarray, b_factor: np.ndarray) -> float:
    """fsum of source[i, j] * a_factor[i] * b_factor[j] over terms formed by numpy.

    Each term is the same two left-to-right IEEE products as the scalar form."""
    terms = source * a_factor[:, None] * b_factor[None, :]
    return math.fsum(terms.ravel().tolist())


def pair_expectation(model: FiniteContextualModel, x: float, y: float) -> float:
    """Expectation of the outcome product A*B at settings (x, y).

    Non-detections enter as 0, so this is the raw (unconditioned) value.
    """
    at, bt = model.tables(0, x), model.tables(1, y)
    return _source_contract(model.source_dist, at.response, bt.response)


def marginal(model: FiniteContextualModel, wing: int, setting: float) -> float:
    """Expectation of wing 0's (Alice's) or 1's (Bob's) outcome at its setting.

    The other wing enters only as a factor of ones: it is never referenced.
    """
    factors = [np.ones(n) for n in model.source_dist.shape]
    factors[wing] = model.tables(wing, setting).response
    return _source_contract(model.source_dist, *factors)


def joint_detection_probability(model: FiniteContextualModel, x: float, y: float) -> float:
    """Probability that both wings register a nonzero outcome at (x, y)."""
    at, bt = model.tables(0, x), model.tables(1, y)
    return _source_contract(model.source_dist, at.detection, bt.detection)


def _conditioning_probability(model: FiniteContextualModel, x: float, y: float) -> float:
    """`joint_detection_probability`, refused when a conditional on it is undefined."""
    denom = joint_detection_probability(model, x, y)
    if denom <= 0.0:
        raise UndefinedConditionalError(
            f"no joint detections at (x={x!r}, y={y!r}); conditional undefined"
        )
    return denom


def coincidence_expectation(model: FiniteContextualModel, x: float, y: float) -> float:
    """Expectation of A*B conditioned on both outcomes being nonzero.

    Zero outcomes contribute nothing to the product sum, so the numerator is
    the same contraction as `pair_expectation`; only the normalization by the
    joint detection probability differs.
    """
    denom = _conditioning_probability(model, x, y)
    return pair_expectation(model, x, y) / denom


def postselected_marginal(model: FiniteContextualModel, x: float, y: float, wing: int) -> float:
    """Wing 0's (Alice's) or 1's (Bob's) expectation conditioned on joint detection at (x, y).

    Unlike the raw marginals this may depend on both settings: conditioning
    reweights the source values by the other wing's detection profile.
    """
    _check_wing(wing)
    denom = _conditioning_probability(model, x, y)
    factors = [model.tables(0, x).detection, model.tables(1, y).detection]
    factors[wing] = model.tables(wing, (x, y)[wing]).response
    return _source_contract(model.source_dist, *factors) / denom


# ---------------------------------------------------------------------------
# Model file format
# ---------------------------------------------------------------------------


def model_to_dict(model: FiniteContextualModel) -> dict:
    """JSON-compatible representation.

    Index convention (enforced by the loader): `source_dist[i1][i2]` follows
    (lambda1, lambda2); each wing's `outcome[i_source][i_inst]` has the source
    index first.  Setting keys are repr'd floats, which round-trip exactly.
    """
    doc = {
        "format": MODEL_FORMAT,
        "index_order": "source_dist[i1][i2]; outcome[i_source][i_inst]",
        "lambda1_space": list(model.lambda1_space),
        "lambda2_space": list(model.lambda2_space),
        "source_dist": model.source_dist.tolist(),
    }
    for name, tables in zip(WINGS, model._wings):
        doc[name] = {
            repr(float(s)): {
                "space": list(t.space),
                "dist": t.dist.tolist(),
                "outcome": t.outcome.tolist(),
            }
            for s, t in tables.items()
        }
    return doc


def model_from_dict(data: Mapping) -> FiniteContextualModel:
    try:
        if data.get("format") != MODEL_FORMAT:
            raise ModelValidationError(
                f"unsupported model format {data.get('format')!r} (expected {MODEL_FORMAT!r})"
            )
        wings = (
            {float(s): (w["space"], w["dist"], w["outcome"]) for s, w in data[name].items()}
            for name in WINGS
        )
        return FiniteContextualModel(
            data["lambda1_space"], data["lambda2_space"], data["source_dist"], *wings
        )
    except ModelValidationError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ModelValidationError(f"malformed model document: {exc}") from exc


def save_model(model: FiniteContextualModel, path) -> None:
    with Path(path).open("w") as fh:  # json.dumps would join the whole indented text first
        json.dump(model_to_dict(model), fh, indent=1, sort_keys=True)


def load_model(path) -> FiniteContextualModel:
    try:
        data = json.loads(Path(path).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelValidationError(f"{path}: not valid JSON: {exc}") from exc
    return model_from_dict(data)


# ---------------------------------------------------------------------------
# Model factories
# ---------------------------------------------------------------------------


def _random_dist(rng: np.random.Generator, shape) -> np.ndarray:
    raw = rng.random(shape) + 0.05
    return raw / math.fsum(raw.flat)


def random_model(
    rng: np.random.Generator,
    n1: int = 3,
    n2: int = 3,
    n_inst: int = 2,
    settings_x: Sequence[float] = (0.0, math.pi / 4),
    settings_y: Sequence[float] = (math.pi / 8, 3 * math.pi / 8),
    zero_weight: float = 0.2,
) -> FiniteContextualModel:
    """Random finite model with fresh instrument tables per setting.

    `zero_weight` is the probability mass put on the non-detection outcome
    when drawing outcome-table entries.  Draws: per setting the distribution,
    then the outcome table, Alice's settings before Bob's, the source last.
    """
    probs = [(1 - zero_weight) / 2, zero_weight, (1 - zero_weight) / 2]
    space, wings = tuple(range(n_inst)), ({}, {})
    for tables, n_source, settings in zip(wings, (n1, n2), (settings_x, settings_y)):
        for s in settings:
            dist = _random_dist(rng, n_inst)
            tables[s] = (space, dist, rng.choice((-1, 0, 1), size=(n_source, n_inst), p=probs))
    source = _random_dist(rng, (n1, n2))
    return FiniteContextualModel(tuple(range(n1)), tuple(range(n2)), source, *wings)


def shared_space_model(
    rng: np.random.Generator,
    n1: int = 3,
    n2: int = 3,
    n_inst: int = 2,
    settings_x: Sequence[float] = (0.0, math.pi / 4),
    settings_y: Sequence[float] = (math.pi / 8, 3 * math.pi / 8),
) -> FiniteContextualModel:
    """Degenerate model on a single shared probability space.

    Every setting of a wing reuses one instrument space with one distribution,
    and outcomes are strictly +-1 (no non-detections).  All four CHSH
    correlations are then random variables on the common space
    Lambda1 x Lambda2 x Lambda_x x Lambda_y, so |S| <= 2 up to sampling noise.
    """
    dists = [_random_dist(rng, n_inst) for _ in WINGS]
    source = _random_dist(rng, (n1, n2))
    space, wings = tuple(range(n_inst)), ({}, {})
    for tables, dist, n_source, settings in zip(wings, dists, (n1, n2), (settings_x, settings_y)):
        for s in settings:
            tables[s] = (space, dist, rng.choice((-1, 1), size=(n_source, n_inst)))
    return FiniteContextualModel(tuple(range(n1)), tuple(range(n2)), source, *wings)
