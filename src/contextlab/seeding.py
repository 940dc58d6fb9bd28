"""Named, reproducible random substreams.

Every source of randomness in the package is a `numpy` Generator derived from
an explicit integer seed through `SeedSequence((seed..., chunk_index,
stream_id))`.  The stream ids are fixed module constants, so a run is fully
determined by its seeds: settings schedules draw from the schedule seed,
hidden variables from the experiment master seed, and the two never mix.
Chunked generation derives one substream per (chunk, stream) pair, which makes
chunk boundaries part of the reproducibility contract.

`SeedSequence` pads entropy under 4 words with zeros: `substream(s, c, 0)` is
the `SeedSequence((s, c, 0, 0))` stream.  `demo`'s witness schedule and
`d3_run` share `substream(seed + 1, 0, 0)`, and its e4 urn's round 0 and both
hole protocols `substream(seed, 0, 0)`; no number it reports depends on those
sections being independent.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

STREAM_SETTINGS = 0
STREAM_SOURCE = 1
STREAM_ALICE = 2
STREAM_BOB = 3


def _seed_words(seed) -> tuple[int, ...]:
    """Validate a seed (one nonnegative int or a tuple of them)."""
    if isinstance(seed, (int, np.integer)):
        words = (int(seed),)
    elif isinstance(seed, (tuple, list)):
        words = tuple(int(w) for w in seed)
    else:
        raise ConfigError(f"seed must be an int or tuple of ints, got {seed!r}")
    if not words or any(w < 0 for w in words):
        raise ConfigError(f"seed words must be nonnegative, got {seed!r}")
    return words


def substream(seed, chunk_index: int, stream_id: int) -> np.random.Generator:
    """Generator for one named substream of one chunk of a run."""
    if chunk_index < 0:
        raise ConfigError("chunk_index must be nonnegative")
    entropy = _seed_words(seed) + (int(chunk_index), int(stream_id))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
