"""Helpers that the tests share: the one constructor of in-memory Bell
streams and the digest of a written file."""

import hashlib
from pathlib import Path

import numpy as np

from contextlab.simulate import STREAM_ROW


def records(x, y, a, b, trial=None) -> np.recarray:
    """`STREAM_ROW` records from columns, as `run_experiment` returns them.

    Trials default to 0, 1, 2, ...  The columns are assigned into the record
    fields, so numpy casts them; a test of the library's own dtype check
    builds its structured array itself.
    """
    stream = np.zeros(len(x), STREAM_ROW).view(np.recarray)
    stream.trial = np.arange(len(x)) if trial is None else trial
    stream.x, stream.y, stream.a, stream.b = x, y, a, b
    return stream


def stream_digest(path) -> str:
    """SHA-256 of a file, for reproducibility assertions."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
