"""Hash-keyed random streams for reproducible parallel Monte Carlo.

Stream v3 (`lil-lab-stream-v3`): the unit of a Monte Carlo stream is a
fixed group of consecutive trials, keyed by (seed, purpose, group).
`simulate.stream_trials` fixes the group size from the path length
alone, so a group's draws never depend on the worker count, the
chunking or the number of trials run.  The sample behind an empirical H
is one stream keyed by (seed, H_SAMPLE).

`substream` is the one constructor of every stream: an SFC64 generator
seeded by numpy's own SFC64 seeding, handed the first three
little-endian 64-bit words of the SHA-256 hash of (tag, seed, *path) as
its seed words.  numpy then takes them as state words a, b, c, starts
the counter at 1 and discards the first 12 outputs.  Stream v2 used
Philox keyed by the same hash and gives different numbers at the same
seed.
"""
from __future__ import annotations

import hashlib
import struct

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# the tag is kept in the package, where an artifact's provenance reads it
# without loading this module
from . import _STREAM

_TAG = _STREAM.encode()
_MASK = 0xFFFFFFFFFFFFFFFF

# Purpose tags so that pilot, main, and auxiliary draws never share a stream.
PILOT = 1
MAIN = 2
CURVE = 4
H_SAMPLE = 8


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator keyed by (seed, *path).

    The stream is SFC64 seeded from a SHA-256 hash of the seed and the
    path integers, so any worker can recreate trial group g's stream
    without coordinating with the others, and results do not depend on
    how trials are partitioned across workers.
    """
    h = hashlib.sha256(_TAG)
    for part in (seed, *path):
        # native byte order, as numpy's uint64.tobytes() gives
        h.update(struct.pack("=Q", int(part) & _MASK))
    return np.random.Generator(np.random.SFC64(_Words(np.frombuffer(h.digest(), "<u8", 3).astype(np.uint64))))


class _Words(ISeedSequence):
    """A seed sequence whose state is the three given words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint64) -> np.ndarray:
        return self.words
