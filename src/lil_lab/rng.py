"""Hash-keyed random streams for reproducible parallel Monte Carlo.

Stream v3 (`lil-lab-stream-v3`): the unit of a Monte Carlo stream is a
fixed group of consecutive trials, keyed by (seed, purpose, group).
`simulate.stream_trials` fixes the group size from the path length
alone, so a group's draws never depend on the worker count, the
chunking or the number of trials run.  The sample behind an empirical H
is one stream keyed by (seed, H_SAMPLE).

A stream is an SFC64 generator seeded from the SHA-256 hash of
(tag, seed, *path) as numpy seeds SFC64 from a seed sequence: state
words a, b, c are the first 24 digest bytes (little-endian), the
counter starts at 1, and the first 12 outputs are discarded.  Stream v2
used Philox keyed by the same hash and gives different numbers at the
same seed.
"""
from __future__ import annotations

import hashlib
import struct

import numpy as np

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
    return _generator(_hasher(seed, *path).digest())


class TrialStreams:
    """The substreams (seed, purpose, index) of one (seed, purpose).

    The index is a trial group's index (a trial's, for groups of one).
    Gives the same generators as `substream(seed, purpose, index)` but
    hashes the (seed, purpose) prefix only once.  `reused` re-seeds one
    shared SFC64 through its state instead of building a new generator;
    its draws must be taken before the next call re-seeds it.
    """

    def __init__(self, seed: int, purpose: int):
        self._prefix = _hasher(seed, purpose)
        self._shared = np.random.Generator(np.random.SFC64(0))

    def digest(self, index: int) -> bytes:
        h = self._prefix.copy()
        h.update(_u64(index))
        return h.digest()

    def fresh(self, index: int) -> np.random.Generator:
        """A generator of its own, for a stream that samples more than once."""
        return _generator(self.digest(index))

    def reused(self, index: int) -> np.random.Generator:
        """The shared generator, re-seeded to the stream's fresh state."""
        _seed(self._shared.bit_generator, self.digest(index))
        return self._shared


def _hasher(seed: int, *path: int):
    h = hashlib.sha256(_TAG)
    for part in (seed, *path):
        h.update(_u64(part))
    return h


def _generator(digest: bytes) -> np.random.Generator:
    gen = np.random.Generator(np.random.SFC64(0))
    _seed(gen.bit_generator, digest)
    return gen


def _seed(bit_gen: np.random.SFC64, digest: bytes) -> None:
    """Seed `bit_gen` as numpy seeds SFC64 from three words, here the digest's.

    A plain state write, so that re-seeding costs no seed sequence.
    """
    a, b, c = struct.unpack_from("<3Q", digest)
    bit_gen.state = {"bit_generator": "SFC64", "state": {"state": (a, b, c, 1)}, "has_uint32": 0, "uinteger": 0}
    bit_gen.random_raw(12)


def _u64(x: int) -> bytes:
    # native byte order, as numpy's uint64.tobytes() gives
    return struct.pack("=Q", int(x) & _MASK)
