"""Counter-based random streams for reproducible parallel Monte Carlo.

Stream v2 (`lil-lab-stream-v2`): the unit of a Monte Carlo stream is a
fixed group of consecutive trials, keyed by (seed, purpose, group).
`simulate.stream_trials` fixes the group size from the path length
alone, so a group's draws never depend on the worker count, the
chunking or the number of trials run.  The sample behind an empirical H
is one stream keyed by (seed, H_SAMPLE).
"""
from __future__ import annotations

import hashlib
import struct

import numpy as np

_TAG = b"lil-lab-stream-v2"
_MASK = 0xFFFFFFFFFFFFFFFF

# Purpose tags so that pilot, main, and auxiliary draws never share a stream.
PILOT = 1
MAIN = 2
CURVE = 4
H_SAMPLE = 8


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator keyed by (seed, *path).

    Streams are Philox counter-based: the key is a SHA-256 hash of the
    seed and the path integers, so any worker can recreate trial group
    g's stream without coordinating with the others, and results do not
    depend on how trials are partitioned across workers.
    """
    return _generator(_key(_hasher(seed, *path)))


class TrialStreams:
    """The substreams (seed, purpose, index) of one (seed, purpose).

    The index is a trial group's index (a trial's, for groups of one).
    Gives the same generators as `substream(seed, purpose, index)` but
    hashes the (seed, purpose) prefix only once.  `reused` re-keys one
    shared Philox through its state instead of building a new generator;
    its draws must be taken before the next call re-keys it.
    """

    def __init__(self, seed: int, purpose: int):
        self._prefix = _hasher(seed, purpose)
        self._shared = np.random.Philox(key=0)
        self._shared_gen = np.random.Generator(self._shared)

    def key(self, index: int) -> int:
        h = self._prefix.copy()
        h.update(_u64(index))
        return _key(h)

    def fresh(self, index: int) -> np.random.Generator:
        """A generator of its own, for a stream that samples more than once."""
        return _generator(self.key(index))

    def reused(self, index: int) -> np.random.Generator:
        """The shared generator, re-keyed to the stream's fresh state."""
        key = self.key(index)
        self._shared.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": (key & _MASK, key >> 64)},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self._shared_gen


def _hasher(seed: int, *path: int):
    h = hashlib.sha256(_TAG)
    for part in (seed, *path):
        h.update(_u64(part))
    return h


def _key(h) -> int:
    return int.from_bytes(h.digest()[:16], "little")


def _generator(key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=key))


def _u64(x: int) -> bytes:
    # native byte order, as numpy's uint64.tobytes() gives
    return struct.pack("=Q", int(x) & _MASK)
