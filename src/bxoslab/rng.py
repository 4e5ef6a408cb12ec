"""Counter-based, splittable random streams.

Every sampler in this package takes an explicit :class:`RngStream`.  Streams
are backed by numpy's Philox bit generator keyed on ``(seed, stream)``, so an
identical (seed, stream, call sequence) reproduces identical output and
distinct stream ids give statistically independent streams.  Parallel trials
should each use their own child stream.

The generator algorithms are those of the pinned numpy release; the stream is
fixed per release of this package.  :data:`STREAM_VERSION` names the draw
order of the samplers: any change to which draws a seed produces bumps it,
together with the golden digests that pin it.
"""

from __future__ import annotations

import operator

import numpy as np

# 2: clause pairs of one basis are drawn as one batch (multi-row
#    sampling.refine_masks calls).
# 3: one-row refinements (m > 32768) draw only the items outside each
#    cell's largest class.
# 4: one-row refinements draw i.i.d. per-item labels, then fix the counts.
# 5: one-row refinements draw those labels for the whole universe in item
#    order and release each surplus by uniform rejection; draws at
#    m <= 32768 are unchanged.
# 6: one-row labels are the 16-bit lanes of raw Philox words.
STREAM_VERSION = 6

_MASK64 = (1 << 64) - 1


def _mix64(a: int, b: int) -> int:
    """SplitMix64-style mix of two stream coordinates into one id."""
    z = (a * 0x9E3779B97F4A7C15 + b) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _word(value: int, name: str) -> int:
    # A stream coordinate; reduced mod 2**64 instead, two names would share a stream.
    value = operator.index(value)
    if not 0 <= value <= _MASK64:
        raise ValueError(f"{name} must lie in [0, 2**64), got {value}")
    return value


class RngStream:
    """A deterministic random stream identified by (seed, stream id), each in [0, 2**64)."""

    def __init__(self, seed: int, stream: int = 0) -> None:
        self.seed = _word(seed, "seed")
        self.stream = _word(stream, "stream id")
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        self.np = np.random.Generator(np.random.Philox(key=key))

    def child(self, index: int) -> "RngStream":
        """Derive an independent stream from a child index in [0, 2**64);
        distinct indices never collide in practice (64-bit mixed ids).

        The one fixed point: ``_mix64(0, 0) == 0``, so ``child(0)`` of a
        stream with id 0 is that stream itself, and ``RngStream(s).child(0)``
        draws exactly what ``RngStream(s)`` draws.  A root that hands out
        children should therefore draw nothing itself."""
        return RngStream(self.seed, _mix64(self.stream, _word(index, "child index")))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream={self.stream})"
