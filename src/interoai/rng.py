"""Deterministic random streams.

Every source of randomness in the package is a Philox (counter-based)
generator keyed by (master seed, purpose tag).  Runs therefore draw from
disjoint, order-independent streams: a sweep produces the same bytes
whether its runs execute serially or in parallel.  The purpose is all that
keeps two streams of one seed apart, so each names one use.

A step loop that makes one small draw per step can take it from a
`BlockStream`, which draws `BLOCK` values with one numpy call and hands
them out one by one.  A Philox generator carries its whole state from one
call to the next, so a block is bitwise the same sequence as the single
draws it replaces.  The invariant that keeps this true is one kind of draw
per stream: a block stream is locked to the kind and arguments of its first
draw, and any other draw raises, so a value drawn for one purpose can never
be handed out for another.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import StreamMisuse

# Draws a block stream makes per numpy call.
BLOCK = 1024
_RANDOM = ("random",)  # the lock of a stream that serves `random()`


def stream(master_seed: int, purpose: str) -> np.random.Generator:
    """Return the generator for one (seed, purpose) pair."""
    tag = zlib.crc32(purpose.encode("utf-8"))
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(0, tag))
    return np.random.Generator(np.random.Philox(seq))


class BlockStream:
    """The draws of `stream(master_seed, purpose)`, served from blocks.

    `random()` and `integers(low, high)` return the values that the same
    calls on a plain generator return, as a Python float and a Python int.
    `normal_block(loc, scale, size)` takes the draw `normal(loc, scale,
    size=size)` would return but hands out the whole read-only block and
    the draw's index there, so a caller can do its per-draw numpy work once
    per block.  The first draw fixes the call; any other call raises
    `StreamMisuse`.
    """

    __slots__ = ("_gen", "_call", "_block", "_next")

    def __init__(self, master_seed: int, purpose: str):
        self._gen = stream(master_seed, purpose)
        self._call: tuple | None = None
        self._block = ()
        self._next = 0

    def random(self) -> float:
        i = self._advance(_RANDOM)  # may draw a new block
        return self._block[i]

    def integers(self, low: int, high: int) -> int:
        i = self._advance(("integers", low, high))
        return self._block[i]

    def normal_block(self, loc: float, scale: float, size: tuple[int, ...]) -> tuple[np.ndarray, int]:
        """Take the next normal draw of shape `size`, as the read-only block
        of shape `(BLOCK, *size)` it sits in and its index there."""
        i = self._advance(("normal", loc, scale, size))
        return self._block, i

    def _advance(self, call: tuple) -> int:
        """Check `call` against the lock and return the index of its draw."""
        if call != self._call:
            if self._call is not None:
                raise StreamMisuse(f"stream locked to {self._call}, asked for {call}")
            self._call = call
        i = self._next
        if i == len(self._block):
            self._block = self._draw(call)
            i = 0
        self._next = i + 1
        return i

    def _draw(self, call: tuple):
        kind, *args = call
        if kind == "random":
            return self._gen.random(BLOCK).tolist()
        if kind == "integers":
            low, high = args
            return self._gen.integers(low, high, size=BLOCK).tolist()
        loc, scale, size = args
        block = self._gen.normal(loc, scale, size=(BLOCK, *size))
        block.flags.writeable = False
        return block
