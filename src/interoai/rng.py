"""Deterministic random streams.

Every source of randomness in the package is a Philox (counter-based)
generator keyed by (master seed, run id, purpose tag).  Runs therefore draw
from disjoint, order-independent streams: a sweep produces the same bytes
whether its runs execute serially or in parallel.

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


def stream(master_seed: int, run_id: int = 0, purpose: str = "") -> np.random.Generator:
    """Return the generator for one (seed, run, purpose) triple."""
    tag = zlib.crc32(purpose.encode("utf-8"))
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(run_id), tag))
    return np.random.Generator(np.random.Philox(seq))


class BlockStream:
    """The draws of `stream(master_seed, run_id, purpose)`, served from blocks.

    Offers `random()`, `integers(low, high)` and `normal(loc, scale, size)`
    with the values that the same calls on a plain generator return: a
    Python float, a Python int, and a read-only view into the block.
    `normal_block` takes the same normal draw but hands out the whole block
    and the draw's index, so a caller can do its per-draw numpy work once
    per block.  The first draw fixes the call; any other call raises
    `StreamMisuse`.
    """

    __slots__ = ("_gen", "_call", "_block", "_next")

    def __init__(self, master_seed: int, run_id: int = 0, purpose: str = ""):
        self._gen = stream(master_seed, run_id, purpose)
        self._call: tuple | None = None
        self._block = ()
        self._next = 0

    def random(self) -> float:
        i = self._next
        if self._call is _RANDOM and i < len(self._block):  # locked to random(), block not spent
            self._next = i + 1
            return self._block[i]
        return self._take(_RANDOM)

    def integers(self, low: int, high: int) -> int:
        return self._take(("integers", low, high))

    def normal(self, loc: float, scale: float, size: tuple[int, ...]) -> np.ndarray:
        return self._take(("normal", loc, scale, size))

    def normal_block(self, loc: float, scale: float, size: tuple[int, ...]) -> tuple[np.ndarray, int]:
        """Take the draw `normal(loc, scale, size)` would return, as the
        read-only block of shape `(BLOCK, *size)` it sits in and its index
        there.  Locked like `normal`, so the two calls may be mixed.
        """
        i = self._advance(("normal", loc, scale, size))
        return self._block, i

    def _take(self, call: tuple):
        i = self._advance(call)  # may draw a new block
        return self._block[i]

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
