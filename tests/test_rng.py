"""Random streams: a block stream hands out exactly the single draws it replaces."""

import numpy as np
import pytest

from interoai.errors import StreamMisuse
from interoai.rng import BLOCK, BlockStream, stream

# Enough draws to cross two block boundaries and stop inside a third block.
DRAWS = 2 * BLOCK + 37


def _draw(source, call):
    kind, *args = call
    if kind == "normal":
        return source.normal(args[0], args[1], size=args[2]).tobytes()
    return getattr(source, kind)(*args)


def test_block_random_equals_single_draws_bitwise():
    blocked = BlockStream(11, 2, "agent")
    single = stream(11, 2, "agent")
    got = [blocked.random() for _ in range(DRAWS)]
    want = [single.random() for _ in range(DRAWS)]
    assert all(type(v) is float for v in got)
    assert [v.hex() for v in got] == [v.hex() for v in want]


def test_block_integers_equal_single_draws():
    blocked = BlockStream(11, 2, "blanket-policy")
    single = stream(11, 2, "blanket-policy")
    got = [blocked.integers(0, 6) for _ in range(DRAWS)]
    want = [int(single.integers(0, 6)) for _ in range(DRAWS)]
    assert got == want
    assert set(got) == set(range(6))


@pytest.mark.parametrize("scale,size", [(0.5, (5, 5)), (3.0, (3, 4))])
def test_block_normal_fields_equal_single_draws_bitwise(scale, size):
    blocked = BlockStream(4, 0, "blanket-env")
    single = stream(4, 0, "blanket-env")
    for _ in range(DRAWS):
        got = blocked.normal(0.0, scale, size)
        want = single.normal(0.0, scale, size=size)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_normal_block_hands_out_the_block_and_index_of_each_draw():
    blocked = BlockStream(4, 0, "blanket-env")
    single = stream(4, 0, "blanket-env")
    blocks = []  # each distinct block, kept alive so identities stay unique
    for n in range(DRAWS):
        # normal_block and normal share one lock and one sequence of draws.
        if n % 3:
            block, i = blocked.normal_block(0.0, 0.5, (5, 5))
            assert block.shape == (BLOCK, 5, 5) and not block.flags.writeable
            assert i == n % BLOCK
            got = block[i]
            if not any(block is b for b in blocks):
                blocks.append(block)
        else:
            got = blocked.normal(0.0, 0.5, (5, 5))
        assert got.tobytes() == single.normal(0.0, 0.5, size=(5, 5)).tobytes()
    assert len(blocks) == 3
    with pytest.raises(StreamMisuse):
        blocked.normal_block(0.0, 0.4, (5, 5))
    s = BlockStream(0, 0, "agent")
    s.random()
    with pytest.raises(StreamMisuse):
        s.normal_block(0.0, 0.5, (5, 5))


def test_block_stream_rejects_a_second_kind_of_draw():
    s = BlockStream(0, 0, "agent")
    s.random()
    with pytest.raises(StreamMisuse):
        s.integers(0, 6)
    with pytest.raises(StreamMisuse):
        s.normal(0.0, 1.0, (2, 2))
    s = BlockStream(0, 0, "env")
    s.normal(0.0, 0.5, (5, 5))
    with pytest.raises(StreamMisuse):
        s.random()


@pytest.mark.parametrize("before", [5, BLOCK + 1])
@pytest.mark.parametrize("second", [("integers", 0, 6), ("normal", 0.0, 0.5, (5, 5))])
def test_random_fast_path_still_enforces_the_lock(before, second):
    # `random()` skips the lock check while its block lasts; the other draws
    # must still be refused, inside a block and just past a block boundary.
    s = BlockStream(3, 1, "agent")
    plain = stream(3, 1, "agent")
    for _ in range(before):
        assert s.random() == plain.random()
    for _ in range(2):
        with pytest.raises(StreamMisuse):
            _draw(s, second)
        # The refused call handed nothing out: the stream goes on where it was.
        assert s.random().hex() == plain.random().hex()


@pytest.mark.parametrize("before", [5, BLOCK + 1])
def test_random_is_refused_by_a_stream_locked_to_another_draw(before):
    s = BlockStream(3, 1, "policy")
    plain = stream(3, 1, "policy")
    for _ in range(before):
        assert s.integers(0, 6) == int(plain.integers(0, 6))
    with pytest.raises(StreamMisuse):
        s.random()
    assert s.integers(0, 6) == int(plain.integers(0, 6))


@pytest.mark.parametrize(
    "first,second",
    [
        (("integers", 0, 6), ("integers", 0, 5)),
        (("integers", 0, 6), ("integers", 1, 6)),
        (("normal", 0.0, 0.5, (5, 5)), ("normal", 0.0, 0.4, (5, 5))),
        (("normal", 0.0, 0.5, (5, 5)), ("normal", 1.0, 0.5, (5, 5))),
        (("normal", 0.0, 0.5, (5, 5)), ("normal", 0.0, 0.5, (5, 4))),
    ],
)
def test_block_stream_rejects_other_arguments(first, second):
    s = BlockStream(0, 0, "x")
    plain = stream(0, 0, "x")
    assert _draw(s, first) == _draw(plain, first)
    with pytest.raises(StreamMisuse):
        _draw(s, second)
    # The refused call handed nothing out: the stream goes on where it was.
    assert _draw(s, first) == _draw(plain, first)


def test_block_normal_field_cannot_be_written_through():
    s = BlockStream(0, 0, "env")
    field = s.normal(0.0, 0.5, (5, 5))
    with pytest.raises(ValueError):
        field[0, 0] = 1.0
    with pytest.raises(ValueError):
        field.flags.writeable = True
    with pytest.raises(ValueError):
        np.add(field, 1.0, out=field)
