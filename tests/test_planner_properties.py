"""Property suite: the planner's in-place append changes nothing.

``WritePlanner.append`` accounts a write in place when it lands at the
append point (or opens a chunk) and fits without sealing;
``WritePlanner.write`` tries it first.  :class:`LoopPlanner` keeps the
general loop as the only path.  Over random sequences of writes — gaps,
rewinds, zero-length writes, writes spanning several chunks,
interleaved flushes and write-through notes — the planners must emit
the same ops, op for op, and keep the same counters and append point
after every call, whether the caller goes through ``write`` or, as the
mounts do, ``append`` first and ``write`` on a miss.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.pipeline.planner import Fill, PlanOp, SealReason, WritePlanner

pytestmark = pytest.mark.property

CHUNK_SIZES = st.sampled_from([1, 7, 64, 256])


class LoopPlanner(WritePlanner):
    """The planner with every write going through the general loop."""

    def write(self, offset: int, length: int) -> list[PlanOp]:
        if offset < 0:
            raise ValueError(f"negative offset: {offset}")
        if length < 0:
            raise ValueError(f"negative length: {length}")
        self.total_writes += 1
        self.total_bytes += length
        if length == 0:
            return []
        ops: list[PlanOp] = []
        if self.chunk_fill > 0 and offset != self.append_point:
            ops.append(self._seal(SealReason.GAP))
        if self.chunk_fill == 0:
            self.chunk_file_offset = offset
        data_offset = 0
        remaining = length
        while remaining > 0:
            room = self.chunk_size - self.chunk_fill
            take = min(room, remaining)
            ops.append(
                Fill(
                    file_offset=offset + data_offset,
                    chunk_offset=self.chunk_fill,
                    data_offset=data_offset,
                    length=take,
                )
            )
            self.chunk_fill += take
            data_offset += take
            remaining -= take
            if self.chunk_fill == self.chunk_size:
                ops.append(self._seal(SealReason.FULL))
                self.chunk_file_offset = offset + data_offset
        return ops


def state(p: WritePlanner) -> tuple:
    return (
        p.chunk_file_offset,
        p.chunk_fill,
        p.total_writes,
        p.total_bytes,
        p.sealed_chunks,
        dict(p.seal_reasons),
        p.sealed_end,
    )


# A step is ("write", where, length), ("flush",) or ("external", where,
# length).  ``where`` is relative to the append point, so sequential
# writes, small gaps and rewinds all come up often.
_where = st.one_of(st.just(0), st.integers(min_value=-300, max_value=300))
_lengths = st.one_of(st.just(0), st.integers(1, 8), st.integers(1, 1200))
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("write"), _where, _lengths),
        st.tuples(st.just("write"), st.just(0), _lengths),
        st.tuples(st.just("flush")),
        st.tuples(st.just("external"), _where, st.integers(0, 300)),
    ),
    max_size=60,
)


@settings(max_examples=400, deadline=None)
@given(chunk_size=CHUNK_SIZES, steps=_steps)
def test_fast_path_matches_loop(chunk_size, steps):
    fast, loop = WritePlanner(chunk_size), LoopPlanner(chunk_size)
    for step in steps:
        if step[0] == "flush":
            assert fast.flush() == loop.flush()
        else:
            kind, where, n = step
            offset = max(0, loop.append_point + where)
            if kind == "write":
                assert fast.write(offset, n) == loop.write(offset, n)
            else:
                assert fast.note_external_write(offset, n) == loop.note_external_write(offset, n)
        assert state(fast) == state(loop)
    assert fast.flush() == loop.flush()
    assert state(fast) == state(loop)


def append_else_write(p: WritePlanner, offset: int, length: int) -> list[PlanOp]:
    """The mounts' call sequence, as the ops it stands for."""
    before = state(p)
    chunk_offset = p.append(offset, length)
    if chunk_offset >= 0:
        return [Fill(offset, chunk_offset, 0, length)]
    assert state(p) == before  # a miss changes nothing
    return p.write(offset, length)


@settings(max_examples=400, deadline=None)
@given(chunk_size=CHUNK_SIZES, steps=_steps)
def test_append_else_write_matches_loop(chunk_size, steps):
    mount, loop = WritePlanner(chunk_size), LoopPlanner(chunk_size)
    for step in steps:
        if step[0] == "flush":
            assert mount.flush() == loop.flush()
        else:
            kind, where, n = step
            offset = max(0, loop.append_point + where)
            if kind == "write":
                assert append_else_write(mount, offset, n) == loop.write(offset, n)
            else:
                assert mount.note_external_write(offset, n) == loop.note_external_write(offset, n)
        assert state(mount) == state(loop)


@pytest.mark.parametrize("offset,length", [(-1, 5), (0, -1), (-3, 0)])
def test_append_rejects_what_write_rejects(offset, length):
    p = WritePlanner(64)
    before = state(p)
    assert p.append(offset, length) == -1
    assert state(p) == before
    with pytest.raises(ValueError):
        p.write(offset, length)


@settings(max_examples=200, deadline=None)
@given(chunk_size=CHUNK_SIZES, lengths=st.lists(st.integers(0, 600), max_size=40))
def test_sequential_stream_matches_loop(chunk_size, lengths):
    """The checkpoint shape: every write at the append point."""
    fast, loop = WritePlanner(chunk_size), LoopPlanner(chunk_size)
    offset = 0
    for n in lengths:
        assert fast.write(offset, n) == loop.write(offset, n)
        assert state(fast) == state(loop)
        offset += n
