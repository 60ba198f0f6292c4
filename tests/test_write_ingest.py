"""The write-ingest path: byte counting, the value types it builds per
write and ``MemBackend``'s append.

* Buffers with a multi-byte format (``array('i')``, a float64 ndarray)
  are written whole through ``write``, ``pwrite`` and
  ``delta_checkpoint``; the pooled chunks keep their size.
* ``Fill``, ``Seal`` and ``WriteObserved`` reject assignment and
  compare by value.
* ``MemBackend.pwrite``/``pwritev`` match a reference bytearray on
  append, gap, overwrite and straddle.
"""

import array
import dataclasses
import random

import numpy as np
import pytest

from repro.backends import MemBackend
from repro.config import CRFSConfig
from repro.core import CRFS
from repro.core.chunk import Chunk
from repro.pipeline import PipelineEvent, WriteObserved
from repro.pipeline.planner import Fill, Seal, SealReason
from repro.units import KiB

CHUNK = 64 * KiB


def small_fs(backend):
    return CRFS(backend, CRFSConfig(chunk_size=CHUNK, pool_size=4 * CHUNK, io_threads=2))


#: Buffers whose element size is not one byte, sized to cover a tiny
#: fill and writes spanning chunks.
MULTIBYTE = [
    pytest.param(np.arange(4.0), id="float64"),
    pytest.param(array.array("i", [1, 2, 3]), id="int32-array"),
    pytest.param(np.arange(3 * CHUNK // 8, dtype=np.int64).reshape(3, -1), id="int64-2d"),
    pytest.param(
        memoryview(np.linspace(0.0, 1.0, CHUNK // 2, dtype=np.float32)), id="float32-view"
    ),
]


def assert_pool_intact(fs):
    assert all(len(c.buffer) == CHUNK for c in fs.pool._free)
    assert len(fs.pool._free) == fs.pool.nchunks


class TestMultiByteBuffers:
    @pytest.mark.parametrize("buf", MULTIBYTE)
    def test_write_counts_bytes(self, buf):
        backend = MemBackend()
        with small_fs(backend) as fs:
            with fs.open("/img") as f:
                n1 = f.write(b"head")
                n2 = f.write(buf)
                assert f.tell() == 4 + n2
            assert_pool_intact(fs)
        raw = memoryview(buf).tobytes()
        assert (n1, n2) == (4, len(raw))
        assert backend.read_file("/img") == b"head" + raw

    @pytest.mark.parametrize("buf", MULTIBYTE)
    def test_pwrite_counts_bytes(self, buf):
        backend = MemBackend()
        raw = memoryview(buf).tobytes()
        with small_fs(backend) as fs:
            with fs.open("/img") as f:
                assert f.pwrite(buf, 7) == len(raw)
            assert_pool_intact(fs)
        assert backend.read_file("/img") == bytes(7) + raw

    def test_write_through_counts_bytes(self):
        backend = MemBackend()
        buf = np.arange(16.0)
        cfg = CRFSConfig(
            chunk_size=CHUNK, pool_size=4 * CHUNK, io_threads=1, write_through_threshold=64
        )
        with CRFS(backend, cfg) as fs:
            with fs.open("/img") as f:
                assert f.write(buf) == buf.nbytes
            assert fs.stats()["write_through_bytes"] == buf.nbytes
        assert backend.read_file("/img") == buf.tobytes()

    @pytest.mark.parametrize("buf", MULTIBYTE)
    def test_delta_checkpoint_counts_bytes(self, buf):
        raw = memoryview(buf).tobytes()
        with small_fs(MemBackend()) as fs:
            plan = fs.delta_checkpoint("/model.ckpt", buf)
            assert plan.manifest.logical_size == len(raw)
            assert fs.delta_restore("/model.ckpt") == raw
            assert_pool_intact(fs)


class TestChunkAppend:
    @pytest.mark.parametrize("length", [1, CHUNK - 1, CHUNK, 3 * CHUNK])
    def test_append_stores_the_bytes(self, length):
        chunk = Chunk(0, 4 * CHUNK)
        data = random.Random(length).randbytes(length + 5)
        chunk.append(b"ab", 0, 2)
        chunk.append(memoryview(data)[5:], 2, length)
        assert chunk.valid == 2 + length
        assert bytes(chunk.payload()) == b"ab" + data[5:]
        assert len(chunk.buffer) == 4 * CHUNK

    def test_buffer_cannot_grow(self):
        chunk = Chunk(0, 1024)
        with pytest.raises(BufferError):
            chunk.buffer.extend(b"x")


class TestFrozenValues:
    VALUES = [
        (Fill(0, 0, 0, 10), Fill(file_offset=0, chunk_offset=0, data_offset=0, length=10)),
        (Seal(0, 10, SealReason.FULL), Seal(file_offset=0, length=10, reason=SealReason.FULL)),
        (
            WriteObserved("/f", 0, 10, 1.0, 0.5),
            WriteObserved(path="/f", offset=0, length=10, start=1.0, duration=0.5),
        ),
    ]

    @pytest.mark.parametrize("a,b", VALUES, ids=["fill", "seal", "write"])
    def test_equal_by_value(self, a, b):
        assert a == b
        assert hash(a) == hash(b)
        assert a != dataclasses.replace(a, length=11)
        assert repr(a) == repr(b)

    @pytest.mark.parametrize("a,b", VALUES, ids=["fill", "seal", "write"])
    def test_reject_assignment(self, a, b):
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.length = 99
        with pytest.raises(dataclasses.FrozenInstanceError):
            del a.length
        assert a.length == 10

    def test_write_observed_defaults(self):
        ev = WriteObserved("/f", 0, 10, 1.0, 0.5)
        assert (ev.write_through, ev.degraded, ev.tenant) == (False, False, "default")
        assert isinstance(ev, PipelineEvent)


class TestMemBackendSplice:
    """Every op is checked against a reference bytearray that applies
    POSIX pwrite semantics the slow, obvious way."""

    @staticmethod
    def reference_pwrite(ref: bytearray, data: bytes, offset: int) -> None:
        if not data:
            return
        end = offset + len(data)
        if end > len(ref):
            ref.extend(bytes(end - len(ref)))
        ref[offset:end] = data

    CASES = {
        "append": [(0, 100), (100, 50), (150, 1)],
        "gap": [(0, 10), (30, 10), (100, 5)],
        "overwrite": [(0, 100), (10, 20), (0, 5), (95, 5)],
        "straddle": [(0, 100), (90, 30), (110, 40)],
        "empty-past-eof": [(0, 10), (50, 0)],
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_pwrite(self, case):
        be, ref = MemBackend(), bytearray()
        fd = be.open("/f")
        for i, (off, n) in enumerate(self.CASES[case]):
            data = bytes([i + 1]) * n
            assert be.pwrite(fd, memoryview(data), off) == n
            self.reference_pwrite(ref, data, off)
            assert be.read_file("/f") == bytes(ref)

    @pytest.mark.parametrize("case", list(CASES))
    def test_pwritev(self, case):
        be, ref = MemBackend(), bytearray()
        fd = be.open("/f")
        for i, (off, n) in enumerate(self.CASES[case]):
            data = bytes(range(i, i + n))
            parts = [data[: n // 3], data[n // 3 : n // 3], data[n // 3 :]]
            assert be.pwritev(fd, parts, off) == n
            self.reference_pwrite(ref, data, off)
            assert be.read_file("/f") == bytes(ref)

    def test_random_sequence(self):
        rng = random.Random(13)
        be, ref = MemBackend(), bytearray()
        fd = be.open("/f")
        for _ in range(300):
            off = rng.randrange(0, len(ref) + 64)
            data = rng.randbytes(rng.randrange(0, 96))
            if rng.random() < 0.5:
                be.pwrite(fd, data, off)
            else:
                cut = rng.randrange(0, len(data) + 1)
                be.pwritev(fd, [data[:cut], data[cut:]], off)
            self.reference_pwrite(ref, data, off)
        assert be.read_file("/f") == bytes(ref)
