"""Zero-copy hot path: copy accounting, ``pread_into``, aliasing.

The PR's contract, unit-by-unit:

* :class:`~repro.pipeline.copies.CopyLedger` and the ``stats()["mem"]``
  section it backs — every budgeted copy site counted, nothing else;
* ``Backend.pread_into`` — the readinto-style read that lets the cache
  fill pooled buffers without the backend-boundary ``bytes``;
* the pwrite **aliasing contract** — backends consume the caller's
  buffer before returning, so mutating a ``bytearray`` the moment
  ``pwrite``/``write`` returns never corrupts what was written;
* :meth:`~repro.core.chunk.Chunk.fill_external` — the fetch path's
  zero-copy twin of ``append``;
* the read cache's deferred release — a multi-chunk read that evicts a
  chunk mid-collection must still serve the evicted chunk's bytes and
  leak nothing back to the pool;
* ``DRRScheduler.gather`` — the in-place scan preserves relative order
  around skipped items in both fair and fifo modes.
"""

import copy

import pytest

from repro.backends import (
    FaultRule,
    FaultyBackend,
    InstrumentedBackend,
    LocalDirBackend,
    MemBackend,
    TieredBackend,
)
from repro.backends.base import Backend
from repro.config import CRFSConfig
from repro.core import CRFS
from repro.core.chunk import Chunk
from repro.errors import FileStateError
from repro.perf.runner import run_scenario_sim
from repro.perf.scenarios import SCENARIOS
from repro.pipeline.copies import COPY_SITES, FETCH, INGEST, READ_BOUNDARY, CopyLedger
from repro.pipeline.events import ChunkFetched, ReadObserved, WriteObserved
from repro.pipeline.stats import PipelineStats
from repro.pipeline.tenancy import DRRScheduler
from repro.units import KiB

CHUNK = 64 * KiB


# -- the ledger ---------------------------------------------------------------


class TestCopyLedger:
    def test_records_totals_and_sites(self):
        ledger = CopyLedger()
        ledger.record(INGEST, 100)
        ledger.record(INGEST, 50)
        ledger.record(READ_BOUNDARY, 7)
        snap = ledger.snapshot()
        assert snap["copies"] == 3
        assert snap["bytes_copied"] == 157
        assert snap["by_site"][INGEST] == {"copies": 2, "bytes": 150}
        assert snap["by_site"][READ_BOUNDARY] == {"copies": 1, "bytes": 7}

    def test_all_sites_preseeded_at_zero(self):
        snap = CopyLedger().snapshot()
        assert snap["bytes_copied"] == 0
        assert snap["copies"] == 0
        assert set(snap["by_site"]) == set(COPY_SITES)
        for site in COPY_SITES:
            assert snap["by_site"][site] == {"copies": 0, "bytes": 0}

    def test_snapshot_is_independent(self):
        ledger = CopyLedger()
        ledger.record(FETCH, 4)
        snap = ledger.snapshot()
        snap["by_site"][FETCH]["bytes"] = 999
        assert ledger.snapshot()["by_site"][FETCH]["bytes"] == 4


class TestStatsMemSection:
    def test_copy_events_feed_the_mem_section(self):
        def write(length, degraded=False):
            return WriteObserved(
                path="/f", offset=0, length=length, start=0.0, duration=0.0,
                degraded=degraded,
            )

        def read(copied):
            return ReadObserved(
                path="/f", offset=0, length=7, start=0.0, duration=0.0,
                copied=copied,
            )

        stats = PipelineStats(chunk_size=CHUNK, pool_chunks=4)
        for event in (
            write(100),
            write(28),
            write(0),  # empty write: nothing ingested
            write(CHUNK, degraded=True),  # write-through: bypasses the pool
            read(7),
            read(0),  # passthrough read: no pipeline copy
            ChunkFetched(path="/f", file_offset=0, length=CHUNK),
        ):
            stats.on_event(event)
        mem = stats.snapshot()["mem"]
        assert mem["copies"] == 4
        assert mem["bytes_copied"] == 128 + 7 + CHUNK
        assert mem["by_site"][INGEST] == {"copies": 2, "bytes": 128}
        assert mem["by_site"][READ_BOUNDARY] == {"copies": 1, "bytes": 7}
        assert mem["by_site"][FETCH] == {"copies": 1, "bytes": CHUNK}

    def test_idle_snapshot_keeps_full_schema(self):
        mem = PipelineStats().snapshot()["mem"]
        assert mem == {
            "bytes_copied": 0,
            "copies": 0,
            "by_site": {s: {"copies": 0, "bytes": 0} for s in COPY_SITES},
        }


# -- pread_into across backends -----------------------------------------------


@pytest.fixture(params=["mem", "localdir"])
def backend(request, tmp_path):
    if request.param == "mem":
        return MemBackend()
    return LocalDirBackend(str(tmp_path / "root"))


class TestPreadInto:
    def test_fills_buffer(self, backend):
        fd = backend.open("/f")
        backend.pwrite(fd, b"0123456789", 0)
        buf = bytearray(4)
        assert backend.pread_into(fd, buf, 3) == 4
        assert bytes(buf) == b"3456"
        backend.close(fd)

    def test_short_read_at_eof(self, backend):
        fd = backend.open("/f")
        backend.pwrite(fd, b"abc", 0)
        buf = bytearray(10)
        assert backend.pread_into(fd, buf, 1) == 2
        assert bytes(buf[:2]) == b"bc"
        backend.close(fd)

    def test_offset_past_eof_reads_nothing(self, backend):
        fd = backend.open("/f")
        backend.pwrite(fd, b"abc", 0)
        buf = bytearray(b"\xff" * 8)
        assert backend.pread_into(fd, buf, 100) == 0
        assert bytes(buf) == b"\xff" * 8
        backend.close(fd)

    def test_memoryview_slice_destination(self, backend):
        fd = backend.open("/f")
        backend.pwrite(fd, b"0123456789", 0)
        buf = bytearray(b"." * 10)
        assert backend.pread_into(fd, memoryview(buf)[2:6], 4) == 4
        assert bytes(buf) == b"..4567...."
        backend.close(fd)

    def test_base_default_splices_through_pread(self, backend):
        # The unbound base-class method is the pread-and-splice fallback
        # every backend inherits; it must agree with the overrides.
        fd = backend.open("/f")
        backend.pwrite(fd, b"0123456789", 0)
        buf = bytearray(6)
        assert Backend.pread_into(backend, fd, buf, 2) == 6
        assert bytes(buf) == b"234567"
        backend.close(fd)

    def test_tiered_serves_from_tier_zero(self):
        tiered = TieredBackend([MemBackend(), MemBackend()])
        try:
            fd = tiered.open("/f")
            tiered.pwrite(fd, b"staged bytes", 0)
            buf = bytearray(12)
            assert tiered.pread_into(fd, buf, 0) == 12
            assert bytes(buf) == b"staged bytes"
            tiered.close(fd)
        finally:
            tiered.shutdown()

    def test_instrumented_records_the_op(self):
        inst = InstrumentedBackend(MemBackend())
        fd = inst.open("/f")
        inst.pwrite(fd, b"xyzw", 0)
        buf = bytearray(4)
        inst.pread_into(fd, buf, 0)
        recs = inst.ops("pread_into")
        assert len(recs) == 1
        assert recs[0].size == 4
        assert recs[0].offset == 0
        inst.close(fd)

    def test_faulty_matches_pread_rules(self):
        # pread_into is the same logical op as pread: one rule vocabulary
        # covers both buffer-ownership variants.
        boom = OSError("injected")
        faulty = FaultyBackend(MemBackend(), [FaultRule(op="pread", error=boom)])
        fd = faulty.open("/f")
        faulty.pwrite(fd, b"abcd", 0)
        with pytest.raises(OSError, match="injected"):
            faulty.pread_into(fd, bytearray(4), 0)
        # The rule was one-shot (nth=1): the next read goes through.
        buf = bytearray(4)
        assert faulty.pread_into(fd, buf, 0) == 4
        assert bytes(buf) == b"abcd"
        faulty.close(fd)


# -- the aliasing contract ----------------------------------------------------


class TestAliasingContract:
    """Backends consume the caller's buffer before returning: mutating
    a ``bytearray`` the moment ``pwrite`` returns never changes what
    was written (the contract pinned on ``Backend.pwrite``)."""

    def test_backend_pwrite_snapshots(self, backend):
        buf = bytearray(b"payload!")
        fd = backend.open("/f")
        backend.pwrite(fd, buf, 0)
        buf[:] = b"XXXXXXXX"  # immediate recycle, as the pool does
        assert backend.pread(fd, 8, 0) == b"payload!"
        backend.close(fd)

    def test_backend_pwritev_snapshots(self, backend):
        parts = [bytearray(b"aaaa"), bytearray(b"bbbb")]
        fd = backend.open("/f")
        backend.pwritev(fd, [memoryview(p) for p in parts], 0)
        for p in parts:
            p[:] = b"!!!!"
        assert backend.pread(fd, 8, 0) == b"aaaabbbb"
        backend.close(fd)

    def test_mount_aggregated_write_snapshots_at_ingest(self):
        # The POSIX shim extends the same promise to applications: the
        # ingest copy into the pooled chunk is the snapshot point, so the
        # caller's buffer is dead to the pipeline once write() returns.
        mem = MemBackend()
        cfg = CRFSConfig(chunk_size=CHUNK, pool_size=4 * CHUNK, io_threads=1)
        image = bytes((i % 251) + 1 for i in range(2 * CHUNK))
        buf = bytearray(image)
        with CRFS(mem, cfg) as fs:
            with fs.open("/ckpt") as f:
                f.write(buf)
                buf[:] = b"\x00" * len(buf)  # mutate before any drain
                f.fsync()
        fd = mem.open("/ckpt", create=False)
        assert mem.pread(fd, len(image), 0) == image
        mem.close(fd)

    def test_mount_write_through_snapshots_before_return(self):
        mem = MemBackend()
        cfg = CRFSConfig(
            chunk_size=CHUNK, pool_size=4 * CHUNK, io_threads=1, breaker_threshold=1
        )
        image = bytes((i % 239) + 1 for i in range(CHUNK))
        buf = bytearray(image)
        with CRFS(mem, cfg) as fs:
            with fs.open("/ckpt") as f:
                fs.health.record_failure()  # breaker open: the write bypasses aggregation
                f.write(buf)
                buf[:] = b"\xee" * len(buf)
        fd = mem.open("/ckpt", create=False)
        assert mem.pread(fd, len(image), 0) == image
        mem.close(fd)


# -- chunk fill_external ------------------------------------------------------


class TestChunkFillExternal:
    def test_advances_valid_without_copying(self):
        chunk = Chunk(0, 16)
        chunk.buffer[:4] = b"abcd"  # the external filler (pread_into)
        chunk.fill_external(4)
        assert chunk.valid == 4
        assert bytes(chunk.payload()) == b"abcd"

    def test_rejects_partial_chunk(self):
        chunk = Chunk(0, 16)
        chunk.append(b"xy", 0, 2)
        with pytest.raises(FileStateError, match="external fill"):
            chunk.fill_external(4)

    def test_rejects_overflow(self):
        chunk = Chunk(0, 16)
        with pytest.raises(FileStateError, match="overflows"):
            chunk.fill_external(17)

    def test_failed_fetch_leaves_chunk_clean(self):
        # The fetch path fills the buffer *before* open_for, so a fetch
        # that errors between the two leaves a perfectly reusable chunk.
        chunk = Chunk(0, 16)
        chunk.buffer[:8] = b"garbage!"
        chunk.open_for(owner=object(), file_offset=0)  # still clean
        chunk.reset()


# -- deferred release under eviction ------------------------------------------


class TestReadCacheDeferredRelease:
    def test_eviction_mid_read_serves_stale_views_safely(self):
        """A 3-chunk read against a 2-chunk cache: admitting the last
        chunk evicts the first while the shim still holds its view.  The
        deferred-release window parks the evicted payload until the join
        completes — the bytes must be right and the pool must get every
        buffer back."""
        image = bytes((i % 251) + 1 for i in range(3 * CHUNK))
        fs = CRFS(
            MemBackend(),
            CRFSConfig(
                chunk_size=CHUNK, pool_size=4 * CHUNK, io_threads=1,
                read_cache_chunks=2, readahead_chunks=0,
            ),
        )
        with fs, fs.open("/ckpt") as f:
            f.write(image)
            f.fsync()
            got = f.pread(3 * CHUNK, 0)
        assert got == image
        assert fs.pool.free_chunks == fs.pool.nchunks  # nothing leaked


# -- DRR gather: in-place scan ------------------------------------------------


def _consecutive(tail, nxt):
    return nxt == tail + 1


class TestDRRGatherOrder:
    def test_fair_gather_preserves_order_around_skips(self):
        sched = DRRScheduler({"t": 1})
        for item in (1, 5, 2, 3, 9):
            sched.push("t", item)
        batch = sched.gather("t", limit=4, chain=_consecutive, tail=0)
        assert batch == [1, 2, 3]
        # Skipped items keep their relative order at the front.
        assert sched.depth("t") == 2
        assert sched.pop() == ("t", 5)
        assert sched.pop() == ("t", 9)
        assert sched.pop() is None

    def test_fair_gather_prefix_common_case(self):
        sched = DRRScheduler(None)
        for item in (1, 2, 3):
            sched.push("t", item)
        assert sched.gather("t", 8, _consecutive, 0) == [1, 2, 3]
        assert len(sched) == 0
        assert sched.pop() is None
        assert sched.service_counts["t"] == 3

    def test_fair_gather_charges_the_deficit(self):
        sched = DRRScheduler({"a": 1, "b": 1})
        for item in (1, 2, 3, 4):
            sched.push("a", item)
        sched.push("b", 100)
        sched.gather("a", 3, _consecutive, 0)
        # The coalesced run cost its length: b gets served before a's
        # remaining item despite a being first in the ring.
        assert sched.pop() == ("b", 100)
        assert sched.pop() == ("a", 4)

    def test_fifo_gather_scans_the_global_band(self):
        sched = DRRScheduler(None, fair=False)
        sched.push("t1", 1)
        sched.push("t2", 10)
        sched.push("t1", 2)
        batch = sched.gather("t1", limit=5, chain=_consecutive, tail=0)
        assert batch == [1, 2]
        assert sched.depth("t1") == 0
        assert sched.depth("t2") == 1
        assert sched.pop() == ("t2", 10)
        assert sched.pop() is None

    def test_fifo_gather_preserves_order_around_skips(self):
        sched = DRRScheduler(None, fair=False)
        for item in (1, 7, 8, 2, 9):
            sched.push("t", item)
        batch = sched.gather("t", limit=2, chain=_consecutive, tail=0)
        assert batch == [1, 2]
        assert [sched.pop()[1] for _ in range(3)] == [7, 8, 9]

    def test_gather_limit_zero_is_a_noop(self):
        sched = DRRScheduler(None)
        sched.push("t", 1)
        assert sched.gather("t", 0, _consecutive, 0) == []
        assert sched.depth("t") == 1


# -- the runner's copy metrics ------------------------------------------------


class TestZeroCopyScenarioMetrics:
    def test_sequential_write_path_pays_exactly_one_copy_per_byte(self):
        metrics = run_scenario_sim(SCENARIOS["zero_copy"], 2011, fast=True)
        mem = metrics["stats"]["mem"]
        assert metrics["bytes_copied"] == mem["bytes_copied"] == metrics["bytes_in"]
        assert metrics["copies"] == mem["copies"] > 0
        assert metrics["copy_ratio"] == 1.0
        assert mem["by_site"]["ingest"]["bytes"] == metrics["bytes_in"]
        assert mem["by_site"]["read_boundary"]["bytes"] == 0
        assert mem["by_site"]["fetch"]["bytes"] == 0

    def test_ledger_is_conserved(self):
        metrics = run_scenario_sim(SCENARIOS["zero_copy"], 2011, fast=True)
        mem = metrics["stats"]["mem"]
        assert mem["bytes_copied"] == sum(
            b["bytes"] for b in mem["by_site"].values()
        )
        assert mem["copies"] == sum(b["copies"] for b in mem["by_site"].values())


# -- cross-plane parity of the mem section ------------------------------------


class TestMemSectionCrossPlane:
    def test_functional_plane_counts_ingest_identically(self):
        # The emissions live in shared kernel code, so the threaded mount
        # produces the same ingest accounting the sim does: one copy per
        # byte written on the aggregated path.
        cfg = CRFSConfig(chunk_size=CHUNK, pool_size=4 * CHUNK, io_threads=1)
        image = bytes((i % 251) + 1 for i in range(2 * CHUNK))
        with CRFS(MemBackend(), cfg) as fs:
            with fs.open("/ckpt") as f:
                f.write(image)
            stats = fs.stats()
        mem = stats["mem"]
        assert mem["by_site"]["ingest"]["bytes"] == len(image)
        assert mem["bytes_copied"] == len(image)
        assert mem["by_site"]["read_boundary"]["bytes"] == 0

    def test_write_through_pays_no_ingest_copy(self):
        # Write-through hands the caller's buffer straight to the
        # backend (which snapshots it) — there is no pooled-chunk copy,
        # and the ledger must say so.
        cfg = CRFSConfig(
            chunk_size=CHUNK, pool_size=4 * CHUNK, io_threads=1, breaker_threshold=1
        )
        with CRFS(MemBackend(), cfg) as fs:
            with fs.open("/ckpt") as f:
                fs.health.record_failure()  # breaker open: write-through
                f.write(b"z" * CHUNK)
            stats = fs.stats()
        assert stats["mem"]["bytes_copied"] == 0
        assert stats["mem"]["copies"] == 0
