"""The CRFS mount: POSIX-style facade over the aggregation pipeline.

This is the functional-plane equivalent of the paper's FUSE mount.  An
application opens files, writes, reads, closes — and behind the facade
writes coalesce into pooled chunks that IO threads push to the backing
:class:`~repro.backends.base.Backend` asynchronously (Section IV).

Semantics preserved from the paper:

* **write** returns as soon as the data is copied into a chunk;
* **close/fsync** flush the partial chunk and block until the file's
  ``complete_chunk_count`` equals its ``write_chunk_count``;
* **read and namespace ops pass through** to the backend untouched;
* the **file layout on the backend is unchanged**, so anything written
  through CRFS is readable without it (the paper's restart property).

Error contract: an asynchronous chunk-write failure is latched in the
file entry and raised from the next close()/fsync() on that file — the
POSIX writeback-error contract.

The pipeline *state machine* — fill/seal planning, drain accounting,
the error latch — lives in the shared, plane-agnostic
:class:`~repro.pipeline.kernel.FilePipeline`; this module supplies its
threaded execution: real buffers, locks, IO threads.  Every state
transition is published on the mount's
:class:`~repro.pipeline.kernel.PipelineKernel` event stream, from which
the :meth:`CRFS.stats` snapshot is derived (and to which callers may
``subscribe`` extra observers, e.g. a trace recorder).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Iterable

from ..backends.base import Backend, BackendStat, normalize_path
from ..backends.tiered import TieredBackend
from ..config import CRFSConfig, DEFAULT_CONFIG
from ..errors import FileStateError, MountError
from ..pipeline import Fill, PipelineKernel, PipelineObserver, Seal, SealReason
from ..pipeline.readahead import ReadaheadCore
from ..pipeline.resilience import BackendHealth, run_attempts
from ..pipeline.tenancy import DRRScheduler, PoolLedger
from .buffer_pool import BufferPool
from .chunk import Chunk
from .delta import DeltaCheckpointer
from .filetable import FileEntry, OpenFileTable
from .handle import CRFSFile
from .iopool import IOThreadPool, WorkItem
from .readcache import ReadCache
from .workqueue import WorkQueue

__all__ = ["CRFS"]


class CRFS:
    """A mounted CRFS instance.

    >>> from repro.backends import MemBackend
    >>> with CRFS(MemBackend()) as fs:
    ...     with fs.open("/ckpt/rank0.img") as f:
    ...         _ = f.write(b"snapshot bytes")
    """

    def __init__(
        self,
        backend: Backend,
        config: CRFSConfig = DEFAULT_CONFIG,
        observers: Iterable[PipelineObserver] = (),
    ):
        self.backend = backend
        self.config = config
        self.tenants = config.tenant_registry()
        # Hierarchical staging: a tiered backend joins the mount's
        # pipeline — its tier events feed the unified stream (the
        # `tiers` stats section) and its per-tier retry/breaker policy
        # comes from the same config knobs as the mount's own.
        self.tiered = backend if isinstance(backend, TieredBackend) else None
        self.kernel = PipelineKernel(
            config.chunk_size,
            pool_chunks=config.pool_chunks,
            clock=time.perf_counter,
            observers=observers,
            tenants=self.tenants.names,
            tiers=len(self.tiered.tiers) if self.tiered is not None else 0,
            fsync_tier=(
                self.tiered.resolve_fsync_tier(config.fsync_tier)
                if self.tiered is not None
                else -1
            ),
        )
        stats = self.kernel.stats
        self.retry = config.retry_policy()
        self.health = BackendHealth(
            config.breaker_threshold, emit=self.kernel.emit, clock=self.kernel.clock
        )
        if self.tiered is not None:
            self.tiered.bind(
                emit=self.kernel.emit,
                clock=self.kernel.clock,
                retry=self.retry,
                breaker_threshold=config.breaker_threshold,
                fsync_tier=config.fsync_tier,
                pump_threads=config.tier_pump_threads,
                pump_batch_chunks=config.tier_pump_batch_chunks,
            )
        # With no tenants configured the ledger stays off and the
        # scheduler (one default sub-queue, weight 1) degrades to exact
        # FIFO — the pre-tenant single-tenant pipeline.
        ledger = (
            PoolLedger(config.pool_chunks, self.tenants.reservations())
            if self.tenants.active
            else None
        )
        self.pool = BufferPool(
            config.chunk_size, config.pool_size, stats=stats, ledger=ledger
        )
        self.queue = WorkQueue(
            stats=stats,
            scheduler=DRRScheduler(
                weights=self.tenants.weights(), fair=config.tenant_fairness
            ),
            quotas=self.tenants.quotas() if self.tenants.active else None,
        )
        self.iopool = IOThreadPool(
            backend,
            self.queue,
            self.pool,
            config.io_threads,
            stats=stats,
            retry=self.retry,
            health=self.health,
            emit=self.kernel.emit,
            batch_chunks=config.writeback_batch_chunks,
        )
        self.table = OpenFileTable()
        self.delta = DeltaCheckpointer(self)
        self._mounted = False
        self._lifecycle = threading.Lock()

    # -- mount-level stats views (all counters live in kernel.stats) -----------

    @property
    def total_writes(self) -> int:
        return self.kernel.stats.writes

    @property
    def total_bytes_in(self) -> int:
        return self.kernel.stats.bytes_in

    @property
    def write_through_bytes(self) -> int:
        return self.kernel.stats.write_through_bytes

    @property
    def seal_counts(self) -> dict[SealReason, int]:
        return dict(self.kernel.stats.seal_counts)

    # -- lifecycle -----------------------------------------------------------

    def mount(self) -> "CRFS":
        with self._lifecycle:
            if self._mounted:
                raise MountError("already mounted")
            self.iopool.start()
            self._mounted = True
        return self

    def unmount(self, timeout: float = 30.0) -> None:
        """Flush and drain every open file, stop the IO threads.

        Files still open are flushed and their backend handles closed (a
        forced unmount); their CRFSFile handles become unusable.
        """
        with self._lifecycle:
            if not self._mounted:
                return
            # Shard-ordered teardown: each tenant partition flushes and
            # drains as a unit, so one tenant's backlog is fully retired
            # before the next partition is touched.
            for tenant in self.table.tenants():
                for path in self.table.paths(tenant):
                    entry = self.table.lookup(path)
                    if entry is None:
                        continue
                    with entry.write_lock:
                        self._flush_locked(entry)
                    entry.wait_drained(timeout=timeout)
                    if entry.read_cache is not None:
                        # Before iopool.shutdown: in-flight prefetch entries
                        # are marked evicted and the (still running) workers
                        # return their buffers themselves.
                        entry.read_cache.clear()
                    # drop all remaining references
                    last = False
                    while not last:
                        _, last = self.table.close(path)
                    self.backend.close(entry.backend_handle)
                    self.kernel.file_closed(path, tenant=entry.tenant)
            self.iopool.shutdown(timeout=timeout)
            if self.tiered is not None:
                # The IO workers are gone, so tier 0 holds everything it
                # will ever hold; drain the pump to the deepest tier and
                # stop its workers before declaring the mount down.
                self.tiered.shutdown(timeout=timeout)
            self.pool.close()
            self._mounted = False

    def __enter__(self) -> "CRFS":
        return self.mount()

    def __exit__(self, *exc: Any) -> None:
        self.unmount()

    @property
    def mounted(self) -> bool:
        return self._mounted

    def _require_mounted(self) -> None:
        if not self._mounted:
            raise MountError("filesystem is not mounted")

    # -- file open/close -------------------------------------------------------

    def open(
        self,
        path: str,
        create: bool = True,
        truncate: bool = False,
        tenant: str | None = None,
    ) -> CRFSFile:
        """Open (by default create) a file for aggregated writing.

        Mirrors the paper's open path: look up the hash table; bump the
        refcount if already open, otherwise insert a fresh entry and
        open/create the backing file.  ``truncate`` on a path that is
        already open raises :class:`FileStateError`, like
        :meth:`truncate` does.

        ``tenant`` pins the open to a tenant explicitly; by default the
        mount's :class:`~repro.pipeline.tenancy.TenantRegistry` maps the
        path through the configured fnmatch rules (falling back to
        ``default``).  The tenant decides the file's table partition,
        its buffer-pool quota and its IO scheduling share.
        """
        self._require_mounted()
        norm = normalize_path(path)
        resolved = self.tenants.resolve(norm, tenant)

        def make_entry() -> FileEntry:
            handle = self.backend.open(norm, create=create, truncate=truncate)
            self.kernel.file_opened(norm, tenant=resolved)
            entry = FileEntry(
                norm,
                handle,
                self.config.chunk_size,
                emit=self.kernel.emit,
                clock=self.kernel.clock,
                tenant=resolved,
                kernel=self.kernel,
            )
            if self.config.read_cache_chunks > 0:
                entry.read_cache = ReadCache(
                    norm,
                    self.backend,
                    handle,
                    ReadaheadCore(
                        norm,
                        self.config.chunk_size,
                        capacity=self.config.read_cache_chunks,
                        depth=self.config.readahead_chunks,
                        emit=self.kernel.emit,
                        clock=self.kernel.clock,
                        adaptive=self.config.readahead_adaptive,
                    ),
                    self.pool,
                    self.queue,
                    health=self.health,
                    tenant=resolved,
                )
            return entry

        entry = self.table.open(norm, make_entry, truncate=truncate)
        return CRFSFile(self, entry)

    def _close_entry(self, entry: FileEntry, timeout: float = 60.0) -> None:
        """close() semantics (Section IV-C): flush the partial chunk, wait
        for all outstanding chunk writes, then drop the reference."""
        self._require_mounted()
        with entry.write_lock:
            self._flush_locked(entry)
        try:
            entry.wait_drained(timeout=timeout)
        finally:
            _, last = self.table.close(entry.path)
            if last:
                if entry.read_cache is not None:
                    entry.read_cache.clear()
                self.backend.close(entry.backend_handle)
                self.kernel.file_closed(entry.path, tenant=entry.tenant)

    # -- write path ---------------------------------------------------------

    def _write(self, entry: FileEntry, data: bytes | memoryview, offset: int) -> int:
        """Aggregate one write (Section IV-B).  Returns the byte count.

        While the backend circuit breaker is open, every write skips
        aggregation: the partial chunk is sealed first (preserving issue
        order), then the data goes straight to the backend synchronously
        (bypassing the buffer pool) and doubles as a recovery probe.
        """
        self._require_mounted()
        # Sizes count bytes, not elements: a multi-byte-format buffer
        # (array('i'), a float64 ndarray) is written whole.
        view = memoryview(data).cast("B")
        nbytes = len(view)
        t0 = self.kernel.clock()
        if self.health.degraded:
            with entry.write_lock:
                if entry.read_cache is not None:
                    entry.read_cache.invalidate(offset, nbytes)
                for op in entry.pipeline.plan_write_through(offset, nbytes):
                    assert isinstance(op, Seal)
                    self._seal_current(entry, op)
            # Outside write_lock: the degraded probe retries with
            # backoff, and sleeping under the per-file lock would stall
            # every concurrent writer to this file for the full retry
            # budget.  Issue order is already pinned — the seals above
            # were enqueued under the lock, and positional pwrites to
            # disjoint offsets commute.
            self._pwrite_degraded(entry, view, offset)
            entry.pipeline.note_write(offset, nbytes, start=t0, degraded=True)
            return nbytes
        with entry.write_lock:
            if entry.read_cache is not None:
                # Cached chunks covering these bytes are stale the moment
                # the write is accepted (reads go flush+drain first, but
                # the cache would otherwise keep serving the old bytes).
                entry.read_cache.invalidate(offset, nbytes)
            # Both plan calls fail fast if a prior async write already
            # failed — writing more data into chunks would be silently lost.
            chunk_offset = entry.pipeline.plan_append(offset, nbytes)
            if chunk_offset >= 0:
                # The common write: one copy into the open chunk.
                chunk = entry.current_chunk
                if chunk is None:
                    try:
                        chunk = self._open_chunk(entry, offset - chunk_offset)
                    except BaseException:
                        entry.resync_planner(entry.planner.sealed_end)
                        raise
                chunk.append(view, chunk_offset, nbytes)
            else:
                self._write_ops(entry, view, offset, nbytes)
        entry.pipeline.note_write(offset, nbytes, start=t0)
        return nbytes

    def _write_ops(
        self, entry: FileEntry, view: memoryview, offset: int, nbytes: int
    ) -> None:
        """Run the planner's Fill/Seal ops for a write the in-place
        append refused (caller holds write_lock)."""
        # The end of the furthest seal that ran: the planner's own
        # sealed_end also counts seals planned past a failing op.
        sealed_end = entry.planner.sealed_end
        try:
            for op in entry.pipeline.plan_write(offset, nbytes):
                if isinstance(op, Fill):
                    chunk = entry.current_chunk
                    if chunk is None:
                        chunk = self._open_chunk(entry, op.file_offset - op.chunk_offset)
                    chunk.append(
                        view[op.data_offset : op.data_offset + op.length],
                        op.chunk_offset,
                        op.length,
                    )
                else:  # Seal
                    sealed_end = max(sealed_end, op.file_offset + op.length)
                    self._seal_current(entry, op)
        except BaseException:
            entry.resync_planner(sealed_end)
            raise

    def _open_chunk(self, entry: FileEntry, file_offset: int) -> Chunk:
        """Acquire a pool chunk and open it for ``entry`` at
        ``file_offset`` (caller holds write_lock); blocks while the
        pool is exhausted — the write path's backpressure point."""
        if self.pool.free_chunks == 0:
            # Read-cache leases draw on this same pool; a fully populated
            # cache (capacity >= pool) can otherwise pin every chunk and
            # starve the writer forever.  The cache is advisory — a
            # blocked writer is not — so shed it first.
            self._shed_read_caches()
        chunk = self.pool.acquire(tenant=entry.tenant)
        chunk.open_for(entry, file_offset)
        entry.current_chunk = chunk
        return chunk

    def _pwrite_degraded(
        self, entry: FileEntry, view: memoryview, offset: int
    ) -> None:
        """Synchronous probe write while the circuit breaker is open.

        Retried under the mount policy like any chunk writeback; a
        success closes the breaker (the health tracker emits
        ``BackendRecovered``), exhaustion raises to the writer — the
        error is synchronous, so nothing is latched.
        """
        error = run_attempts(
            self.retry,
            lambda: self.backend.pwrite(entry.backend_handle, view, offset),
            path=entry.path,
            file_offset=offset,
            health=self.health,
            on_retry=lambda attempt, delay, exc: entry.pipeline.note_retry(
                offset, attempt, delay, exc
            ),
        )
        if error is not None:
            raise error

    def _shed_read_caches(self) -> None:
        """Pool-pressure relief: return every read-cache-held buffer.

        Cross-file on purpose — any open file's cache may be what pins
        the pool.  In-flight fetches are marked evicted and release on
        completion, so a shed may free chunks slightly later than it
        returns; ``pool.acquire`` then waits the short remainder."""
        for tenant in self.table.tenants():
            for path in self.table.paths(tenant):
                entry = self.table.lookup(path)
                if entry is not None and entry.read_cache is not None:
                    entry.read_cache.clear()

    def _seal_current(self, entry: FileEntry, seal: Seal) -> None:
        chunk = entry.current_chunk
        if chunk is None:
            raise FileStateError(f"{entry.path}: seal with no open chunk")
        if chunk.valid != seal.length or chunk.file_offset != seal.file_offset:
            raise FileStateError(
                f"{entry.path}: planner/runtime divergence "
                f"(chunk {chunk.file_offset}+{chunk.valid}, "
                f"seal {seal.file_offset}+{seal.length})"
            )
        chunk.seal(seal.reason)
        entry.current_chunk = None
        # Counted before the put, so an IO worker can never complete a
        # chunk the drain counters have not seen yet.
        entry.note_chunk_queued(seal)
        entry.unqueued.append(chunk)
        self._put_unqueued(entry)

    def _put_unqueued(self, entry: FileEntry) -> None:
        """Hand the file's sealed chunks to the work queue, oldest first
        (caller holds write_lock).  A chunk whose put raises (its
        tenant's quota stayed full past the deadline) stays on the file
        and is offered again by the next seal or flush: it holds
        acknowledged bytes and the drain already counts it."""
        unqueued = entry.unqueued
        while unqueued:
            self.queue.put(WorkItem(chunk=unqueued[0], entry=entry), tenant=entry.tenant)
            del unqueued[0]

    def _flush_locked(self, entry: FileEntry) -> None:
        """Seal the partial chunk, if any, and queue every sealed chunk
        (caller holds write_lock)."""
        for op in entry.pipeline.plan_flush():
            assert isinstance(op, Seal)
            self._seal_current(entry, op)
        if entry.unqueued:
            self._put_unqueued(entry)

    def _fsync(self, entry: FileEntry, timeout: float = 60.0) -> None:
        """fsync() semantics (Section IV-D2): enqueue the current buffer
        chunk, wait for all outstanding chunk writes, then fsync the
        underlying file."""
        self._require_mounted()
        with entry.write_lock:
            self._flush_locked(entry)
        entry.wait_drained(timeout=timeout)
        self.backend.fsync(entry.backend_handle)

    # -- read path (passthrough or readahead cache) ----------------------------

    def _read(self, entry: FileEntry, size: int, offset: int) -> bytes:
        """read(): passthrough by default, cached with readahead on.

        The paper's behaviour (Section IV-D1) — "we directly pass it to
        the underlying filesystem without any additional operation" —
        is the default and the ``read_cache_chunks=0`` path.  With
        ``read_passthrough=False`` a passthrough read still flushes and
        drains first (read-your-writes for non-checkpoint workloads).

        With a read cache configured, reads flush+drain (read-your-
        writes through pending chunks), then serve chunk-aligned slices
        from the per-file cache, prefetching the next
        ``readahead_chunks`` through the IO pool.  While the circuit
        breaker is open the cache is bypassed entirely — every backend
        op is suspect, so reads degrade to the synchronous passthrough
        the paper ships.
        """
        self._require_mounted()
        t0 = self.kernel.clock()
        cache = entry.read_cache
        if cache is None or self.health.degraded:
            if not self.config.read_passthrough:
                with entry.write_lock:
                    self._flush_locked(entry)
                entry.wait_drained()
            data = self.backend.pread(entry.backend_handle, size, offset)
            entry.pipeline.note_read(offset, size, start=t0)
            return data
        with entry.write_lock:
            self._flush_locked(entry)
        entry.wait_drained()
        file_size = max(
            self.backend.file_size(entry.backend_handle),
            entry.planner.append_point,
        )
        data = cache.read(size, offset, file_size)
        # The cache served views internally; the bytes it returned are
        # the one boundary materialization — account it (len(data) is
        # the request clipped at file_size, matching the timing plane's
        # end - offset).
        entry.pipeline.note_read(offset, size, start=t0, copied=len(data))
        return data

    # -- incremental (delta) checkpointing --------------------------------------

    def delta_checkpoint(
        self,
        path: str,
        image: bytes | bytearray | memoryview,
        dirty: Iterable[int] | None = None,
        tenant: str | None = None,
    ):
        """Commit one delta generation of ``path`` (see
        :class:`~repro.core.delta.DeltaCheckpointer`)."""
        return self.delta.checkpoint(path, image, dirty=dirty, tenant=tenant)

    def delta_restore(self, path: str, tenant: str | None = None) -> bytes:
        """Reassemble ``path``'s current image across its generation
        chain, consulting the manifest."""
        return self.delta.restore(path, tenant=tenant)

    # -- namespace passthrough (Section IV-D3) -----------------------------------

    def exists(self, path: str) -> bool:
        self._require_mounted()
        return self.backend.exists(normalize_path(path))

    def stat(self, path: str) -> BackendStat:
        self._require_mounted()
        return self.backend.stat(normalize_path(path))

    def unlink(self, path: str) -> None:
        self._require_mounted()
        norm = normalize_path(path)
        # An open CRFS file may still have chunks in flight whose
        # pwrites would recreate confusion; the paper's workload never
        # unlinks open checkpoints, so we refuse loudly.  The check and
        # the unlink are one step: an open() cannot slip in between.
        self.table.unless_open([norm], lambda: self.backend.unlink(norm))

    def mkdir(self, path: str) -> None:
        self._require_mounted()
        self.backend.mkdir(normalize_path(path))

    def rmdir(self, path: str) -> None:
        self._require_mounted()
        self.backend.rmdir(normalize_path(path))

    def listdir(self, path: str) -> list[str]:
        self._require_mounted()
        return self.backend.listdir(normalize_path(path))

    def rename(self, old: str, new: str) -> None:
        """Refused while either path is open: renaming over an open file
        would strand its chunks on the replaced file."""
        self._require_mounted()
        src, dst = normalize_path(old), normalize_path(new)
        self.table.unless_open([src, dst], lambda: self.backend.rename(src, dst))

    def truncate(self, path: str, size: int) -> None:
        self._require_mounted()
        norm = normalize_path(path)
        self.table.unless_open([norm], lambda: self.backend.truncate(norm, size))

    # -- introspection -----------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """One atomic snapshot of the pipeline counters.

        Served straight from the kernel's :class:`PipelineStats`
        registry — the timing plane's ``SimCRFS.stats()`` returns the
        identical schema from the identical code path.
        """
        return self.kernel.snapshot()
