"""The CRFS pipeline as simulated processes.

One :class:`SimCRFS` instance models one node's CRFS mount: a buffer
pool (a :class:`~repro.pipeline.tenancy.PoolLedger` over pool chunks),
the work queue (a :class:`~repro.pipeline.tenancy.DRRScheduler`), and
``io_threads`` worker processes that write sealed chunks to the backing
:class:`~repro.simio.fsbase.SimFilesystem`.  The pipeline *state
machine* — aggregation planning, the
``write_chunk_count``/``complete_chunk_count`` drain accounting, the
error latch — is the shared, plane-agnostic
:class:`~repro.pipeline.kernel.FilePipeline`; this module supplies its
discrete-event execution on the virtual clock.  Every state transition
is published on the mount's
:class:`~repro.pipeline.kernel.PipelineKernel` stream, so
:meth:`SimCRFS.stats` reports the same schema as the functional plane's
``CRFS.stats()`` — from the identical counting code.

Costs on the write path (what the application's checkpoint time sees):

* per FUSE request (128 KiB ``big_writes`` splits): the request
  round-trip overhead, then the copy into the chunk over the node's
  shared memory bus;
* pool backpressure: when every chunk is either filling or in flight,
  the writer blocks until an IO thread recycles one — the stall that
  makes Figure 5's bandwidth rise with pool size;
* close(): flush the partial chunk, then block until the file's
  ``complete_chunk_count`` reaches its ``write_chunk_count``
  (Section IV-C), then the backing close (which on NFS triggers the
  close-to-open flush).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional

from ..checkpoint.manifest import Manifest, generation_path, manifest_path
from ..config import CRFSConfig
from ..errors import BackendIOError, ShutdownError
from ..pipeline import (
    AdmissionWait,
    BackendHealth,
    Fill,
    FilePipeline,
    PipelineKernel,
    PipelineObserver,
    PoolPressure,
    QueuePressure,
    Seal,
    WorkersDrained,
)
from ..pipeline.readahead import DEMAND, PREFETCH, CacheEntry, ReadaheadCore
from ..pipeline.staging import StagedFile, StagingCore, tier_health_emit
from ..pipeline.tenancy import DEFAULT_TENANT, DRRScheduler, PoolLedger
from ..sim import SharedBandwidth, SimEvent, SimQueue, SimTenantPool, Simulator
from ..simio.fsbase import PAGE, SimFile, SimFilesystem
from ..simio.params import HardwareParams
from ..simio.tiered import TieredSimFilesystem
from .fuse import fuse_requests

__all__ = ["SimCRFS", "SimCRFSFile"]


class SimCRFSFile:
    """Per-file CRFS state on the timing plane."""

    __slots__ = (
        "path",
        "pipeline",
        "backend_file",
        "tenant",
        "has_chunk",
        "_drain_waiters",
        "pos",
        "read_pos",
        "known_size",
        "read_core",
        "staged",
    )

    def __init__(
        self,
        path: str,
        pipeline: FilePipeline,
        backend_file: SimFile,
        known_size: int = 0,
        read_core: Optional[ReadaheadCore] = None,
        tenant: str = DEFAULT_TENANT,
        staged: Optional[StagedFile] = None,
    ):
        self.path = path
        self.pipeline = pipeline
        self.backend_file = backend_file
        self.tenant = tenant
        self.has_chunk = False  # a chunk is currently open for this file
        self._drain_waiters: list[SimEvent] = []
        #: Tier-staging debt (tiered mounts only): the shared
        #: plane-agnostic accounting the pump processes pay down.
        self.staged = staged
        self.pos = 0  # sequential append cursor
        self.read_pos = 0  # sequential read cursor (restart path)
        #: Pre-existing size, as passed to :meth:`SimCRFS.open` — restart
        #: opens an image written earlier; checkpoint data in the timing
        #: plane is a stream of sizes, so the size must be declared.
        self.known_size = known_size
        #: Restart-readahead decisions (shared, plane-agnostic core);
        #: None keeps reads on the paper's passthrough path.
        self.read_core = read_core

    # -- kernel passthrough ----------------------------------------------------

    @property
    def planner(self):
        return self.pipeline.planner

    @property
    def write_chunk_count(self) -> int:
        return self.pipeline.write_chunk_count

    @property
    def complete_chunk_count(self) -> int:
        return self.pipeline.complete_chunk_count

    @property
    def drained(self) -> bool:
        return self.pipeline.drained


@dataclass
class _SimReadFetch:
    """A low-priority readahead prefetch on the simulated work queue."""

    f: SimCRFSFile
    centry: CacheEntry
    file_offset: int
    length: int


class _SimExtent:
    """One pump work item — the timing-plane twin of the functional
    plane's ``_Extent``: ``chunks`` accepted extents, contiguous in
    ``f``'s file, bound for tier ``tier``."""

    __slots__ = ("f", "tier", "offset", "length", "chunks", "lengths")

    def __init__(
        self,
        f: SimCRFSFile,
        tier: int,
        offset: int,
        length: int,
        chunks: int = 1,
        lengths: tuple[int, ...] | None = None,
    ):
        self.f = f
        self.tier = tier
        self.offset = offset
        self.length = length
        self.chunks = chunks
        self.lengths = lengths if lengths is not None else (length,)


class SimCRFS:
    """One node's CRFS mount over a modelled backing filesystem."""

    def __init__(
        self,
        sim: Simulator,
        hw: HardwareParams,
        config: CRFSConfig,
        backend: SimFilesystem,
        membus: SharedBandwidth,
        node: str = "node0",
        file_affine: bool = False,
        observers: Iterable[PipelineObserver] = (),
    ):
        self.sim = sim
        self.hw = hw
        self.config = config
        self.backend = backend
        self.membus = membus
        self.node = node
        #: Experimental (Section VII prototype): IO threads prefer to
        #: keep draining the file they last wrote, so one file's chunks
        #: reach the backend back-to-back instead of interleaving.
        self.file_affine = file_affine
        self._backlog: "dict[SimCRFSFile, list[Seal]]" = {}
        #: Open files with a read cache — pool-pressure shedding (mirror
        #: of ``CRFS._shed_read_caches``) must reach every cache.
        self._cached_files: "list[SimCRFSFile]" = []
        self.tenants = config.tenant_registry()
        ntiers = len(backend.tiers) if isinstance(backend, TieredSimFilesystem) else 0
        self.kernel = PipelineKernel(
            config.chunk_size,
            pool_chunks=config.pool_chunks,
            clock=lambda: sim.now,
            observers=observers,
            tenants=self.tenants.names,
            tiers=ntiers,
            fsync_tier=(
                StagingCore.resolve_tier(config.fsync_tier, ntiers) if ntiers else -1
            ),
        )
        self.retry = config.retry_policy()
        self.health = BackendHealth(
            config.breaker_threshold, emit=self.kernel.emit, clock=lambda: sim.now
        )
        # Tiered staging: the same plane-agnostic StagingCore the
        # functional TieredBackend drives, paid down here by pump
        # *processes* over an unbounded SimQueue (mirror of the private
        # WorkQueue + pump threads — its depths never touch the mount's
        # `queue` stats section).
        self.staging: Optional[StagingCore] = None
        self._pump_queue: Optional[SimQueue] = None
        self._pump_depth = 0
        self._pump_waiters: list[SimEvent] = []
        self._tier_healths: list[Optional[BackendHealth]] = []
        self._pump_procs: list = []
        if ntiers:
            self.staging = StagingCore(
                ntiers,
                fsync_tier=config.fsync_tier,
                emit=self.kernel.emit,
                clock=lambda: sim.now,
            )
            self._pump_queue = SimQueue(sim)
            self._tier_healths = [None] + [
                BackendHealth(
                    config.breaker_threshold,
                    emit=tier_health_emit(self.kernel.emit, tier),
                    clock=lambda: sim.now,
                )
                for tier in range(1, ntiers)
            ]
            self._pump_procs = [
                sim.spawn(self._pump_proc(i), name=f"{node}-crfs-pump{i}")
                for i in range(config.tier_pump_threads)
            ]
        # The same ledger / scheduler classes the functional plane
        # delegates to, so service order is identical across planes by
        # construction.  With no tenants configured both degrade to one
        # FIFO-served default tenant.
        self.pool = SimTenantPool(
            sim, PoolLedger(max(1, config.pool_chunks), self.tenants.reservations())
        )
        self.queue = SimQueue(
            sim,
            scheduler=DRRScheduler(
                weights=self.tenants.weights(), fair=config.tenant_fairness
            ),
            quotas=self.tenants.quotas(),
            on_admission_wait=lambda tenant, depth: self.kernel.emit(
                AdmissionWait(tenant=tenant, depth=depth, t=sim.now)
            ),
        )
        self._io_threads = [
            sim.spawn(self._io_thread(i), name=f"{node}-crfs-io{i}")
            for i in range(config.io_threads)
        ]
        self._stopped = False

    # -- stats views (all counters live in kernel.stats) ------------------------

    @property
    def chunks_written(self) -> int:
        return self.kernel.stats.chunks_written

    @property
    def bytes_written(self) -> int:
        return self.kernel.stats.bytes_out

    @property
    def total_writes(self) -> int:
        return self.kernel.stats.writes

    @property
    def total_bytes_in(self) -> int:
        return self.kernel.stats.bytes_in

    def stats(self) -> dict[str, Any]:
        """One atomic snapshot of the pipeline counters — the identical
        schema (and counting code) as the functional plane's
        ``CRFS.stats()``."""
        return self.kernel.snapshot()

    # -- file API (all generators, driven by writer processes) -----------------

    def open(
        self, path: str, size: int = 0, tenant: str | None = None
    ) -> SimCRFSFile:
        """Open a file; ``size`` declares pre-existing bytes (timing-plane
        data is a stream of sizes, so a restart read-back of an image
        written in an earlier mount must state how large it is).

        ``tenant`` pins the open to a tenant explicitly; by default the
        registry maps the path through the configured fnmatch rules
        (falling back to ``default``) — the same resolution the
        functional plane's ``CRFS.open`` performs.
        """
        resolved = self.tenants.resolve(path, tenant)
        backend_file = self.backend.open(path)
        # Chunk writeback is issued by CRFS's few dedicated IO threads as
        # large aligned writes of brand-new pages — it dodges the
        # page-collision stalls interactive writers suffer (see
        # simio.ext3).
        backend_file.bulk_writer = True
        self.kernel.file_opened(path, tenant=resolved)
        read_core = None
        if self.config.read_cache_chunks > 0:
            read_core = ReadaheadCore(
                path,
                self.config.chunk_size,
                capacity=self.config.read_cache_chunks,
                depth=self.config.readahead_chunks,
                emit=self.kernel.emit,
                clock=lambda: self.sim.now,
                adaptive=self.config.readahead_adaptive,
            )
        f = SimCRFSFile(
            path,
            self.kernel.file(path, tenant=resolved),
            backend_file,
            known_size=size,
            read_core=read_core,
            tenant=resolved,
            staged=self.staging.file(path) if self.staging is not None else None,
        )
        if read_core is not None:
            self._cached_files.append(f)
        return f

    # -- pool plumbing -------------------------------------------------------------

    def _note_pool_acquired(self, tenant: str, waited: bool) -> None:
        """The acquire-side ``PoolPressure`` event (after the yield)."""
        self.kernel.emit(
            PoolPressure(
                waited=waited,
                in_use=self.pool.in_use,
                tenant=tenant,
                tenant_in_use=self.pool.held(tenant),
            )
        )

    def _pool_release(self, tenant: str) -> None:
        """Recycle one chunk and emit the released ``PoolPressure`` — the
        one choke point, like the functional plane's
        ``BufferPool.release``."""
        self.pool.release(tenant)
        self.kernel.emit(
            PoolPressure(
                waited=False,
                in_use=self.pool.in_use,
                tenant=tenant,
                tenant_in_use=self.pool.held(tenant),
                released=True,
            )
        )

    def write(self, f: SimCRFSFile, nbytes: int):
        """Generator: one application write() through FUSE into chunks."""
        if self.health.degraded:
            yield from self._write_degraded(f, nbytes)
            return
        t0 = self.sim.now
        offset0 = f.pos
        self._invalidate_read_cache(f, offset0, nbytes)
        for request in fuse_requests(nbytes, self.hw.fuse_max_request):
            yield self.sim.timeout(self.hw.fuse_request_overhead)
            if request >= PAGE:
                yield self.membus.transfer(request)
            if f.pipeline.plan_append(f.pos, request) >= 0:
                # The common write: the copy was costed above.
                if not f.has_chunk:
                    yield from self._open_chunk(f)
            else:
                for op in f.pipeline.plan_write(f.pos, request):
                    if isinstance(op, Fill):
                        if not f.has_chunk:
                            yield from self._open_chunk(f)
                    else:
                        yield from self._seal(f, op)
            f.pos += request
        f.pipeline.note_write(offset0, nbytes, start=t0)

    def _open_chunk(self, f: SimCRFSFile):
        """Generator: acquire a pool chunk for ``f`` — the write path's
        backpressure point (mirror of ``CRFS._open_chunk``)."""
        waited = self.pool.would_wait(f.tenant)
        if waited:
            # Read-cache leases draw on this pool; shed them before
            # parking the writer (mirror of CRFS._shed_read_caches) or a
            # full cache deadlocks the virtual clock.
            self._shed_read_caches()
            waited = self.pool.would_wait(f.tenant)
        yield self.pool.acquire(f.tenant)
        self._note_pool_acquired(f.tenant, waited)
        f.has_chunk = True

    def flush(self, f: SimCRFSFile):
        """Generator: seal the partial chunk (close/fsync path)."""
        for op in f.pipeline.plan_flush():
            assert isinstance(op, Seal)
            yield from self._seal(f, op)

    def close(self, f: SimCRFSFile):
        """Generator: Section IV-C close — flush, drain, backend close.

        On a tiered mount a file with migrations still in flight defers
        the backend close to the pump process that pays its last debt —
        close never waits for deep tiers (mirror of
        ``TieredBackend.close``)."""
        yield from self.flush(f)
        yield from self._wait_drained(f)
        f.pipeline.raise_latched()
        if f.read_core is not None:
            # Teardown mirror of ReadCache.clear(): cached-but-unused
            # prefetches are waste-accounted, pool slots go back.
            self._release_read_evicted(f.read_core.clear(), f.tenant)
            if f in self._cached_files:
                self._cached_files.remove(f)
        if f.staged is not None and sum(f.staged.pending) > 0:
            f.staged.closing = True
        else:
            yield from self.backend.close(f.backend_file)
        self.kernel.file_closed(f.path, tenant=f.tenant)

    def fsync(self, f: SimCRFSFile):
        """Generator: Section IV-D2 fsync — flush, drain, backend fsync.

        On a tiered mount durability is a *level*: wait until the
        file's extents have reached tiers ``0..fsync_tier``, surface
        the shallowest strand error, then fsync exactly those tiers
        (mirror of ``TieredBackend.fsync_through``)."""
        yield from self.flush(f)
        yield from self._wait_drained(f)
        f.pipeline.raise_latched()
        if self.staging is None:
            yield from self.backend.fsync(f.backend_file)
            return
        yield from self.fsync_through(f, self.staging.fsync_tier)

    def fsync_through(self, f: SimCRFSFile, tier: int):
        """Generator: durability through tier ``tier`` (tiered mounts)."""
        assert self.staging is not None and f.staged is not None
        tier = StagingCore.resolve_tier(tier, self.staging.ntiers)
        sf = f.staged
        while sf.pending_through(tier) > 0:
            ev = SimEvent(self.sim)
            sf.waiters.append(ev)
            yield ev
        error = sf.sync_error(tier)
        if error is not None:
            raise error
        for level in range(tier + 1):
            yield from self.backend.tier_fsync(f.backend_file, level)
        self.staging.synced(sf, tier)

    def read(self, f: SimCRFSFile, nbytes: int):
        """Generator: one sequential read() at the file's read cursor.

        Passthrough (the paper's Section IV-D1 behaviour) when no read
        cache is configured or while the circuit breaker is open; with
        ``read_cache_chunks`` set, the restart-readahead mirror of the
        functional plane's :class:`~repro.core.readcache.ReadCache` —
        flush + drain (read-your-writes), then chunk-aligned fetches
        against the shared :class:`ReadaheadCore` decisions, with
        prefetches serviced by the IO threads off the queue's low band.
        """
        t0 = self.sim.now
        offset = f.read_pos
        if f.read_core is None or self.health.degraded:
            if not self.config.read_passthrough:
                yield from self.flush(f)
                yield from self._wait_drained(f)
                f.pipeline.raise_latched()
            for request in fuse_requests(nbytes, self.hw.fuse_max_request):
                yield self.sim.timeout(self.hw.fuse_request_overhead)
                yield from self.backend.read(f.backend_file, request)
            f.pipeline.note_read(offset, nbytes, start=t0)
            f.read_pos += nbytes
            return
        yield from self.flush(f)
        yield from self._wait_drained(f)
        f.pipeline.raise_latched()
        file_size = max(f.known_size, f.planner.append_point)
        end = min(offset + nbytes, file_size)
        if nbytes > 0 and end > offset:
            cs = self.config.chunk_size
            for index in range(offset // cs, (end - 1) // cs + 1):
                lo = max(offset, index * cs)
                hi = min(end, (index + 1) * cs)
                yield from self._cached_chunk(f, index, lo, hi, file_size)
                yield from self._issue_read_prefetches(f, index, file_size)
            # Serving pass: the mount's own cost of handing the cached
            # bytes back — FUSE request round-trips plus the copy out of
            # the chunk over the shared memory bus.
            for request in fuse_requests(end - offset, self.hw.fuse_max_request):
                yield self.sim.timeout(self.hw.fuse_request_overhead)
                if request >= PAGE:
                    yield self.membus.transfer(request)
        # The cached serve's boundary materialization: the request
        # clipped at file_size — what the functional plane's join
        # produces (len of the returned bytes).
        copied = end - offset if nbytes > 0 and end > offset else 0
        f.pipeline.note_read(offset, nbytes, start=t0, copied=copied)
        f.read_pos += nbytes

    def seek(self, f: SimCRFSFile, pos: int) -> None:
        """Reposition the sequential read cursor (restart replays)."""
        f.read_pos = pos

    # -- incremental (delta) checkpoints (mirror of core.delta) -----------------

    def delta_checkpoint(
        self,
        path: str,
        logical_size: int,
        dirty: Iterable[int] | None = None,
        tenant: str | None = None,
    ):
        """Generator: commit one generation of ``path``'s delta chain.

        The exact op sequence of the functional plane's
        :meth:`repro.core.delta.DeltaCheckpointer.checkpoint`: dirty
        extents stream through the normal write pipeline into this
        generation's file (one write per contiguous extent, at its
        logical offset), fsync + close drain it, then the manifest is
        written synchronously straight to the backend — the durable
        commit point.  Only a successful manifest write advances the
        chain; a failed one marks it torn, exactly like the threaded
        plane.  Data is a stream of sizes here, so the caller declares
        ``logical_size`` and the dirty chunk indices instead of bytes.
        """
        tracker = self.kernel.delta(path)
        plan = tracker.plan_checkpoint(logical_size, dirty)
        f = self.open(generation_path(path, plan.generation), tenant=tenant)
        try:
            for ext in plan.extents:
                f.pos = ext.file_offset
                yield from self.write(f, ext.length)
            yield from self.fsync(f)
        finally:
            yield from self.close(f)
        raw = plan.manifest.to_bytes()
        try:
            mf = self.backend.open(manifest_path(path))
            try:
                yield from self.backend.write(mf, len(raw))
                yield from self.backend.fsync(mf)
            finally:
                yield from self.backend.close(mf)
        except BaseException:
            # The old manifest was truncated before the failure: the
            # on-disk chain head is suspect until a clean commit.
            tracker.note_torn()
            raise
        tracker.commit(plan, len(raw))
        return plan

    def delta_restore(self, path: str, tenant: str | None = None):
        """Generator: reassemble the current logical image across the
        chain — the timing twin of
        :meth:`repro.core.delta.DeltaCheckpointer.restore`.

        The manifest read is modelled (the functional plane validates
        real bytes; this plane is data-free, so the committed tracker
        state *is* the manifest), then each contiguous same-owner run
        costs one read through the normal cacheable read path, with
        every distinct generation file opened exactly once at its
        recorded physical size.  Returns the reassembled logical size.
        """
        tracker = self.kernel.delta(path)
        tracker.check_restorable()
        manifest = Manifest(
            path=tracker.path,
            generation=tracker.generation,
            chunk_size=tracker.chunk_size,
            logical_size=tracker.logical_size,
            owners=tuple(tracker.owners),
        )
        mf = self.backend.open(manifest_path(path))
        try:
            yield from self.backend.read(mf, len(manifest.to_bytes()))
        finally:
            yield from self.backend.close(mf)
        runs = manifest.owner_runs()
        open_files: "dict[int, SimCRFSFile]" = {}
        try:
            for gen, file_offset, length, _chunks in runs:
                f = open_files.get(gen)
                if f is None:
                    f = self.open(
                        generation_path(path, gen),
                        size=tracker.gen_size(gen),
                        tenant=tenant,
                    )
                    open_files[gen] = f
                self.seek(f, file_offset)
                yield from self.read(f, length)
        finally:
            for f in open_files.values():
                yield from self.close(f)
        tracker.note_restore(len(runs), manifest.logical_size)
        return manifest.logical_size

    # -- readahead internals (mirror of core.readcache, virtual time) ----------

    def _cached_chunk(self, f: SimCRFSFile, index: int, lo: int, hi: int,
                      file_size: int):
        """Generator: one chunk's contribution to a cached read."""
        core = f.read_core
        cs = core.chunk_size
        base = index * cs
        while True:
            centry = core.access(index)
            if centry is None:
                # Foreground miss: fetch the whole aligned chunk.  A full
                # pool degrades to an uncached slice read (mirror of
                # BufferPool.try_acquire returning None); a backend
                # failure surfaces — demand reads are never silent.
                centry, evicted = core.admit(index, DEMAND)
                self._release_read_evicted(evicted, f.tenant)
                if self.pool.would_wait(f.tenant):
                    # Silent un-admit (demand); starved=True still feeds
                    # the adaptive window its pool-pressure signal.
                    core.fetch_failed(centry, starved=True)
                    self._wake_read_waiters(centry)
                    yield from self.backend.read(f.backend_file, hi - lo)
                    return
                yield self.pool.acquire(f.tenant)
                self._note_pool_acquired(f.tenant, waited=False)
                length = min(cs, file_size - base)
                try:
                    yield from self.backend.read(f.backend_file, length)
                except Exception as exc:  # noqa: BLE001 - surfaced to caller
                    core.fetch_failed(centry)
                    self._wake_read_waiters(centry)
                    self._pool_release(f.tenant)
                    self.health.record_failure()
                    raise BackendIOError(
                        f"{f.path}: demand read of chunk @{base} failed: {exc}"
                    ) from exc
                if core.fetch_done(centry, True, length):
                    self._wake_read_waiters(centry)
                else:  # evicted while fetching (concurrent invalidation)
                    self._pool_release(f.tenant)
                return
            if centry.ready:
                return
            # In flight (a hit on our own prefetch): park on the entry;
            # on a drop/eviction, retry from a fresh access.
            ev = SimEvent(self.sim)
            centry.waiters.append(ev)
            yield ev
            if centry.evicted:
                continue
            return

    def _issue_read_prefetches(self, f: SimCRFSFile, index: int, file_size: int):
        """Generator: slide the window after an access.  Degraded mode
        issues nothing — with the breaker open every backend op is
        suspect, and speculative reads would only feed it more failures."""
        core = f.read_core
        if core.depth <= 0 or self.health.degraded:
            return
        cs = core.chunk_size
        for pidx in core.plan_prefetch(index, file_size):
            centry, evicted = core.admit(pidx, PREFETCH)
            self._release_read_evicted(evicted, f.tenant)
            base = pidx * cs
            item = _SimReadFetch(
                f=f, centry=centry, file_offset=base,
                length=min(cs, file_size - base),
            )
            yield self.queue.put(item, low=True, tenant=f.tenant)
            self.kernel.emit(
                QueuePressure(
                    depth=len(self.queue),
                    tenant=f.tenant,
                    tenant_depth=self.queue.depth(f.tenant),
                )
            )

    def _service_read_fetch(self, item: _SimReadFetch):
        """Generator: one queued prefetch, run by an IO thread.  Never
        parks on a full pool (starved → dropped), so shutdown drains."""
        centry = item.centry
        core = item.f.read_core
        tenant = item.f.tenant
        if centry.evicted:  # invalidated/cleared while queued
            return
        if self.pool.would_wait(tenant):
            core.fetch_failed(centry, starved=True)
            self._wake_read_waiters(centry)
            return
        yield self.pool.acquire(tenant)
        self._note_pool_acquired(tenant, waited=False)
        try:
            yield from self.backend.read(item.f.backend_file, item.length)
        except Exception:  # noqa: BLE001 - prefetch failures are silent
            if not centry.evicted:
                core.fetch_failed(centry)
            self._wake_read_waiters(centry)
            self._pool_release(tenant)
            self.health.record_failure()
            return
        if core.fetch_done(centry, True, item.length):
            self._wake_read_waiters(centry)
        else:  # evicted while in flight; drop-accounted at eviction
            self._pool_release(tenant)

    def _shed_read_caches(self) -> None:
        """Pool-pressure relief: drop every read-cache lease back to the
        pool (the cache is advisory; a parked writer is not)."""
        for cached in list(self._cached_files):
            if cached.read_core is not None:
                self._release_read_evicted(
                    cached.read_core.clear(), cached.tenant
                )

    def _invalidate_read_cache(self, f: SimCRFSFile, offset: int, nbytes: int) -> None:
        """Drop cached chunks overlapping a just-accepted write."""
        if f.read_core is None:
            return
        self._release_read_evicted(f.read_core.invalidate(offset, nbytes), f.tenant)

    def _release_read_evicted(
        self, entries: Iterable[CacheEntry], tenant: str = DEFAULT_TENANT
    ) -> None:
        """Return evictees' pool slots and wake parked readers."""
        for entry in entries:
            if entry.payload is not None:
                entry.payload = None
                self._pool_release(tenant)
            self._wake_read_waiters(entry)

    @staticmethod
    def _wake_read_waiters(entry: CacheEntry) -> None:
        if entry.waiters:
            waiters, entry.waiters = entry.waiters, []
            for ev in waiters:
                ev.succeed()

    # -- resilience (mirrors pipeline.resilience.run_attempts, virtual time) ----

    def _write_degraded(self, f: SimCRFSFile, nbytes: int):
        """Generator: breaker-open write — synchronous write-through.

        Every degraded write doubles as a recovery probe: the first
        backend write that succeeds closes the breaker (the health
        tracker emits ``BackendRecovered``), and subsequent writes take
        the asynchronous aggregation path again.  On retry exhaustion
        the error is raised here, at the write() itself — nothing is
        latched, because nothing was accepted asynchronously.
        """
        t0 = self.sim.now
        offset0 = f.pos
        self._invalidate_read_cache(f, offset0, nbytes)
        for op in f.pipeline.plan_write_through(f.pos, nbytes):
            assert isinstance(op, Seal)
            yield from self._seal(f, op)
        for request in fuse_requests(nbytes, self.hw.fuse_max_request):
            yield self.sim.timeout(self.hw.fuse_request_overhead)
            if request >= PAGE:
                yield self.membus.transfer(request)
            error = yield from self._attempt_backend_write(f, request, f.pos)
            if error is not None:
                raise error
            yield from self._stage(f, f.pos, request)
            f.pos += request
        f.pipeline.note_write(offset0, nbytes, start=t0, degraded=True)

    def _attempt_backend_write(self, f: SimCRFSFile, length: int, file_offset: int):
        """Generator: one backend write under the retry policy and the
        mount's breaker.  Returns the error that survives retry
        exhaustion, or None on success."""
        return (
            yield from self._attempt_op(
                lambda: self.backend.write(f.backend_file, length),
                f.path,
                file_offset,
                self.health,
                f.pipeline.note_retry,
            )
        )

    def _attempt_backend_writev(self, f: SimCRFSFile, sizes: list, file_offset: int):
        """Generator: one vectored backend write under the retry policy —
        the whole batch is one backend op, retried (and health-recorded)
        as one, mirroring the functional plane's pwritev-under-
        run_attempts."""
        return (
            yield from self._attempt_op(
                lambda: self.backend.writev(f.backend_file, sizes),
                f.path,
                file_offset,
                self.health,
                f.pipeline.note_retry,
            )
        )

    def _attempt_op(
        self,
        make_op,
        path: str,
        file_offset: int,
        health: BackendHealth,
        note_retry,
    ):
        """Generator: one backend op driven under the mount's
        :class:`RetryPolicy` — the timing-plane twin of
        :func:`repro.pipeline.resilience.run_attempts`, with backoff as
        virtual-clock timeouts.  ``make_op`` supplies a fresh backend-op
        generator per attempt; each outcome feeds ``health`` and each
        retry is published through ``note_retry(file_offset, attempt,
        delay, error)``.  Returns the error that survives retry
        exhaustion, or None on success."""
        policy = self.retry
        attempt = 1
        while True:
            try:
                yield from make_op()
            except Exception as exc:  # noqa: BLE001 - surfaced to the caller
                error = exc
            else:
                health.record_success()
                return None
            health.record_failure()
            if not policy.should_retry(attempt):
                return error
            delay = policy.delay(attempt, path, file_offset)
            note_retry(file_offset, attempt, delay, error)
            if delay > 0:
                yield self.sim.timeout(delay)
            attempt += 1

    # -- tier staging (mirror of backends.tiered, virtual time) ------------------

    def _stage(self, f: SimCRFSFile, file_offset: int, length: int):
        """Generator: tier 0 accepted one extent — one successful
        backend write op — so account it and hand it to the pump
        (mirror of ``TieredBackend._stage``).  No-op on untiered
        mounts."""
        if self.staging is None:
            return
        self.staging.accept(f.staged, file_offset, length)
        extent = _SimExtent(f, 1, file_offset, length)
        self._pump_depth += 1
        self.staging.enqueued(extent.tier, self._pump_depth)
        yield self._pump_queue.put(extent)

    @staticmethod
    def _chain_extents(prev: _SimExtent, nxt: _SimExtent) -> bool:
        """Whether ``nxt`` extends ``prev`` into one migration op — the
        timing-plane twin of ``backends.tiered._chainable``."""
        return (
            nxt.f is prev.f
            and nxt.tier == prev.tier
            and nxt.offset == prev.offset + prev.length
        )

    def _pump_proc(self, index: int):
        batch_limit = self.config.tier_pump_batch_chunks
        while True:
            try:
                item = yield self._pump_queue.get()
            except ShutdownError:  # pump queue closed at unmount
                return
            extents = [item]
            if batch_limit > 1:
                extents.extend(
                    self._pump_queue.take_adjacent(
                        item, batch_limit - 1, self._chain_extents
                    )
                )
            self._pump_depth -= len(extents)
            yield from self._pump_migrate(extents)

    def _pump_migrate(self, extents: "list[_SimExtent]"):
        """Generator: one pump op — read the contiguous run from tier
        k-1 and write it into tier k under the destination tier's own
        retry/breaker; forward on success, strand on exhaustion."""
        f = extents[0].f
        sf = f.staged
        tier = extents[0].tier
        offset = extents[0].offset
        total = sum(e.length for e in extents)
        chunks = sum(e.chunks for e in extents)
        lengths = [n for e in extents for n in e.lengths]
        start = self.sim.now

        def make_op():
            yield from self.backend.tier_read(f.backend_file, tier - 1, total)
            if len(lengths) > 1:
                yield from self.backend.tier_writev(
                    f.backend_file, tier, list(lengths)
                )
            else:
                yield from self.backend.tier_write(f.backend_file, tier, total)

        # Under the destination tier's own breaker, with retries
        # published as ``TierRetried`` — deep-tier trouble never pollutes
        # the mount's ``resilience`` section (mirror of ``run_attempts``
        # as ``TieredBackend._migrate`` drives it).
        error = yield from self._attempt_op(
            make_op,
            f.path,
            offset,
            self._tier_healths[tier],
            lambda file_offset, attempt, delay, exc: self.staging.retried(
                tier, f.path, file_offset, attempt, delay, exc
            ),
        )
        if error is None:
            self.staging.migrated(sf, tier, offset, total, chunks, start)
            if tier + 1 < self.staging.ntiers:
                nxt = _SimExtent(
                    f, tier + 1, offset, total, chunks, lengths=tuple(lengths)
                )
                self._pump_depth += 1
                self.staging.enqueued(nxt.tier, self._pump_depth)
                yield self._pump_queue.put(nxt)
        else:
            self.staging.stranded(sf, tier, offset, total, chunks, start, error)
        self._wake_staging_waiters(sf)
        if sf.closing and sum(sf.pending) == 0:
            sf.closing = False
            yield from self.backend.close(f.backend_file)

    def _wake_staging_waiters(self, sf: StagedFile) -> None:
        """Wake fsync waiters parked on the file plus mount-wide drain
        waiters; all re-check their predicates (the sim's analogue of
        the functional plane's ``notify_all``)."""
        if sf.waiters:
            waiters, sf.waiters = sf.waiters, []
            for ev in waiters:
                ev.succeed()
        if self._pump_waiters:
            waiters, self._pump_waiters = self._pump_waiters, []
            for ev in waiters:
                ev.succeed()

    def drain_staging(self):
        """Generator: block until the pump owes nothing anywhere —
        every extent arrived at the deepest tier or stranded (mirror of
        ``TieredBackend.drain``).  Run this before capturing final
        stats on a tiered mount."""
        if self.staging is None:
            return
        while self.staging.outstanding > 0:
            ev = SimEvent(self.sim)
            self._pump_waiters.append(ev)
            yield ev

    # -- pipeline internals ------------------------------------------------------

    def _seal(self, f: SimCRFSFile, seal: Seal):
        f.pipeline.note_queued(seal)
        f.has_chunk = False
        yield self.sim.timeout(self.hw.crfs_seal_overhead)
        if self.file_affine:
            self._backlog.setdefault(f, []).append(seal)
            yield self.queue.put(None, tenant=f.tenant)  # wake one IO thread
        else:
            yield self.queue.put((f, seal), tenant=f.tenant)
        self.kernel.emit(
            QueuePressure(
                depth=len(self.queue),
                tenant=f.tenant,
                tenant_depth=self.queue.depth(f.tenant),
            )
        )

    def _wait_drained(self, f: SimCRFSFile):
        start = self.sim.now
        outstanding = f.pipeline.outstanding
        while not f.drained:
            ev = SimEvent(self.sim)
            f._drain_waiters.append(ev)
            yield ev
        f.pipeline.note_drained(start, outstanding)

    def _take_affine(self, last: Optional[SimCRFSFile]):
        """Pick the next backlog item, preferring the thread's last file."""
        if last is not None and self._backlog.get(last):
            f = last
        else:
            f = next(iter(self._backlog))
        seal = self._backlog[f].pop(0)
        if not self._backlog[f]:
            del self._backlog[f]
        return f, seal

    @staticmethod
    def _chain_seals(prev: Any, nxt: Any) -> bool:
        """Whether queued item ``nxt`` extends ``prev``'s file run — the
        timing-plane twin of ``IOThreadPool._chainable``."""
        if not isinstance(prev, tuple) or not isinstance(nxt, tuple):
            return False
        pf, ps = prev
        nf, ns = nxt
        if pf is not nf:
            return False
        return ns.file_offset == ps.file_offset + ps.length

    def _complete_seal(
        self, f: SimCRFSFile, seal: Seal, error: BaseException | None, t0: float
    ) -> None:
        """Per-chunk completion accounting: drain counters, error latch,
        pool recycle, drain-waiter wakeup."""
        drained = f.pipeline.note_complete(
            length=seal.length,
            file_offset=seal.file_offset,
            error=error,
            start=t0,
        )
        self._pool_release(f.tenant)
        if drained and f._drain_waiters:
            waiters, f._drain_waiters = f._drain_waiters, []
            for ev in waiters:
                ev.succeed()

    def _io_thread(self, index: int):
        last: Optional[SimCRFSFile] = None
        batch_limit = self.config.writeback_batch_chunks
        while True:
            try:
                item = yield self.queue.get()
            except ShutdownError:  # queue closed at unmount
                return
            if isinstance(item, _SimReadFetch):
                # Readahead prefetch off the low band — serviced between
                # writebacks; carries itself even in file_affine mode
                # (the backlog holds only write seals).
                yield from self._service_read_fetch(item)
                continue
            if self.file_affine:
                # file_affine already drains one file back-to-back via
                # the backlog; coalescing is not applied on top of it.
                f, seal = self._take_affine(last)
                last = f
            else:
                f, seal = item
                if batch_limit > 1:
                    gathered = self.queue.take_adjacent(
                        item, batch_limit - 1, self._chain_seals, tenant=f.tenant
                    )
                    if gathered:
                        yield from self._write_batch(
                            f, [seal] + [g[1] for g in gathered]
                        )
                        continue
            t0 = self.sim.now
            error = yield from self._attempt_backend_write(
                f, seal.length, seal.file_offset
            )
            if error is None:
                yield from self._stage(f, seal.file_offset, seal.length)
            self._complete_seal(f, seal, error, t0)

    def _write_batch(self, f: SimCRFSFile, seals: "list[Seal]"):
        """Generator: one gathered run of contiguous seals as a single
        vectored backend write — identical batch accounting (one backend
        op, one BatchWritten, per-chunk completions in offset order) to
        the functional plane's ``IOThreadPool._write_batch``."""
        base = seals[0].file_offset
        total = sum(s.length for s in seals)
        if self.health.degraded:
            f.pipeline.note_batch_broken(base, len(seals), "degraded")
            for seal in seals:
                t0 = self.sim.now
                error = yield from self._attempt_backend_write(
                    f, seal.length, seal.file_offset
                )
                self._complete_seal(f, seal, error, t0)
            return
        t0 = self.sim.now
        error = yield from self._attempt_backend_writev(
            f, [s.length for s in seals], base
        )
        if error is None:
            # One pwritev = one accepted extent of the gathered length
            # (mirror of TieredBackend.pwritev staging once).
            yield from self._stage(f, base, total)
        f.pipeline.note_batch(base, len(seals), total, start=t0, error=error)
        for seal in seals:
            self._complete_seal(f, seal, error, t0)

    def shutdown(self) -> None:
        self._stopped = True
        self.queue.close()
        if self._pump_queue is not None:
            # Drain-then-stop, like the functional tiered shutdown: the
            # pump processes keep consuming queued extents and exit once
            # the queue is empty.
            self._pump_queue.close()
        # Closing the queue wakes the IO processes at the current virtual
        # instant, so the drain-close itself takes no modelled time.
        self.kernel.emit(WorkersDrained(duration=0.0, t=self.sim.now))
