"""PipelineStats: the counter registry behind ``stats()``.

One instance per mount, shared by every pipeline component (file
pipelines, buffer pool, work queue, IO workers) on *either* plane.  All
counters are derived from the unified event stream in :meth:`on_event`
(the write counters in :meth:`count_write`, which a write calls
directly when no other observer listens) and bumped under one lock, so
:meth:`snapshot` returns one atomic, mutually-consistent view — the
functional plane's ``CRFS.stats()`` and the timing plane's
``SimCRFS.stats()`` both return exactly this schema, which the
cross-plane differential tests compare field-for-field.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable

from .copies import FETCH, INGEST, READ_BOUNDARY, CopyLedger
from .events import (
    AdmissionWait,
    BackendDegraded,
    BackendRecovered,
    BatchBroken,
    BatchWritten,
    ChunkFetched,
    ChunkPrefetched,
    ChunkRetried,
    ChunkSealed,
    ChunkWritten,
    DeltaGenerationCommitted,
    DeltaRestored,
    ErrorLatched,
    FileClosed,
    FileDrained,
    FileOpened,
    PipelineEvent,
    PipelineObserver,
    PoolPressure,
    PrefetchDropped,
    PrefetchWasted,
    QueuePressure,
    ReadHit,
    ReadMiss,
    ReadObserved,
    TierDegraded,
    TierMigrated,
    TierPumpPressure,
    TierRecovered,
    TierRetried,
    TierStaged,
    TierSynced,
    WindowGrown,
    WindowShrunk,
    WorkersDrained,
    WriteObserved,
)
from .planner import SealReason

__all__ = ["PipelineStats", "flatten_snapshot"]


def _percentile_nearest(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (no interpolation) over drain samples.

    Deliberately numpy-free and branch-simple so both planes compute the
    identical value from the identical FileDrained sequence; an empty
    sample set reports 0.0 so idle tenants keep a full key set.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(round(q / 100.0 * len(ordered))) - 1))
    return ordered[rank]


def _new_tenant_counters() -> dict[str, Any]:
    """One tenant's slice of the snapshot's ``tenants`` section.

    ``drain_time_max`` doubles as the per-tenant drain-latency proxy the
    ``tenant_storm`` experiment gates on (the worst close/fsync wait the
    tenant observed); ``drain_p50``/``drain_p99`` (added at snapshot
    time from retained FileDrained samples) give the histogram view the
    ROADMAP item-1 follow-on asked for.  All of these are time-valued,
    so the cross-plane differential excludes them.
    """
    return {
        "writes": 0,
        "bytes_in": 0,
        "reads": 0,
        "bytes_read": 0,
        "chunks_queued": 0,
        "chunks_written": 0,
        "bytes_out": 0,
        "io_errors": 0,
        "queue_max_depth": 0,
        "pool_max_in_use": 0,
        "admission_waits": 0,
        "drain_waits": 0,
        "drain_waits_blocked": 0,
        "drain_time_total": 0.0,
        "drain_time_max": 0.0,
    }


def _new_tier_counters() -> dict[str, Any]:
    """One tier's slice of the snapshot's ``tiers`` section.

    Pure workload-determined counts only — no time-valued fields — so
    the whole section stays bit-identical across planes without
    exclusions.  ``bytes_resident`` (staged minus migrated-out) is
    derived at snapshot time.
    """
    return {
        "bytes_staged": 0,
        "chunks_staged": 0,
        "bytes_migrated": 0,
        "chunks_migrated": 0,
        "bytes_stranded": 0,
        "chunks_stranded": 0,
        "migrate_errors": 0,
        "migrate_retries": 0,
        "pump_queue_max": 0,
        "breaker_trips": 0,
        "breaker_recoveries": 0,
        "syncs": 0,
    }


def flatten_snapshot(
    snapshot: dict[str, Any], prefix: str = "", sep: str = "."
) -> dict[str, Any]:
    """Flatten a nested ``stats()`` snapshot into dot-keyed scalars.

    ``{"pool": {"waits": 3}}`` becomes ``{"pool.waits": 3}`` — the form
    the perf harness records in its JSON artifacts and diffs between
    runs.  Key order follows the snapshot's own (insertion) order, so
    the output is deterministic for a deterministic snapshot.
    """
    flat: dict[str, Any] = {}
    for key, value in snapshot.items():
        name = f"{prefix}{sep}{key}" if prefix else key
        if isinstance(value, dict):
            flat.update(flatten_snapshot(value, prefix=name, sep=sep))
        else:
            flat[name] = value
    return flat


class PipelineStats(PipelineObserver):
    """Thread-safe counter registry fed by the pipeline event stream.

    ``chunk_size``/``pool_chunks`` are structural gauges reported in the
    snapshot's ``pool`` section; everything else is counted from events.
    Reading an individual attribute is a single-int read (atomic in
    CPython); use :meth:`snapshot` when fields must be consistent with
    each other.
    """

    def __init__(
        self,
        chunk_size: int = 0,
        pool_chunks: int = 0,
        tenants: Iterable[str] = ("default",),
        tiers: int = 0,
        fsync_tier: int = -1,
    ):
        self.chunk_size = chunk_size
        self.pool_chunks = pool_chunks
        self._lock = threading.Lock()
        # Pre-seeded per-tenant counters: configured tenants appear in
        # the snapshot with zeros even when idle, so both planes report
        # the identical key set for the identical config.
        self.tenants: dict[str, dict[str, Any]] = {
            name: _new_tenant_counters() for name in tenants
        }
        # Pre-seeded per-tier counters, same reasoning (str keys so the
        # section survives a JSON round trip unchanged).
        self.tier_levels = tiers
        self.fsync_tier = fsync_tier
        self.sync_through = -1
        self.tiers: dict[str, dict[str, Any]] = {
            str(level): _new_tier_counters() for level in range(tiers)
        }
        # -- write path
        self.writes = 0
        self.bytes_in = 0
        self.write_through_bytes = 0
        self.seal_counts: dict[SealReason, int] = {r: 0 for r in SealReason}
        # -- IO workers
        self.chunks_written = 0
        self.bytes_out = 0
        self.io_errors = 0
        self.errors_latched = 0
        # -- coalesced writeback (all zero with writeback_batch_chunks=1)
        self.batches_written = 0
        self.batch_chunks = 0
        self.batch_bytes = 0
        self.batch_errors = 0
        self.batches_broken = 0
        self.batch_histogram: dict[int, int] = {}
        # -- resilience (retry/backoff + circuit breaker)
        self.chunks_retried = 0
        self.breaker_trips = 0
        self.breaker_recoveries = 0
        self.degraded_writes = 0
        self.degraded_bytes = 0
        # -- read path (readahead cache; zeros with the cache disabled)
        self.reads = 0
        self.bytes_read = 0
        self.read_hits = 0
        self.read_misses = 0
        self.chunks_prefetched = 0
        self.prefetch_dropped = 0
        self.prefetch_wasted = 0
        self.window_grown = 0
        self.window_shrunk = 0
        # The width carried on the last Window* event (0 until the
        # adaptive controller moves); a gauge, not a counter.
        self.current_window = 0
        # Per-tenant drain-wait samples retained for the p50/p99
        # histogram; FileDrained counts are modest (one per close/fsync
        # wait), so keeping them is cheap.
        self._drain_samples: dict[str, list[float]] = {
            name: [] for name in self.tenants
        }
        # -- incremental (delta) checkpointing (zeros without delta use)
        self.delta_generations = 0
        self.delta_dirty_chunks = 0
        self.delta_clean_chunks = 0
        self.delta_bytes_written = 0
        self.delta_logical_bytes = 0
        self.delta_manifest_writes = 0
        self.delta_manifest_bytes = 0
        self.delta_restores = 0
        self.delta_reassembly_reads = 0
        self.delta_reassembly_bytes = 0
        # -- copy accounting (DESIGN.md §3k; the stats()["mem"] section)
        self.copies = CopyLedger()
        # -- files
        self.open_files = 0
        # -- drain waits (close/fsync/unmount) and pool shutdown
        self.drain_waits = 0
        self.drain_waits_blocked = 0
        self.drain_time_total = 0.0
        self.drain_time_max = 0.0
        self.shutdown_drains = 0
        self.shutdown_drain_time = 0.0
        # -- pressure gauges
        self.pool_acquires = 0
        self.pool_waits = 0
        self.pool_max_in_use = 0
        self.pool_releases = 0
        self.queue_puts = 0
        self.queue_max_depth = 0
        self.admission_waits = 0

    def _tenant(self, name: str) -> dict[str, Any]:
        """The per-tenant counter dict (caller holds the lock); tenants
        outside the pre-seeded set (explicit unconfigured ids) appear on
        first event."""
        counters = self.tenants.get(name)
        if counters is None:
            counters = self.tenants[name] = _new_tenant_counters()
        return counters

    # -- event intake ---------------------------------------------------------

    def count_write(
        self,
        length: int,
        tenant: str = "default",
        degraded: bool = False,
    ) -> None:
        """Count one application ``write()`` — the only code that moves
        the write counters.  A ``degraded`` write went to the backend
        synchronously (write-through), so it paid no ingest copy.

        ``FilePipeline.note_write`` calls it directly when nothing but
        this registry listens, so a write costs no event; otherwise the
        write arrives as a ``WriteObserved`` through :meth:`on_event`.
        """
        with self._lock:
            self.writes += 1
            self.bytes_in += length
            if degraded:
                self.write_through_bytes += length
                self.degraded_writes += 1
                self.degraded_bytes += length
            elif length > 0:
                self.copies.record(INGEST, length)
            t = self._tenant(tenant)
            t["writes"] += 1
            t["bytes_in"] += length

    def on_event(self, event: PipelineEvent) -> None:
        if isinstance(event, WriteObserved):
            self.count_write(event.length, event.tenant, event.degraded)
            return
        with self._lock:
            if isinstance(event, ChunkSealed):
                self.seal_counts[event.reason] += 1
                self._tenant(event.tenant)["chunks_queued"] += 1
            elif isinstance(event, ChunkWritten):
                t = self._tenant(event.tenant)
                if event.error is None:
                    self.chunks_written += 1
                    self.bytes_out += event.length
                    t["chunks_written"] += 1
                    t["bytes_out"] += event.length
                else:
                    self.io_errors += 1
                    t["io_errors"] += 1
            elif isinstance(event, BatchWritten):
                if event.error is None:
                    self.batches_written += 1
                    self.batch_chunks += event.chunks
                    self.batch_bytes += event.length
                    self.batch_histogram[event.chunks] = (
                        self.batch_histogram.get(event.chunks, 0) + 1
                    )
                else:
                    self.batch_errors += 1
            elif isinstance(event, BatchBroken):
                self.batches_broken += 1
            elif isinstance(event, PoolPressure):
                if event.released:
                    self.pool_releases += 1
                else:
                    self.pool_acquires += 1
                    if event.waited:
                        self.pool_waits += 1
                    if event.in_use > self.pool_max_in_use:
                        self.pool_max_in_use = event.in_use
                    t = self._tenant(event.tenant)
                    if event.tenant_in_use > t["pool_max_in_use"]:
                        t["pool_max_in_use"] = event.tenant_in_use
            elif isinstance(event, QueuePressure):
                self.queue_puts += 1
                if event.depth > self.queue_max_depth:
                    self.queue_max_depth = event.depth
                t = self._tenant(event.tenant)
                if event.tenant_depth > t["queue_max_depth"]:
                    t["queue_max_depth"] = event.tenant_depth
            elif isinstance(event, AdmissionWait):
                self.admission_waits += 1
                self._tenant(event.tenant)["admission_waits"] += 1
            elif isinstance(event, FileOpened):
                self.open_files += 1
            elif isinstance(event, FileClosed):
                self.open_files -= 1
            elif isinstance(event, ErrorLatched):
                self.errors_latched += 1
            elif isinstance(event, ChunkRetried):
                self.chunks_retried += 1
            elif isinstance(event, BackendDegraded):
                self.breaker_trips += 1
            elif isinstance(event, BackendRecovered):
                self.breaker_recoveries += 1
            elif isinstance(event, FileDrained):
                self.drain_waits += 1
                if event.outstanding:
                    self.drain_waits_blocked += 1
                self.drain_time_total += event.duration
                if event.duration > self.drain_time_max:
                    self.drain_time_max = event.duration
                t = self._tenant(event.tenant)
                t["drain_waits"] += 1
                if event.outstanding:
                    t["drain_waits_blocked"] += 1
                t["drain_time_total"] += event.duration
                if event.duration > t["drain_time_max"]:
                    t["drain_time_max"] = event.duration
                self._drain_samples.setdefault(event.tenant, []).append(
                    event.duration
                )
            elif isinstance(event, WorkersDrained):
                self.shutdown_drains += 1
                self.shutdown_drain_time += event.duration
            elif isinstance(event, ReadObserved):
                self.reads += 1
                self.bytes_read += event.length
                t = self._tenant(event.tenant)
                t["reads"] += 1
                t["bytes_read"] += event.length
                if event.copied > 0:
                    self.copies.record(READ_BOUNDARY, event.copied)
            elif isinstance(event, ChunkFetched):
                self.copies.record(FETCH, event.length)
            elif isinstance(event, ReadHit):
                self.read_hits += 1
            elif isinstance(event, ReadMiss):
                self.read_misses += 1
            elif isinstance(event, ChunkPrefetched):
                self.chunks_prefetched += 1
            elif isinstance(event, PrefetchDropped):
                self.prefetch_dropped += 1
            elif isinstance(event, PrefetchWasted):
                self.prefetch_wasted += 1
            elif isinstance(event, WindowGrown):
                self.window_grown += 1
                self.current_window = event.window
            elif isinstance(event, WindowShrunk):
                self.window_shrunk += 1
                self.current_window = event.window
            elif isinstance(event, DeltaGenerationCommitted):
                self.delta_generations += 1
                self.delta_dirty_chunks += event.dirty_chunks
                self.delta_clean_chunks += event.clean_chunks
                self.delta_bytes_written += event.dirty_bytes
                self.delta_logical_bytes += event.logical_bytes
                self.delta_manifest_writes += 1
                self.delta_manifest_bytes += event.manifest_bytes
            elif isinstance(event, DeltaRestored):
                self.delta_restores += 1
                self.delta_reassembly_reads += event.reassembly_reads
                self.delta_reassembly_bytes += event.reassembly_bytes
            elif isinstance(event, TierStaged):
                t = self.tiers["0"]
                t["chunks_staged"] += 1
                t["bytes_staged"] += event.length
            elif isinstance(event, TierMigrated):
                dst = self.tiers[str(event.tier)]
                if event.error is None:
                    dst["chunks_staged"] += event.chunks
                    dst["bytes_staged"] += event.length
                    src = self.tiers[str(event.tier - 1)]
                    src["chunks_migrated"] += event.chunks
                    src["bytes_migrated"] += event.length
                else:
                    dst["migrate_errors"] += 1
                    dst["chunks_stranded"] += event.chunks
                    dst["bytes_stranded"] += event.length
            elif isinstance(event, TierPumpPressure):
                t = self.tiers[str(event.tier)]
                if event.depth > t["pump_queue_max"]:
                    t["pump_queue_max"] = event.depth
            elif isinstance(event, TierSynced):
                self.tiers[str(event.tier)]["syncs"] += 1
                if event.tier > self.sync_through:
                    self.sync_through = event.tier
            elif isinstance(event, TierRetried):
                self.tiers[str(event.tier)]["migrate_retries"] += 1
            elif isinstance(event, TierDegraded):
                self.tiers[str(event.tier)]["breaker_trips"] += 1
            elif isinstance(event, TierRecovered):
                self.tiers[str(event.tier)]["breaker_recoveries"] += 1

    # -- snapshot -------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """One atomic, plane-identical view of every counter."""
        with self._lock:
            return {
                "writes": self.writes,
                "bytes_in": self.bytes_in,
                "write_through_bytes": self.write_through_bytes,
                "chunks_written": self.chunks_written,
                "bytes_out": self.bytes_out,
                "io_errors": self.io_errors,
                "seals": {r.value: c for r, c in self.seal_counts.items()},
                "open_files": self.open_files,
                "pool": {
                    "chunks": self.pool_chunks,
                    "chunk_size": self.chunk_size,
                    "acquires": self.pool_acquires,
                    "waits": self.pool_waits,
                    "max_in_use": self.pool_max_in_use,
                    "releases": self.pool_releases,
                },
                "queue": {
                    "puts": self.queue_puts,
                    "max_depth": self.queue_max_depth,
                    "admission_waits": self.admission_waits,
                },
                "tenants": {
                    name: dict(
                        self.tenants[name],
                        drain_p50=_percentile_nearest(
                            self._drain_samples.get(name, []), 50.0
                        ),
                        drain_p99=_percentile_nearest(
                            self._drain_samples.get(name, []), 99.0
                        ),
                    )
                    for name in sorted(self.tenants)
                },
                "batch": {
                    "batches": self.batches_written,
                    "chunks": self.batch_chunks,
                    "bytes": self.batch_bytes,
                    "errors": self.batch_errors,
                    "broken": self.batches_broken,
                    # str keys so the section survives a JSON round trip
                    # unchanged (perf artifacts re-load it for diffing)
                    "per_batch": {
                        str(k): v for k, v in sorted(self.batch_histogram.items())
                    },
                },
                "drain": {
                    "waits": self.drain_waits,
                    "waits_blocked": self.drain_waits_blocked,
                    "time_total": self.drain_time_total,
                    "time_max": self.drain_time_max,
                    "shutdown_drains": self.shutdown_drains,
                    "shutdown_time_total": self.shutdown_drain_time,
                },
                "read": {
                    "reads": self.reads,
                    "bytes_read": self.bytes_read,
                    "hits": self.read_hits,
                    "misses": self.read_misses,
                    "prefetched": self.chunks_prefetched,
                    "prefetch_dropped": self.prefetch_dropped,
                    "prefetch_wasted": self.prefetch_wasted,
                    "window_grown": self.window_grown,
                    "window_shrunk": self.window_shrunk,
                    "current_window": self.current_window,
                },
                "tiers": {
                    "levels": self.tier_levels,
                    "fsync_tier": self.fsync_tier,
                    "sync_through": self.sync_through,
                    "per_tier": {
                        level: dict(
                            counters,
                            bytes_resident=counters["bytes_staged"]
                            - counters["bytes_migrated"],
                        )
                        for level, counters in sorted(
                            self.tiers.items(), key=lambda kv: int(kv[0])
                        )
                    },
                },
                "mem": self.copies.snapshot(),
                "delta": {
                    "generations": self.delta_generations,
                    "dirty_chunks": self.delta_dirty_chunks,
                    "clean_chunks": self.delta_clean_chunks,
                    "bytes_written": self.delta_bytes_written,
                    "logical_bytes": self.delta_logical_bytes,
                    "manifest_writes": self.delta_manifest_writes,
                    "manifest_bytes": self.delta_manifest_bytes,
                    "restores": self.delta_restores,
                    "reassembly_reads": self.delta_reassembly_reads,
                    "reassembly_bytes": self.delta_reassembly_bytes,
                },
                "resilience": {
                    "chunks_retried": self.chunks_retried,
                    "errors_latched": self.errors_latched,
                    "breaker_trips": self.breaker_trips,
                    "breaker_recoveries": self.breaker_recoveries,
                    "degraded_writes": self.degraded_writes,
                    "degraded_bytes": self.degraded_bytes,
                },
            }
