"""The plane-agnostic aggregation-pipeline kernel.

This is the one place the paper's per-file pipeline state machine
(Section IV) exists: chunk fill/seal planning, the
``write_chunk_count``/``complete_chunk_count`` drain accounting, and the
latched writeback-error contract.  The threaded runtime
(:mod:`repro.core.mount`) and the discrete-event model
(:mod:`repro.simcrfs.model`) both drive it; only *execution* differs
per plane — real buffers, locks and blocking waits on the functional
plane, generators and virtual-clock waits on the timing plane.

Split of responsibilities:

* :class:`FilePipeline` — per-file state machine.  ``plan_*`` methods
  decide what happens (fail-fast on a latched error, then delegate to
  the shared :class:`~repro.pipeline.planner.WritePlanner`);
  ``note_*`` methods account for what the plane executed and publish
  the matching event on the unified stream — except that
  ``note_write`` counts a write straight into the stats registry, and
  builds no event, when nothing else subscribed.  The drain *predicate*
  (``drained``) and the raise-exactly-once error contract
  (:meth:`FilePipeline.raise_latched`) live here; how a caller blocks
  until drained is the plane's business (condition variables vs. sim
  events).
* :class:`PipelineKernel` — per-mount: fan-out of the event stream to
  observers, the shared :class:`~repro.pipeline.stats.PipelineStats`
  registry, and the :class:`FilePipeline` factory.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterable

from ..errors import BackendIOError, FileStateError
from .delta import DeltaTracker
from .events import (
    BatchBroken,
    BatchWritten,
    ChunkRetried,
    ChunkSealed,
    ChunkWritten,
    ErrorLatched,
    FileClosed,
    FileDrained,
    FileOpened,
    PipelineEvent,
    PipelineObserver,
    ReadObserved,
    WriteObserved,
)
from .planner import PlanOp, Seal, WritePlanner
from .stats import PipelineStats

__all__ = ["FilePipeline", "PipelineKernel"]

EmitFn = Callable[[PipelineEvent], None]


class _NullLock:
    """No-op lock for single-threaded (timing-plane) pipelines."""

    def __enter__(self) -> "_NullLock":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None


def _no_emit(event: PipelineEvent) -> None:
    return None


class FilePipeline:
    """Per-file aggregation state machine — shared by both planes.

    ``lock`` protects the drain counters and the error latch; the
    functional plane passes the :class:`threading.RLock` its drain
    condition is built on, the timing plane passes nothing (virtual
    time needs no lock).  ``clock`` supplies event timestamps:
    ``time.perf_counter`` or the simulator's ``now``.  ``kernel``, the
    mount's :class:`PipelineKernel`, lets :meth:`note_write` skip the
    event when only the kernel's stats registry would receive it.
    """

    def __init__(
        self,
        path: str,
        chunk_size: int,
        emit: EmitFn | None = None,
        lock: Any = None,
        clock: Callable[[], float] | None = None,
        tenant: str = "default",
        kernel: "PipelineKernel | None" = None,
    ):
        self.path = path
        self.tenant = tenant
        self.planner = WritePlanner(chunk_size)
        self._kernel = kernel
        self.clock = clock if clock is not None else time.perf_counter
        self._emit = emit if emit is not None else _no_emit
        self._lock = lock if lock is not None else _NullLock()
        self.write_chunk_count = 0  # chunks handed to the work queue
        self.complete_chunk_count = 0  # chunks the IO workers finished
        self._error: BaseException | None = None

    # -- planning (fail-fast + delegate to the shared planner) ----------------

    def _check_writable(self) -> None:
        """Fail fast: a prior async write already failed; accepting more
        data into chunks would silently lose it."""
        error = self._error
        if error is not None:
            raise BackendIOError(
                f"{self.path}: earlier async chunk write failed: {error}"
            ) from error

    def plan_write(self, offset: int, length: int) -> list[PlanOp]:
        """Plan one aggregated write; raises if an error is latched.

        Takes no lock, unlike the other ``plan_*`` calls: it runs once
        per write().  The planner is touched only by the file's writer
        (the threaded plane holds ``FileEntry.write_lock`` around this
        call; the timing plane is single-threaded), and the latch check
        is one attribute read — a write racing the completion that
        latches is accepted exactly as if it had won the lock first.
        """
        self._check_writable()
        return self.planner.write(offset, length)

    def plan_append(self, offset: int, length: int) -> int:
        """The in-place append (:meth:`WritePlanner.append`): the chunk
        offset to copy the write to, or -1 if it needs :meth:`plan_write`.
        Raises if an error is latched; takes no lock, like
        :meth:`plan_write`."""
        self._check_writable()
        return self.planner.append(offset, length)

    def plan_flush(self) -> list[PlanOp]:
        """Seal ops for the partial chunk (close()/fsync() path)."""
        with self._lock:
            return self.planner.flush()

    def plan_write_through(self, offset: int, length: int) -> list[PlanOp]:
        """Seal ops that must precede a write that bypasses aggregation."""
        with self._lock:
            self._check_writable()
            return self.planner.note_external_write(offset, length)

    # -- accounting (the state machine proper) --------------------------------

    def note_write(
        self,
        offset: int,
        length: int,
        start: float | None = None,
        write_through: bool = False,
        degraded: bool = False,
    ) -> None:
        """One application write() finished its synchronous part.

        An aggregated write paid exactly one copy — user buffer into
        the pooled chunk buffer at ingest (the aliasing snapshot
        point); the stats registry derives it from this one event
        rather than from each ``Chunk.append`` call.  Write-through
        bypasses aggregation and hands the caller's view straight to
        the backend: no pipeline copy.

        The event is built only when the kernel has a subscriber
        besides its stats registry — checked on every write, so an
        observer subscribed after the file opened sees the next one.
        Otherwise the write is counted straight into the registry.
        Either way it is counted exactly once.
        """
        kernel = self._kernel
        if kernel is not None and not kernel.subscribers:
            kernel.stats.count_write(length, self.tenant, write_through, degraded)
            return
        now = self.clock()
        if start is None:
            start = now
        self._emit(
            WriteObserved(
                path=self.path,
                offset=offset,
                length=length,
                start=start,
                duration=now - start,
                write_through=write_through,
                degraded=degraded,
                tenant=self.tenant,
            )
        )

    def note_read(
        self,
        offset: int,
        length: int,
        start: float | None = None,
        copied: int = 0,
    ) -> None:
        """One application read()/pread() was served (any read path —
        passthrough, degraded or cached).

        ``copied`` is the pipeline-level byte count materialized at the
        POSIX-shim boundary: the bytes joined out of cached views on a
        cache-served read.  Passthrough reads pass 0 — the backend's
        return value crosses the shim untouched (any materialization
        inside the backend is its own boundary property, documented on
        :class:`~repro.backends.base.Backend`).
        """
        now = self.clock()
        if start is None:
            start = now
        self._emit(
            ReadObserved(
                path=self.path,
                offset=offset,
                length=length,
                start=start,
                duration=now - start,
                tenant=self.tenant,
                copied=copied,
            )
        )

    def note_retry(
        self, file_offset: int, attempt: int, delay: float, error: BaseException
    ) -> None:
        """A writeback attempt for this file failed and will be retried."""
        self._emit(
            ChunkRetried(
                path=self.path,
                file_offset=file_offset,
                attempt=attempt,
                delay=delay,
                error=error,
                t=self.clock(),
            )
        )

    def note_queued(self, seal: Seal | None = None) -> None:
        """A sealed chunk was handed to the work queue."""
        with self._lock:
            self.write_chunk_count += 1
        if seal is not None:
            self._emit(
                ChunkSealed(
                    path=self.path,
                    file_offset=seal.file_offset,
                    length=seal.length,
                    reason=seal.reason,
                    t=self.clock(),
                    tenant=self.tenant,
                )
            )

    def note_complete(
        self,
        length: int = 0,
        file_offset: int = 0,
        error: BaseException | None = None,
        start: float | None = None,
    ) -> bool:
        """An IO worker finished one chunk writeback.

        Latches the first ``error`` for the next close()/fsync() and
        returns whether the file is now drained, so the plane can wake
        its drain waiters.
        """
        now = self.clock()
        if start is None:
            start = now
        with self._lock:
            if self.complete_chunk_count >= self.write_chunk_count:
                raise FileStateError(
                    f"{self.path}: chunk completion with no outstanding write"
                )
            self.complete_chunk_count += 1
            latched = error is not None and self._error is None
            if latched:
                self._error = error
            drained = self.complete_chunk_count >= self.write_chunk_count
        self._emit(
            ChunkWritten(
                path=self.path,
                file_offset=file_offset,
                length=length,
                start=start,
                duration=now - start,
                error=error,
                tenant=self.tenant,
            )
        )
        if latched:
            assert error is not None
            self._emit(ErrorLatched(path=self.path, error=error))
        return drained

    def note_batch(
        self,
        file_offset: int,
        chunks: int,
        length: int,
        start: float | None = None,
        error: BaseException | None = None,
    ) -> None:
        """An IO worker issued ``chunks`` contiguous chunks as one
        vectored backend write.

        Purely observational: the drain counters and the error latch are
        still advanced by the per-chunk :meth:`note_complete` calls the
        plane makes for every member of the batch (with the batch's
        ``error``, if any, attributed to each of them).
        """
        now = self.clock()
        if start is None:
            start = now
        self._emit(
            BatchWritten(
                path=self.path,
                file_offset=file_offset,
                chunks=chunks,
                length=length,
                start=start,
                duration=now - start,
                error=error,
                tenant=self.tenant,
            )
        )

    def note_batch_broken(self, file_offset: int, chunks: int, reason: str) -> None:
        """A gathered batch fell back to per-chunk writes."""
        self._emit(
            BatchBroken(
                path=self.path,
                file_offset=file_offset,
                chunks=chunks,
                reason=reason,
                t=self.clock(),
            )
        )

    def note_drained(self, start: float, outstanding: int = 0) -> None:
        """A drain wait that began at ``start`` (with ``outstanding``
        chunks then in flight) observed the drained state.

        Called by the plane's blocking primitive once the wait is over
        — this is the one place drain latency is measured, so callers
        (experiments, the perf harness) read it from ``stats()``
        instead of re-timing close()/fsync() themselves.
        """
        now = self.clock()
        self._emit(
            FileDrained(
                path=self.path,
                duration=now - start,
                outstanding=outstanding,
                t=now,
                tenant=self.tenant,
            )
        )

    # -- drain protocol --------------------------------------------------------

    @property
    def outstanding(self) -> int:
        with self._lock:
            return self.write_chunk_count - self.complete_chunk_count

    @property
    def drained(self) -> bool:
        with self._lock:
            return self.complete_chunk_count >= self.write_chunk_count

    # -- error latch (the POSIX writeback-error contract) ----------------------

    def peek_error(self) -> BaseException | None:
        with self._lock:
            return self._error

    def take_error(self) -> BaseException | None:
        """Consume the latched error (at most once returns non-None)."""
        with self._lock:
            error, self._error = self._error, None
            return error

    def raise_latched(self) -> None:
        """Raise the latched writeback error exactly once.

        This is the close()/fsync() error-reporting contract: the first
        drain after a failed chunk write surfaces it, later drains
        succeed.
        """
        error = self.take_error()
        if error is not None:
            raise BackendIOError(
                f"{self.path}: async chunk write failed: {error}"
            ) from error


class PipelineKernel:
    """Per-mount kernel: event fan-out, stats registry, pipeline factory.

    Both planes own exactly one; ``CRFS.stats()`` and ``SimCRFS.stats()``
    are both ``kernel.stats.snapshot()``.
    """

    def __init__(
        self,
        chunk_size: int,
        pool_chunks: int = 0,
        clock: Callable[[], float] | None = None,
        observers: Iterable[PipelineObserver] = (),
        tenants: Iterable[str] = ("default",),
        tiers: int = 0,
        fsync_tier: int = -1,
    ):
        self.chunk_size = chunk_size
        self.clock = clock if clock is not None else time.perf_counter
        self.stats = PipelineStats(
            chunk_size=chunk_size,
            pool_chunks=pool_chunks,
            tenants=tenants,
            tiers=tiers,
            fsync_tier=fsync_tier,
        )
        #: Observers besides the stats registry, in subscription order.
        self.subscribers: list[PipelineObserver] = list(observers)
        # Per-path delta-checkpoint generation chains (created lazily;
        # non-delta mounts never populate this).
        self._deltas: dict[str, DeltaTracker] = {}

    def subscribe(self, observer: PipelineObserver) -> None:
        """Attach an observer to the unified event stream."""
        self.subscribers.append(observer)

    def emit(self, event: PipelineEvent) -> None:
        self.stats.on_event(event)
        for observer in self.subscribers:
            observer.on_event(event)

    def file(
        self, path: str, lock: Any = None, tenant: str = "default"
    ) -> FilePipeline:
        """A per-file pipeline wired to this kernel's stream and clock."""
        return FilePipeline(
            path,
            self.chunk_size,
            emit=self.emit,
            lock=lock,
            clock=self.clock,
            tenant=tenant,
            kernel=self,
        )

    def delta(self, path: str) -> DeltaTracker:
        """The path's delta generation chain (created on first use),
        wired to this kernel's event stream and clock."""
        tracker = self._deltas.get(path)
        if tracker is None:
            tracker = self._deltas[path] = DeltaTracker(
                path, self.chunk_size, emit=self.emit, clock=self.clock
            )
        return tracker

    def file_opened(self, path: str, tenant: str = "default") -> None:
        self.emit(FileOpened(path=path, t=self.clock(), tenant=tenant))

    def file_closed(self, path: str, tenant: str = "default") -> None:
        self.emit(FileClosed(path=path, t=self.clock(), tenant=tenant))

    def snapshot(self) -> dict[str, Any]:
        """Shorthand for ``kernel.stats.snapshot()``."""
        return self.stats.snapshot()
