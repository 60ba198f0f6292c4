"""The IO thread pool that drains the work queue.

The paper (Section IV-B): "CRFS manipulates a pool of worker IO threads
waiting on the work queue...  The IO thread then calls a write() with the
underlying filesystem to write the data to its actual file.  Once
completed, the 'complete chunk count' in the file's metadata entry is
incremented.  Then the chunk is returned to the buffer pool to be reused."

The thread count is the paper's IO-throttling knob: fewer threads means
fewer concurrent writes hitting the back-end filesystem.  Completion
accounting goes through the entry's shared
:class:`~repro.pipeline.kernel.FilePipeline`, which publishes a
``ChunkWritten`` event on the unified stream; the pool's counters
(``chunks_written``/``bytes_written``/``errors``) are views over the
:class:`~repro.pipeline.stats.PipelineStats` registry counting those
events.

The same workers also service restart-readahead prefetches
(:class:`~repro.core.readcache.ReadChunk`), queued on the work queue's
low-priority band so speculative reads never delay a checkpoint
writeback.

Resilience: each chunk writeback is driven under the mount's
:class:`~repro.pipeline.resilience.RetryPolicy` before an error is
latched — failed attempts back off and reissue (``ChunkRetried`` on the
stream), per-attempt outcomes feed the
:class:`~repro.pipeline.resilience.BackendHealth` circuit breaker.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..pipeline import PipelineStats
from ..pipeline.events import WorkersDrained
from ..pipeline.kernel import EmitFn
from ..pipeline.resilience import BackendHealth, RetryPolicy, run_attempts
from .buffer_pool import BufferPool
from .chunk import Chunk
from .filetable import FileEntry
from .readcache import ReadChunk
from .workqueue import QueueClosed, WorkQueue

if TYPE_CHECKING:  # pragma: no cover
    from ..backends.base import Backend

__all__ = ["IOThreadPool", "WorkItem"]


@dataclass
class WorkItem:
    """A sealed chunk bound for the backing filesystem."""

    chunk: Chunk
    entry: FileEntry


class IOThreadPool:
    """N daemon threads: get chunk -> pwrite to backend -> account -> recycle."""

    def __init__(
        self,
        backend: "Backend",
        queue: WorkQueue,
        pool: BufferPool,
        nthreads: int,
        name: str = "crfs-io",
        stats: PipelineStats | None = None,
        retry: RetryPolicy | None = None,
        health: BackendHealth | None = None,
        emit: EmitFn | None = None,
        batch_chunks: int = 1,
    ):
        if nthreads < 1:
            raise ValueError(f"need at least 1 IO thread, got {nthreads}")
        if batch_chunks < 1:
            raise ValueError(f"batch_chunks must be >= 1, got {batch_chunks}")
        self.backend = backend
        self.queue = queue
        self.pool = pool
        self.nthreads = nthreads
        self.batch_chunks = batch_chunks
        self.stats = stats if stats is not None else PipelineStats()
        self.retry = retry if retry is not None else RetryPolicy()
        self.health = health
        # Shutdown drain time goes out on the mount's event stream when
        # one is wired; standalone pools fall back to feeding the stats
        # registry directly so the counter exists either way.
        self._emit = emit if emit is not None else self.stats.on_event
        self._threads: list[threading.Thread] = []
        self._started = False

    # -- stats views (counted from ChunkWritten events) ------------------------

    @property
    def chunks_written(self) -> int:
        return self.stats.chunks_written

    @property
    def bytes_written(self) -> int:
        return self.stats.bytes_out

    @property
    def errors(self) -> int:
        return self.stats.io_errors

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for i in range(self.nthreads):
            t = threading.Thread(
                target=self._worker, name=f"crfs-io-{i}", daemon=True
            )
            t.start()
            self._threads.append(t)

    @staticmethod
    def _chainable(prev: object, nxt: object) -> bool:
        """Whether ``nxt`` extends ``prev``'s file run: same entry, and
        its chunk starts exactly where ``prev``'s valid bytes end."""
        if not isinstance(prev, WorkItem) or not isinstance(nxt, WorkItem):
            return False
        if prev.entry is not nxt.entry:
            return False
        return nxt.chunk.file_offset == prev.chunk.file_offset + prev.chunk.valid

    def _worker(self) -> None:
        while True:
            try:
                if self.batch_chunks > 1:
                    items = self.queue.get_batch(self.batch_chunks, self._chainable)
                else:
                    items = [self.queue.get()]
            except QueueClosed:
                return
            if isinstance(items[0], ReadChunk):
                # Readahead prefetch (low band): the cache leases its
                # buffer with try_acquire and drops starved fetches, so
                # this path can never park the worker on a full pool —
                # shutdown() always drains.  Low-band items are never
                # batched, so the list is a singleton.
                items[0].cache.service_prefetch(items[0])
                continue
            if len(items) == 1:
                self._write_one(items[0])
            else:
                self._write_batch(items)

    def _write_one(self, item: WorkItem) -> None:
        chunk, entry = item.chunk, item.entry
        start = entry.pipeline.clock()
        # Retry the pwrite under the policy before latching; only the
        # error that survives retry exhaustion reaches the entry.  One
        # payload view for all attempts — the chunk stays leased until
        # the completion below.
        payload = chunk.payload()
        error = run_attempts(
            self.retry,
            lambda: self.backend.pwrite(
                entry.backend_handle, payload, chunk.file_offset
            ),
            path=entry.path,
            file_offset=chunk.file_offset,
            health=self.health,
            on_retry=lambda attempt, delay, exc: entry.pipeline.note_retry(
                chunk.file_offset, attempt, delay, exc
            ),
        )
        # Account *before* recycling: once complete_chunk_count rises a
        # drain-waiter may proceed, and that is safe even if the chunk
        # is still being reset.
        entry.note_chunk_complete(
            error, nbytes=chunk.valid, file_offset=chunk.file_offset, start=start
        )
        self.pool.release(chunk)

    def _write_batch(self, items: list[WorkItem]) -> None:
        """Issue a gathered run of contiguous chunks as one pwritev.

        The batch is one backend op: one retry schedule at the batch's
        base offset, one health record, and — on exhaustion — the same
        surviving error attributed to every chunk in the batch.  If the
        breaker is already open the batch is broken back into per-chunk
        writes, which route through the degraded accounting individually.
        """
        entry = items[0].entry
        chunks = [item.chunk for item in items]
        base = chunks[0].file_offset
        total = sum(c.valid for c in chunks)
        if self.health is not None and self.health.degraded:
            entry.pipeline.note_batch_broken(base, len(chunks), "degraded")
            for item in items:
                self._write_one(item)
            return
        start = entry.pipeline.clock()
        # One iovec list per batch, built up front and reused across
        # retry attempts — the payloads are views of pooled buffers that
        # stay leased (and stable) until the completions below recycle
        # them, so re-slicing per attempt would only re-allocate.
        views = [c.payload() for c in chunks]
        error = run_attempts(
            self.retry,
            lambda: self.backend.pwritev(entry.backend_handle, views, base),
            path=entry.path,
            file_offset=base,
            health=self.health,
            on_retry=lambda attempt, delay, exc: entry.pipeline.note_retry(
                base, attempt, delay, exc
            ),
        )
        entry.pipeline.note_batch(base, len(chunks), total, start=start, error=error)
        # Per-chunk completion in offset order keeps the drain counters
        # and the error latch exactly as the unbatched path would have
        # left them (a failed vectored write latches on the first chunk
        # and counts an io_error for every one).
        for chunk in chunks:
            entry.note_chunk_complete(
                error, nbytes=chunk.valid, file_offset=chunk.file_offset, start=start
            )
            self.pool.release(chunk)

    def shutdown(self, timeout: float = 30.0) -> None:
        """Drain-close the queue and join the workers.

        ``timeout`` is one shared deadline across all worker joins, not
        a per-thread allowance — N stuck threads cannot stretch shutdown
        to N×timeout.  The time the drain-close took is published as a
        ``WorkersDrained`` event (``stats()['drain']`` accumulates it),
        so callers never re-time shutdown themselves.
        """
        was_started = self._started
        start = time.monotonic()
        self.queue.close()
        deadline = start + timeout
        for t in self._threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
        alive = [t.name for t in self._threads if t.is_alive()]
        if alive:
            raise TimeoutError(f"IO threads did not exit: {alive}")
        self._threads.clear()
        self._started = False
        if was_started:
            self._emit(WorkersDrained(duration=time.monotonic() - start, t=start))
