"""In-memory span tracing around calls into the CRFS layers.

Every span is recorded by a wrapper in this package around a public
entry point of one layer: the mount's buffer pool and work queue
methods, the pipeline kernel's ``emit``, the backend through a
delegating :class:`TracingBackend`, the ``CRFSFile`` and ``ReadCache``
methods, and ``Simulator.schedule`` (counted, not spanned: a run
schedules ~233k events).  Nothing under ``src/`` is changed.

A span is ``(name, start, end, parent, request, thread)``.  ``parent``
is the id of the span that was open on the same thread when this one
started, and ``request`` is the id of the benchmark operation (a
``write()``, a ``pread``, a delta commit...) that caused it.  On an IO
worker thread a ``queue.get``/``get_batch`` opens a new request, so the
backend write that follows shares the dequeue's id.  Spans live in a
list until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Any, Callable, Sequence

from repro import Backend
from repro.checkpoint.manifest import manifest_path
from repro.core.handle import CRFSFile
from repro.core.readcache import ReadCache
from repro.sim import Simulator

__all__ = ["Tracer", "TracingBackend"]


class Tracer:
    """Collects spans from every wrapper it installs."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, int, int]] = []
        self.sim_events = 0
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._undo: list[Callable[[], None]] = []

    # -- span primitives -----------------------------------------------------

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def call(self, name: str, fn: Callable[..., Any], *args: Any,
             root: bool = False, **kw: Any) -> Any:
        """Run ``fn`` inside a span named ``name``.  A ``root`` span
        starts a new request, as does any span opened on a thread with
        no enclosing span (IO workers)."""
        stack = self._stack()
        sid = next(self._ids)
        if stack and not root:
            parent, request = stack[-1]
        else:
            parent, request = 0, sid
        stack.append((sid, request))
        start = time.perf_counter()
        try:
            return fn(*args, **kw)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (sid, name, start, end, parent, request, threading.get_ident())
            )

    def wrap(self, name: str, fn: Callable[..., Any], root: bool = False) -> Callable[..., Any]:
        def traced(*args: Any, **kw: Any) -> Any:
            return self.call(name, fn, *args, root=root, **kw)

        return traced

    # -- installation ----------------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        had_own = attr in vars(owner)
        previous = vars(owner).get(attr)
        setattr(owner, attr, replacement)

        def undo() -> None:
            if had_own:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)

        self._undo.append(undo)

    def instrument_mount(self, fs: Any) -> None:
        """Wrap a constructed, not yet opened-on mount's pool, queue and
        event intake.  ``emit`` must be wrapped before files open: each
        file's pipeline captures the bound method at open."""
        self._patch(fs.pool, "acquire", self.wrap("pool.acquire", fs.pool.acquire))
        for attr in ("put", "get", "get_batch"):
            self._patch(fs.queue, attr, self.wrap(f"queue.{attr}", getattr(fs.queue, attr)))
        self._patch(fs.kernel, "emit", self.wrap("kernel.emit", fs.kernel.emit))

    def instrument_classes(self) -> None:
        """Wrap the per-file read/write/durability methods and count
        simulator events (process-wide until :meth:`uninstall`)."""
        for attr in ("pwrite", "fsync", "close"):
            self._patch(CRFSFile, attr, self.wrap(f"file.{attr}", getattr(CRFSFile, attr)))
        self._patch(ReadCache, "read", self.wrap("readcache.read", ReadCache.read))
        schedule = Simulator.schedule

        def counted(sim: Simulator, *args: Any) -> Any:
            self.sim_events += 1
            return schedule(sim, *args)

        self._patch(Simulator, "schedule", counted)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- output ----------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines, times relative to the first."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        threads: dict[int, int] = {}
        with open(path, "w") as out:
            for sid, name, start, end, parent, request, thread in self.spans:
                tid = threads.setdefault(thread, len(threads))
                out.write(json.dumps({
                    "id": sid, "name": name,
                    "start_us": round((start - t0) * 1e6, 3),
                    "end_us": round((end - t0) * 1e6, 3),
                    "parent": parent, "request": request, "thread": tid,
                }) + "\n")


class TracingBackend(Backend):
    """Delegating backend: every data-plane op runs inside a
    ``backend.<op>`` span.  Manifest writes and loads (open through
    close of a ``.manifest`` path) also get a ``delta.manifest_commit``
    or ``delta.manifest_load`` span."""

    name = "tracing"

    def __init__(self, inner: Backend, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self._manifest: dict[Any, tuple[str, float, int, int]] = {}
        self._lock = threading.Lock()
        #: Bytes per pwrite/pwritev call, in call order.
        self.write_sizes: list[int] = []

    def _op(self, op: str, *args: Any) -> Any:
        return self.tracer.call(f"backend.{op}", getattr(self.inner, op), *args)

    def open(self, path: str, create: bool = True, truncate: bool = False) -> Any:
        start = time.perf_counter()
        handle = self.tracer.call("backend.open", self.inner.open, path,
                                  create=create, truncate=truncate)
        if path.endswith(manifest_path("")):
            stack = self.tracer._stack()
            parent, request = stack[-1] if stack else (0, 0)
            kind = "delta.manifest_commit" if create else "delta.manifest_load"
            with self._lock:
                self._manifest[handle] = (kind, start, parent, request)
        return handle

    def close(self, handle: Any) -> None:
        self._op("close", handle)
        with self._lock:
            pending = self._manifest.pop(handle, None)
        if pending is not None:
            kind, start, parent, request = pending
            self.tracer.spans.append((
                next(self.tracer._ids), kind, start, time.perf_counter(),
                parent, request, threading.get_ident(),
            ))

    def pwrite(self, handle: Any, data: Any, offset: int) -> int:
        self.write_sizes.append(memoryview(data).nbytes)
        return self._op("pwrite", handle, data, offset)

    def pwritev(self, handle: Any, views: Sequence[Any], offset: int) -> int:
        self.write_sizes.append(sum(memoryview(v).nbytes for v in views))
        return self._op("pwritev", handle, views, offset)

    def pread(self, handle: Any, size: int, offset: int) -> bytes:
        return self._op("pread", handle, size, offset)

    def pread_into(self, handle: Any, buf: Any, offset: int) -> int:
        return self._op("pread_into", handle, buf, offset)

    def fsync(self, handle: Any) -> None:
        self._op("fsync", handle)

    def file_size(self, handle: Any) -> int:
        return self.inner.file_size(handle)

    def exists(self, path: str) -> bool:
        return self.inner.exists(path)

    def stat(self, path: str) -> Any:
        return self.inner.stat(path)

    def unlink(self, path: str) -> None:
        self.inner.unlink(path)

    def mkdir(self, path: str) -> None:
        self.inner.mkdir(path)

    def rmdir(self, path: str) -> None:
        self.inner.rmdir(path)

    def listdir(self, path: str) -> list[str]:
        return self.inner.listdir(path)

    def rename(self, old: str, new: str) -> None:
        self.inner.rename(old, new)

    def truncate(self, path: str, size: int) -> None:
        self.inner.truncate(path, size)
