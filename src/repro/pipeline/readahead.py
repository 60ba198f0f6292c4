"""Plane-agnostic readahead cache state machine (restart read path).

The paper optimizes only the checkpoint *write* path and passes reads
straight through (Section IV-D1) — restart replays the same many-medium-
request pattern in reverse, so this module adds the symmetric read-side
mechanism: a bounded per-file cache of chunk-aligned reads plus a
sliding prefetch window pushed through the existing IO machinery.

Like :class:`~repro.pipeline.kernel.FilePipeline` for writes, the
*decisions* live here once and both planes execute them:

* :class:`ReadaheadCore` holds the LRU index of
  :class:`CacheEntry` objects, classifies every chunk access as hit or
  miss, admits/evicts entries and plans the prefetch window;
* the threaded plane (:mod:`repro.core.readcache`) executes fetches
  with real buffers, a condition variable and ``ReadChunk`` work items;
* the timing plane (:mod:`repro.simcrfs.model`) executes the same
  decisions as virtual-clock generator processes.

Determinism contract (what the cross-plane differential tests lean on):
every decision — hit vs. miss, admit, evict, prefetch planning — is a
pure function of the *access sequence*, never of fetch timing.  An
entry still in flight counts as a **hit** (the fetch was saved either
way), and eviction is strict LRU regardless of entry state, so two
planes replaying the same reads make byte-identical decisions even
though their fetches complete at different (virtual or wall) times.

Accounting invariants: every issued prefetch eventually emits exactly
one of ``ChunkPrefetched`` (delivered) or ``PrefetchDropped`` (pool
starved, backend error, or evicted in flight); a delivered prefetch
that leaves the cache unused emits ``PrefetchWasted``.

Synchronization is the caller's job: every method must be invoked under
the owning plane's per-file cache lock (the timing plane's cooperative
scheduler needs none).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, List, Optional, Tuple

from .events import (
    ChunkFetched,
    ChunkPrefetched,
    PrefetchDropped,
    PrefetchWasted,
    ReadHit,
    ReadMiss,
    WindowGrown,
    WindowShrunk,
)
from .kernel import EmitFn

__all__ = ["AdaptiveWindow", "CacheEntry", "ReadaheadCore", "DEMAND", "PREFETCH"]

#: Why an entry entered the cache: a foreground miss or the window.
DEMAND = "demand"
PREFETCH = "prefetch"


class CacheEntry:
    """One chunk-aligned cache slot.

    ``payload`` is plane-owned: the threaded plane stores the leased
    :class:`~repro.core.chunk.Chunk`, the timing plane a truthy marker
    for "holds one pool slot".  ``waiters`` likewise: the timing plane
    parks per-entry :class:`~repro.sim.primitives.SimEvent` objects
    here (the threaded plane waits on its cache condition instead).
    """

    __slots__ = ("index", "origin", "ready", "used", "evicted", "payload", "waiters")

    def __init__(self, index: int, origin: str):
        self.index = index
        self.origin = origin
        self.ready = False  # payload holds the fetched chunk
        self.used = False  # some read was served from (or waited on) it
        self.evicted = False  # removed from the index; payload is stale
        self.payload: Any = None
        self.waiters: List[Any] = []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "ready" if self.ready else "fetching"
        if self.evicted:
            state = "evicted"
        return f"<CacheEntry #{self.index} {self.origin} {state}>"


class AdaptiveWindow:
    """AIMD prefetch-window controller — a pure decision kernel.

    Additive increase: every ``grow_streak`` consecutive sequential hits
    widen the window by one chunk, up to ``ceiling`` (cache capacity
    minus two, so a fully grown window's working set — the chunk being
    served plus the window — still leaves one slot of slack and never
    evicts a ready-but-unread prefetch).  Multiplicative decrease: each
    cache-pressure signal
    — an unread prefetch evicted, a fetch dropped on a starved pool, a
    delivered prefetch wasted — halves the window down to ``floor``.
    With ``adaptive=False`` the window is pinned at ``initial``: the
    static-``readahead_chunks`` degeneracy the property tests pin.

    Purity contract: the window is a function of the sequence of
    :meth:`on_access` / :meth:`on_pressure` calls alone, which both
    planes derive from the identical access sequence and removal
    accounting — never from fetch timing — so the cross-plane
    differential holds for the window counters too.
    """

    __slots__ = ("window", "initial", "floor", "ceiling", "grow_streak",
                 "adaptive", "_streak", "_last_index")

    def __init__(
        self,
        initial: int,
        ceiling: int,
        adaptive: bool = False,
        floor: int = 1,
        grow_streak: int = 2,
    ):
        if adaptive and initial < 1:
            raise ValueError(f"adaptive window needs initial >= 1, got {initial}")
        if adaptive and not floor <= initial <= ceiling:
            raise ValueError(
                f"adaptive window needs {floor} <= initial <= {ceiling}, got {initial}"
            )
        self.window = initial
        self.initial = initial
        self.floor = floor
        self.ceiling = ceiling
        self.grow_streak = grow_streak
        self.adaptive = adaptive
        self._streak = 0
        self._last_index: Optional[int] = None

    def on_access(self, index: int, hit: bool) -> bool:
        """Observe one chunk access; True when the window grew."""
        sequential = self._last_index is not None and index == self._last_index + 1
        self._last_index = index
        if not self.adaptive:
            return False
        if hit and sequential:
            self._streak += 1
        else:
            self._streak = 0
        if self._streak >= self.grow_streak and self.window < self.ceiling:
            self.window += 1
            self._streak = 0
            return True
        return False

    def on_pressure(self) -> bool:
        """Observe one cache-pressure signal; True when the window
        shrank.  Pressure also breaks the current hit streak, so growth
        restarts from scratch once the pressure clears."""
        if not self.adaptive:
            return False
        self._streak = 0
        shrunk = max(self.floor, self.window // 2)
        if shrunk < self.window:
            self.window = shrunk
            return True
        return False


class ReadaheadCore:
    """Per-file readahead decisions: LRU cache index + prefetch window.

    ``capacity`` bounds resident entries (both ready and in flight);
    ``depth`` is the sliding prefetch window issued after every access —
    fixed at the ``readahead_chunks`` knob by default, governed by an
    :class:`AdaptiveWindow` between 1 and ``capacity - 2`` when
    ``adaptive`` is set.  The adaptive ceiling keeps one slot of slack
    beyond the working set (current chunk + window): at ``capacity - 1``
    the set fills the cache exactly and every window slide evicts a
    ready-but-unread prefetch — the window would thrash at its own
    ceiling.  ``capacity > depth`` (enforced by
    :class:`~repro.config.CRFSConfig` and by the window ceiling)
    guarantees the window can never evict the chunk being served.
    """

    def __init__(
        self,
        path: str,
        chunk_size: int,
        capacity: int,
        depth: int,
        emit: Optional[EmitFn] = None,
        clock: Optional[Callable[[], float]] = None,
        adaptive: bool = False,
    ):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        if depth < 0:
            raise ValueError(f"prefetch depth must be >= 0, got {depth}")
        self.path = path
        self.chunk_size = chunk_size
        self.capacity = capacity
        ceiling = max(1, capacity - 2)
        self.window = AdaptiveWindow(
            # An adaptive window starts inside its own bounds even when
            # the configured static depth exceeds the thrash-free ceiling.
            initial=min(depth, ceiling) if adaptive else depth,
            ceiling=ceiling,
            adaptive=adaptive,
        )
        self._emit = emit if emit is not None else (lambda event: None)
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._entries: "OrderedDict[int, CacheEntry]" = OrderedDict()

    @property
    def depth(self) -> int:
        """The current prefetch-window width (the static knob, or the
        adaptive controller's live value)."""
        return self.window.window

    # -- introspection ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def pending(self) -> int:
        """Entries still in flight (teardown waits for these)."""
        return sum(1 for e in self._entries.values() if not e.ready)

    def entries(self) -> List[CacheEntry]:
        return list(self._entries.values())

    def chunk_span(self, offset: int, length: int) -> range:
        """The chunk indices a byte range overlaps."""
        if length <= 0:
            return range(0)
        cs = self.chunk_size
        return range(offset // cs, (offset + length - 1) // cs + 1)

    # -- the access path -------------------------------------------------------

    def access(self, index: int) -> Optional[CacheEntry]:
        """Classify one chunk access; returns the entry on a hit.

        A resident entry — ready *or* still in flight — is a hit (the
        caller waits on in-flight entries); absence is a miss and the
        caller fetches on demand.  Both outcomes go out on the event
        stream, and the hit is marked used and moved to MRU.
        """
        entry = self._entries.get(index)
        if entry is None:
            self._emit(
                ReadMiss(
                    path=self.path,
                    file_offset=index * self.chunk_size,
                    t=self._clock(),
                )
            )
        else:
            entry.used = True
            self._entries.move_to_end(index)
            self._emit(
                ReadHit(
                    path=self.path,
                    file_offset=index * self.chunk_size,
                    t=self._clock(),
                )
            )
        if self.window.on_access(index, hit=entry is not None):
            self._emit(
                WindowGrown(path=self.path, window=self.window.window, t=self._clock())
            )
        return entry

    def admit(self, index: int, origin: str) -> Tuple[CacheEntry, List[CacheEntry]]:
        """Insert a fresh entry at MRU; returns it plus LRU evictions.

        Eviction is state-independent (strict LRU even for in-flight
        entries) so the resident set is a pure function of the access
        sequence.  The caller releases the evictees' payloads and wakes
        their waiters; evicted in-flight fetches are drop-accounted
        here, delivered-but-unused prefetches as waste.
        """
        entry = CacheEntry(index, origin)
        self._entries[index] = entry
        evicted: List[CacheEntry] = []
        while len(self._entries) > self.capacity:
            old_index, old = next(iter(self._entries.items()))
            if old is entry:  # capacity >= 1 makes this unreachable
                break
            del self._entries[old_index]
            self._account_removal(old, pressure_drop=True)
            old.evicted = True
            evicted.append(old)
        return entry, evicted

    def plan_prefetch(self, index: int, file_size: int) -> List[int]:
        """The absent chunk indices in the window after ``index``.

        The window slides on every access (hit or miss), so steady-state
        sequential reads issue one prefetch per chunk consumed and stay
        ``depth`` chunks ahead.  Clamped to chunks that start inside the
        file — prefetching past EOF would fetch nothing.
        """
        if self.depth <= 0:
            return []
        nchunks = (file_size + self.chunk_size - 1) // self.chunk_size
        stop = min(index + 1 + self.depth, nchunks)
        return [i for i in range(index + 1, stop) if i not in self._entries]

    # -- fetch completion ------------------------------------------------------

    def fetch_done(self, entry: CacheEntry, payload: Any, length: int) -> bool:
        """An issued fetch delivered.  Returns False when the entry was
        evicted in flight — the caller then releases ``payload`` itself
        (the drop was accounted at eviction time).

        The backend→pooled-buffer copy happened whether or not the entry
        survived its flight, so ``ChunkFetched`` is emitted before the
        eviction check (failed fetches moved no bytes and go through
        :meth:`fetch_failed` instead, which accounts nothing)."""
        self._emit(
            ChunkFetched(
                path=self.path,
                file_offset=entry.index * self.chunk_size,
                length=length,
                t=self._clock(),
            )
        )
        if entry.evicted:
            return False
        entry.ready = True
        entry.payload = payload
        if entry.origin == PREFETCH:
            self._emit(
                ChunkPrefetched(
                    path=self.path,
                    file_offset=entry.index * self.chunk_size,
                    length=length,
                    t=self._clock(),
                )
            )
        return True

    def fetch_failed(self, entry: CacheEntry, starved: bool = False) -> None:
        """An issued fetch was abandoned: pool starved or backend error.

        The entry leaves the index; a prefetch is drop-accounted
        (foreground demand failures raise at the caller instead, so
        demand removals stay silent).  Waiters are woken by the caller
        and retry from a fresh access.  ``starved`` marks pool
        contention — a cache-pressure signal for the adaptive window —
        while backend errors leave the window alone (the circuit
        breaker owns that failure mode).
        """
        self._remove(entry, pressure_drop=starved)

    # -- removal (invalidation, eviction, teardown) ----------------------------

    def invalidate(self, offset: int, length: int) -> List[CacheEntry]:
        """Drop every entry overlapping a written byte range.

        Writes go through the aggregation pipeline, not the cache, so
        cached chunks covering rewritten bytes are stale the moment the
        write is accepted.  Returns the removed entries for the plane to
        release payloads and wake waiters.
        """
        removed = []
        for index in self.chunk_span(offset, length):
            entry = self._entries.get(index)
            if entry is not None:
                self._remove(entry)
                removed.append(entry)
        return removed

    def clear(self) -> List[CacheEntry]:
        """Drop everything (close/unmount teardown); same contract as
        :meth:`invalidate`."""
        removed = list(self._entries.values())
        for entry in removed:
            self._remove(entry)
        return removed

    def _remove(self, entry: CacheEntry, pressure_drop: bool = False) -> None:
        current = self._entries.get(entry.index)
        if current is entry:
            del self._entries[entry.index]
        if not entry.evicted:
            self._account_removal(entry, pressure_drop=pressure_drop)
        entry.evicted = True

    def _account_removal(self, entry: CacheEntry, pressure_drop: bool = False) -> None:
        """Emit the accounting event for a removal, feeding the adaptive
        window its pressure signals.  A wasted prefetch (fetched, never
        read) is always pressure; an unready removal is pressure only
        when ``pressure_drop`` says so (LRU eviction, pool starvation —
        not invalidation by a write or a backend error)."""
        offset = entry.index * self.chunk_size
        if not entry.ready:
            if entry.origin == PREFETCH:
                self._emit(
                    PrefetchDropped(path=self.path, file_offset=offset, t=self._clock())
                )
            if pressure_drop:
                self._note_pressure()
        elif entry.origin == PREFETCH and not entry.used:
            self._emit(
                PrefetchWasted(path=self.path, file_offset=offset, t=self._clock())
            )
            self._note_pressure()

    def _note_pressure(self) -> None:
        if self.window.on_pressure():
            self._emit(
                WindowShrunk(path=self.path, window=self.window.window, t=self._clock())
            )
