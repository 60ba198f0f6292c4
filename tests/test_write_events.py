"""The per-write accounting and what races ``open``.

* ``PipelineStats.count_write`` is the only code that moves the write
  counters; a write with no subscriber besides the stats registry calls
  it directly and builds no ``WriteObserved``.
* The ``stats()`` snapshot is the same with and without a subscriber,
  on both planes, for aggregated, spanning, rewind, write-through and
  degraded writes.
* A subscriber gets exactly one ``WriteObserved`` per write, also when
  it subscribes after the file opened.
* ``unlink``/``rename``/``truncate`` cannot interleave with an
  ``open`` of the same path; re-opening an open path with ``truncate``
  is refused; ``size()`` counts a sealed chunk still in flight.
"""

import threading

import pytest

from repro.backends import FaultRule, FaultyBackend, MemBackend
from repro.config import CRFSConfig
from repro.core import CRFS
from repro.errors import BackendIOError, FileNotFound, FileStateError
from repro.pipeline import FilePipeline, PipelineKernel, PipelineObserver, WriteObserved
from repro.pipeline.stats import PipelineStats, flatten_snapshot
from repro.units import KiB

CHUNK = 4 * KiB

#: Snapshot fields read off a clock or raced between the writer and
#: the IO worker — not determined by the write stream.
TIMED = ("time", "drain_p", "drain_waits_blocked", "max_depth", "max_in_use", "pool.waits")


class Recorder(PipelineObserver):
    def __init__(self):
        self.events = []

    def on_event(self, event):
        self.events.append(event)

    def writes(self):
        return [e for e in self.events if isinstance(e, WriteObserved)]


class NoOp(PipelineObserver):
    def on_event(self, event):
        pass


def counts(snapshot):
    return {k: v for k, v in flatten_snapshot(snapshot).items() if not any(t in k for t in TIMED)}


# -- count_write -------------------------------------------------------------


class TestCountWrite:
    CASES = [
        (100, "default", False, False),
        (0, "default", False, False),
        (3 * CHUNK, "t1", True, False),
        (CHUNK, "t2", True, True),
    ]

    @pytest.mark.parametrize("case", CASES)
    def test_direct_count_equals_event(self, case):
        length, tenant, write_through, degraded = case
        direct, via_event = PipelineStats(CHUNK), PipelineStats(CHUNK)
        direct.count_write(length, tenant, write_through, degraded)
        via_event.on_event(
            WriteObserved("/f", 0, length, 0.0, 0.0, write_through, degraded, tenant)
        )
        assert direct.snapshot() == via_event.snapshot()
        snap = direct.snapshot()
        assert (snap["writes"], snap["bytes_in"]) == (1, length)
        assert snap["tenants"][tenant]["bytes_in"] == length
        ingest = 0 if write_through else length
        assert snap["mem"]["by_site"]["ingest"]["bytes"] == ingest
        assert snap["resilience"]["degraded_bytes"] == (length if degraded else 0)

    def test_note_write_skips_the_event_without_subscribers(self):
        kernel = PipelineKernel(CHUNK)
        emitted = []
        kernel.emit = emitted.append
        p = kernel.file("/f")
        p.note_write(0, 10)
        assert emitted == []
        assert kernel.stats.writes == 1
        kernel.subscribe(NoOp())
        p.note_write(10, 5)
        assert [type(e) for e in emitted] == [WriteObserved]

    def test_standalone_pipeline_emits(self):
        events = []
        FilePipeline("/f", CHUNK, emit=events.append).note_write(0, 7)
        assert [(e.path, e.length) for e in events] == [("/f", 7)]


# -- the same snapshot with and without a subscriber ----------------------------


def threaded_mix(observers):
    """Degraded writes while the breaker is open, then aggregated,
    spanning, rewind and write-through writes on one file."""
    backend = FaultyBackend(
        MemBackend(),
        [FaultRule(op="pwrite", nth=1, error=OSError("EIO"))],
        sleep=lambda s: None,
    )
    cfg = CRFSConfig(
        chunk_size=CHUNK,
        pool_size=16 * CHUNK,
        io_threads=1,
        retry_attempts=1,
        breaker_threshold=1,
        write_through_threshold=4 * CHUNK,
    )
    with CRFS(backend, cfg, observers=observers) as fs:
        f = fs.open("/a")
        f.write(b"a" * CHUNK)
        with pytest.raises(BackendIOError):
            f.close()
        assert fs.health.degraded
        with fs.open("/b") as f:
            f.write(b"b" * 100)  # degraded probe: heals the breaker
        assert not fs.health.degraded
        with fs.open("/f") as f:
            for n in (10, 100, 1000, 3 * CHUNK + 7, 50):
                f.write(b"x" * n)
            f.pwrite(b"r" * 30, 5)  # rewind
            f.write(b"w" * 4 * CHUNK)  # write-through
            f.write(b"")
            f.write(b"t" * 9)
        return fs.stats()


def sim_mix(observers):
    from repro.sim import SharedBandwidth, Simulator
    from repro.simcrfs import SimCRFS
    from repro.simio.faulty import FaultySimFilesystem
    from repro.simio.nullfs import NullSimFilesystem
    from repro.simio.params import DEFAULT_HW
    from repro.util.rng import rng_for

    sim = Simulator()
    backend = FaultySimFilesystem(
        NullSimFilesystem(sim, DEFAULT_HW, rng_for(1, "write-events")),
        [FaultRule(op="pwrite", nth=1, error=OSError("EIO"))],
    )
    cfg = CRFSConfig(
        chunk_size=CHUNK,
        pool_size=16 * CHUNK,
        io_threads=1,
        retry_attempts=1,
        breaker_threshold=1,
        retry_backoff=1e-4,
        retry_backoff_max=1e-3,
    )
    membus = SharedBandwidth(sim, DEFAULT_HW.membus_bandwidth)
    crfs = SimCRFS(sim, DEFAULT_HW, cfg, backend, membus, observers=observers)

    def proc():
        f = crfs.open("/a")
        yield from crfs.write(f, CHUNK)
        with pytest.raises(BackendIOError):
            yield from crfs.close(f)
        f = crfs.open("/b")
        yield from crfs.write(f, 100)  # degraded probe
        yield from crfs.close(f)
        f = crfs.open("/f")
        for n in (10, 100, 1000, 3 * CHUNK + 7, 50):
            yield from crfs.write(f, n)
        f.pos = 5  # rewind (the sim's seek moves the read cursor only)
        yield from crfs.write(f, 30)
        yield from crfs.write(f, 0)
        yield from crfs.write(f, 9)
        yield from crfs.close(f)

    sim.run_until_complete([sim.spawn(proc())])
    crfs.shutdown()
    return crfs.stats()


class TestSubscriberDoesNotChangeStats:
    def test_threaded(self):
        plain, observed = threaded_mix(()), threaded_mix((NoOp(),))
        assert counts(plain) == counts(observed)
        assert plain["writes"] == 11
        assert plain["resilience"]["degraded_writes"] == 1
        assert plain["write_through_bytes"] == 100 + 4 * CHUNK
        assert plain["seals"]["gap"] == 1
        assert plain["mem"]["bytes_copied"] == plain["bytes_in"] - plain["write_through_bytes"]

    def test_sim_snapshot_identical(self):
        plain, observed = sim_mix(()), sim_mix((NoOp(),))
        assert plain == observed
        assert plain["writes"] == 10
        assert plain["resilience"]["degraded_writes"] == 1
        assert plain["seals"]["gap"] == 1


# -- one WriteObserved per write ---------------------------------------------------


class TestWriteObservedDelivery:
    def test_one_event_per_write_with_its_fields(self):
        rec = Recorder()
        cfg = CRFSConfig(
            chunk_size=CHUNK,
            pool_size=8 * CHUNK,
            io_threads=1,
            write_through_threshold=2 * CHUNK,
        )
        with CRFS(MemBackend(), cfg, observers=[rec]) as fs:
            with fs.open("/f") as f:
                f.write(b"a" * 10)
                f.write(b"b" * (CHUNK + 3))
                f.pwrite(b"c" * 4, 2)
                f.write(b"d" * 2 * CHUNK)
                f.write(b"")
        got = [
            (e.path, e.offset, e.length, e.write_through, e.degraded, e.tenant)
            for e in rec.writes()
        ]
        assert got == [
            ("/f", 0, 10, False, False, "default"),
            ("/f", 10, CHUNK + 3, False, False, "default"),
            ("/f", 2, 4, False, False, "default"),
            ("/f", CHUNK + 13, 2 * CHUNK, True, False, "default"),
            ("/f", 3 * CHUNK + 13, 0, False, False, "default"),
        ]
        assert all(e.duration >= 0 and e.start > 0 for e in rec.writes())
        assert fs.stats()["writes"] == 5

    def test_subscriber_attached_after_open_sees_the_next_write(self):
        cfg = CRFSConfig(chunk_size=CHUNK, pool_size=8 * CHUNK, io_threads=1)
        rec = Recorder()
        with CRFS(MemBackend(), cfg) as fs:
            with fs.open("/f") as f:
                f.write(b"a" * 10)
                fs.kernel.subscribe(rec)
                f.write(b"b" * 20)
                f.write(b"c" * 30)
            stats = fs.stats()
        assert [(e.offset, e.length) for e in rec.writes()] == [(10, 20), (30, 30)]
        assert (stats["writes"], stats["bytes_in"]) == (3, 60)


# -- what races open ------------------------------------------------------------


class GatedBackend(MemBackend):
    """Blocks the first call of ``op`` until :attr:`release` is set."""

    def __init__(self, op):
        super().__init__()
        self.op = op
        self.entered = threading.Event()
        self.release = threading.Event()

    def _gate(self, op):
        if op == self.op and not self.entered.is_set():
            self.entered.set()
            assert self.release.wait(10)

    def unlink(self, path):
        self._gate("unlink")
        super().unlink(path)

    def rename(self, old, new):
        self._gate("rename")
        super().rename(old, new)

    def truncate(self, path, size):
        self._gate("truncate")
        super().truncate(path, size)

    def pwrite(self, handle, data, offset):
        self._gate("pwrite")
        return super().pwrite(handle, data, offset)


def small_fs(backend):
    return CRFS(backend, CRFSConfig(chunk_size=CHUNK, pool_size=4 * CHUNK, io_threads=1))


def race_open(fs, backend, op):
    """Run ``op`` in a thread until it blocks inside the backend, then
    try ``open("/f", create=False)`` + write + close in another.  The
    open must wait for ``op`` to finish."""
    errors, done = [], threading.Event()

    def opener():
        try:
            with fs.open("/f", create=False) as f:
                f.write(b"new data")
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)
        done.set()

    worker = threading.Thread(target=op)
    worker.start()
    assert backend.entered.wait(10)
    t = threading.Thread(target=opener)
    t.start()
    # The gate is held, so with the table lock taken by `op` the open
    # cannot finish; without it, it would finish at once.
    assert not done.wait(0.2)
    backend.release.set()
    worker.join(10)
    t.join(10)
    assert not worker.is_alive() and not t.is_alive()
    assert done.is_set()
    return errors


class TestNamespaceOpsAgainstOpen:
    def seed(self, fs):
        with fs.open("/f") as f:
            f.write(b"old contents")

    def test_unlink(self):
        backend = GatedBackend("unlink")
        with small_fs(backend) as fs:
            self.seed(fs)
            errors = race_open(fs, backend, lambda: fs.unlink("/f"))
            assert [type(e) for e in errors] == [FileNotFound]
            assert not fs.exists("/f")

    def test_rename(self):
        backend = GatedBackend("rename")
        with small_fs(backend) as fs:
            self.seed(fs)
            errors = race_open(fs, backend, lambda: fs.rename("/f", "/g"))
            assert [type(e) for e in errors] == [FileNotFound]
        assert backend.read_file("/g") == b"old contents"

    def test_truncate(self):
        backend = GatedBackend("truncate")
        with small_fs(backend) as fs:
            self.seed(fs)
            errors = race_open(fs, backend, lambda: fs.truncate("/f", 0))
            assert errors == []
        assert backend.read_file("/f") == b"new data"

    @pytest.mark.parametrize("op", ["unlink", "rename-from", "rename-to", "truncate"])
    def test_refused_while_open(self, op):
        backend = MemBackend()
        with small_fs(backend) as fs:
            self.seed(fs)
            with fs.open("/f") as f:
                with pytest.raises(FileStateError, match="open through CRFS"):
                    if op == "unlink":
                        fs.unlink("/f")
                    elif op == "rename-from":
                        fs.rename("/f", "/g")
                    elif op == "rename-to":
                        fs.open("/g").close()
                        fs.rename("/g", "/f")
                    else:
                        fs.truncate("/f", 0)
                f.write(b"!")
        assert backend.read_file("/f") == b"!ld contents"


class TestReopenWithTruncate:
    def test_refused_while_open(self):
        backend = MemBackend()
        with small_fs(backend) as fs:
            f = fs.open("/f")
            f.write(b"old contents")
            with pytest.raises(FileStateError, match="truncat"):
                fs.open("/f", truncate=True)
            f.close()
            assert fs.stats()["open_files"] == 0
            fs.open("/f", truncate=True).close()  # not open: truncates
        assert backend.read_file("/f") == b""


class TestSizeWithChunkInFlight:
    def test_rewind_counts_the_sealed_chunk(self):
        backend = GatedBackend("pwrite")
        with small_fs(backend) as fs:
            f = fs.open("/f")
            f.write(b"a" * 100)
            f.pwrite(b"b" * 10, 10)  # gap seal: the 100 B chunk goes out
            assert backend.entered.wait(10)  # ... and is stuck in pwrite
            assert f.size() == 100
            assert f.seek(0, 2) == 100
            backend.release.set()
            f.close()
        assert backend.read_file("/f") == b"a" * 10 + b"b" * 10 + b"a" * 80
