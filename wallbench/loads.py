"""The four workloads, driven through the repro package's public API.

Each workload builds its inputs from the seed, mounts, warms up, then
runs closed-loop epochs until a deadline: every rank (one thread each,
two ranks, so load threads never exceed the box's two cores) issues its
next operation when the previous one returns.  Every epoch's output is
checked against its input outside the timed region, and a mismatch
counts as a failed operation.

Untraced windows pair the work with native work done at the same
moment: the same bytes through plain ``os`` calls, or, for the
simulator, the same job without the CRFS model run concurrently.  The
ratio cancels the machine's own speed drift (the same pure-Python loop
swings by ±15% over tens of seconds on the 2-core box this was built
on), which a sequence of runs spread over minutes would otherwise read
as noise.

Threaded-plane files live in a directory of the benchmark's own under
the working directory (the checkout), recreated per round.
"""

from __future__ import annotations

import gc
import os
import shutil
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro import (
    CRFS,
    DEFAULT_CONFIG,
    CRFSConfig,
    LocalDirBackend,
    MiB,
)
from repro.checkpoint.manifest import generation_path, manifest_path
from repro.checkpoint.sizedist import WriteSizeDistribution
from repro.mpi import CheckpointCoordinator, MPIJob, stack_by_name
from repro.workloads import LLMCadenceWorkload, lu_class

from tracing import Tracer, TracingBackend

__all__ = ["Scale", "FULL", "SMOKE", "Tally", "WORKLOADS"]


@dataclass(frozen=True)
class Scale:
    """Input sizes; FULL is what the benchmark runs, SMOKE its tests."""

    dump_image: int
    shard_bytes: int
    sim_class: str
    sim_procs: int
    sim_nodes: int
    #: ``avg_local_time`` of the seed-2011 reference run of this
    #: simulator job, recorded from the simulator as committed.
    sim_reference: float


FULL = Scale(
    dump_image=64 * MiB,
    shard_bytes=32 * MiB,
    sim_class="C",
    sim_procs=128,
    sim_nodes=16,
    sim_reference=0.3873523017487373,
)
SMOKE = Scale(
    dump_image=2 * MiB,
    shard_bytes=8 * MiB,
    sim_class="B",
    sim_procs=8,
    sim_nodes=2,
    sim_reference=0.8599627643390203,
)

RANKS = 2
REFERENCE_SEED = 2011
#: Delta mount: the paper's 4 MiB chunks, so a 32 MiB shard is 8 chunks
#: and a 0.25 dirty fraction rewrites 2 of them per generation; chain
#: restores read through a 4-chunk cache per file with adaptive readahead.
DELTA_CONFIG = DEFAULT_CONFIG.with_(
    pool_size=48 * MiB, read_cache_chunks=4, readahead_chunks=2, readahead_adaptive=True,
)
DELTA_ITERATIONS = 8
DELTA_DIRTY = 0.25


@dataclass
class Tally:
    """What one measured window produced."""

    attempted: int = 0
    failed: int = 0
    #: Latency of each unit operation (s).
    ops: list[float] = field(default_factory=list)
    #: Latency of each whole job: an image dump or restore, a chain
    #: restore, a simulator run (s).
    jobs: list[float] = field(default_factory=list)
    #: Payload MiB/s of each epoch.
    rates: list[float] = field(default_factory=list)
    #: Payload MiB/s of the native work paired with each epoch, and the
    #: epoch's rate over it (for delta commits, each commit's).
    floor: list[float] = field(default_factory=list)
    vs_native: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(why)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.ops += other.ops
        self.jobs += other.jobs
        self.rates += other.rates
        self.floor += other.floor
        self.vs_native += other.vs_native
        self.errors += other.errors[: max(0, 10 - len(self.errors))]

    def measured(self, rate: float, native_rate: float | None) -> None:
        """Record an epoch's rate and, when paired, its native pair's."""
        self.rates.append(rate)
        if native_rate is not None:
            self.floor.append(native_rate)
            self.vs_native.append(rate / native_rate)


def on_ranks(fn: Callable[[int], Any]) -> list[Any]:
    """Run ``fn(rank)`` on one thread per rank; returns each rank's
    result, or the exception it raised."""
    results: list[Any] = [None] * RANKS

    def body(rank: int) -> None:
        try:
            results[rank] = fn(rank)
        except Exception as exc:  # reported per rank by the caller
            results[rank] = exc

    threads = [threading.Thread(target=body, args=(r,)) for r in range(RANKS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def span_rate(nbytes: int, spans: list[tuple[float, float]]) -> float:
    """MiB/s of ``nbytes`` moved between the first start and last end."""
    return nbytes / MiB / (max(s[1] for s in spans) - min(s[0] for s in spans))


class ThreadedWorkload:
    """Shared mount/round plumbing of the threaded-plane workloads."""

    name = ""
    config: CRFSConfig = DEFAULT_CONFIG

    def __init__(self, seed: int, scale: Scale, workdir: str):
        self.seed = seed
        self.scale = scale
        self.dir = os.path.join(workdir, self.name)
        self.fs: CRFS | None = None
        self.backend: Any = None

    def setup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)

    def store(self) -> Any:
        return LocalDirBackend(self.dir)

    def mount(self, tracer: Tracer | None = None) -> None:
        backend = self.store()
        if tracer is not None:
            backend = TracingBackend(backend, tracer)
        self.backend = backend
        self.fs = CRFS(backend, self.config)
        if tracer is not None:
            tracer.instrument_mount(self.fs)
        self.fs.mount()

    def unmount(self) -> None:
        if self.fs is not None:
            self.fs.unmount()
            self.fs = None

    def close(self) -> None:
        self.unmount()
        shutil.rmtree(self.dir, ignore_errors=True)

    def warm_up(self, tally: Tally) -> None:
        self.mount()
        self.epoch(tally, None, paired=True)

    def run(self, deadline: float, tracer: Tracer | None = None,
            paired: bool = False) -> Tally:
        tally = Tally()
        while time.perf_counter() < deadline:
            self.epoch(tally, tracer, paired)
        return tally

    def epoch(self, tally: Tally, tracer: Tracer | None, paired: bool) -> None:
        """One epoch, ``paired`` with native work."""
        raise NotImplementedError


class BlcrDump(ThreadedWorkload):
    """Each rank dumps a Table-I write-mix image per epoch, then closes.

    Every epoch rewrites the same files in place, alternating between
    two images per rank, so a lost write leaves the other image's bytes
    and fails the check.  In place, because a truncated-and-rewritten
    ext4 file is written back at close and a fresh one allocates its
    page cache anew: either would time the store instead of the mount.
    """

    name = "blcr_dump"

    def setup(self) -> None:
        dist = WriteSizeDistribution()
        self.plans: list[list[int]] = []
        self.images: list[tuple[bytes, bytes]] = []
        for rank in range(RANKS):
            rng = np.random.default_rng([self.seed, rank])
            self.plans.append(dist.plan(self.scale.dump_image, rng))
            self.images.append((rng.bytes(self.scale.dump_image),
                                rng.bytes(self.scale.dump_image)))
        self.epochs = 0
        super().setup()

    def path(self, rank: int) -> str:
        return f"/rank{rank}.img"

    def dump(self, rank: int, image: bytes,
             tracer: Tracer | None) -> tuple[float, float, list[float]]:
        assert self.fs is not None
        clock = time.perf_counter
        view = memoryview(image)
        lat: list[float] = []
        start = clock()
        f = self.fs.open(self.path(rank))
        write = f.write if tracer is None else tracer.wrap("op.write", f.write, root=True)
        offset = 0
        for size in self.plans[rank]:
            t0 = clock()
            write(view[offset:offset + size])
            lat.append(clock() - t0)
            offset += size
        if tracer is None:
            f.close()
        else:
            tracer.call("op.close", f.close, root=True)
        return start, clock(), lat

    def epoch(self, tally: Tally, tracer: Tracer | None, paired: bool) -> None:
        images = [pair[self.epochs % 2] for pair in self.images]
        self.epochs += 1
        results = on_ranks(lambda rank: self.dump(rank, images[rank], tracer))
        tally.attempted += sum(len(p) + 1 for p in self.plans)
        for rank, r in enumerate(results):
            if isinstance(r, Exception):
                tally.fail(f"rank {rank}: dump raised {r!r}")
            else:
                with open(os.path.join(self.dir, self.path(rank)[1:]), "rb") as f:
                    if f.read() != images[rank]:
                        tally.fail(f"rank {rank}: dumped image differs from the write stream")
        if not any(isinstance(r, Exception) for r in results):
            native = self.native_epoch(images) if paired else None
            tally.measured(span_rate(RANKS * self.scale.dump_image, results), native)
            for start, end, lat in results:
                tally.jobs.append(end - start)
                tally.ops += lat

    def native_epoch(self, images: list[bytes]) -> float:
        """``os.pwrite`` of the identical write streams into the same
        directory, rewriting in place like the mount's epochs."""
        def rank_dump(rank: int) -> tuple[float, float]:
            view = memoryview(images[rank])
            start = time.perf_counter()
            fd = os.open(os.path.join(self.dir, f"native{rank}.img"),
                         os.O_WRONLY | os.O_CREAT, 0o644)
            try:
                offset = 0
                for size in self.plans[rank]:
                    offset += os.pwrite(fd, view[offset:offset + size], offset)
            finally:
                os.close(fd)
            return start, time.perf_counter()

        return span_rate(RANKS * self.scale.dump_image, on_ranks(rank_dump))


class TmpfsLikeStore(LocalDirBackend):
    """A local directory whose ``fsync`` returns at once, as on tmpfs.

    The delta commit fsyncs twice per generation.  On the disk under
    the working directory each fsync times the device (~13 ms, and it
    varied by a fifth from run to run), which would hide the mount's
    own drain and manifest costs; tmpfs, where the workload is meant to
    run, makes fsync free.  The mount still drains and calls fsync.
    """

    def fsync(self, handle: Any) -> None:
        pass


class LlmDelta(ThreadedWorkload):
    """Two tensor shards commit delta generations, then restore across
    the chain; one cycle is ``DELTA_ITERATIONS`` generations per shard."""

    name = "llm_delta"
    config = DELTA_CONFIG

    def setup(self) -> None:
        self.cadence = LLMCadenceWorkload(
            shards=RANKS,
            shard_bytes=self.scale.shard_bytes,
            iterations=DELTA_ITERATIONS,
            dirty_fraction=DELTA_DIRTY,
        )
        self.cycle = 0
        super().setup()

    def store(self) -> Any:
        return TmpfsLikeStore(self.dir)

    def generations(self, shard: int, cycle: int):
        """Yield ``(dirty, image)`` per generation of one shard's cycle:
        the declared dirty chunks, and the image after the training
        step rewrote them (one buffer, mutated in place)."""
        cs = self.config.chunk_size
        seed = self.seed * 1000 + cycle
        rng = np.random.default_rng([seed, shard])
        image = bytearray(rng.bytes(self.scale.shard_bytes))
        for iteration in range(self.cadence.iterations):
            dirty = self.cadence.dirty_chunks(seed, shard, iteration, cs)
            for index in dirty or ():
                lo = index * cs
                hi = min(lo + cs, len(image))
                image[lo:hi] = rng.bytes(hi - lo)
            yield dirty, image

    def shard_cycle(self, shard: int, cycle: int, tracer: Tracer | None, paired: bool
                    ) -> tuple[list[float], list[float], float, bool]:
        """Commit one shard's generations, restore the chain, clean up.

        ``paired``, each commit is followed by ``os.pwrite`` of the same
        extents (all of the image at generation 0) into this shard's
        file for that generation, rewritten in place each cycle: the
        bytes a delta commit stores, without the mount or manifest.  In
        place, because allocating fresh page cache made the native
        times swing threefold from one cycle to the next.
        Returns the commit stalls, those native stalls, the restore
        time and whether the restore matched."""
        assert self.fs is not None
        fs = self.fs
        clock = time.perf_counter
        cs = self.config.chunk_size
        path = f"/c{cycle}{self.cadence.shard_path(shard)}"
        commit, restore = fs.delta_checkpoint, fs.delta_restore
        if tracer is not None:
            commit = tracer.wrap("op.delta_checkpoint", commit, root=True)
            restore = tracer.wrap("op.delta_restore", restore, root=True)
        stalls: list[float] = []
        native: list[float] = []
        for generation, (dirty, image) in enumerate(self.generations(shard, cycle)):
            t0 = clock()
            commit(path, image, dirty)
            stalls.append(clock() - t0)
            if paired:
                view = memoryview(image)
                chunks = range(-(-len(image) // cs)) if dirty is None else dirty
                real = os.path.join(self.dir, f"native{shard}.g{generation}")
                t0 = clock()
                fd = os.open(real, os.O_WRONLY | os.O_CREAT, 0o644)
                try:
                    for index in chunks:
                        os.pwrite(fd, view[index * cs:(index + 1) * cs], index * cs)
                finally:
                    os.close(fd)
                native.append(clock() - t0)
        t0 = clock()
        restored = restore(path)
        restore_s = clock() - t0
        matches = restored == image
        for generation in range(self.cadence.iterations):
            fs.unlink(generation_path(path, generation))
        fs.unlink(manifest_path(path))
        return stalls, native, restore_s, matches

    def epoch(self, tally: Tally, tracer: Tracer | None, paired: bool) -> None:
        assert self.fs is not None
        cycle = self.cycle
        self.cycle += 1
        self.fs.mkdir(f"/c{cycle}")
        results = on_ranks(lambda shard: self.shard_cycle(shard, cycle, tracer, paired))
        self.fs.rmdir(f"/c{cycle}")
        tally.attempted += RANKS * (self.cadence.iterations + 1)
        for shard, r in enumerate(results):
            if isinstance(r, Exception):
                tally.fail(f"shard {shard}: delta cycle raised {r!r}")
            elif not r[3]:
                tally.fail(f"shard {shard}: chain restore differs from the reference image")
        if not any(isinstance(r, Exception) for r in results):
            logical = RANKS * self.cadence.iterations * self.scale.shard_bytes / MiB
            tally.rates.append(logical / max(sum(r[0]) for r in results))
            if paired:
                # Each commit against the native write of its extents
                # just after it, on the same thread: pairs milliseconds
                # apart, where a cycle's totals swung with the machine.
                tally.floor.append(logical / max(sum(r[1]) for r in results))
                tally.vs_native += [n / c for r in results for c, n in zip(r[0], r[1])]
            for stalls, _, restore_s, _ in results:
                tally.ops += stalls
                tally.jobs.append(restore_s)


class SimTestbed:
    """One ``CheckpointCoordinator`` run per job: MVAPICH2, LU class C,
    128 processes on 16 nodes, ext3 with CRFS.

    Times are the running thread's CPU time.  Paired, the same job
    on ext3 without CRFS runs concurrently on a second thread, so both
    share the interpreter at fine grain and see the same machine; run
    back to back, two 4-second runs saw different machine speeds."""

    name = "sim_testbed"

    def __init__(self, seed: int, scale: Scale, workdir: str):
        self.seed = seed
        self.scale = scale
        self.job = MPIJob(
            stack=stack_by_name("MVAPICH2"),
            nas=lu_class(scale.sim_class),
            nprocs=scale.sim_procs,
            nnodes=scale.sim_nodes,
        )
        self.expected: dict[bool, float] = {}

    def simulate(self, seed: int, use_crfs: bool = True) -> tuple[Any, float]:
        t0 = time.thread_time()
        result = CheckpointCoordinator(self.job, "ext3", use_crfs=use_crfs, seed=seed).run()
        return result, time.thread_time() - t0

    def setup(self) -> None:
        pass

    def warm_up(self, tally: Tally) -> None:
        """The seed-2011 run must reproduce its recorded checkpoint
        time."""
        got = self.simulate(REFERENCE_SEED)[0].avg_local_time
        tally.attempted += 1
        want = self.scale.sim_reference
        if not abs(got - want) <= 1e-9 * abs(want):
            tally.fail(f"seed {REFERENCE_SEED}: virtual checkpoint time {got!r} "
                       f"!= recorded {want!r}")

    def mount(self, tracer: Tracer | None = None) -> None:
        pass

    def unmount(self) -> None:
        pass

    def close(self) -> None:
        pass

    def checked(self, tally: Tally, run: Any, use_crfs: bool) -> float | None:
        """The CPU time of a ``simulate`` result if the run agrees with
        the first run of its mode and is self-consistent."""
        tally.attempted += 1
        mode = "CRFS" if use_crfs else "native"
        if isinstance(run, Exception):
            tally.fail(f"seed {self.seed} {mode}: simulation raised {run!r}")
            return None
        result, cpu = run
        got = result.avg_local_time
        first = self.expected.setdefault(use_crfs, got)
        if got != first:
            tally.fail(f"seed {self.seed} {mode}: rerun gave {got!r}, first run {first!r}")
        elif not (len(result.timings) == self.job.nprocs
                  and 0 < result.min_local_time <= got <= result.max_local_time
                  <= result.wall_time):
            tally.fail(f"seed {self.seed} {mode}: inconsistent rank timings")
        else:
            return cpu
        return None

    def run(self, deadline: float, tracer: Tracer | None = None,
            paired: bool = False) -> Tally:
        tally = Tally()
        mib = self.job.total_checkpoint_size / MiB
        while time.perf_counter() < deadline or not tally.attempted:
            gc.collect()  # the previous run's garbage, collected untimed
            if paired:
                runs = on_ranks(lambda rank: self.simulate(self.seed, use_crfs=rank == 0))
            elif tracer is not None:
                runs = [tracer.call("op.simulate", self.simulate, self.seed, root=True)]
            else:
                runs = [self.simulate(self.seed)]
            cpu = self.checked(tally, runs[0], use_crfs=True)
            native = self.checked(tally, runs[1], use_crfs=False) if paired else None
            if cpu is not None and (native is not None or not paired):
                tally.measured(mib / cpu, None if native is None else mib / native)
                tally.ops.append(cpu)
                tally.jobs.append(cpu)
        return tally


WORKLOADS: dict[str, type] = {
    "blcr_dump": BlcrDump,
    "llm_delta": LlmDelta,
    "sim_testbed": SimTestbed,
}
