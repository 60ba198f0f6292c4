"""Threaded execution of the delta-checkpoint kernel.

:class:`DeltaCheckpointer` drives the plane-agnostic
:class:`~repro.pipeline.delta.DeltaTracker` with real bytes: dirty
extents stream through the mount's normal aggregation pipeline into the
generation file (``<path>.g<N>``), the manifest is then written
synchronously straight to the backend (it is the durable commit point —
a latched asynchronous failure would be the wrong contract), and only a
successful manifest write advances the chain.  Restore loads and
validates the manifest, then reassembles the logical image with one
read per contiguous same-owner run through the mount's normal
(cacheable) read path.

The timing plane mirrors this exact op sequence in
:meth:`repro.simcrfs.model.SimCRFS.delta_checkpoint` /
``delta_restore``, so ``stats()["delta"]`` — and every
workload-determined pipeline counter the delta traffic moves — is
bit-identical across planes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from ..backends.base import normalize_path
from ..checkpoint.manifest import Manifest, generation_path, manifest_path
from ..errors import ManifestError
from ..pipeline.delta import DeltaPlan

if TYPE_CHECKING:  # pragma: no cover
    from .mount import CRFS

__all__ = ["DeltaCheckpointer"]


class DeltaCheckpointer:
    """Per-mount delta-checkpoint driver (functional plane)."""

    def __init__(self, fs: "CRFS"):
        self.fs = fs

    # -- checkpoint ------------------------------------------------------------

    def checkpoint(
        self,
        path: str,
        image: bytes | bytearray | memoryview,
        dirty: Iterable[int] | None = None,
        tenant: str | None = None,
    ) -> DeltaPlan:
        """Commit one generation of ``path``'s chain.

        ``image`` is the full current logical image; ``dirty`` declares
        which chunk indices changed since the previous generation
        (``None`` = all, and generation 0 is always a full dump).  Only
        the dirty extents enter the pipeline; clean chunks stay manifest
        references to older generations.
        """
        norm = normalize_path(path)
        tracker = self.fs.kernel.delta(norm)
        view = memoryview(image).cast("B")  # extents are byte ranges
        plan = tracker.plan_checkpoint(len(view), dirty)

        f = self.fs.open(
            generation_path(norm, plan.generation),
            create=True,
            truncate=True,
            tenant=tenant,
        )
        try:
            for ext in plan.extents:
                f.pwrite(
                    view[ext.file_offset : ext.file_offset + ext.length],
                    ext.file_offset,
                )
            f.fsync()
        finally:
            f.close()

        raw = plan.manifest.to_bytes()
        try:
            self._write_manifest(norm, raw)
        except BaseException:
            # The old manifest was truncated before the failure: the
            # on-disk chain head is suspect until a clean commit.
            tracker.note_torn()
            raise
        tracker.commit(plan, len(raw))
        return plan

    def _write_manifest(self, norm: str, raw: bytes) -> None:
        """Synchronous manifest replace: truncate, write, fsync, close.
        The fsync makes the manifest the chain's durable commit point."""
        backend = self.fs.backend
        handle = backend.open(manifest_path(norm), create=True, truncate=True)
        try:
            backend.pwrite(handle, raw, 0)
            backend.fsync(handle)
        finally:
            backend.close(handle)

    # -- restore ---------------------------------------------------------------

    def load_manifest(self, path: str) -> Manifest:
        """Read and validate ``path``'s manifest; every tear, checksum
        mismatch, or divergence from the in-session chain raises
        :class:`~repro.errors.ManifestError` — restore never silently
        reassembles a stale generation."""
        norm = normalize_path(path)
        tracker = self.fs.kernel.delta(norm)
        tracker.check_restorable()
        backend = self.fs.backend
        try:
            handle = backend.open(manifest_path(norm), create=False)
        except FileNotFoundError as exc:
            raise ManifestError(f"{norm}: manifest file missing") from exc
        try:
            raw = backend.pread(handle, backend.file_size(handle), 0)
        finally:
            backend.close(handle)
        manifest = Manifest.from_bytes(raw)
        if manifest.path != norm:
            raise ManifestError(
                f"manifest names {manifest.path!r}, expected {norm!r}"
            )
        if manifest.chunk_size != self.fs.config.chunk_size:
            raise ManifestError(
                f"{norm}: manifest chunk_size {manifest.chunk_size} != "
                f"mount chunk_size {self.fs.config.chunk_size}"
            )
        if manifest.generation != tracker.generation:
            raise ManifestError(
                f"{norm}: stale manifest generation {manifest.generation}, "
                f"chain is at {tracker.generation}"
            )
        return manifest

    def restore(self, path: str, tenant: str | None = None) -> bytes:
        """Reassemble the current logical image across the chain."""
        norm = normalize_path(path)
        tracker = self.fs.kernel.delta(norm)
        manifest = self.load_manifest(norm)
        runs = manifest.owner_runs()
        image = bytearray(manifest.logical_size)
        open_files: dict[int, object] = {}
        try:
            for gen, file_offset, length, _chunks in runs:
                f = open_files.get(gen)
                if f is None:
                    try:
                        f = self.fs.open(
                            generation_path(norm, gen),
                            create=False,
                            tenant=tenant,
                        )
                    except FileNotFoundError as exc:
                        raise ManifestError(
                            f"{norm}: generation file g{gen} missing"
                        ) from exc
                    open_files[gen] = f
                data = f.pread(length, file_offset)
                if len(data) != length:
                    raise ManifestError(
                        f"{norm}: short read from generation g{gen} at "
                        f"{file_offset} ({len(data)} of {length} bytes)"
                    )
                image[file_offset : file_offset + length] = data
        finally:
            for f in open_files.values():
                f.close()  # type: ignore[attr-defined]
        tracker.note_restore(len(runs), manifest.logical_size)
        return bytes(image)
