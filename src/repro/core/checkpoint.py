"""Crash-consistent checkpoints for local FDW runs.

The local analogue of a rescue DAG: :class:`RunCheckpoint` keeps one
signed record per completed chunk inside the run's archive directory,
so an interrupted :meth:`~repro.core.local.LocalRunner.run` can be
re-invoked with ``resume=True`` and skip every chunk already recorded.
Because Phase A keys its RNG per catalog *index* and Phase C is a pure
function of the rupture chunk, regenerating only the missing chunks
yields byte-identical products to an uninterrupted run.

A chunk is **done** exactly when its record ``<phase>_<index>.pkl`` and
the record's sha256 sidecar both exist and agree. Each record is
written by one :func:`~repro.integrity.write_artifact` call: the record
is fsynced and renamed into place, then its sidecar is written. A
record without a sidecar means the process died between those two
writes; the chunk is pending and simply runs again. There is no second
list of done chunks to keep in step with the records.

A Phase-C record also vouches for the chunk's waveform products: each
row carries the sha256 of its product's bytes, hashed when the record
is stored. Products themselves are plain writes by
:meth:`~repro.seismo.waveforms.WaveformSet.save` (not fsynced), so a
host crash can lose or tear one; the recorded digest catches that.

Resume verifies before trusting (:meth:`RunCheckpoint.restore`): a
record that fails its digest check or no longer unpickles, and a
product that is missing, unreadable or fails its recorded digest, are
quarantined into ``<archive_dir>/_quarantine/`` and the chunk runs
again. A damaged manifest is quarantined and the run starts fresh.
Corruption degrades to recompute, never a wrong archive.

Layout under ``<archive_dir>/_checkpoint/``::

    manifest.json       # version, config digest, chunk counts; written once
    manifest.json.sha256
    A_00000.pkl         # pickled rupture list of one Phase-A chunk
    A_00000.pkl.sha256
    C_00000.pkl         # (rupture_id, pgd, mw, filename, sha256) rows of one C chunk
    C_00000.pkl.sha256
    waveforms/<id>.npz  # per-rupture waveform products of stored C chunks

The directory is removed by :meth:`RunCheckpoint.finalize` once the
archive has been assembled.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import shutil
from pathlib import Path

from repro.errors import CheckpointError, IntegrityError
from repro.core.config import FdwConfig
from repro.integrity import (
    quarantine_artifact,
    read_digest,
    read_verified,
    sha256_bytes,
    write_artifact,
)
from repro.seismo.mudpy_io import ProductArchive
from repro.seismo.ruptures import Rupture

__all__ = ["RunCheckpoint", "config_digest"]

#: Rows of one Phase-C chunk: (rupture_id, max PGD, target Mw, filename).
CRow = tuple[str, float, float, "str | None"]

#: How a resume names each manifest field that does not match the run.
_MISMATCH = {
    "version": "checkpoint version {stored} != {expected}",
    "config_digest": "checkpoint belongs to a different configuration "
    "(digest {stored!r} != {expected!r})",
    "n_a_chunks": "checkpoint chunk plan changed for phase A: {stored} != {expected}",
    "n_c_chunks": "checkpoint chunk plan changed for phase C: {stored} != {expected}",
}


def config_digest(config: FdwConfig) -> str:
    """Content digest of a configuration.

    ``FdwConfig`` is a frozen dataclass, so its ``repr`` enumerates every
    field deterministically; hashing it pins a checkpoint to the exact
    configuration that produced it.
    """
    return hashlib.sha256(repr(config).encode()).hexdigest()


class RunCheckpoint:
    """Chunk-granular checkpoint of one local run.

    Parameters
    ----------
    archive_dir:
        The run's archive directory; the checkpoint lives in its
        ``_checkpoint/`` subdirectory.
    config:
        The run's configuration; its digest must match on resume.
    n_a_chunks, n_c_chunks:
        The run's chunk plan; must match on resume (a chunk-size change
        would give the same record names to different chunks).
    resume:
        ``True`` keeps an existing checkpoint (validating its manifest);
        ``False`` discards any stale checkpoint and starts fresh.
    """

    DIRNAME = "_checkpoint"
    QUARANTINE_DIRNAME = "_quarantine"
    #: 3: Phase-C records carry a sha256 per product. Version 2 records
    #: have none to verify; version 1 holds deflated products, and
    #: resuming it would mix both layouts in one archive.
    VERSION = 3

    def __init__(
        self,
        archive_dir: str | Path,
        config: FdwConfig,
        n_a_chunks: int,
        n_c_chunks: int,
        resume: bool = False,
    ) -> None:
        self.archive_dir = Path(archive_dir)
        self.dir = self.archive_dir / self.DIRNAME
        self.manifest_path = self.dir / "manifest.json"
        self.waveforms_dir = self.dir / "waveforms"
        self.quarantine_dir = self.archive_dir / self.QUARANTINE_DIRNAME
        self.manifest = {
            "version": self.VERSION,
            "config_digest": config_digest(config),
            "n_a_chunks": n_a_chunks,
            "n_c_chunks": n_c_chunks,
        }
        #: Paths of quarantined checkpoint artifacts, in order.
        self.quarantined: list[Path] = []
        if resume and self.manifest_path.exists() and self._resume():
            return
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.waveforms_dir.mkdir(parents=True)
        write_artifact(
            self.manifest_path,
            json.dumps(self.manifest, indent=2, sort_keys=True).encode(),
        )

    def _quarantine(self, path: Path, reason: str) -> None:
        self.quarantined.append(
            quarantine_artifact(
                path, quarantine_dir=self.quarantine_dir, reason=reason
            )
        )

    def _resume(self) -> bool:
        """Check the stored manifest against this run.

        Returns ``False`` — after quarantining the damaged manifest —
        when it fails its digest check or does not parse, so the resume
        degrades to a fresh run instead of crashing. A *valid* manifest
        of another version, configuration or chunk plan still raises
        :class:`CheckpointError`: that is a user mistake, not corruption.
        """
        try:
            stored = json.loads(read_verified(self.manifest_path))
        except (IntegrityError, ValueError) as exc:
            self._quarantine(
                self.manifest_path, f"unreadable checkpoint manifest: {exc}"
            )
            return False
        for key, expected in self.manifest.items():
            if stored.get(key) != expected:
                raise CheckpointError(
                    _MISMATCH[key].format(stored=stored.get(key), expected=expected)
                )
        self.waveforms_dir.mkdir(parents=True, exist_ok=True)
        return True

    def _chunk_path(self, phase: str, index: int) -> Path:
        return self.dir / f"{phase}_{index:05d}.pkl"

    # -- chunk records -----------------------------------------------------

    def store_a_chunk(self, index: int, ruptures: list[Rupture]) -> None:
        """Record one Phase-A chunk as done."""
        write_artifact(
            self._chunk_path("A", index),
            pickle.dumps(ruptures, protocol=pickle.HIGHEST_PROTOCOL),
        )

    def store_c_chunk(self, index: int, rows: list[CRow]) -> None:
        """Record one Phase-C chunk as done, with a digest per product.

        Call only after the chunk's waveform ``.npz`` products are on
        disk in :attr:`waveforms_dir`; a checkpointed run spools every
        product there, so every row names one. The record keeps bare
        filenames so the checkpoint stays relocatable.
        """
        signed = []
        for rid, pgd, mw, path in rows:
            name = Path(path).name
            product = (self.waveforms_dir / name).read_bytes()
            signed.append((rid, pgd, mw, name, sha256_bytes(product)))
        write_artifact(
            self._chunk_path("C", index),
            pickle.dumps(signed, protocol=pickle.HIGHEST_PROTOCOL),
        )

    def restore(self, phase: str, index: int) -> list | None:
        """The result of one done chunk, or ``None`` when it must run.

        Phase A gives the chunk's ruptures; Phase C its rows, with
        absolute product paths. A chunk without a record, or whose
        record has no sidecar, is pending. A record that fails its
        digest check or does not unpickle, and a C product that is
        missing, unreadable or fails its recorded digest, are
        quarantined (the record too) and the chunk is pending.
        """
        path = self._chunk_path(phase, index)
        try:
            if not path.exists() or read_digest(path) is None:
                return None
            data = read_verified(path)
            try:
                chunk = pickle.loads(data)
            except Exception as exc:  # pickle's failure surface is open-ended
                raise IntegrityError(
                    f"corrupt checkpoint chunk {path.name}: {exc}"
                ) from exc
            return chunk if phase == "A" else [self._product_row(r) for r in chunk]
        except IntegrityError as exc:
            self._quarantine(path, str(exc))
            return None

    def _product_row(self, row: tuple) -> CRow:
        """One recorded C row, after its product hashes to its digest."""
        rid, pgd, mw, name, digest = row
        product = self.waveforms_dir / name
        try:
            actual = sha256_bytes(product.read_bytes())
        except OSError as exc:
            raise IntegrityError(
                f"checkpointed waveform {name} unreadable: {exc}"
            ) from exc
        if actual != digest:
            reason = (
                f"digest mismatch for checkpointed waveform {name}: recorded "
                f"{digest[:12]}..., bytes hash to {actual[:12]}..."
            )
            self._quarantine(product, reason)
            raise IntegrityError(reason)
        return (rid, pgd, mw, str(product))

    # -- archive assembly --------------------------------------------------

    def reset_archive(self) -> None:
        """Remove a partial archive so reassembly is idempotent.

        Only the archive's own manifest and product subdirectories are
        touched; the checkpoint directory survives.
        """
        for kind in ("waveforms", "ruptures"):
            shutil.rmtree(self.archive_dir / kind, ignore_errors=True)
        manifest = self.archive_dir / ProductArchive.MANIFEST
        if manifest.exists():
            manifest.unlink()

    def finalize(self) -> None:
        """Delete the checkpoint after the archive is fully assembled."""
        shutil.rmtree(self.dir, ignore_errors=True)
