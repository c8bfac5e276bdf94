"""MudPy-style file formats and product archives.

MudPy's "rigid" folder structure (the paper's words) revolves around a
few plain-text and binary artifacts:

* ``.rupt`` — a whitespace table with one row per subfault of a rupture
  (position, geometry, slip, kinematics),
* the recyclable distance-matrix ``.npy`` pair (see
  :mod:`repro.seismo.distance`),
* GF archives (``.mseed`` in MudPy; an uncompressed ``.npz`` bank here),
* per-rupture waveform files (trimmed-record ``.npz`` products, see
  :mod:`repro.seismo.waveforms`).

The ``.rupt`` format is implemented in :mod:`repro.rupt` and
re-exported here. This module adds a *product archive*: a directory
with a JSON manifest that congregates and labels the thousands of
output files a workflow produces ("After simulation, thousands of files
are congregated, labeled, and archived on OSG storage capacity").
"""

from __future__ import annotations

import errno
import json
import os
import shutil
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ArchiveError
from repro.integrity import atomic_write_bytes
from repro.rupt import read_rupt, write_rupt

__all__ = [
    "write_rupt",
    "read_rupt",
    "ProductArchive",
]

def _move(source: Path, dest: Path) -> None:
    """Rename ``source`` to ``dest``; copy and unlink across filesystems."""
    try:
        os.replace(source, dest)
    except OSError as exc:
        if exc.errno != errno.EXDEV:
            raise
        shutil.copyfile(source, dest)
        source.unlink()


def _link(source: Path, dest: Path) -> None:
    """Hard-link ``source`` as ``dest``; copy where links are unsupported."""
    dest.unlink(missing_ok=True)
    try:
        os.link(source, dest)
    except OSError:
        shutil.copyfile(source, dest)


#: The fields of a manifest entry that :class:`ProductArchive` reads.
_ENTRY_FIELDS = ("kind", "label", "path", "bytes", "metadata")


def _read_manifest(path: Path) -> dict:
    """The manifest at ``path``, checked to be a JSON object whose
    ``entries`` is a list of archive entries.

    The file comes from outside the program, so anything else, a file
    that is not JSON included, is an :class:`~repro.errors.ArchiveError`
    naming the path.
    """
    try:
        manifest = json.loads(path.read_bytes())
    except (OSError, ValueError) as exc:
        raise ArchiveError(f"cannot read manifest {path}: {exc}") from exc
    entries = manifest.get("entries") if isinstance(manifest, dict) else None
    if not isinstance(entries, list):
        raise ArchiveError(f"manifest {path} is not a JSON object with an entries list")
    for i, e in enumerate(entries):
        if not (
            isinstance(e, dict)
            and all(f in e for f in _ENTRY_FIELDS)
            and isinstance(e["kind"], str)
            and isinstance(e["label"], str)
        ):
            raise ArchiveError(f"manifest {path}: entry {i} is not an archive entry")
    return manifest


@dataclass
class ProductArchive:
    """A labeled directory of simulation products with a JSON manifest.

    The archive groups files by *kind* (``ruptures``, ``gflists``,
    ``waveforms``...), records per-file metadata (rupture id, magnitude,
    station count), and can be reopened for discovery — this is the
    labeled-and-archived output store of FDW runs and the unit the VDC
    catalog ingests (DESIGN.md Fig-7 story).

    Every manifest write is atomic (fsynced temp file, then rename), so
    a crash leaves the previous manifest, never a torn one. Outside a
    :meth:`batch`, each :meth:`add_file` rewrites the manifest; inside
    one, the manifest is written once when the batch exits.
    """

    root: Path
    name: str = "fdw_products"

    MANIFEST = "manifest.json"

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._manifest_path = self.root / self.MANIFEST
        self._batch_depth = 0
        if self._manifest_path.exists():
            self._manifest = _read_manifest(self._manifest_path)
            if self._manifest.get("archive") != self.name:
                # Reopening with a different label is almost always an
                # accident; keep the stored name authoritative.
                self.name = self._manifest.get("archive", self.name)
        else:
            self._manifest = {"archive": self.name, "entries": []}
            self._flush()
        #: (kind, label) -> manifest entry, for O(1) duplicate checks.
        self._index = {(e["kind"], e["label"]): e for e in self._manifest["entries"]}

    def _flush(self) -> None:
        data = json.dumps(self._manifest, indent=2, sort_keys=True).encode()
        try:
            atomic_write_bytes(self._manifest_path, data)
        except OSError as exc:
            raise ArchiveError(f"cannot write manifest {self._manifest_path}: {exc}") from exc

    # -- writing -----------------------------------------------------------

    @contextmanager
    def batch(self) -> Iterator["ProductArchive"]:
        """Defer manifest writes to one write when the batch exits.

        Files still land as each :meth:`add_file` runs; only the
        manifest rewrite is deferred. The write happens even when the
        batch body raises, so every file that did land is recorded.
        Batches nest; the outermost one writes.
        """
        self._batch_depth += 1
        try:
            yield self
        finally:
            self._batch_depth -= 1
            if self._batch_depth == 0:
                self._flush()

    def add_file(
        self,
        source: str | Path,
        kind: str,
        label: str,
        metadata: dict | None = None,
        move: bool = False,
        link: bool = False,
    ) -> Path:
        """Congregate ``source`` into the archive under ``kind/``.

        A missing source or a duplicate ``(kind, label)`` — including
        one added earlier in the same :meth:`batch` — raises
        :class:`~repro.errors.ArchiveError` before any file is touched.

        Parameters
        ----------
        source:
            Existing file to copy (or move) into the archive.
        kind:
            Product category; becomes a subdirectory.
        label:
            Unique label within the kind (used as the stored filename
            stem, suffix preserved).
        move:
            Move (rename) instead of copy, for large intermediates.
        link:
            Without ``move``: hard-link instead of copying (a copy where
            the filesystem has no hard links). The archived file shares
            its bytes with ``source``, so only for sources that are
            never rewritten in place.
        """
        source = Path(source)
        if not source.is_file():
            raise ArchiveError(f"source file not found: {source}")
        if (kind, label) in self._index:
            raise ArchiveError(f"duplicate archive entry {kind}/{label}")
        dest_dir = self.root / kind
        dest_dir.mkdir(parents=True, exist_ok=True)
        dest = dest_dir / (label + source.suffix)
        try:
            if move:
                _move(source, dest)
            elif link:
                _link(source, dest)
            else:
                shutil.copyfile(source, dest)
            size = dest.stat().st_size
        except OSError as exc:
            raise ArchiveError(f"cannot archive {source} as {kind}/{label}: {exc}") from exc
        entry = {
            "kind": kind,
            "label": label,
            "path": str(dest.relative_to(self.root)),
            "bytes": size,
            "metadata": metadata or {},
        }
        self._manifest["entries"].append(entry)
        self._index[(kind, label)] = entry
        if not self._batch_depth:
            self._flush()
        return dest

    # -- discovery -----------------------------------------------------------

    @property
    def entries(self) -> list[dict]:
        """Manifest entries (copies; mutate via the API only)."""
        return [dict(e) for e in self._manifest["entries"]]

    def kinds(self) -> list[str]:
        """Sorted distinct product kinds present."""
        return sorted({e["kind"] for e in self._manifest["entries"]})

    def find(self, kind: str | None = None, **metadata: object) -> list[dict]:
        """Entries matching a kind and/or exact metadata values."""
        out = []
        for e in self._manifest["entries"]:
            if kind is not None and e["kind"] != kind:
                continue
            if all(e["metadata"].get(k) == v for k, v in metadata.items()):
                out.append(dict(e))
        return out

    def path_of(self, kind: str, label: str) -> Path:
        """Absolute path of an archived file."""
        entry = self._index.get((kind, label))
        if entry is None:
            raise ArchiveError(f"no archive entry {kind}/{label}")
        return self.root / entry["path"]

    def total_bytes(self) -> int:
        """Total archived payload size."""
        return sum(e["bytes"] for e in self._manifest["entries"])
