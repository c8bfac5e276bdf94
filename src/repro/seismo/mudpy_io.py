"""MudPy-style file formats and product archives.

MudPy's "rigid" folder structure (the paper's words) revolves around a
few plain-text and binary artifacts:

* ``.rupt`` — a whitespace table with one row per subfault of a rupture
  (position, geometry, slip, kinematics),
* the recyclable distance-matrix ``.npy`` pair (see
  :mod:`repro.seismo.distance`),
* GF archives (``.mseed`` in MudPy; a compressed ``.npz`` bank here),
* per-rupture waveform files (trimmed-record ``.npz`` products, see
  :mod:`repro.seismo.waveforms`).

This module implements the ``.rupt`` format plus a *product archive*: a
directory with a JSON manifest that congregates and labels the thousands
of output files a workflow produces ("After simulation, thousands of
files are congregated, labeled, and archived on OSG storage capacity").
"""

from __future__ import annotations

import errno
import json
import os
import shutil
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from repro.errors import ArchiveError, RuptureError
from repro.integrity import atomic_write_bytes
from repro.seismo.geometry import FaultGeometry
from repro.seismo.ruptures import Rupture

__all__ = [
    "write_rupt",
    "read_rupt",
    "ProductArchive",
]

_RUPT_COLUMNS = (
    "subfault lon lat depth_km strike_deg dip_deg length_km width_km "
    "slip_m rise_s onset_s"
).split()

#: printf codes of one ``.rupt`` row after its geometry columns
#: (:meth:`FaultGeometry.rupt_rows`): slip and kinematics.
_RUPT_ROW = "%s %.6f %.4f %.4f\n"


def write_rupt(
    rupture: Rupture, geometry: FaultGeometry, path: str | Path
) -> Path:
    """Write a rupture as a MudPy-style ``.rupt`` whitespace table."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # One %-format over every row: the %-codes round exactly like the
    # equivalent f-string specs (a property test holds them to a
    # per-row f-string formatter).
    values = chain.from_iterable(
        zip(
            geometry.rupt_rows(rupture.subfault_indices),
            rupture.slip_m.tolist(),
            rupture.rise_time_s.tolist(),
            rupture.onset_time_s.tolist(),
        )
    )
    rows = (_RUPT_ROW * rupture.n_subfaults) % tuple(values)
    path.write_text(
        f"# rupt {rupture.rupture_id} target_mw={rupture.target_mw:.4f} "
        f"actual_mw={rupture.actual_mw:.4f} hypo={rupture.hypocenter_index}\n"
        "# " + " ".join(_RUPT_COLUMNS) + "\n" + rows
    )
    return path


def read_rupt(path: str | Path) -> Rupture:
    """Read a rupture written by :func:`write_rupt`.

    Geometry columns are not re-validated against a mesh here; the
    subfault indices tie the rupture back to its fault model.
    """
    path = Path(path)
    if not path.exists():
        raise RuptureError(f"rupt file not found: {path}")
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith("# rupt "):
        raise RuptureError(f"{path}: missing '# rupt' header")
    header = lines[0].split()
    rupture_id = header[2]
    fields = dict(item.split("=", 1) for item in header[3:] if "=" in item)
    try:
        target_mw = float(fields["target_mw"])
        actual_mw = float(fields["actual_mw"])
        hypo = int(fields["hypo"])
    except (KeyError, ValueError) as exc:
        raise RuptureError(f"{path}: malformed header fields: {exc}") from exc

    rows = []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != len(_RUPT_COLUMNS):
            raise RuptureError(
                f"{path}:{lineno}: expected {len(_RUPT_COLUMNS)} columns, got {len(parts)}"
            )
        rows.append([float(p) for p in parts])
    if not rows:
        raise RuptureError(f"{path}: no subfault rows")
    table = np.array(rows)
    return Rupture(
        rupture_id=rupture_id,
        target_mw=target_mw,
        actual_mw=actual_mw,
        subfault_indices=table[:, 0].astype(int),
        slip_m=table[:, 8],
        rise_time_s=table[:, 9],
        onset_time_s=table[:, 10],
        hypocenter_index=hypo,
    )


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
            self._manifest = json.loads(self._manifest_path.read_text())
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
