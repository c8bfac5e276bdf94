"""The MudPy ``.rupt`` rupture table: one whitespace row per subfault.

A row holds the subfault's position and geometry
(:meth:`~repro.seismo.geometry.FaultGeometry.rupt_rows`), its slip and
its kinematics; a ``# rupt`` header line carries the rupture id, target
and actual magnitude and hypocenter. The format needs no seismic
kernel, so it lives outside :mod:`repro.seismo`, whose package import
loads scipy and every kernel: :mod:`repro.core.local` binds
:func:`write_rupt` at import, and importing :mod:`repro.core` loads no
part of the seismic stack. :mod:`repro.seismo.mudpy_io` re-exports
both functions.
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import RuptureError

if TYPE_CHECKING:
    from repro.seismo.geometry import FaultGeometry
    from repro.seismo.ruptures import Rupture

__all__ = ["write_rupt", "read_rupt"]

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
    from repro.seismo.ruptures import Rupture

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
