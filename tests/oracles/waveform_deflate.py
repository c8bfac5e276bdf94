"""Oracle: the deflated whole-record product encoder the trimmed layout replaced.

The body below is ``WaveformSet.save`` as it shipped before products
stored each record's trimmed span uncompressed, frozen here so the tests
can hold ``WaveformSet.load`` to reading archives written in that layout
bit for bit, and so the ``phase-c-save`` benchmark can time the encoder
it replaced. Only the configuration source changed: the set is read
from ``ws`` instead of ``self``. Like the original, ``np.savez_compressed``
appends ``.npz`` to a path that lacks it.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.seismo.waveforms import WaveformSet


def deflate_save(ws: WaveformSet, path: str | Path) -> Path:
    """Write ``ws`` as one deflated ``data`` member plus its metadata."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path,
        rupture_id=np.array(ws.rupture_id),
        data=ws.data,
        dt_s=np.array(ws.dt_s),
        station_names=np.array(ws.station_names),
    )
    return path
