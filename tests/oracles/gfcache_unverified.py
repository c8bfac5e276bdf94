"""Oracle: the GF cache load that skipped the digest comparison.

Before every disk load was verified, ``GFCache(verify_digests=False)``
read an entry through ``read_verified(path, verify=False)``, which
returned the file's bytes without reading the sidecar or hashing them.
The ``bench-resilience`` group times that load as the baseline of its
< 5 % digest-overhead budget, so it is frozen here and the product
cache keeps one load path. Only the read changed: the bytes come from
the file directly, as the unverified arm of ``read_verified`` read them.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from repro.core.gfcache import GFCache
from repro.seismo.greens import GreensFunctionBank


class UnverifiedGFCache(GFCache):
    """A :class:`GFCache` whose disk loads never check a sidecar."""

    def _load(self, path: Path) -> GreensFunctionBank:
        data = path.read_bytes()
        with np.load(io.BytesIO(data), allow_pickle=False) as npz:
            return GreensFunctionBank(
                statics=npz["statics"],
                travel_time_s=npz["travel_time_s"],
                station_names=tuple(str(n) for n in npz["station_names"]),
                fault_name=str(npz["fault_name"]),
            )
