"""Green's-function bank cache: the in-process analog of Stash/OSDF.

The paper's single biggest engineering lever is computing the expensive
Phase-B Green's-function archive *once* and amortizing it across
thousands of Phase-C waveform jobs via the OSG's Stash/OSDF cache
("recycling them is crucial"; the >1 GB ``.mseed`` archive is staged to
every C job from cache, not recomputed). This module gives the library
the same lever for in-process execution:

* a **content-addressed key** derived from exactly the inputs that
  determine a bank — fault geometry, station network, and the GF model
  parameters — so two configurations that would produce the same bank
  share one cache entry and any change invalidates it;
* :class:`GFCache` — the bank codec over the shared two-level
  :class:`~repro.cache.ArtifactCache`: an in-memory LRU of
  :class:`~repro.seismo.greens.GreensFunctionBank` objects backed by an
  optional on-disk ``.npz`` store (the OSDF-origin analog; point it at a
  shared directory to reuse banks across processes and runs);
* :func:`publish_shared_bank` / :func:`attach_shared_bank` — zero-copy
  sharing of the large bank arrays across worker processes through
  ``multiprocessing.shared_memory``, so a process pool synthesizing
  Phase-C chunks reads one physical copy instead of rebuilding
  O(n_stations x n_subfaults) arrays per worker per chunk. They live in
  :mod:`repro.core.sharedbank`, which does not load the seismic stack,
  and are re-exported here.

:class:`repro.core.local.LocalRunner` and the VDC layer
(:mod:`repro.vdc.storage`, :mod:`repro.vdc.prefetch`) both route through
this one implementation.
"""

from __future__ import annotations

import hashlib
import io
from pathlib import Path

import numpy as np

from repro.cache import ArtifactCache
from repro.integrity import read_verified
from repro.seismo.geometry import FaultGeometry
from repro.seismo.greens import (
    DEFAULT_RAKE_DEG,
    GreensFunctionBank,
    compute_gf_bank,
)
from repro.seismo.kinematics import DEFAULT_SHEAR_VELOCITY_KMS
from repro.seismo.stations import StationNetwork
from repro.core.sharedbank import (
    SharedBankHandle,
    attach_shared_bank,
    publish_shared_bank,
)

__all__ = [
    "gf_bank_key",
    "GFCache",
    "SharedBankHandle",
    "publish_shared_bank",
    "attach_shared_bank",
]

#: Environment variable naming a default on-disk store directory.
CACHE_DIR_ENV = "REPRO_GF_CACHE_DIR"


def gf_bank_key(
    geometry: FaultGeometry,
    network: StationNetwork,
    gf_method: str = "point",
    rake_deg: float = DEFAULT_RAKE_DEG,
    shear_velocity_kms: float = DEFAULT_SHEAR_VELOCITY_KMS,
    min_distance_km: float = 1.0,
    dtype: str = "float64",
) -> str:
    """Content-addressed cache key of a GF bank.

    The key hashes every input that flows into
    :func:`~repro.seismo.greens.compute_gf_bank` (or the Okada variant):
    the full subfault table, the ordered station list, the scalar model
    parameters, and the bank dtype. Any change to any of them — a
    different mesh, one moved station, another rake, a float32 bank —
    yields a different key, which is the cache-invalidation rule (and
    what makes a float32 run unable to silently hit a float64 entry).
    """
    h = hashlib.sha256()
    h.update(b"gfbank-v1\x1f")
    h.update(geometry.name.encode("utf-8") + b"\x1f")
    h.update(np.int64([geometry.n_strike, geometry.n_dip]).tobytes())
    for arr in (
        geometry.lon,
        geometry.lat,
        geometry.depth_km,
        geometry.strike_deg,
        geometry.dip_deg,
        geometry.length_km,
        geometry.width_km,
    ):
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    h.update(("\x1f".join(network.names)).encode("utf-8") + b"\x1f")
    h.update(np.ascontiguousarray(network.lons, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(network.lats, dtype=np.float64).tobytes())
    h.update(
        np.float64(
            [rake_deg, shear_velocity_kms, min_distance_km]
        ).tobytes()
    )
    h.update(str(gf_method).encode("utf-8") + b"\x1f")
    h.update(str(np.dtype(dtype)).encode("utf-8"))
    return h.hexdigest()


class GFCache(ArtifactCache[GreensFunctionBank]):
    """Green's-function bank cache: :class:`~repro.cache.ArtifactCache`
    with the bank codec (disk entries ``gf_<key>.npz``).

    Parameters
    ----------
    cache_dir:
        Directory of the on-disk store. ``None`` reads the
        ``REPRO_GF_CACHE_DIR`` environment variable; when that is unset
        too, the cache is memory-only.
    max_memory_entries:
        LRU capacity. Banks evicted from memory survive on disk when a
        ``cache_dir`` is configured.
    """

    prefix = "gf"
    noun = "GF bank"
    env_var = CACHE_DIR_ENV

    def __init__(
        self,
        cache_dir: str | Path | None = None,
        max_memory_entries: int = 8,
    ) -> None:
        super().__init__(cache_dir, max_memory_entries)

    def _save(self, bank: GreensFunctionBank, path: Path) -> None:
        bank.save(path)

    def _load(self, path: Path) -> GreensFunctionBank:
        data = read_verified(path)
        with np.load(io.BytesIO(data), allow_pickle=False) as npz:
            return GreensFunctionBank(
                statics=npz["statics"],
                travel_time_s=npz["travel_time_s"],
                station_names=tuple(str(n) for n in npz["station_names"]),
                fault_name=str(npz["fault_name"]),
            )

    def get_or_compute(
        self,
        geometry: FaultGeometry,
        network: StationNetwork,
        gf_method: str = "point",
        rake_deg: float = DEFAULT_RAKE_DEG,
        shear_velocity_kms: float = DEFAULT_SHEAR_VELOCITY_KMS,
        min_distance_km: float = 1.0,
        dtype: str = "float64",
    ) -> GreensFunctionBank:
        """Return the bank for these inputs, computing it at most once.

        The bank is stored under the content-addressed key of the
        inputs. ``dtype`` is part of that key, so float32 and float64
        banks of the same physics occupy distinct entries.
        """
        key = gf_bank_key(
            geometry,
            network,
            gf_method=gf_method,
            rake_deg=rake_deg,
            shear_velocity_kms=shear_velocity_kms,
            min_distance_km=min_distance_km,
            dtype=dtype,
        )
        bank = self.get(key)
        if bank is not None:
            return bank
        if gf_method == "okada":
            from repro.seismo.okada import compute_okada_gf_bank

            bank = compute_okada_gf_bank(geometry, network, dtype=dtype)
        else:
            bank = compute_gf_bank(
                geometry,
                network,
                rake_deg=rake_deg,
                shear_velocity_kms=shear_velocity_kms,
                min_distance_km=min_distance_km,
                dtype=dtype,
            )
        self.put(key, bank)
        return bank
