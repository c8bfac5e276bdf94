"""The two recyclable inter-subfault distance matrices.

FakeQuakes decomposes the distance between every pair of subfaults into
an **along-strike** component and a **down-dip** component, stored as two
``.npy`` files. Building them is O(n_subfaults^2) and they depend only on
the fault geometry, so they are computed once and *recycled* across every
rupture realization — in the FDW this is exactly the bootstrap job at the
head of Phase A ("if no .npy files are provided, a single job will create
the matrices, which parallel jobs will then use").

The anisotropic pair (Dstrike, Ddip) is what the von Kármán slip
correlation consumes, because correlation lengths differ along strike
and down dip. That correlation is a function of the separation pair
only, and a mesh has far fewer distinct pairs than subfault pairs (the
regular 30x15 mesh has 118 x 15 = 1,770 of 202,500), so each
:class:`DistanceMatrices` also carries a :class:`LagTable`: the distinct
pairs and the pair id of every matrix element, computed once per mesh.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from repro.errors import GeometryError
from repro.seismo.geometry import FaultGeometry

__all__ = ["DistanceMatrices", "LagTable"]

#: Matrix elements :meth:`LagTable.from_matrices` encodes at a time, so
#: its temporaries stay near 1 MB whatever the mesh size.
_ENCODE_BLOCK = 1 << 16


@dataclass(frozen=True)
class LagTable:
    """The distinct (along-strike, down-dip) separation pairs of a matrix pair.

    Attributes
    ----------
    strike, dip:
        (n_pairs,) separations of each distinct pair, in km, in
        ascending (strike, dip) order.
    ids:
        int32 array of the matrices' shape: the pair id of each element,
        so ``strike[ids]`` and ``dip[ids]`` equal the two matrices. Ids
        are compacted to the pairs that occur, so there are at most as
        many as elements.
    """

    strike: np.ndarray
    dip: np.ndarray
    ids: np.ndarray

    @property
    def n_pairs(self) -> int:
        """Number of distinct separation pairs."""
        return self.strike.shape[0]

    @classmethod
    def from_matrices(cls, d_strike: np.ndarray, d_dip: np.ndarray) -> "LagTable":
        """The lag table of two separation arrays (broadcast together).

        Each element is encoded as one integer from the ranks of its two
        separations among their distinct values; the distinct codes are
        the pairs. Elements are encoded :data:`_ENCODE_BLOCK` at a time,
        so besides the result this holds one int64 code per element and
        a sorted copy of the codes.
        """
        d_strike, d_dip = np.broadcast_arrays(
            np.asarray(d_strike, dtype=float), np.asarray(d_dip, dtype=float)
        )
        flat_strike, flat_dip = d_strike.ravel(), d_dip.ravel()
        strike, dip = np.unique(flat_strike), np.unique(flat_dip)
        blocks = [
            slice(start, start + _ENCODE_BLOCK)
            for start in range(0, flat_strike.size, _ENCODE_BLOCK)
        ]
        codes = np.empty(flat_strike.size, dtype=np.int64)
        for block in blocks:
            codes[block] = np.searchsorted(strike, flat_strike[block]) * dip.size
            codes[block] += np.searchsorted(dip, flat_dip[block])
        pairs = np.unique(codes)
        ids = np.empty(codes.size, dtype=np.int32)
        for block in blocks:
            ids[block] = np.searchsorted(pairs, codes[block])
        return cls(
            strike=strike[pairs // dip.size],
            dip=dip[pairs % dip.size],
            ids=ids.reshape(d_strike.shape),
        )


@dataclass(frozen=True)
class DistanceMatrices:
    """Pair of (n, n) inter-subfault distance matrices in km.

    Attributes
    ----------
    along_strike:
        ``D_strike[i, j]``: separation of subfaults i and j measured
        along the strike direction.
    down_dip:
        ``D_dip[i, j]``: separation measured along the down-dip
        direction (distance *on* the curved interface, i.e. accumulated
        mesh spacing, not the chord).
    """

    along_strike: np.ndarray
    down_dip: np.ndarray

    def __post_init__(self) -> None:
        a, d = self.along_strike, self.down_dip
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise GeometryError(f"along_strike must be square, got {a.shape}")
        if d.shape != a.shape:
            raise GeometryError(f"matrix shapes differ: {a.shape} vs {d.shape}")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(d))):
            raise GeometryError("distance matrices contain non-finite values")
        if np.any(a < 0) or np.any(d < 0):
            raise GeometryError("distances must be non-negative")

    @property
    def n_subfaults(self) -> int:
        """Number of subfaults the matrices were built for."""
        return self.along_strike.shape[0]

    def total(self) -> np.ndarray:
        """Euclidean combination sqrt(Dstrike^2 + Ddip^2)."""
        return np.hypot(self.along_strike, self.down_dip)

    @cached_property
    def content_digest(self) -> str:
        """sha256 over both matrices' bytes (computed once per instance).

        This is the geometry component of the K-L basis cache key
        (:func:`repro.seismo.klcache.kl_basis_key`): two meshes whose
        recycled ``.npy`` pairs are byte-equal share K-L cache entries,
        any geometry change invalidates them.
        """
        h = hashlib.sha256()
        h.update(b"distances-v1\x1f")
        h.update(np.int64([self.n_subfaults]).tobytes())
        h.update(np.ascontiguousarray(self.along_strike, dtype=np.float64).tobytes())
        h.update(np.ascontiguousarray(self.down_dip, dtype=np.float64).tobytes())
        return h.hexdigest()

    @cached_property
    def lag_table(self) -> LagTable:
        """The :class:`LagTable` of the two matrices (computed once per
        instance): what every patch correlation on this mesh gathers."""
        return LagTable.from_matrices(self.along_strike, self.down_dip)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_geometry(cls, geometry: FaultGeometry) -> "DistanceMatrices":
        """Compute both matrices from a fault mesh.

        Along-strike separation uses the north coordinate difference of
        the local frame (the synthetic slab strikes north); down-dip
        separation accumulates the on-interface mesh spacing between
        down-dip rows, which handles the dip steepening correctly.
        """
        _, north, _ = geometry.enu()  # strike separation is along-strike only
        n = geometry.n_subfaults

        # Along-strike: |north_i - north_j| (vectorized outer difference).
        d_strike = np.abs(north[:, None] - north[None, :])

        # Down-dip: on-interface arc length between dip rows. For each
        # subfault its dip-row index determines cumulative on-fault
        # distance from the trench; width_km is the per-row arc step.
        dip_idx = np.asarray(geometry.dip_index(np.arange(n)))
        width_by_row = geometry.width_km[: geometry.n_dip]
        arc_edges = np.concatenate([[0.0], np.cumsum(width_by_row)])
        arc_mid = 0.5 * (arc_edges[:-1] + arc_edges[1:])
        arc = arc_mid[dip_idx]
        d_dip = np.abs(arc[:, None] - arc[None, :])

        # __post_init__ validates shapes, symmetry and non-negativity.
        return cls(along_strike=d_strike, down_dip=d_dip)

    # -- the recyclable .npy pair --------------------------------------------

    def save(self, directory: str | Path, prefix: str = "distances") -> tuple[Path, Path]:
        """Write ``<prefix>_strike.npy`` and ``<prefix>_dip.npy``.

        These are the artifacts the FDW Phase-A bootstrap job produces
        and Stash Cache distributes.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        p_strike = directory / f"{prefix}_strike.npy"
        p_dip = directory / f"{prefix}_dip.npy"
        np.save(p_strike, self.along_strike)
        np.save(p_dip, self.down_dip)
        return p_strike, p_dip

    @classmethod
    def load(cls, directory: str | Path, prefix: str = "distances") -> "DistanceMatrices":
        """Read the ``.npy`` pair written by :meth:`save`."""
        directory = Path(directory)
        p_strike = directory / f"{prefix}_strike.npy"
        p_dip = directory / f"{prefix}_dip.npy"
        if not p_strike.exists() or not p_dip.exists():
            raise GeometryError(
                f"distance matrices not found under {directory} (prefix {prefix!r})"
            )
        return cls(
            along_strike=np.load(p_strike),
            down_dip=np.load(p_dip),
        )

    @staticmethod
    def exists(directory: str | Path, prefix: str = "distances") -> bool:
        """True when both ``.npy`` files are present (recycling check)."""
        directory = Path(directory)
        return (directory / f"{prefix}_strike.npy").exists() and (
            directory / f"{prefix}_dip.npy"
        ).exists()
