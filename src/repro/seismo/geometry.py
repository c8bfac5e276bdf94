"""Subduction-zone fault geometry and subfault meshes.

The real FakeQuakes consumes a triangulated or rectangular subfault model
derived from the USGS *Slab2* geometry (Hayes et al. 2018). Slab2 is a
data product we do not have offline, so :func:`build_chile_slab`
synthesizes a geometrically comparable megathrust: a north-south striking
interface off the Chilean coast whose dip steepens with depth, meshed
into rectangular subfaults. The mesh exposes everything downstream code
needs — per-subfault coordinates, strike/dip, area, and the along-strike
/ down-dip index structure used by the distance matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.errors import GeometryError
from repro.seismo.geo import LocalProjection

__all__ = [
    "FaultGeometry",
    "build_chile_slab",
    "build_cascadia_slab",
    "CHILE_REFERENCE",
]

#: Reference origin of the synthetic Chilean megathrust (lon, lat degrees).
#: Roughly offshore Iquique, the region of the 2014 Mw 8.1 event the
#: paper's FakeQuakes products were validated against.
CHILE_REFERENCE = (-71.5, -30.0)


@dataclass(frozen=True)
class FaultGeometry:
    """A rectangular-subfault fault model.

    Attributes
    ----------
    name:
        Human-readable model name (e.g. ``"chile_slab"``).
    lon, lat, depth_km:
        Subfault *center* coordinates, flattened arrays of length
        ``n_strike * n_dip`` in C order (strike-major: index
        ``i = i_strike * n_dip + i_dip``).
    strike_deg, dip_deg:
        Per-subfault strike and dip in degrees.
    length_km, width_km:
        Per-subfault along-strike length and down-dip width.
    n_strike, n_dip:
        Mesh dimensions.
    rigidity_pa:
        Shear modulus used for moment computations (Pa).
    """

    name: str
    lon: np.ndarray
    lat: np.ndarray
    depth_km: np.ndarray
    strike_deg: np.ndarray
    dip_deg: np.ndarray
    length_km: np.ndarray
    width_km: np.ndarray
    n_strike: int
    n_dip: int
    rigidity_pa: float = 30e9
    projection: LocalProjection = field(repr=False, default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        n = self.n_strike * self.n_dip
        arrays = {
            "lon": self.lon,
            "lat": self.lat,
            "depth_km": self.depth_km,
            "strike_deg": self.strike_deg,
            "dip_deg": self.dip_deg,
            "length_km": self.length_km,
            "width_km": self.width_km,
        }
        for key, arr in arrays.items():
            if arr.shape != (n,):
                raise GeometryError(
                    f"{key} has shape {arr.shape}, expected ({n},) for a "
                    f"{self.n_strike}x{self.n_dip} mesh"
                )
            if not np.all(np.isfinite(arr)):
                raise GeometryError(f"{key} contains non-finite values")
        if np.any(self.depth_km < 0):
            raise GeometryError("subfault depths must be positive-down (km)")
        if self.rigidity_pa <= 0:
            raise GeometryError(f"rigidity must be positive, got {self.rigidity_pa}")
        if self.projection is None:
            proj = LocalProjection(float(np.mean(self.lon)), float(np.mean(self.lat)))
            object.__setattr__(self, "projection", proj)

    # -- derived quantities -------------------------------------------------

    @property
    def n_subfaults(self) -> int:
        """Total number of subfaults in the mesh."""
        return self.n_strike * self.n_dip

    @property
    def area_km2(self) -> np.ndarray:
        """Per-subfault area in km^2."""
        return self.length_km * self.width_km

    @property
    def total_area_km2(self) -> float:
        """Total fault-plane area in km^2."""
        return float(np.sum(self.area_km2))

    def strike_index(self, i: np.ndarray | int) -> np.ndarray | int:
        """Along-strike mesh index of flattened subfault index ``i``."""
        return np.asarray(i) // self.n_dip

    def dip_index(self, i: np.ndarray | int) -> np.ndarray | int:
        """Down-dip mesh index of flattened subfault index ``i``."""
        return np.asarray(i) % self.n_dip

    def enu(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Subfault centers in the local ENU frame: (east, north, down) km."""
        east, north = self.projection.to_enu(self.lon, self.lat)
        return east, north, self.depth_km.copy()

    def _checked(self, indices: np.ndarray) -> np.ndarray:
        idx = np.asarray(indices, dtype=int)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_subfaults):
            raise GeometryError("subfault index out of range")
        return idx

    def subset(self, indices: np.ndarray) -> dict[str, np.ndarray]:
        """Columns for a subset of subfaults."""
        idx = self._checked(indices)
        return {
            "lon": self.lon[idx],
            "lat": self.lat[idx],
            "depth_km": self.depth_km[idx],
            "strike_deg": self.strike_deg[idx],
            "dip_deg": self.dip_deg[idx],
            "length_km": self.length_km[idx],
            "width_km": self.width_km[idx],
        }

    #: printf codes of the geometry columns of a ``.rupt`` row: subfault
    #: index, lon, lat, depth_km, strike_deg, dip_deg, length_km, width_km.
    _RUPT_ROW = "%d %.5f %.5f %.3f %.2f %.2f %.3f %.3f"

    @cached_property
    def _rupt_rows(self) -> tuple[str, ...]:
        columns = (self.lon, self.lat, self.depth_km, self.strike_deg,
                   self.dip_deg, self.length_km, self.width_km)
        return tuple(
            self._RUPT_ROW % row
            for row in zip(range(self.n_subfaults), *(c.tolist() for c in columns))
        )

    def rupt_rows(self, indices: np.ndarray) -> list[str]:
        """The formatted ``.rupt`` geometry columns of a subset of subfaults.

        Every rupture on a mesh shares these strings, so each subfault
        is formatted once per geometry, not once per rupture (the arrays
        of a frozen geometry are never written in place).
        """
        rows = self._rupt_rows
        return [rows[i] for i in self._checked(indices).tolist()]


def build_chile_slab(
    n_strike: int = 30,
    n_dip: int = 15,
    along_strike_km: float = 600.0,
    along_dip_km: float = 180.0,
    trench_lon: float = -72.5,
    reference_lat: float = -30.0,
    shallow_dip_deg: float = 10.0,
    deep_dip_deg: float = 30.0,
    trench_depth_km: float = 5.0,
    rigidity_pa: float = 30e9,
    name: str = "chile_slab",
) -> FaultGeometry:
    """Build the synthetic Chilean megathrust mesh.

    The interface strikes due north (strike 0 deg, dipping east under
    South America). Dip increases linearly from ``shallow_dip_deg`` at
    the trench to ``deep_dip_deg`` at the down-dip edge, so depth grows
    super-linearly down-dip — the qualitative Slab2 shape.

    Parameters mirror the extent of the Chilean experiments in the paper
    (hundreds of km along strike, Mw 8+ capable). Defaults give a
    30 x 15 = 450-subfault mesh with 20 x 12 km subfaults.
    """
    if n_strike < 2 or n_dip < 2:
        raise GeometryError(f"mesh must be at least 2x2, got {n_strike}x{n_dip}")
    if along_strike_km <= 0 or along_dip_km <= 0:
        raise GeometryError("fault extents must be positive")
    if not (0.0 < shallow_dip_deg <= deep_dip_deg < 90.0):
        raise GeometryError(
            f"need 0 < shallow_dip <= deep_dip < 90, got "
            f"{shallow_dip_deg}/{deep_dip_deg}"
        )

    sub_len = along_strike_km / n_strike
    sub_wid = along_dip_km / n_dip
    proj = LocalProjection(trench_lon, reference_lat)

    # Down-dip profile: walk along the interface in `sub_wid` steps,
    # integrating horizontal advance and depth as dip steepens.
    dip_profile = np.linspace(shallow_dip_deg, deep_dip_deg, n_dip)
    dip_rad = np.radians(dip_profile)
    # Midpoint of each down-dip cell.
    horiz_step = sub_wid * np.cos(dip_rad)
    depth_step = sub_wid * np.sin(dip_rad)
    horiz_edge = np.concatenate([[0.0], np.cumsum(horiz_step)])
    depth_edge = np.concatenate([[trench_depth_km], trench_depth_km + np.cumsum(depth_step)])
    horiz_mid = 0.5 * (horiz_edge[:-1] + horiz_edge[1:])
    depth_mid = 0.5 * (depth_edge[:-1] + depth_edge[1:])

    # Along-strike cell centers, symmetric about the reference latitude.
    north_mid = (np.arange(n_strike) + 0.5) * sub_len - along_strike_km / 2.0

    # Build the strike-major flattened mesh.
    north = np.repeat(north_mid, n_dip)
    east = np.tile(horiz_mid, n_strike)
    depth = np.tile(depth_mid, n_strike)
    dip = np.tile(dip_profile, n_strike)

    lon, lat = proj.to_geographic(east, north)
    n = n_strike * n_dip
    return FaultGeometry(
        name=name,
        lon=lon,
        lat=lat,
        depth_km=depth,
        strike_deg=np.zeros(n),
        dip_deg=dip,
        length_km=np.full(n, sub_len),
        width_km=np.full(n, sub_wid),
        n_strike=n_strike,
        n_dip=n_dip,
        rigidity_pa=rigidity_pa,
        projection=proj,
    )


def build_cascadia_slab(
    n_strike: int = 36,
    n_dip: int = 12,
    name: str = "cascadia_slab",
) -> FaultGeometry:
    """Build a synthetic Cascadia megathrust mesh.

    The paper's future work is "experimenting with regions beyond
    Chile"; Cascadia is the canonical second target (Melgar et al. 2016
    built the original FakeQuakes scenarios there). Compared with the
    Chilean model the interface is longer (~1000 km), shallower-dipping,
    and sits off a coast at rather higher latitude; the mesh mechanics
    are identical, so everything downstream (distance matrices, rupture
    generation, GFs) works unchanged.
    """
    return build_chile_slab(
        n_strike=n_strike,
        n_dip=n_dip,
        along_strike_km=1000.0,
        along_dip_km=150.0,
        trench_lon=-125.5,
        reference_lat=45.0,
        shallow_dip_deg=6.0,
        deep_dip_deg=22.0,
        trench_depth_km=4.0,
        name=name,
    )
