"""Geodesy helpers: great-circle distances and local tangent projections.

The seismic kernels work in a local east-north-up (ENU) Cartesian frame
in kilometres. Fault geometries and station catalogs are defined in
geographic coordinates (longitude, latitude in degrees; depth in km,
positive down), and this module holds the conversions.

All functions are vectorized over NumPy arrays; scalars work too.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "EARTH_RADIUS_KM",
    "haversine_km",
    "LocalProjection",
]

EARTH_RADIUS_KM = 6371.0


def haversine_km(
    lon1: np.ndarray | float,
    lat1: np.ndarray | float,
    lon2: np.ndarray | float,
    lat2: np.ndarray | float,
) -> np.ndarray | float:
    """Great-circle (surface) distance in km between coordinate pairs.

    Inputs are degrees and broadcast against each other, so a full
    station-by-subfault distance matrix is one call with shaped inputs.
    """
    lon1r, lat1r, lon2r, lat2r = (
        np.radians(np.asarray(x, dtype=float)) for x in (lon1, lat1, lon2, lat2)
    )
    dlat = lat2r - lat1r
    dlon = lon2r - lon1r
    a = np.sin(dlat / 2.0) ** 2 + np.cos(lat1r) * np.cos(lat2r) * np.sin(dlon / 2.0) ** 2
    # Clip guards against tiny negative values from rounding.
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


class LocalProjection:
    """Equirectangular projection to a local ENU frame in kilometres.

    Adequate for the few-hundred-km regional extents the simulator uses;
    the along-parallel scale is fixed at the reference latitude, which is
    exactly how MudPy's internal ``llz2utm``-style helpers are used (a
    single projection per fault model).

    Parameters
    ----------
    lon0, lat0:
        Geographic origin in degrees. ``to_enu(lon0, lat0)`` is (0, 0).
    """

    def __init__(self, lon0: float, lat0: float) -> None:
        if not (-180.0 <= lon0 <= 360.0) or not (-90.0 <= lat0 <= 90.0):
            raise ValueError(f"invalid projection origin ({lon0}, {lat0})")
        self.lon0 = float(lon0)
        self.lat0 = float(lat0)
        self._km_per_deg_lat = np.pi * EARTH_RADIUS_KM / 180.0
        self._km_per_deg_lon = self._km_per_deg_lat * np.cos(np.radians(lat0))

    def to_enu(
        self, lon: np.ndarray | float, lat: np.ndarray | float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Geographic degrees -> (east_km, north_km)."""
        east = (np.asarray(lon, dtype=float) - self.lon0) * self._km_per_deg_lon
        north = (np.asarray(lat, dtype=float) - self.lat0) * self._km_per_deg_lat
        return east, north

    def to_geographic(
        self, east_km: np.ndarray | float, north_km: np.ndarray | float
    ) -> tuple[np.ndarray, np.ndarray]:
        """(east_km, north_km) -> geographic degrees (lon, lat)."""
        lon = self.lon0 + np.asarray(east_km, dtype=float) / self._km_per_deg_lon
        lat = self.lat0 + np.asarray(north_km, dtype=float) / self._km_per_deg_lat
        return lon, lat

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"LocalProjection(lon0={self.lon0}, lat0={self.lat0})"
