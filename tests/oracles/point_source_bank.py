"""Oracle: the whole-network point-source bank build.

The body below is ``compute_gf_bank`` as it shipped before the builder
filled the bank a station block at a time, frozen here so the tests can
hold the blocked builder to it bit for bit. Every intermediate is one
``(n_stations, n_subfaults)`` array, and a float32 bank is cast from the
finished float64 one. :func:`~repro.seismo.greens.radiation_patterns` is
imported from the product: it is the shared kernel, not what changed.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GreensFunctionError
from repro.seismo.geometry import FaultGeometry
from repro.seismo.greens import DEFAULT_RAKE_DEG, GreensFunctionBank, radiation_patterns
from repro.seismo.kinematics import DEFAULT_SHEAR_VELOCITY_KMS
from repro.seismo.stations import StationNetwork

__all__ = ["reference_gf_bank"]


def reference_gf_bank(
    geometry: FaultGeometry,
    network: StationNetwork,
    rake_deg: float = DEFAULT_RAKE_DEG,
    shear_velocity_kms: float = DEFAULT_SHEAR_VELOCITY_KMS,
    min_distance_km: float = 1.0,
    dtype: str | np.dtype = "float64",
) -> GreensFunctionBank:
    """Static GF bank for every (station, subfault) pair at once."""
    if min_distance_km <= 0:
        raise GreensFunctionError(f"min_distance_km must be positive, got {min_distance_km}")
    if shear_velocity_kms <= 0:
        raise GreensFunctionError("shear velocity must be positive")

    east_f, north_f, depth_f = geometry.enu()
    east_s, north_s = geometry.projection.to_enu(network.lons, network.lats)

    # Pairwise source->receiver vectors in km; receivers at the surface.
    dx = east_s[:, None] - east_f[None, :]  # east
    dy = north_s[:, None] - north_f[None, :]  # north
    dz = 0.0 - (-depth_f[None, :])  # up (source depth is positive-down)
    dz = np.broadcast_to(dz, dx.shape).copy()

    r = np.sqrt(dx**2 + dy**2 + dz**2)
    r = np.maximum(r, min_distance_km)

    # Unit ray vector components.
    gx, gy, gz = dx / r, dy / r, dz / r

    # Azimuth of the ray (degrees from north, clockwise) and takeoff
    # angle from vertical.
    azimuth = np.degrees(np.arctan2(gx, gy))
    takeoff = np.degrees(np.arccos(np.clip(gz, -1.0, 1.0)))

    f_p, f_sv, f_sh = radiation_patterns(
        geometry.strike_deg[None, :],
        geometry.dip_deg[None, :],
        rake_deg,
        azimuth,
        takeoff,
    )

    # Basis vectors: rhat along the ray; hhat horizontal transverse;
    # vhat completes the right-handed set (SV polarization).
    horiz = np.maximum(np.sqrt(gx**2 + gy**2), 1e-12)
    hx, hy, hz = gy / horiz, -gx / horiz, np.zeros_like(gx)
    # vhat = rhat x hhat
    vx = gy * hz - gz * hy
    vy = gz * hx - gx * hz
    vz = gx * hy - gy * hx

    # Amplitude: potency (A * 1m) / (4 pi R^2), R in metres, A in m^2.
    area_m2 = geometry.area_km2[None, :] * 1e6
    r_m = r * 1e3
    amp = 2.0 * area_m2 / (4.0 * np.pi * r_m**2)

    ue = amp * (f_p * gx + f_sv * vx + f_sh * hx)
    un = amp * (f_p * gy + f_sv * vy + f_sh * hy)
    uz = amp * (f_p * gz + f_sv * vz + f_sh * hz)

    statics = np.stack([ue, un, uz], axis=-1)
    travel = r / shear_velocity_kms

    bank = GreensFunctionBank(
        statics=statics,
        travel_time_s=travel,
        station_names=tuple(network.names),
        fault_name=geometry.name,
    )
    if np.dtype(dtype) != np.dtype(np.float64):
        bank = bank.astype(dtype)
    return bank
