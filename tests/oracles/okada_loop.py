"""Oracle: the per-subfault Okada loop and the three-pass ``okada85``.

The bodies below are ``okada85``, its ``_chinnery`` helper and the
per-subfault bank loop as they shipped before ``okada85`` and the bank
builder shared one corner-tensor evaluation, frozen here so the tests can
hold both to them bit for bit. ``okada85`` evaluates each of Chinnery's
four corners three times, once per displacement component, and the loop
calls it once per subfault. The corner functions themselves are imported
from the product: they are the shared kernel, not what changed.

:func:`reference_okada_gf_bank` is ``compute_okada_gf_bank`` with the
loop in place of the tensor build.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GreensFunctionError
from repro.seismo.geometry import FaultGeometry
from repro.seismo.greens import GreensFunctionBank
from repro.seismo.kinematics import DEFAULT_SHEAR_VELOCITY_KMS
from repro.seismo.okada import _dip_slip_corner, _strike_slip_corner
from repro.seismo.stations import StationNetwork

__all__ = ["okada85", "reference_okada_gf_bank"]


def _chinnery(f, x, p, L, W, const):
    """Chinnery's notation: f(xi, eta)|| evaluated at the 4 corners."""
    return (
        f(x, p, const)
        - f(x, p - W, const)
        - f(x - L, p, const)
        + f(x - L, p - W, const)
    )


def okada85(
    x: np.ndarray | float,
    y: np.ndarray | float,
    depth_km: float,
    dip_deg: float,
    length_km: float,
    width_km: float,
    strike_slip_m: float = 0.0,
    dip_slip_m: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Surface displacement (m) of a rectangular dislocation.

    Parameters
    ----------
    x, y:
        Observation coordinates (km) in the fault-local frame: ``x``
        along strike from the bottom-left corner, ``y`` horizontal,
        perpendicular to strike (positive on the up-dip side).
    depth_km:
        Depth of the fault's bottom edge (km, > 0 — the fault must be
        buried).
    dip_deg:
        Dip angle in (0, 90]; the delta=90 degenerate forms of Okada's
        I-terms are avoided by capping at 89.999 deg (indistinguishable
        at double precision for surface points).
    length_km, width_km:
        Fault plane dimensions (along strike / up dip).
    strike_slip_m, dip_slip_m:
        Slip components; displacements superpose linearly.

    Returns
    -------
    (ux, uy, uz):
        Displacement components in km-free metres: ``ux`` along strike,
        ``uy`` horizontal perpendicular (up-dip positive), ``uz`` up.
    """
    if depth_km <= 0:
        raise GreensFunctionError(f"bottom-edge depth must be > 0 km, got {depth_km}")
    if not (0.0 < dip_deg <= 90.0):
        raise GreensFunctionError(f"dip must be in (0, 90], got {dip_deg}")
    if length_km <= 0 or width_km <= 0:
        raise GreensFunctionError("fault dimensions must be positive")
    dip = min(dip_deg, 89.999)
    sd = np.sin(np.radians(dip))
    cd = np.cos(np.radians(dip))
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = depth_km
    p = y * cd + d * sd
    q = y * sd - d * cd
    const = (q, sd, cd)

    ux = np.zeros(np.broadcast(x, y).shape)
    uy = np.zeros_like(ux)
    uz = np.zeros_like(ux)
    if strike_slip_m != 0.0:
        f = lambda xi, eta, c: _strike_slip_corner(xi, eta, c)  # noqa: E731
        sx = _chinnery(lambda a, b, c: f(a, b, c)[0], x, p, length_km, width_km, const)
        sy = _chinnery(lambda a, b, c: f(a, b, c)[1], x, p, length_km, width_km, const)
        sz = _chinnery(lambda a, b, c: f(a, b, c)[2], x, p, length_km, width_km, const)
        factor = -strike_slip_m / (2.0 * np.pi)
        ux += factor * sx
        uy += factor * sy
        uz += factor * sz
    if dip_slip_m != 0.0:
        g = lambda xi, eta, c: _dip_slip_corner(xi, eta, c)  # noqa: E731
        dx = _chinnery(lambda a, b, c: g(a, b, c)[0], x, p, length_km, width_km, const)
        dy = _chinnery(lambda a, b, c: g(a, b, c)[1], x, p, length_km, width_km, const)
        dz = _chinnery(lambda a, b, c: g(a, b, c)[2], x, p, length_km, width_km, const)
        factor = -dip_slip_m / (2.0 * np.pi)
        ux += factor * dx
        uy += factor * dy
        uz += factor * dz
    return ux, uy, uz


def _reference_bank_arrays(
    geometry: FaultGeometry,
    network: StationNetwork,
    ss: float,
    ds: float,
    shear_velocity_kms: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-subfault Python loop — the bit-identity oracle.

    Kept verbatim from the original implementation so the vectorized
    engine can be pinned against it (same pattern as the DES pool's
    reference engine).
    """
    east_f, north_f, depth_f = geometry.enu()
    east_s, north_s = geometry.projection.to_enu(network.lons, network.lats)
    n_sta = len(network)
    n_sub = geometry.n_subfaults
    statics = np.zeros((n_sta, n_sub, 3))
    travel = np.zeros((n_sta, n_sub))

    for j in range(n_sub):
        strike = np.radians(geometry.strike_deg[j])
        dip = float(geometry.dip_deg[j])
        length = float(geometry.length_km[j])
        width = float(geometry.width_km[j])
        # Bottom-edge depth of the subfault plane (center + half the
        # vertical extent of the dipping rectangle).
        half_dz = 0.5 * width * np.sin(np.radians(dip))
        bottom_depth = float(depth_f[j]) + half_dz

        # Station offsets from the subfault center, rotated into the
        # fault frame (x along strike, y up-dip horizontal). Strike phi
        # measured clockwise from north; along-strike unit vector is
        # (sin phi, cos phi) in (east, north).
        de = east_s - east_f[j]
        dn = north_s - north_f[j]
        sx = de * np.sin(strike) + dn * np.cos(strike)
        sy_updip = -(de * np.cos(strike) - dn * np.sin(strike))
        # Okada origin: bottom-left corner -> shift by half length along
        # strike and by the horizontal reach of the lower half width.
        x_loc = sx + 0.5 * length
        y_loc = sy_updip + 0.5 * width * np.cos(np.radians(dip))

        ux, uy, uz = okada85(
            x_loc,
            y_loc,
            depth_km=bottom_depth,
            dip_deg=dip,
            length_km=length,
            width_km=width,
            strike_slip_m=ss,
            dip_slip_m=ds,
        )
        # Rotate fault-local (x: along strike, y: horizontal up-dip
        # normal) back to east/north. The up-dip horizontal direction
        # is 90 deg counterclockwise... defined consistently with the
        # sy_updip projection above.
        ue = ux * np.sin(strike) - uy * np.cos(strike)
        un = ux * np.cos(strike) + uy * np.sin(strike)
        statics[:, j, 0] = ue
        statics[:, j, 1] = un
        statics[:, j, 2] = uz
        slant = np.sqrt(de**2 + dn**2 + depth_f[j] ** 2)
        travel[:, j] = slant / shear_velocity_kms

    return statics, travel


def reference_okada_gf_bank(
    geometry: FaultGeometry,
    network: StationNetwork,
    rake_deg: float = 90.0,
    shear_velocity_kms: float = DEFAULT_SHEAR_VELOCITY_KMS,
) -> GreensFunctionBank:
    """Float64 finite-fault static GF bank, one ``okada85`` call per subfault."""
    rake = np.radians(rake_deg)
    ss = float(np.cos(rake))  # strike-slip component of unit slip
    ds = float(np.sin(rake))  # dip-slip component
    statics, travel = _reference_bank_arrays(
        geometry, network, ss, ds, shear_velocity_kms
    )
    return GreensFunctionBank(
        statics=statics,
        travel_time_s=travel,
        station_names=tuple(network.names),
        fault_name=geometry.name,
    )
