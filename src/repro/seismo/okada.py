"""Okada (1985) surface displacement of a finite rectangular dislocation.

MudPy computes static displacement with finite-fault elastic solutions;
the canonical one is Okada's closed-form expressions for a rectangular
dislocation in an elastic half-space (Okada, BSSA 75(4), 1985,
"Surface deformation due to shear and tensile faults in a half-space").
This module implements the surface-displacement case for strike-slip
and dip-slip components, vectorized over observation points, and a
finite-fault Green's-function bank builder that can replace the
point-source approximation of :mod:`repro.seismo.greens`.

Conventions (Okada's):

* fault-local coordinates: x along strike, y up-dip-horizontal, origin
  at the *bottom-left corner* of the fault when looking along strike;
* the fault plane has length ``L`` along strike (0 <= x' <= L) and
  width ``W`` up-dip, dipping ``delta`` from horizontal;
* ``depth`` is the depth of the bottom edge (the origin), positive down;
* displacements are returned in fault-local (x, y, z-up) coordinates
  for unit slip; the bank builder rotates them to east/north/up.

The medium is a Poisson solid (lambda = mu), so Okada's
``mu/(lambda+mu)`` factor is 1/2.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GreensFunctionError
from repro.seismo.geometry import FaultGeometry
from repro.seismo.greens import GreensFunctionBank, _bank_arrays, _bank_dtype, station_blocks
from repro.seismo.kinematics import DEFAULT_SHEAR_VELOCITY_KMS
from repro.seismo.stations import StationNetwork

__all__ = ["okada85", "compute_okada_gf_bank"]

#: mu / (lambda + mu) for a Poisson solid.
_ALPHA = 0.5

#: Numerical guard against division by zero in the singular terms.
_EPS = 1e-12


def _build_terms(xi, eta, q, sd, cd):
    """Common geometric quantities for one (xi, eta) corner."""
    r = np.sqrt(xi**2 + eta**2 + q**2)
    ytilde = eta * cd + q * sd
    dtilde = eta * sd - q * cd
    return r, ytilde, dtilde


def _i_terms(xi, eta, q, r, ytilde, dtilde, sd, cd):
    """Okada's I1..I5 for the general (cos(delta) != 0) case."""
    big_x = np.sqrt(xi**2 + q**2)
    rd = r + dtilde
    # Guard the logs/denominators; Okada's expressions are finite for
    # surface observation of buried faults but intermediate terms can
    # graze zero at machine precision.
    rd = np.where(np.abs(rd) < _EPS, _EPS, rd)
    r_eta = r + eta
    r_eta = np.where(np.abs(r_eta) < _EPS, _EPS, r_eta)
    rx = r + big_x
    rx = np.where(np.abs(rx) < _EPS, _EPS, rx)

    ln_r_eta = np.log(r_eta)
    i5 = (
        _ALPHA
        * 2.0
        / cd
        * np.arctan(
            (eta * (big_x + q * cd) + big_x * rx * sd)
            / np.where(np.abs(xi) < _EPS, _EPS, xi * rx * cd)
        )
    )
    i5 = np.where(np.abs(xi) < _EPS, 0.0, i5)
    i4 = _ALPHA / cd * (np.log(rd) - sd * ln_r_eta)
    i3 = _ALPHA * (ytilde / (cd * rd) - ln_r_eta) + sd / cd * i4
    i2 = _ALPHA * (-ln_r_eta) - i3
    i1 = _ALPHA * (-xi / (cd * rd)) - sd / cd * i5
    return i1, i2, i3, i4, i5


def _strike_slip_corner(xi, eta, const):
    """(ux, uy, uz) contribution of one corner for unit strike slip."""
    q, sd, cd = const
    r, ytilde, dtilde = _build_terms(xi, eta, q, sd, cd)
    i1, i2, _, i4, _ = _i_terms(xi, eta, q, r, ytilde, dtilde, sd, cd)
    r_eta = np.where(np.abs(r + eta) < _EPS, _EPS, r + eta)
    qr = np.where(np.abs(q * r) < _EPS, _EPS, q * r)
    theta = np.arctan(xi * eta / qr)
    theta = np.where(np.abs(q) < _EPS, 0.0, theta)
    ux = xi * q / (r * r_eta) + theta + i1 * sd
    uy = ytilde * q / (r * r_eta) + q * cd / r_eta + i2 * sd
    uz = dtilde * q / (r * r_eta) + q * sd / r_eta + i4 * sd
    return ux, uy, uz


def _dip_slip_corner(xi, eta, const):
    """(ux, uy, uz) contribution of one corner for unit dip slip."""
    q, sd, cd = const
    r, ytilde, dtilde = _build_terms(xi, eta, q, sd, cd)
    i1, _, i3, _, i5 = _i_terms(xi, eta, q, r, ytilde, dtilde, sd, cd)
    r_xi = np.where(np.abs(r + xi) < _EPS, _EPS, r + xi)
    qr = np.where(np.abs(q * r) < _EPS, _EPS, q * r)
    theta = np.arctan(xi * eta / qr)
    theta = np.where(np.abs(q) < _EPS, 0.0, theta)
    ux = q / r - i3 * sd * cd
    uy = ytilde * q / (r * r_xi) + cd * theta - i1 * sd * cd
    uz = dtilde * q / (r * r_xi) + sd * theta - i5 * sd * cd
    return ux, uy, uz


def _corner_sum(x, p, q, sd, cd, length, width, ss, ds):
    """Surface displacement for slip ``(ss, ds)`` in fault-local axes.

    Chinnery's corner difference f(x,p) - f(x,p-W) - f(x-L,p) +
    f(x-L,p-W) is evaluated on one tensor whose trailing axis holds the
    four (xi, eta) corner arguments, so each corner function runs once
    per slip component. ``x``, ``p`` and ``q`` broadcast together;
    ``sd``, ``cd``, ``length`` and ``width`` broadcast against them —
    scalars for :func:`okada85`, one value per subfault column for the
    bank. IEEE-754 ufunc loops do not depend on array shape, so the two
    callers agree bit for bit.
    """
    x, p, q = np.broadcast_arrays(x, p, q)
    xi = np.stack([x, x, x - length, x - length], axis=-1)
    eta = np.stack([p, p - width, p, p - width], axis=-1)
    const = (q[..., None], np.asarray(sd)[..., None], np.asarray(cd)[..., None])
    ux = np.zeros(x.shape)
    uy = np.zeros_like(ux)
    uz = np.zeros_like(ux)
    for slip, corner in ((ss, _strike_slip_corner), (ds, _dip_slip_corner)):
        if slip != 0.0:
            cx, cy, cz = corner(xi, eta, const)
            factor = -slip / (2.0 * np.pi)
            ux += factor * (cx[..., 0] - cx[..., 1] - cx[..., 2] + cx[..., 3])
            uy += factor * (cy[..., 0] - cy[..., 1] - cy[..., 2] + cy[..., 3])
            uz += factor * (cz[..., 0] - cz[..., 1] - cz[..., 2] + cz[..., 3])
    return ux, uy, uz


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
    return _corner_sum(
        x, p, q, sd, cd, length_km, width_km, strike_slip_m, dip_slip_m
    )


#: (station, subfault) pairs :func:`compute_okada_gf_bank` evaluates at
#: once (3 stations of the 450-subfault mesh). Each pair spans four
#: Chinnery corners, so a block's temporaries take about 1 MB and a
#: build's peak is its bank plus that.
_BLOCK_PAIRS = 1536


def _fill_bank(
    geometry: FaultGeometry,
    network: StationNetwork,
    ss: float,
    ds: float,
    shear_velocity_kms: float,
    statics: np.ndarray,
    travel: np.ndarray,
) -> None:
    """Okada over all (station, subfault) pairs, a station block at a time.

    Each block's stations are rotated into every subfault's local frame
    as one ``(n_block, n_sub)`` array, and :func:`_corner_sum` evaluates
    the corners on a ``(n_block, n_sub, 4)`` tensor. Every elementwise
    expression is the one :func:`okada85` applies to a single subfault,
    so each column's fault-local displacement equals an ``okada85`` call
    bit for bit, whatever the block. The blocks are written (and cast)
    into the preallocated ``statics`` and ``travel``.
    """
    east_f, north_f, depth_f = geometry.enu()
    east_s, north_s = geometry.projection.to_enu(network.lons, network.lats)

    dip_deg = geometry.dip_deg.astype(float)
    length = geometry.length_km.astype(float)
    width = geometry.width_km.astype(float)
    strike = np.radians(geometry.strike_deg.astype(float))

    half_dz = 0.5 * width * np.sin(np.radians(dip_deg))
    bottom_depth = depth_f + half_dz
    if np.any(bottom_depth <= 0):
        bad = float(bottom_depth.min())
        raise GreensFunctionError(f"bottom-edge depth must be > 0 km, got {bad}")
    if np.any(~((dip_deg > 0.0) & (dip_deg <= 90.0))):
        raise GreensFunctionError(f"dip must be in (0, 90], got {dip_deg}")
    if np.any(length <= 0) or np.any(width <= 0):
        raise GreensFunctionError("fault dimensions must be positive")

    sin_s = np.sin(strike)[None, :]
    cos_s = np.cos(strike)[None, :]
    x_shift = (0.5 * length)[None, :]
    y_shift = (0.5 * width * np.cos(np.radians(dip_deg)))[None, :]
    dip = np.minimum(dip_deg, 89.999)
    sd = np.sin(np.radians(dip))
    cd = np.cos(np.radians(dip))
    # Squared as the per-subfault loop squares a float64 scalar (libm
    # ``pow``): the array square (``x * x``) differs from it in the last
    # bit for about one depth in a thousand.
    depth_sq = np.array([z**2 for z in depth_f])[None, :]

    for block in station_blocks(len(east_s), len(east_f), _BLOCK_PAIRS):
        # Station offsets -> fault-local frames, all subfaults at once.
        de = east_s[block, None] - east_f[None, :]
        dn = north_s[block, None] - north_f[None, :]
        sx = de * sin_s + dn * cos_s
        sy_updip = -(de * cos_s - dn * sin_s)
        x_loc = sx + x_shift
        y_loc = sy_updip + y_shift
        p = y_loc * cd + bottom_depth * sd
        q = y_loc * sd - bottom_depth * cd
        ux, uy, uz = _corner_sum(x_loc, p, q, sd, cd, length, width, ss, ds)

        statics[block, :, 0] = ux * sin_s - uy * cos_s
        statics[block, :, 1] = ux * cos_s + uy * sin_s
        statics[block, :, 2] = uz
        slant = np.sqrt(de**2 + dn**2 + depth_sq)
        travel[block] = slant / shear_velocity_kms


def compute_okada_gf_bank(
    geometry: FaultGeometry,
    network: StationNetwork,
    rake_deg: float = 90.0,
    shear_velocity_kms: float = DEFAULT_SHEAR_VELOCITY_KMS,
    dtype: str | np.dtype = "float64",
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> GreensFunctionBank:
    """Finite-fault static GF bank via Okada's solution.

    For each subfault, stations are rotated into the subfault's local
    frame, the Okada displacement for 1 m of rake-directed slip is
    evaluated, and the result is rotated back to (east, north, up).
    Drop-in compatible with :func:`repro.seismo.greens.compute_gf_bank`
    (same :class:`GreensFunctionBank` product), and more accurate in the
    near field where the point-source approximation breaks down.

    The Chinnery corner evaluations broadcast over a block of stations
    and every subfault at once (see :data:`_BLOCK_PAIRS`), always in
    float64; ``dtype="float32"`` casts each finished block for half-size
    storage/transfer (see DESIGN.md for the measured error budget).
    ``out`` takes preallocated ``(statics, travel_time_s)`` arrays to
    fill, as :func:`~repro.seismo.greens.compute_gf_bank` does.
    """
    out_dtype = _bank_dtype(dtype)

    rake = np.radians(rake_deg)
    ss = float(np.cos(rake))  # strike-slip component of unit slip
    ds = float(np.sin(rake))  # dip-slip component

    statics, travel = _bank_arrays((len(network), geometry.n_subfaults), out_dtype, out)
    _fill_bank(geometry, network, ss, ds, shear_velocity_kms, statics, travel)

    return GreensFunctionBank(
        statics=statics,
        travel_time_s=travel,
        station_names=tuple(network.names),
        fault_name=geometry.name,
    )
