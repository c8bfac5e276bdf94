"""Kinematic rupture parameters: rise times and onset times.

Given a slip distribution on a patch of subfaults, FakeQuakes assigns
each subfault a **rise time** (how long it takes the slip to occur,
scaled from local slip amplitude) and an **onset time** (when slip
starts, from a rupture front expanding at a fraction of the shear-wave
speed from the hypocenter). The waveform synthesizer then convolves each
subfault's slip-rate pulse with its Green's function.
"""

from __future__ import annotations

import numpy as np

from repro.errors import RuptureError

__all__ = [
    "DEFAULT_SHEAR_VELOCITY_KMS",
    "DEFAULT_RUPTURE_VELOCITY_FRACTION",
    "rise_times",
    "onset_times",
]

#: Crustal shear-wave speed used for travel/rupture timing (km/s).
DEFAULT_SHEAR_VELOCITY_KMS = 3.5

#: Rupture front speed as a fraction of the shear-wave speed.
DEFAULT_RUPTURE_VELOCITY_FRACTION = 0.8


def rise_times(
    slip_m: np.ndarray,
    mean_rise_s: float = 8.0,
    exponent: float = 0.5,
    minimum_s: float = 1.0,
) -> np.ndarray:
    """Per-subfault rise time scaled from slip amplitude.

    Follows the common kinematic-model practice (e.g. Graves & Pitarka)
    of rise time proportional to ``slip**exponent``, normalized so the
    slip-weighted mean rise time equals ``mean_rise_s``.

    Parameters
    ----------
    slip_m:
        Non-negative slip per subfault (m).
    mean_rise_s:
        Target mean rise time over slipping subfaults (s).
    exponent:
        Slip-to-rise-time exponent, conventionally 0.5.
    minimum_s:
        Floor applied after scaling so no pulse is pathologically short.
    """
    slip = np.asarray(slip_m, dtype=float)
    if np.any(slip < 0):
        raise RuptureError("slip must be non-negative")
    if mean_rise_s <= 0 or minimum_s <= 0:
        raise RuptureError("rise-time scales must be positive")
    shaped = slip**exponent
    active = shaped > 0
    if not np.any(active):
        # Zero-slip patch: all rise times at the floor.
        return np.full_like(slip, minimum_s)
    shaped_mean = float(np.mean(shaped[active]))
    rise = np.where(active, shaped * (mean_rise_s / shaped_mean), minimum_s)
    return np.maximum(rise, minimum_s)


def onset_times(
    east_km: np.ndarray,
    north_km: np.ndarray,
    depth_km: np.ndarray,
    hypocenter_index: int,
    rupture_velocity_kms: float | None = None,
    shear_velocity_kms: float = DEFAULT_SHEAR_VELOCITY_KMS,
    rupture_velocity_fraction: float = DEFAULT_RUPTURE_VELOCITY_FRACTION,
) -> np.ndarray:
    """Rupture onset time of each subfault from an expanding front.

    The front travels at ``rupture_velocity_kms`` (or
    ``fraction * shear_velocity``) along straight rays from the
    hypocenter subfault — the standard constant-velocity approximation.

    Returns onset times in seconds, zero at the hypocenter.
    """
    east = np.asarray(east_km, dtype=float)
    north = np.asarray(north_km, dtype=float)
    depth = np.asarray(depth_km, dtype=float)
    if not (east.shape == north.shape == depth.shape):
        raise RuptureError("coordinate arrays must share a shape")
    n = east.shape[0]
    if not (0 <= hypocenter_index < n):
        raise RuptureError(f"hypocenter index {hypocenter_index} outside 0..{n - 1}")
    vr = (
        rupture_velocity_kms
        if rupture_velocity_kms is not None
        else rupture_velocity_fraction * shear_velocity_kms
    )
    if vr <= 0:
        raise RuptureError(f"rupture velocity must be positive, got {vr}")
    dist = np.sqrt(
        (east - east[hypocenter_index]) ** 2
        + (north - north[hypocenter_index]) ** 2
        + (depth - depth[hypocenter_index]) ** 2
    )
    return dist / vr
