"""Oracle: the dense von Kármán evaluation the faster kernels replaced.

The body below is ``von_karman_correlation(..., unique_lags=False)`` as
it shipped before the dense arm left ``src/``, frozen here so the tests
can hold the lag-table kernel (``patch_correlation`` on a mesh's lag
table, ``von_karman_correlation`` on arbitrary matrices) to it bit for
bit, and so the ``phase-a-kernel`` and ``phase-a-pool`` benchmarks can
time the evaluation it replaced. Every matrix element gets its own
``kv`` call. The argument checks and the symmetry cleanup are unchanged.
"""

from __future__ import annotations

import numpy as np
import scipy.special

from repro.errors import RuptureError


def dense_von_karman_correlation(
    d_strike: np.ndarray,
    d_dip: np.ndarray,
    corr_len_strike_km: float,
    corr_len_dip_km: float,
    hurst: float = 0.75,
) -> np.ndarray:
    """Anisotropic von Kármán correlation matrix, one ``kv`` per element."""
    if corr_len_strike_km <= 0 or corr_len_dip_km <= 0:
        raise RuptureError(
            f"correlation lengths must be positive, got "
            f"({corr_len_strike_km}, {corr_len_dip_km})"
        )
    if not (0.0 < hurst < 1.0):
        raise RuptureError(f"Hurst exponent must be in (0, 1), got {hurst}")
    r = np.hypot(
        np.asarray(d_strike, dtype=float) / corr_len_strike_km,
        np.asarray(d_dip, dtype=float) / corr_len_dip_km,
    )
    g0 = 2.0 ** (hurst - 1.0) * scipy.special.gamma(hurst)
    zero = r == 0.0
    rz = np.where(zero, 1.0, r)  # placeholder value, overwritten below
    out = rz**hurst * scipy.special.kv(hurst, rz)
    out[zero] = g0
    corr = out / g0
    corr = 0.5 * (corr + corr.T)
    np.fill_diagonal(corr, 1.0)
    return corr
