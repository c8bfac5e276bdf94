"""Oracle: the dense per-station Phase-C synthesis the window kernel replaced.

The body below is ``WaveformSynthesizer.synthesize`` (time-domain method)
as it shipped before the kernel evaluated only each ramp row's rise
window, frozen here so the tests can hold ``synthesize_batch`` to it bit
for bit. Every cell of each station's (subfault x sample) ramp plane goes
through subtract, divide, clip and the cosine. Only the configuration
source changed: the bank, sample interval, record length and noise model
are read from ``synth`` instead of ``self``.
"""

from __future__ import annotations

import numpy as np

from repro.seismo.ruptures import Rupture
from repro.seismo.waveforms import WaveformSet, WaveformSynthesizer


def dense_synthesize(
    synth: WaveformSynthesizer,
    rupture: Rupture,
    rng: np.random.Generator | None = None,
) -> WaveformSet:
    """The waveform set of one rupture, by the dense per-station loop."""
    bank = synth.gf_bank
    dt_s = synth.dt_s
    work = bank.statics.dtype
    patch = rupture.subfault_indices

    gf = bank.statics[:, patch, :]  # (nsta, npatch, 3) view
    tt = bank.travel_time_s[:, patch]  # (nsta, npatch)
    if synth.duration_s is not None:
        nt = max(2, int(np.ceil(synth.duration_s / dt_s)))
    else:
        t_end = rupture.duration_s + float(np.max(tt)) + 60.0
        nt = max(2, int(np.ceil(t_end / dt_s)) + 1)

    times = (np.arange(nt) * dt_s).astype(work, copy=False)
    n_sta = bank.n_stations
    out = np.empty((n_sta, 3, nt), dtype=work)
    slip = rupture.slip_m.astype(work, copy=False)
    onset = rupture.onset_time_s.astype(work, copy=False)
    rise = np.maximum(rupture.rise_time_s, dt_s * 0.5).astype(work, copy=False)

    for i in range(n_sta):
        arrival = onset + tt[i]  # (npatch,)
        x = (times[None, :] - arrival[:, None]) / rise[:, None]
        ramp = 0.5 * (1.0 - np.cos(np.pi * np.clip(x, 0.0, 1.0)))
        weighted = gf[i] * slip[:, None]  # (npatch, 3)
        out[i] = weighted.T @ ramp  # (3, nt)

    if synth.noise is not None:
        out += synth.noise.sample(rng, out.shape, dt_s)

    return WaveformSet(
        rupture_id=rupture.rupture_id,
        data=out,
        dt_s=dt_s,
        station_names=bank.station_names,
        metadata={"target_mw": rupture.target_mw},
    )
