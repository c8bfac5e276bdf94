#!/usr/bin/env python
"""Generate and validate a Chilean rupture + GNSS waveform catalog.

This is the workload the paper's introduction motivates: synthetic
large-earthquake (Mw 7.5+) data for training earthquake-early-warning
models. It exercises the real seismic kernels end to end:

* build the synthetic Chilean megathrust and GNSS network,
* compute the recyclable distance matrices and save the ``.npy`` pair,
* generate a stochastic rupture catalog with moment-closed slip,
* compute the Green's function bank and synthesize 3-component
  displacement waveforms,
* validate the products against physics invariants and fit the
  PGD magnitude/distance scaling law (Melgar et al. style),
* archive everything with labels, MudPy-style.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.seismo import (
    DistanceMatrices,
    FakeQuakes,
    FakeQuakesParameters,
)
from repro.seismo.mudpy_io import ProductArchive, write_rupt
from repro.seismo.validation import pgd_regression, validate_waveform_set

workdir = Path(tempfile.mkdtemp(prefix="fdw_chile_"))
N_EVENTS = 12

params = FakeQuakesParameters(
    n_ruptures=N_EVENTS,
    n_stations=16,
    mw_range=(7.6, 9.1),
    mesh=(16, 8),
    seed=2014,  # the Iquique year
)
fq = FakeQuakes.from_parameters(params)
print(f"fault: {fq.geometry.name}, {fq.geometry.n_subfaults} subfaults, "
      f"{fq.geometry.total_area_km2:,.0f} km^2")
print(f"network: {fq.network.name}, {len(fq.network)} stations")

# Phase A bootstrap: build and persist the recyclable matrices, then
# prove recycling works by reloading them.
distances = fq.phase_a_distances()
strike_npy, dip_npy = distances.save(workdir, prefix="chile")
recycled = DistanceMatrices.load(workdir, prefix="chile")
fq.phase_a_distances(recycled=recycled)
print(f"distance matrices: {strike_npy.name}, {dip_npy.name} "
      f"({distances.n_subfaults}x{distances.n_subfaults})")

# Phase A: the rupture catalog.
ruptures = fq.phase_a_ruptures()
mags = np.array([r.actual_mw for r in ruptures])
print(f"catalog: {len(ruptures)} ruptures, Mw {mags.min():.2f}-{mags.max():.2f}, "
      f"peak slip up to {max(r.peak_slip_m for r in ruptures):.1f} m")

# Phase B and C.
bank = fq.phase_b_greens_functions()
print(f"GF bank: {bank.n_stations} stations x {bank.n_subfaults} subfaults")
waveform_sets = list(fq.phase_c_waveforms(ruptures))

# Validation battery per product.
failures = 0
for ws, rupture in zip(waveform_sets, ruptures):
    report = validate_waveform_set(ws, rupture, fq.geometry)
    if not report["passed"]:
        failures += 1
print(f"validation: {len(waveform_sets) - failures}/{len(waveform_sets)} products pass "
      f"(moment closure + static-tail checks)")

# PGD scaling regression: log10 PGD = a + b*Mw + c*Mw*log10 R.
fit = pgd_regression(waveform_sets, ruptures, fq.geometry, fq.network)
print(
    f"PGD scaling fit over {fit.n_points} observations: "
    f"a={fit.a:.2f}, b={fit.b:.2f} (>0: grows with Mw), "
    f"c={fit.c:.2f} (<0: decays with distance), sd={fit.residual_std:.2f}"
)

# Archive products with labels (what FDW does on OSG storage); the
# batch writes the manifest once, not once per product.
archive = ProductArchive(workdir / "archive", name="chile_catalog")
with archive.batch():
    for rupture, ws in zip(ruptures, waveform_sets):
        rupt_tmp = workdir / f"{rupture.rupture_id}.rupt"
        write_rupt(rupture, fq.geometry, rupt_tmp)
        archive.add_file(rupt_tmp, "ruptures", rupture.rupture_id,
                         metadata={"mw": round(rupture.actual_mw, 3)}, move=True)
        ws_tmp = workdir / f"{ws.rupture_id}.npz"
        ws.save(ws_tmp)
        archive.add_file(ws_tmp, "waveforms", ws.rupture_id,
                         metadata={"mw": round(rupture.actual_mw, 3)}, move=True)

big_events = archive.find(kind="waveforms")
big_events = [e for e in big_events if e["metadata"]["mw"] >= 8.5]
print(f"archive: {archive.total_bytes() / 1e6:.1f} MB across "
      f"{len(archive.entries)} labeled files; "
      f"{len(big_events)} waveform sets from Mw>=8.5 events")
print(f"products under {archive.root}")
