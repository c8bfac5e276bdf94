"""MudPy/FakeQuakes-equivalent seismic simulation substrate.

This subpackage is a from-scratch, self-contained reimplementation of the
parts of MudPy's *FakeQuakes* module that the FDW workflow depends on:

* synthetic subduction-zone fault geometries (:mod:`repro.seismo.geometry`),
* GNSS station networks (:mod:`repro.seismo.stations`),
* the two recyclable inter-subfault **distance matrices**
  (:mod:`repro.seismo.distance`) that FakeQuakes stores as ``.npy`` files,
* semistochastic **rupture scenario generation** with von Kármán
  correlated slip (:mod:`repro.seismo.ruptures`),
* elastic half-space **Green's functions** (:mod:`repro.seismo.greens`),
* GNSS displacement **waveform synthesis** (:mod:`repro.seismo.waveforms`),
* MudPy-style file formats (:mod:`repro.seismo.mudpy_io`), and
* an end-to-end facade (:class:`repro.seismo.fakequakes.FakeQuakes`).

The physics is intentionally simplified relative to the real MudPy (see
DESIGN.md §2) but every stage performs real numerical work with the same
data flow and the same cost *shape* (distance matrices are expensive and
recyclable; Green's functions scale with the station count; waveform
synthesis scales with stations × ruptures), which is what the workflow
experiments in the paper exercise.
"""

from repro.seismo.distance import DistanceMatrices
from repro.seismo.fakequakes import FakeQuakes, FakeQuakesParameters
from repro.seismo.geometry import FaultGeometry, build_cascadia_slab, build_chile_slab
from repro.seismo.greens import GreensFunctionBank, compute_gf_bank
from repro.seismo.klcache import KLCache, kl_basis_key
from repro.seismo.mudpy_io import ProductArchive, read_rupt, write_rupt
from repro.seismo.okada import compute_okada_gf_bank, okada85
from repro.seismo.ruptures import Rupture, RuptureGenerator
from repro.seismo.stations import Station, StationNetwork, chilean_network
from repro.seismo.waveforms import WaveformSet, WaveformSynthesizer

__all__ = [
    "DistanceMatrices",
    "FakeQuakes",
    "FakeQuakesParameters",
    "FaultGeometry",
    "build_cascadia_slab",
    "build_chile_slab",
    "GreensFunctionBank",
    "compute_gf_bank",
    "compute_okada_gf_bank",
    "okada85",
    "KLCache",
    "kl_basis_key",
    "ProductArchive",
    "read_rupt",
    "write_rupt",
    "Rupture",
    "RuptureGenerator",
    "Station",
    "StationNetwork",
    "chilean_network",
    "WaveformSet",
    "WaveformSynthesizer",
]
