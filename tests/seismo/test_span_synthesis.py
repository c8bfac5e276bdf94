"""The Phase-C kernel builds and multiplies only each station's active span.

Records are held to the dense per-station loop
(``tests/oracles/synthesis_dense.py``) bit pattern for bit pattern, so a
``-0.0`` where the loop stores ``+0.0`` fails too. The patches of 400
and 460 subfaults are wider than one K block of the BLAS in float64
(384 subfaults on OpenBLAS's SkylakeX kernels), and 460 also in
float32 (448), where a product column's rounding depends on how the
BLAS splits its sum. The cases reach every edge of a span: rise
windows of one sample, spans that start at sample 0, records cut short
so that a span reaches the last sample or no arrival lands in the
record, and records long enough that the BLAS sums a full-width product
differently from a narrow one. A traced synthesis of the largest patch
of the seed-0 ``fdw-full-cold`` catalog is held to a memory budget.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.rng import derive_seed
from repro.seismo import waveforms
from repro.seismo.fakequakes import FakeQuakes, FakeQuakesParameters
from repro.seismo.greens import GreensFunctionBank
from repro.seismo.ruptures import Rupture
from repro.seismo.waveforms import WaveformSynthesizer
from tests.oracles.synthesis_dense import dense_synthesize

#: Stations of the synthetic banks: one full station block and a part.
N_STATIONS = 11
#: Subfaults of the synthetic banks.
N_SUBFAULTS = 480
#: What each synthetic case exercises (see :func:`_case`).
CASES = ("one_sample_rise", "starts_at_sample_0", "cut_short", "long_records")


def _bits(data: np.ndarray) -> np.ndarray:
    return data.view(f"u{data.itemsize}")


def _same_bits(got: np.ndarray, expected: np.ndarray) -> bool:
    return (
        got.dtype == expected.dtype
        and got.shape == expected.shape
        and np.array_equal(_bits(got), _bits(expected))
    )


def _case(name: str, n_patch: int, dtype: str):
    """A synthesizer and one rupture of ``n_patch`` subfaults for ``name``.

    Travel times land on sample times half the time; rise times sit at
    and below the ``dt/2`` floor and at one sample.
    """
    rng = np.random.default_rng([n_patch, CASES.index(name)])
    dt = 0.5
    horizon = 120  # latest arrival, in samples
    shape = (N_STATIONS, N_SUBFAULTS)
    travel = np.where(
        rng.random(shape) < 0.5,
        rng.integers(1, horizon + 1, shape) * dt,
        rng.uniform(dt, horizon * dt, shape),
    )
    patch = rng.choice(N_SUBFAULTS, n_patch, replace=False)
    onset = np.where(rng.random(n_patch) < 0.5, 0.0, rng.integers(0, 20, n_patch) * dt)
    rise = rng.choice([0.0, 0.3 * dt, 0.5 * dt, dt, 4 * dt, 9.7 * dt], n_patch)
    duration = None
    if name == "one_sample_rise":
        rise = rng.choice([0.0, 0.5 * dt, dt], n_patch)
    elif name == "starts_at_sample_0":
        # Every station has an arrival at t = 0 or before the first
        # sample step, so its span starts at column 0.
        early = patch[:2]
        onset[:2] = 0.0
        travel[:, early[0]] = 0.0
        travel[:, early[1]] = rng.uniform(0.0, dt, N_STATIONS)
    elif name == "cut_short":
        # Records end mid-ramp at most stations; at the last one no
        # arrival lands in the record, so its span is the last two
        # samples of an all-T(0) record.
        duration = 0.4 * horizon * dt
        travel[-1] += duration + 20 * dt
    elif name == "long_records":
        # 3 * n_patch * nt is over 10**6: OpenBLAS's SkylakeX kernels sum
        # such a full-width product in K blocks and a narrow one in one
        # chain, so the kernel must not narrow these records.
        duration = 1000 * dt
    bank = GreensFunctionBank(
        statics=rng.normal(size=(N_STATIONS, N_SUBFAULTS, 3)),
        travel_time_s=travel,
        station_names=tuple(f"S{i:02d}" for i in range(N_STATIONS)),
        fault_name="span",
    ).astype(dtype)
    rupture = Rupture(
        rupture_id=f"{name}.{n_patch:06d}",
        target_mw=8.0,
        actual_mw=8.0,
        subfault_indices=patch,
        slip_m=rng.uniform(0.5, 5.0, n_patch),
        rise_time_s=rise,
        onset_time_s=onset,
        hypocenter_index=0,
    )
    return WaveformSynthesizer(bank, dt_s=dt, duration_s=duration), rupture


def _windows(synth: WaveformSynthesizer, rupture: Rupture) -> tuple[np.ndarray, np.ndarray, int]:
    """Each row's rise window ``[lo, hi)`` as the kernel locates it, and
    the record length."""
    tt = synth.gf_bank.travel_time_s[:, rupture.subfault_indices]
    nt = synth._record_length(rupture, tt)
    work = synth.gf_bank.statics.dtype
    times = (np.arange(nt) * synth.dt_s).astype(work)
    arrival = rupture.onset_time_s.astype(work) + tt
    rise = np.maximum(rupture.rise_time_s, synth.dt_s * 0.5).astype(work)
    lo = np.searchsorted(times, arrival, side="right")
    hi = np.minimum(np.searchsorted(times, arrival + rise, side="left") + 1, nt)
    return lo, hi, nt


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("n_patch", [400, 460])
@pytest.mark.parametrize("name", CASES)
def test_span_kernel_matches_dense_bits(name, n_patch, dtype):
    synth, rupture = _case(name, n_patch, dtype)
    got = synth.synthesize(rupture)
    expected = dense_synthesize(synth, rupture)
    assert _same_bits(got.data, expected.data)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("n_patch", [400, 460])
def test_cases_reach_the_span_edges(n_patch, dtype):
    """Each case does what its name says: one-sample rises leave a
    prefix and a plateau to fill, spans start at sample 0, cut records
    end inside a window (or, at the last station, before any arrival),
    and long records are past the BLAS's method change."""
    lo, hi, nt = _windows(*_case("one_sample_rise", n_patch, dtype))
    assert np.max(hi - lo) <= 2 and lo.min() > 1 and hi.max() < nt - 1
    lo, _, _ = _windows(*_case("starts_at_sample_0", n_patch, dtype))
    assert np.all(lo.min(axis=1) <= 1)
    lo, hi, nt = _windows(*_case("cut_short", n_patch, dtype))
    assert np.all(hi[:-1].max(axis=1) == nt) and np.all(lo[-1] == nt)
    _, _, nt = _windows(*_case("long_records", n_patch, dtype))
    assert 3 * n_patch * nt > 10**6


def test_whole_record_products_match_dense_bits(monkeypatch):
    """Where narrow products would round differently the kernel
    multiplies whole records, and those match the dense loop too."""
    monkeypatch.setattr(waveforms, "_spans_exact", lambda *_: False)
    for name in CASES:
        synth, rupture = _case(name, 400, "float64")
        assert _same_bits(
            synth.synthesize(rupture).data, dense_synthesize(synth, rupture).data
        ), name


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("n_patch", [56, 384, 385, 420, 448, 449, 520])
@pytest.mark.parametrize("nt", [536, 800, 1500])
def test_probe_matches_products_of_every_span_width(dtype, n_patch, nt):
    """Where ``_spans_exact`` allows narrow products, a product of any
    width from 2 to ``nt`` columns has the full-width bits; where it
    refuses them, two-column products do differ."""
    work = np.dtype(dtype)
    waveforms._SPAN_BOUNDS.pop((work, n_patch), None)
    rng = np.random.default_rng([n_patch, nt])
    weights = rng.random((n_patch, 3)).astype(work)
    plane = rng.random((n_patch, nt)).astype(work)
    wide = weights.T @ plane

    def narrow_matches(start: int, width: int) -> bool:
        narrow = weights.T @ np.ascontiguousarray(plane[:, start : start + width])
        return _same_bits(narrow, np.ascontiguousarray(wide[:, start : start + width]))

    if waveforms._spans_exact(work, n_patch, nt):
        for width in (2, 3, 17, 100, nt // 2, nt - 1):
            assert narrow_matches((nt - width) // 3, width), width
    else:
        assert not all(narrow_matches(start, 2) for start in range(0, 64, 8))


def test_probe_reports_narrow_products_that_round_differently(monkeypatch):
    """A BLAS whose two-column products differ from full-width ones in
    the last bit makes the probe refuse narrow products."""
    matmul = np.matmul

    def rounding(a, b):
        product = matmul(a, b)
        return np.nextafter(product, np.inf) if b.shape[1] == 2 else product

    f64 = np.dtype("float64")
    monkeypatch.setattr(waveforms, "_SPAN_BOUNDS", {})
    monkeypatch.setattr(np, "matmul", rounding)
    assert not waveforms._spans_exact(f64, 8, 40)
    monkeypatch.setattr(np, "matmul", matmul)
    # The refusal is kept for this record length and longer ones, which
    # a new probe would now pass; a shorter record is probed again.
    assert not waveforms._spans_exact(f64, 8, 40)
    assert not waveforms._spans_exact(f64, 8, 50)
    assert waveforms._spans_exact(f64, 8, 30)


def _fdw_full_cold_largest_patch():
    """Rupture 59 of the seed-0 ``fdw-full-cold`` catalog (64 ruptures,
    121 stations, 30x15 mesh, Mw 8.4-8.6) and the session's synthesizer.
    Its 420 subfaults are the catalog's largest patch."""
    params = FakeQuakesParameters(
        n_ruptures=64, n_stations=121, mesh=(30, 15), mw_range=(8.4, 8.6),
        seed=derive_seed(0, "fdw-full-cold") % 2**31,
    )
    fq = FakeQuakes.from_parameters(params)
    (rupture,) = fq.phase_a_ruptures(59, 1)
    return WaveformSynthesizer(fq.phase_b_greens_functions()), rupture


def test_largest_fdw_patch_peaks_within_four_mib_of_its_record():
    """Gathering every station's whole (p, nt) ramp plane, synthesis
    peaked at 4.98 MiB over this record; spans take it to about 2.7."""
    synth, rupture = _fdw_full_cold_largest_patch()
    assert rupture.n_subfaults == 420
    synth.synthesize(rupture)  # first-call allocations out of the way
    waveforms._SPAN_BOUNDS.clear()  # a cold run probes each patch size
    tracemalloc.start()
    try:
        ws = synth.synthesize(rupture)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ws.data.shape == (121, 3, 536)  # a 1.48 MiB record
    assert peak - ws.data.nbytes <= 4 * 2**20, (peak - ws.data.nbytes) / 2**20
