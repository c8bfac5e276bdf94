"""Tests for repro.seismo.waveforms."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.errors import WaveformError
from repro.faults import StorageFault
from repro.seismo.greens import GreensFunctionBank, compute_gf_bank
from repro.seismo.ruptures import Rupture
from repro.seismo.stations import chilean_network
from repro.seismo.waveforms import GnssNoiseModel, WaveformSet, WaveformSynthesizer
from tests.oracles.synthesis_dense import dense_synthesize
from tests.oracles.waveform_deflate import deflate_save


@pytest.fixture(scope="module")
def clean_set(small_gf_bank, sample_rupture):
    synth = WaveformSynthesizer(small_gf_bank)
    return synth.synthesize(sample_rupture)


def test_shapes(clean_set, small_gf_bank):
    assert clean_set.n_stations == small_gf_bank.n_stations
    assert clean_set.data.shape[1] == 3
    assert clean_set.n_samples >= 2


def test_starts_at_rest(clean_set):
    # No subfault's energy arrives at t=0 (travel times > 0).
    np.testing.assert_allclose(clean_set.data[:, :, 0], 0.0, atol=1e-12)


def test_final_offset_matches_static_sum(clean_set, small_gf_bank, sample_rupture):
    patch = sample_rupture.subfault_indices
    expected = np.einsum(
        "sjc,j->sc", small_gf_bank.statics[:, patch, :], sample_rupture.slip_m
    )
    np.testing.assert_allclose(clean_set.data[:, :, -1], expected, rtol=1e-9)


def test_record_long_enough_for_all_arrivals(clean_set, small_gf_bank, sample_rupture):
    patch = sample_rupture.subfault_indices
    last_arrival = float(
        np.max(small_gf_bank.travel_time_s[:, patch] + sample_rupture.onset_time_s)
    )
    assert clean_set.times_s[-1] > last_arrival + np.max(sample_rupture.rise_time_s)


@given(
    st.integers(1, 9),
    st.integers(1, 40),
    st.sampled_from(["float64", "float32"]),
    st.floats(-30.0, 30.0),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_pgd_adds_squares_as_the_whole_record_sum_does(n_stations, n_samples, dtype, exponent, seed):
    """``pgd_m`` sums the squared components in place, east, north, up:
    bit for bit ``np.sum(data**2, axis=1)``, zeros of both signs included."""
    rng = np.random.default_rng(seed)
    data = (rng.standard_normal((n_stations, 3, n_samples)) * 10.0**exponent).astype(dtype)
    data[rng.random(data.shape) < 0.2] = 0.0
    data[rng.random(data.shape) < 0.1] = -0.0
    with np.errstate(over="ignore"):
        ws = WaveformSet("x", data, 1.0, tuple(f"S{i:03d}" for i in range(n_stations)))
        got = ws.pgd_m()
        expected = np.max(np.sqrt(np.sum(data**2, axis=1)), axis=1)
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


def test_pgd_positive_and_at_least_final_offset(clean_set):
    pgd = clean_set.pgd_m()
    final_norm = np.linalg.norm(clean_set.data[:, :, -1], axis=1)
    assert np.all(pgd > 0)
    assert np.all(pgd >= final_norm - 1e-12)


def test_station_accessor(clean_set):
    name = clean_set.station_names[0]
    series = clean_set.station(name)
    assert series.shape == (3, clean_set.n_samples)
    with pytest.raises(WaveformError):
        clean_set.station("ZZZZ")


def test_explicit_duration(small_gf_bank, sample_rupture):
    synth = WaveformSynthesizer(small_gf_bank, duration_s=100.0)
    ws = synth.synthesize(sample_rupture)
    assert ws.n_samples == 100


def test_noise_changes_data_and_is_reproducible(small_gf_bank, sample_rupture):
    synth = WaveformSynthesizer(small_gf_bank, noise=GnssNoiseModel())
    a = synth.synthesize(sample_rupture, rng=np.random.default_rng(5))
    b = synth.synthesize(sample_rupture, rng=np.random.default_rng(5))
    clean = WaveformSynthesizer(small_gf_bank).synthesize(sample_rupture)
    np.testing.assert_array_equal(a.data, b.data)
    assert not np.allclose(a.data, clean.data)


def test_noise_requires_rng(small_gf_bank, sample_rupture):
    synth = WaveformSynthesizer(small_gf_bank, noise=GnssNoiseModel())
    with pytest.raises(WaveformError):
        synth.synthesize(sample_rupture)


def test_noise_amplitude_reasonable(small_gf_bank, sample_rupture):
    model = GnssNoiseModel(white_sigma_m=0.005, walk_sigma_m=0.0)
    noise = model.sample(np.random.default_rng(0), (4, 3, 2000), dt_s=1.0)
    assert np.std(noise) == pytest.approx(0.005, rel=0.1)


def test_noise_model_validation():
    with pytest.raises(WaveformError):
        GnssNoiseModel(white_sigma_m=-1.0)


def test_synthesize_many(small_gf_bank, rupture_generator):
    rng = np.random.default_rng(1)
    ruptures = [
        rupture_generator.generate(rng, rupture_id=f"rupture.{i:06d}") for i in range(3)
    ]
    synth = WaveformSynthesizer(small_gf_bank)
    sets = synth.synthesize_batch(ruptures)
    assert len(sets) == 3
    assert {ws.rupture_id for ws in sets} == {r.rupture_id for r in ruptures}


def test_rejects_rupture_outside_bank(small_gf_bank, sample_rupture):
    bad = dataclasses.replace(
        sample_rupture,
        subfault_indices=sample_rupture.subfault_indices + 10**6,
    )
    synth = WaveformSynthesizer(small_gf_bank)
    with pytest.raises(WaveformError):
        synth.synthesize(bad)


def test_rejects_negative_subfault_index(small_gf_bank, sample_rupture):
    # Index -1 would otherwise read the last subfault's Green's functions.
    indices = sample_rupture.subfault_indices.copy()
    indices[0] = -1
    bad = dataclasses.replace(sample_rupture, subfault_indices=indices)
    synth = WaveformSynthesizer(small_gf_bank)
    with pytest.raises(WaveformError, match="-1"):
        synth.synthesize(bad)
    with pytest.raises(WaveformError):
        synth.synthesize_batch([sample_rupture, bad])


def test_save_load_roundtrip(tmp_path, clean_set):
    path = clean_set.save(tmp_path / "wf.npz")
    back = WaveformSet.load(path)
    np.testing.assert_array_equal(back.data, clean_set.data)
    assert back.rupture_id == clean_set.rupture_id
    assert back.station_names == clean_set.station_names
    assert back.dt_s == clean_set.dt_s


def test_load_missing_raises(tmp_path):
    with pytest.raises(WaveformError):
        WaveformSet.load(tmp_path / "nope.npz")


def test_save_writes_the_path_it_returns(tmp_path, clean_set):
    path = clean_set.save(tmp_path / "p.wf")  # np.savez would append .npz
    assert path == tmp_path / "p.wf"
    assert [p.name for p in tmp_path.iterdir()] == ["p.wf"]
    assert np.array_equal(WaveformSet.load(path).data, clean_set.data)


def _same_set(a: WaveformSet, b: WaveformSet) -> bool:
    """Equal metadata and the same record bits, dtype and shape."""
    return (
        (a.rupture_id, a.station_names, a.dt_s) == (b.rupture_id, b.station_names, b.dt_s)
        and a.data.dtype == b.data.dtype
        and a.data.shape == b.data.shape
        and a.data.tobytes() == b.data.tobytes()
    )


@st.composite
def waveform_sets(draw):
    """Sets mixing every record shape the trimmed layout tells apart.

    Structure comes from hypothesis, bulk values from a seeded
    generator. ``zero`` records hold only ``+0.0``, ``negzero`` ones a
    mix of ``+0.0`` and ``-0.0``. A ``step`` record is zero, moves, then
    holds a final value; ``-0.0`` lands among its leading zeros and as
    its settled tail. ``last`` records change only at their last
    sample, ``noisy`` ones never settle.
    """
    dtype = draw(st.sampled_from(["float64", "float32"]))
    n_sta = draw(st.integers(0, 4))
    nt = draw(st.integers(1, 64))
    kinds = draw(
        st.lists(
            st.sampled_from(["zero", "negzero", "step", "last", "noisy"]),
            min_size=3 * n_sta, max_size=3 * n_sta,
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    records = np.zeros((3 * n_sta, nt))
    for rec, kind in zip(records, kinds):
        if kind == "negzero":
            rec[rng.random(nt) < 0.5] = -0.0
        elif kind == "step":
            arrival, settle = np.sort(rng.integers(0, nt + 1, 2))
            rec[:arrival][rng.random(arrival) < 0.3] = -0.0
            rec[arrival:settle] = rng.normal(size=settle - arrival)
            rec[settle:] = rng.choice([rng.normal(), 0.0, -0.0])
        elif kind == "last":
            rec[-1] = rng.normal()
        elif kind == "noisy":
            rec[:] = rng.normal(size=nt)
    data = records.reshape(n_sta, 3, nt).astype(dtype)
    if draw(st.booleans()):  # a non-contiguous view of the records
        wide = np.zeros((n_sta, 3, 2 * nt), dtype)
        wide[:, :, ::2] = data
        data = wide[:, :, ::2]
    return WaveformSet(
        rupture_id=draw(st.from_regex(r"[a-z]{1,6}\.[0-9]{6}", fullmatch=True)),
        data=data,
        dt_s=draw(st.floats(1e-3, 100.0)),
        station_names=tuple(f"S{i:02d}" for i in range(n_sta)),
    )


@given(waveform_sets())
@settings(
    max_examples=50, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_products_round_trip_bit_for_bit(tmp_path_factory, ws):
    """Both layouts decode to the original bits: the trimmed one ``save``
    writes, and the deflated one archives written before it hold."""
    tmp = tmp_path_factory.mktemp("wf")
    for path in (ws.save(tmp / "trimmed.npz"), deflate_save(ws, tmp / "deflated.npz")):
        assert _same_set(WaveformSet.load(path), ws), path.name


def test_clean_products_store_trimmed_records(tmp_path, small_geometry, rupture_generator):
    """Real products keep at most 35 % of their samples (7-18 % here),
    so a silent fallback to whole records fails."""
    ruptures = [
        rupture_generator.generate(
            np.random.default_rng(60 + k), rupture_id=f"keep.{k:06d}", target_mw=mw
        )
        for k, mw in enumerate([7.6, 8.5, 9.1])
    ]
    for n_sta in (6, 12, 24, 121):
        synth = WaveformSynthesizer(compute_gf_bank(small_geometry, chilean_network(n_sta)))
        for ws in synth.synthesize_batch(ruptures):
            path = ws.save(tmp_path / f"{n_sta}.{ws.rupture_id}.npz")
            with np.load(path) as members:
                kept = members["samples"].size / ws.data.size
            assert kept <= 0.35, (n_sta, ws.rupture_id, kept)
            assert _same_set(WaveformSet.load(path), ws)


@pytest.fixture(scope="module")
def short_set(clean_set):
    """Two stations of the clean set, decimated: a product of a few KB,
    so seeded faults hit the zip and ``.npy`` headers often."""
    return WaveformSet(
        rupture_id=clean_set.rupture_id,
        data=clean_set.data[:2, :, ::8].copy(),
        dt_s=8 * clean_set.dt_s,
        station_names=clean_set.station_names[:2],
    )


@pytest.mark.parametrize("encode", [WaveformSet.save, deflate_save], ids=["trimmed", "deflated"])
def test_damaged_products_raise_or_load_intact(tmp_path, short_set, encode):
    """Seeded bit flips and truncations: ``load`` raises WaveformError
    or returns the original set, never other bits or another error."""
    pristine = encode(short_set, tmp_path / "pristine.npz").read_bytes()
    damaged = tmp_path / "damaged.npz"
    raised = 0
    for seed in range(200):
        for kind in ("bitflip", "truncate"):
            damaged.write_bytes(pristine)
            StorageFault(kind, seed).apply(damaged)
            try:
                back = WaveformSet.load(damaged)
            except WaveformError:
                raised += 1
                continue
            assert kind == "bitflip" and _same_set(back, short_set), (kind, seed)
    assert raised >= 300  # every truncation, most flips


#: One crafted trimmed product per check ``load`` makes before decoding:
#: case -> (member replacements, None dropping one; expected message).
CRAFTED = {
    "shape has two entries": (
        lambda m: {"shape": m["shape"][:2]}, "shape must be"),
    "shape has 6 components": (
        lambda m: {"shape": m["shape"] * [1, 2, 1]}, "shape must be"),
    "shape has no samples": (
        lambda m: {"shape": m["shape"] * [1, 1, 0]}, "shape must be"),
    "first below zero": (
        lambda m: {"first": np.append(-1, m["first"][1:])}, "0 <= first <= stop"),
    "first after stop": (
        lambda m: {"first": m["stop"] + 1}, "0 <= first <= stop"),
    "stop past the end": (
        lambda m: {"stop": m["stop"] * 0 + m["shape"][2] + 1}, "stop <="),
    "one first short": (
        lambda m: {"first": m["first"][:-1]}, "one integer per record"),
    "float stops": (
        lambda m: {"stop": m["stop"].astype(float)}, "one integer per record"),
    "one final short": (
        lambda m: {"final": m["final"][:-1]}, "one value per record"),
    "samples one short": (
        lambda m: {"samples": m["samples"][:-1]}, "exactly the spans"),
    "samples one long": (
        lambda m: {"samples": np.append(m["samples"], 0.0)}, "exactly the spans"),
    "float32 samples": (
        lambda m: {"samples": m["samples"].astype(np.float32)}, "share a float dtype"),
    "integer records": (
        lambda m: {"samples": m["samples"].astype(int), "final": m["final"].astype(int)},
        "share a float dtype"),
    "no samples member": (lambda m: {"samples": None}, "KeyError"),
}


@pytest.mark.parametrize("case", sorted(CRAFTED))
def test_crafted_products_raise(tmp_path, short_set, case):
    mutate, match = CRAFTED[case]
    path = short_set.save(tmp_path / "crafted.npz")
    with np.load(path) as npz:
        members = {key: npz[key] for key in npz.files}
    members.update(mutate(members))
    np.savez(path, **{key: v for key, v in members.items() if v is not None})
    with pytest.raises(WaveformError, match=match):
        WaveformSet.load(path)


def test_foreign_files_raise(tmp_path, short_set):
    path = tmp_path / "foreign.npz"
    path.write_text("not a zip archive")
    with pytest.raises(WaveformError, match="BadZipFile"):
        WaveformSet.load(path)
    deflate_save(short_set, path)
    with np.load(path) as npz:
        members = {key: npz[key] for key in npz.files}
    np.savez(path, **{**members, "data": members["data"].astype(int)})
    with pytest.raises(WaveformError, match="records must be floats"):
        WaveformSet.load(path)


def test_waveform_set_validation():
    with pytest.raises(WaveformError):
        WaveformSet(
            rupture_id="x",
            data=np.zeros((2, 2, 10)),  # bad component axis
            dt_s=1.0,
            station_names=("A", "B"),
        )
    with pytest.raises(WaveformError):
        WaveformSet(
            rupture_id="x",
            data=np.zeros((2, 3, 10)),
            dt_s=0.0,
            station_names=("A", "B"),
        )
    with pytest.raises(WaveformError, match="at least one sample"):
        WaveformSet(
            rupture_id="x",
            data=np.zeros((2, 3, 0)),  # pgd_m() would reduce an empty axis
            dt_s=1.0,
            station_names=("A", "B"),
        )


def test_synthesizer_validation(small_gf_bank):
    with pytest.raises(WaveformError):
        WaveformSynthesizer(small_gf_bank, dt_s=0.0)
    with pytest.raises(WaveformError):
        WaveformSynthesizer(small_gf_bank, duration_s=-5.0)


# -- batched synthesis --------------------------------------------------------


@pytest.fixture(scope="module")
def rupture_batch(rupture_generator):
    return [
        rupture_generator.generate(
            np.random.default_rng(40 + i), rupture_id=f"batch.{i:06d}", target_mw=mw
        )
        for i, mw in enumerate([7.6, 8.0, 8.4, 8.9, 9.1])
    ]


def test_batch_bit_identical_to_scalar(small_gf_bank, rupture_batch):
    synth = WaveformSynthesizer(small_gf_bank)
    batched = synth.synthesize_batch(rupture_batch)
    for ws, rupture in zip(batched, rupture_batch):
        reference = dense_synthesize(synth, rupture)
        assert ws.rupture_id == reference.rupture_id
        assert ws.data.shape == reference.data.shape
        assert np.array_equal(ws.data, reference.data)


def test_batch_with_shared_rng_matches_sequential_noise(small_gf_bank, rupture_batch):
    synth = WaveformSynthesizer(small_gf_bank, noise=GnssNoiseModel())
    batched = synth.synthesize_batch(rupture_batch, rngs=np.random.default_rng(99))
    rng = np.random.default_rng(99)
    for ws, rupture in zip(batched, rupture_batch):
        reference = dense_synthesize(synth, rupture, rng)
        assert np.array_equal(ws.data, reference.data)


def test_batch_with_per_rupture_rngs(small_gf_bank, rupture_batch):
    synth = WaveformSynthesizer(small_gf_bank, noise=GnssNoiseModel())
    rngs = [np.random.default_rng(1000 + i) for i in range(len(rupture_batch))]
    batched = synth.synthesize_batch(rupture_batch, rngs=rngs)
    for i, (ws, rupture) in enumerate(zip(batched, rupture_batch)):
        reference = dense_synthesize(synth, rupture, np.random.default_rng(1000 + i))
        assert np.array_equal(ws.data, reference.data)


def test_batch_rng_list_length_mismatch(small_gf_bank, rupture_batch):
    synth = WaveformSynthesizer(small_gf_bank, noise=GnssNoiseModel())
    with pytest.raises(WaveformError):
        synth.synthesize_batch(rupture_batch, rngs=[np.random.default_rng(0)])


def test_batch_noise_requires_rng(small_gf_bank, rupture_batch):
    synth = WaveformSynthesizer(small_gf_bank, noise=GnssNoiseModel())
    with pytest.raises(WaveformError):
        synth.synthesize_batch(rupture_batch)


def test_batch_empty_list(small_gf_bank):
    synth = WaveformSynthesizer(small_gf_bank)
    assert synth.synthesize_batch([]) == []


class TestFloat32Synthesis:
    """A float32 bank runs the whole pipeline in float32, within the
    documented error budget against the float64 reference."""

    def test_output_dtype_follows_bank(self, small_gf_bank, sample_rupture):
        half = small_gf_bank.astype("float32")
        ws = WaveformSynthesizer(half).synthesize(sample_rupture)
        assert ws.data.dtype == np.float32

    def test_scalar_equals_batch_in_float32(
        self, small_gf_bank, rupture_generator
    ):
        half = small_gf_bank.astype("float32")
        ruptures = [
            rupture_generator.generate(
                np.random.default_rng(60 + i), rupture_id=f"f32.{i}", target_mw=8.2
            )
            for i in range(3)
        ]
        synth = WaveformSynthesizer(half)
        scalar = [dense_synthesize(synth, r) for r in ruptures]
        batch = synth.synthesize_batch(ruptures)
        for a, b in zip(scalar, batch):
            assert b.data.dtype == np.float32
            assert np.array_equal(a.data, b.data)

    def test_error_budget_vs_float64(self, small_gf_bank, sample_rupture):
        full = WaveformSynthesizer(small_gf_bank).synthesize(sample_rupture)
        half = WaveformSynthesizer(small_gf_bank.astype("float32")).synthesize(
            sample_rupture
        )
        rel_pgd = np.max(
            np.abs(half.pgd_m() - full.pgd_m()) / np.maximum(full.pgd_m(), 1e-12)
        )
        # Measured ~4e-7 max on the paper mesh; assert with margin.
        assert float(rel_pgd) < 1e-5
        final_dev = np.max(np.abs(half.data[:, :, -1] - full.data[:, :, -1]))
        assert float(final_dev) < 1e-4

    def test_noise_keeps_working_dtype(self, small_gf_bank, sample_rupture):
        half = small_gf_bank.astype("float32")
        synth = WaveformSynthesizer(half, noise=GnssNoiseModel())
        a = dense_synthesize(synth, sample_rupture, np.random.default_rng(9))
        b = synth.synthesize_batch(
            [sample_rupture], rngs=[np.random.default_rng(9)]
        )[0]
        assert b.data.dtype == np.float32
        assert np.array_equal(a.data, b.data)


# -- the window kernel against the dense oracle --------------------------------

#: Sample intervals, including ones that are not binary fractions, so
#: sample times carry rounding error.
SAMPLE_INTERVALS = (0.1, 0.2, 0.25, 0.5, 1.0, 2.0)


@st.composite
def synthesis_chunks(draw):
    """A GF bank, a chunk of ruptures over it, and a synthesizer.

    Structure comes from hypothesis, bulk values from a seeded
    generator. Travel times, onsets and rise times land exactly on
    samples half the time. With a zero onset, an arrival then equals
    a sample time, and ``arrival + rise`` often rounds onto one. Rise
    times also sit at and below the ``dt/2`` floor. Late arrivals at
    ``dt = 0.1`` matter for float32 banks: there half an ulp of the
    arrival is a visible share of the rise time.
    """
    dt = draw(st.sampled_from(SAMPLE_INTERVALS))
    dtype = draw(st.sampled_from(["float64", "float32"]))
    n_sta = draw(st.integers(1, 3))
    n_sub = draw(st.integers(1, 6))
    horizon = draw(st.sampled_from([8, 200, 12000]))  # latest arrival, in samples
    sizes = draw(st.lists(st.integers(1, n_sub), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def on_samples(shape, low, high):
        aligned = rng.integers(low, high + 1, shape) * dt  # sample times
        anywhere = rng.uniform(low * dt, high * dt, shape)
        return np.where(rng.random(shape) < 0.5, aligned, anywhere)

    bank = GreensFunctionBank(
        statics=rng.normal(size=(n_sta, n_sub, 3)),
        travel_time_s=on_samples((n_sta, n_sub), 0, horizon),
        station_names=tuple(f"S{i:02d}" for i in range(n_sta)),
        fault_name="prop",
    ).astype(dtype)

    ruptures = []
    for k, size in enumerate(sizes):
        onset = np.where(rng.random(size) < 0.5, 0.0, on_samples(size, 0, 20))
        rise = rng.choice(
            [0.0, 0.3 * dt, 0.5 * dt, *(np.arange(1, 9) * dt), rng.uniform(0, 10)],
            size,
        )
        ruptures.append(
            Rupture(
                rupture_id=f"prop.{k:06d}",
                target_mw=8.0,
                actual_mw=8.0,
                subfault_indices=rng.choice(n_sub, size, replace=False),
                slip_m=rng.uniform(0.5, 5.0, size),
                rise_time_s=rise,
                onset_time_s=onset,
                hypocenter_index=0,
            )
        )
    # None sizes each record to hold every ramp; a short duration
    # truncates records mid-ramp or before any arrival.
    duration = draw(st.sampled_from([None, "short"]))
    if duration == "short":
        duration = float(rng.uniform(dt, (horizon + 30) * dt))
    noise = draw(st.sampled_from([None, "shared", "per_rupture"]))
    synth = WaveformSynthesizer(
        bank,
        dt_s=dt,
        duration_s=duration,
        noise=GnssNoiseModel() if noise else None,
    )
    return synth, ruptures, noise, int(rng.integers(2**31))


def _late_arrival_edge():
    """A float32 case only the window's one-sample margin gets right.

    At dt = 0.1 an arrival at 512 s plus a 0.1 s rise rounds down onto
    the sample at 512.09998 s, where the ramp is still 1 - 1.2e-7.
    """
    bank = GreensFunctionBank(
        statics=np.ones((1, 1, 3)),
        travel_time_s=np.array([[512.0]]),
        station_names=("S00",),
        fault_name="edge",
    ).astype("float32")
    rupture = Rupture(
        rupture_id="edge.000000",
        target_mw=8.0,
        actual_mw=8.0,
        subfault_indices=np.array([0]),
        slip_m=np.array([1.0]),
        rise_time_s=np.array([0.1]),
        onset_time_s=np.array([0.0]),
        hypocenter_index=0,
    )
    return WaveformSynthesizer(bank, dt_s=0.1), [rupture], None, 0


@given(synthesis_chunks())
@example(_late_arrival_edge())
@settings(max_examples=80, deadline=None)
def test_kernel_matches_dense_oracle(case):
    synth, ruptures, noise, seed = case
    if noise == "shared":
        batch = synth.synthesize_batch(ruptures, rngs=np.random.default_rng(seed))
        shared = np.random.default_rng(seed)
        rngs = [shared] * len(ruptures)
    elif noise == "per_rupture":
        batch = synth.synthesize_batch(
            ruptures, rngs=[np.random.default_rng(seed + k) for k in range(len(ruptures))]
        )
        rngs = [np.random.default_rng(seed + k) for k in range(len(ruptures))]
    else:
        batch = synth.synthesize_batch(ruptures)
        rngs = [None] * len(ruptures)
    for ws, rupture, rng in zip(batch, ruptures, rngs):
        reference = dense_synthesize(synth, rupture, rng)
        assert ws.rupture_id == reference.rupture_id
        assert ws.data.dtype == reference.data.dtype
        assert ws.data.shape == reference.data.shape
        assert ws.data.tobytes() == reference.data.tobytes()  # zero signs too
