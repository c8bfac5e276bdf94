"""Tests for repro.seismo.greens."""

import numpy as np
import pytest

from repro.errors import GreensFunctionError
from repro.seismo.greens import (
    GreensFunctionBank,
    compute_gf_bank,
    radiation_patterns,
)
from repro.seismo.stations import chilean_network


def test_bank_shapes(small_gf_bank, small_geometry, small_network):
    assert small_gf_bank.statics.shape == (
        len(small_network),
        small_geometry.n_subfaults,
        3,
    )
    assert small_gf_bank.travel_time_s.shape == small_gf_bank.statics.shape[:2]
    assert small_gf_bank.n_stations == len(small_network)
    assert small_gf_bank.n_subfaults == small_geometry.n_subfaults


def test_travel_times_positive(small_gf_bank):
    assert np.all(small_gf_bank.travel_time_s > 0)


def test_statics_finite(small_gf_bank):
    assert np.all(np.isfinite(small_gf_bank.statics))


def test_amplitude_decays_with_distance(small_geometry):
    # One distant and one near station along the same azimuth.
    from repro.seismo.stations import Station, StationNetwork

    near = Station("NEAR", -71.2, -30.0)
    far = Station("FARX", -68.0, -30.0)
    bank = compute_gf_bank(small_geometry, StationNetwork([near, far]))
    amp_near = np.linalg.norm(bank.statics[0], axis=-1).max()
    amp_far = np.linalg.norm(bank.statics[1], axis=-1).max()
    assert amp_near > amp_far


def test_amplitude_scales_inverse_square(small_geometry):
    from repro.seismo.stations import Station, StationNetwork

    # Two stations at distances r and 2r from the fault region; far-field
    # static amplitude should drop by roughly 4x.
    s1 = Station("AAAA", -66.0, -30.0)
    s2 = Station("BBBB", -60.0, -30.0)
    bank = compute_gf_bank(small_geometry, StationNetwork([s1, s2]))
    sub = 0
    r1 = bank.travel_time_s[0, sub]
    r2 = bank.travel_time_s[1, sub]
    a1 = np.linalg.norm(bank.statics[0, sub])
    a2 = np.linalg.norm(bank.statics[1, sub])
    # Takeoff angles differ slightly between the stations, so the
    # radiation pattern modulates the pure 1/R^2 ratio by a few percent.
    assert a1 / a2 == pytest.approx((r2 / r1) ** 2, rel=0.2)


def test_travel_time_matches_velocity(small_geometry, small_network):
    bank = compute_gf_bank(small_geometry, small_network, shear_velocity_kms=3.5)
    bank2 = compute_gf_bank(small_geometry, small_network, shear_velocity_kms=7.0)
    np.testing.assert_allclose(bank.travel_time_s, 2.0 * bank2.travel_time_s)


def test_save_load_roundtrip(tmp_path, small_gf_bank):
    path = small_gf_bank.save(tmp_path / "gf.npz")
    back = GreensFunctionBank.load(path)
    np.testing.assert_array_equal(back.statics, small_gf_bank.statics)
    np.testing.assert_array_equal(back.travel_time_s, small_gf_bank.travel_time_s)
    assert back.station_names == small_gf_bank.station_names
    assert back.fault_name == small_gf_bank.fault_name


def test_load_missing_raises(tmp_path):
    with pytest.raises(GreensFunctionError):
        GreensFunctionBank.load(tmp_path / "missing.npz")


def test_bank_validation_catches_bad_shapes():
    with pytest.raises(GreensFunctionError):
        GreensFunctionBank(
            statics=np.zeros((2, 3, 2)),  # bad component axis
            travel_time_s=np.zeros((2, 3)),
            station_names=("A", "B"),
            fault_name="f",
        )
    with pytest.raises(GreensFunctionError):
        GreensFunctionBank(
            statics=np.zeros((2, 3, 3)),
            travel_time_s=np.zeros((2, 4)),
            station_names=("A", "B"),
            fault_name="f",
        )


def test_bank_validation_catches_negative_travel_times():
    with pytest.raises(GreensFunctionError):
        GreensFunctionBank(
            statics=np.zeros((1, 2, 3)),
            travel_time_s=np.array([[-1.0, 1.0]]),
            station_names=("A",),
            fault_name="f",
        )


def test_compute_rejects_bad_parameters(small_geometry, small_network):
    with pytest.raises(GreensFunctionError):
        compute_gf_bank(small_geometry, small_network, min_distance_km=0.0)
    with pytest.raises(GreensFunctionError):
        compute_gf_bank(small_geometry, small_network, shear_velocity_kms=-1.0)


def test_radiation_pattern_thrust_updip_positive():
    # Pure thrust (rake 90), vertical takeoff directly above the source:
    # P radiation should be positive (up).
    f_p, _, _ = radiation_patterns(0.0, 20.0, 90.0, azimuth_deg=90.0, takeoff_deg=0.0)
    assert float(f_p) == pytest.approx(np.sin(np.radians(40.0)), rel=1e-9)


def test_radiation_patterns_bounded():
    rng = np.random.default_rng(0)
    strike = rng.uniform(0, 360, 200)
    dip = rng.uniform(1, 89, 200)
    azim = rng.uniform(0, 360, 200)
    take = rng.uniform(0, 180, 200)
    f_p, f_sv, f_sh = radiation_patterns(strike, dip, 90.0, azim, take)
    for f in (f_p, f_sv, f_sh):
        assert np.all(np.abs(f) <= 1.5 + 1e-9)  # theoretical max magnitudes


def test_gf_cost_scales_with_station_count(small_geometry):
    # The bank arrays scale linearly in stations - the phase-B cost knob.
    small = compute_gf_bank(small_geometry, chilean_network(2))
    large = compute_gf_bank(small_geometry, chilean_network(8))
    assert large.statics.size == 4 * small.statics.size


class TestBankDtype:
    """Dtype-aware nbytes / save / load / astype (the float32 GF mode)."""

    def test_default_dtype_is_float64(self, small_gf_bank):
        assert small_gf_bank.dtype == np.float64

    def test_astype_halves_nbytes(self, small_gf_bank):
        half = small_gf_bank.astype("float32")
        assert half.dtype == np.float32
        assert half.nbytes * 2 == small_gf_bank.nbytes
        assert np.array_equal(
            half.statics, small_gf_bank.statics.astype(np.float32)
        )

    def test_astype_rejects_non_float(self, small_gf_bank):
        with pytest.raises(GreensFunctionError):
            small_gf_bank.astype("int32")

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_save_load_roundtrips_dtype(self, tmp_path, small_gf_bank, dtype):
        bank = small_gf_bank.astype(dtype)
        path = bank.save(tmp_path / f"bank_{dtype}.npz")
        loaded = GreensFunctionBank.load(path)
        assert loaded.dtype == np.dtype(dtype)
        assert np.array_equal(loaded.statics, bank.statics)
        assert np.array_equal(loaded.travel_time_s, bank.travel_time_s)

    def test_compute_gf_bank_dtype_param(self, small_geometry, small_network):
        full = compute_gf_bank(small_geometry, small_network)
        half = compute_gf_bank(small_geometry, small_network, dtype="float32")
        assert half.dtype == np.float32
        assert np.array_equal(half.statics, full.statics.astype(np.float32))
