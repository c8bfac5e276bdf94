"""Tests for repro.seismo.fakequakes."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.seismo.fakequakes import FakeQuakes, FakeQuakesParameters


@pytest.fixture(scope="module")
def session():
    params = FakeQuakesParameters(
        n_ruptures=6, n_stations=5, mesh=(8, 5), seed=21
    )
    return FakeQuakes.from_parameters(params)


def test_parameters_validation():
    with pytest.raises(ConfigError):
        FakeQuakesParameters(n_ruptures=0)
    with pytest.raises(ConfigError):
        FakeQuakesParameters(n_stations=0)
    with pytest.raises(ConfigError):
        FakeQuakesParameters(mesh=(1, 5))
    with pytest.raises(ConfigError):
        FakeQuakesParameters(mw_range=(9.0, 8.0))
    with pytest.raises(ConfigError):
        FakeQuakesParameters(dt_s=0.0)


def _assert_identical_ruptures(actual, expected):
    assert len(actual) == len(expected)
    for a, b in zip(actual, expected):
        assert a.rupture_id == b.rupture_id
        np.testing.assert_array_equal(a.subfault_indices, b.subfault_indices)
        np.testing.assert_array_equal(a.slip_m, b.slip_m)
        np.testing.assert_array_equal(a.rise_time_s, b.rise_time_s)
        np.testing.assert_array_equal(a.onset_time_s, b.onset_time_s)
        assert a.hypocenter_index == b.hypocenter_index


def test_phase_a_chunking_is_partition_invariant(session):
    whole = session.phase_a_ruptures(0, 6)
    split = session.phase_a_ruptures(0, 3) + session.phase_a_ruptures(3, 3)
    _assert_identical_ruptures(split, whole)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_phase_a_any_split_point_matches_single_call(session, k):
    """Regression for the docstring claim: [0, k) + [k, n) must equal one
    [0, n) call for every split point — ids, slip, and kinematics (this
    is what makes the pooled Phase-A fan-out bit-identical)."""
    whole = session.phase_a_ruptures(0, 6)
    split = session.phase_a_ruptures(0, k) + session.phase_a_ruptures(k, 6 - k)
    _assert_identical_ruptures(split, whole)


def test_phase_a_per_rupture_chunks_match_single_call(session):
    """The finest partition (one rupture per job) is also invariant."""
    whole = session.phase_a_ruptures(0, 6)
    split = [r for i in range(6) for r in session.phase_a_ruptures(i, 1)]
    _assert_identical_ruptures(split, whole)


def test_phase_a_chunk_bounds_checked(session):
    with pytest.raises(ConfigError):
        session.phase_a_ruptures(4, 5)
    with pytest.raises(ConfigError):
        session.phase_a_ruptures(-1, 2)


def test_phase_b_cached(session):
    bank1 = session.phase_b_greens_functions()
    bank2 = session.phase_b_greens_functions()
    assert bank1 is bank2


def test_phase_b_recycled_bank_used(session, small_gf_bank):
    params = FakeQuakesParameters(n_ruptures=2, n_stations=8, mesh=(10, 6), seed=0)
    fq = FakeQuakes.from_parameters(params)
    bank = fq.phase_b_greens_functions(recycled=small_gf_bank)
    assert bank is small_gf_bank


def test_distance_recycling(session):
    d1 = session.phase_a_distances()
    d2 = session.phase_a_distances()
    assert d1 is d2


def test_run_sequential_produces_catalog(session):
    sets = session.run_sequential()
    assert len(sets) == 6
    ids = [ws.rupture_id for ws in sets]
    assert ids == sorted(ids)
    mags = np.array([r.actual_mw for r in session.phase_a_ruptures()])
    assert np.all((mags >= 7.5) & (mags <= 9.2))


def test_same_seed_same_products():
    params = FakeQuakesParameters(n_ruptures=2, n_stations=3, mesh=(8, 5), seed=77)
    a = FakeQuakes.from_parameters(params).run_sequential()
    b = FakeQuakes.from_parameters(params).run_sequential()
    np.testing.assert_array_equal(a[0].data, b[0].data)


def test_different_seed_different_products():
    pa = FakeQuakesParameters(n_ruptures=2, n_stations=3, mesh=(8, 5), seed=1)
    pb = FakeQuakesParameters(n_ruptures=2, n_stations=3, mesh=(8, 5), seed=2)
    a = FakeQuakes.from_parameters(pa).run_sequential()
    b = FakeQuakes.from_parameters(pb).run_sequential()
    # Record lengths are auto-sized per rupture, so different seeds can
    # differ in shape; identical shapes must still differ in content.
    assert a[0].data.shape != b[0].data.shape or not np.allclose(a[0].data, b[0].data)


def test_noise_flag_adds_noise():
    base = FakeQuakesParameters(n_ruptures=1, n_stations=3, mesh=(8, 5), seed=4)
    noisy = FakeQuakesParameters(
        n_ruptures=1, n_stations=3, mesh=(8, 5), seed=4, with_noise=True
    )
    clean_sets = FakeQuakes.from_parameters(base).run_sequential()
    noisy_sets = FakeQuakes.from_parameters(noisy).run_sequential()
    assert not np.allclose(clean_sets[0].data, noisy_sets[0].data)


class TestGfDtype:
    def test_invalid_gf_dtype_rejected(self):
        with pytest.raises(ConfigError):
            FakeQuakesParameters(gf_dtype="float16")

    def test_phase_b_honours_gf_dtype(self):
        params = FakeQuakesParameters(
            n_ruptures=2, n_stations=3, mesh=(6, 4), gf_dtype="float32", seed=5
        )
        fq = FakeQuakes.from_parameters(params)
        bank = fq.phase_b_greens_functions()
        assert bank.dtype == np.float32
        # And Phase C runs in the bank's dtype end to end.
        ruptures = fq.phase_a_ruptures(0, 2)
        sets = fq.phase_c_waveforms(ruptures)
        assert all(ws.data.dtype == np.float32 for ws in sets)

    def test_phase_b_honours_gf_dtype_through_cache(self):
        from repro.core.gfcache import GFCache

        cache = GFCache()
        params = FakeQuakesParameters(
            n_ruptures=2, n_stations=3, mesh=(6, 4), gf_dtype="float32", seed=5
        )
        fq = FakeQuakes.from_parameters(params, gf_cache=cache)
        assert fq.phase_b_greens_functions().dtype == np.float32
