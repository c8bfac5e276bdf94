"""Tests for repro.seismo.ruptures."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RuptureError
from repro.seismo.ruptures import Rupture, RuptureGenerator
from repro.seismo.scaling import magnitude_from_moment


def test_moment_closure(sample_rupture, small_geometry):
    mw = magnitude_from_moment(sample_rupture.moment(small_geometry))
    assert float(mw) == pytest.approx(sample_rupture.target_mw, abs=1e-9)
    assert sample_rupture.actual_mw == pytest.approx(sample_rupture.target_mw, abs=1e-9)


def test_slip_nonnegative(sample_rupture):
    assert np.all(sample_rupture.slip_m >= 0)
    assert sample_rupture.peak_slip_m > 0


def test_kinematics_shapes(sample_rupture):
    n = sample_rupture.n_subfaults
    assert sample_rupture.rise_time_s.shape == (n,)
    assert sample_rupture.onset_time_s.shape == (n,)
    assert np.all(sample_rupture.rise_time_s > 0)
    assert np.all(sample_rupture.onset_time_s >= 0)


def test_hypocenter_has_zero_onset(sample_rupture):
    assert sample_rupture.onset_time_s[sample_rupture.hypocenter_index] == 0.0


def test_duration_positive(sample_rupture):
    assert sample_rupture.duration_s > 0


def test_generate_deterministic(rupture_generator):
    a = rupture_generator.generate(np.random.default_rng(11), target_mw=8.0)
    b = rupture_generator.generate(np.random.default_rng(11), target_mw=8.0)
    np.testing.assert_array_equal(a.slip_m, b.slip_m)
    np.testing.assert_array_equal(a.subfault_indices, b.subfault_indices)


def test_generate_varies_with_seed(rupture_generator):
    a = rupture_generator.generate(np.random.default_rng(1), target_mw=8.0)
    b = rupture_generator.generate(np.random.default_rng(2), target_mw=8.0)
    assert a.slip_m.shape != b.slip_m.shape or not np.allclose(a.slip_m, b.slip_m)


def test_random_magnitude_in_range(rupture_generator):
    rng = np.random.default_rng(0)
    for i in range(10):
        r = rupture_generator.generate(rng, rupture_id=f"r.{i}")
        assert 7.5 <= r.target_mw <= 9.2


def test_out_of_range_target_rejected(rupture_generator):
    with pytest.raises(RuptureError):
        rupture_generator.generate(np.random.default_rng(0), target_mw=6.0)


def test_larger_magnitude_larger_patch(rupture_generator):
    rng = np.random.default_rng(5)
    small = [rupture_generator.generate(rng, target_mw=7.5).n_subfaults for _ in range(8)]
    large = [rupture_generator.generate(rng, target_mw=9.0).n_subfaults for _ in range(8)]
    assert np.mean(large) > np.mean(small)


def test_patch_indices_within_mesh(rupture_generator, small_geometry):
    rng = np.random.default_rng(9)
    r = rupture_generator.generate(rng, target_mw=8.5)
    assert r.subfault_indices.min() >= 0
    assert r.subfault_indices.max() < small_geometry.n_subfaults
    assert len(np.unique(r.subfault_indices)) == r.n_subfaults


def test_patch_is_contiguous_window(rupture_generator, small_geometry):
    rng = np.random.default_rng(13)
    r = rupture_generator.generate(rng, target_mw=8.8)
    s_idx = np.asarray(small_geometry.strike_index(r.subfault_indices))
    d_idx = np.asarray(small_geometry.dip_index(r.subfault_indices))
    n_s = s_idx.max() - s_idx.min() + 1
    n_d = d_idx.max() - d_idx.min() + 1
    assert n_s * n_d == r.n_subfaults


def test_generate_many_sequential_ids(rupture_generator):
    rng = np.random.default_rng(3)
    ids = ["cat.000005", "cat.000006", "cat.000007"]
    ruptures = [rupture_generator.generate(rng, rupture_id=rid) for rid in ids]
    assert [r.rupture_id for r in ruptures] == ids


def test_mismatched_distance_matrices_rejected(small_geometry):
    from repro.seismo.distance import DistanceMatrices

    wrong = DistanceMatrices(np.zeros((4, 4)), np.zeros((4, 4)))
    with pytest.raises(RuptureError):
        RuptureGenerator(small_geometry, distances=wrong)


def test_invalid_mw_range_rejected(small_geometry, small_distances):
    with pytest.raises(RuptureError):
        RuptureGenerator(small_geometry, distances=small_distances, mw_range=(9.0, 8.0))


def test_rupture_dataclass_validation():
    with pytest.raises(RuptureError):
        Rupture(
            rupture_id="bad",
            target_mw=8.0,
            actual_mw=8.0,
            subfault_indices=np.array([0, 1]),
            slip_m=np.array([1.0]),  # wrong length
            rise_time_s=np.array([1.0, 1.0]),
            onset_time_s=np.array([0.0, 1.0]),
            hypocenter_index=0,
        )


def test_rupture_rejects_negative_slip():
    with pytest.raises(RuptureError):
        Rupture(
            rupture_id="bad",
            target_mw=8.0,
            actual_mw=8.0,
            subfault_indices=np.array([0, 1]),
            slip_m=np.array([1.0, -0.5]),
            rise_time_s=np.array([1.0, 1.0]),
            onset_time_s=np.array([0.0, 1.0]),
            hypocenter_index=0,
        )


@pytest.mark.parametrize("field", ["slip_m", "rise_time_s", "onset_time_s"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rupture_rejects_non_finite_values(sample_rupture, field, bad):
    values = getattr(sample_rupture, field).copy()
    values[1] = bad
    with pytest.raises(RuptureError, match=field):
        dataclasses.replace(sample_rupture, **{field: values})


@given(st.floats(min_value=7.5, max_value=9.2), st.integers(min_value=0, max_value=50))
@settings(max_examples=15, deadline=None)
def test_moment_closure_property(rupture_generator, mw, seed):
    r = rupture_generator.generate(np.random.default_rng(seed), target_mw=mw)
    assert r.actual_mw == pytest.approx(mw, abs=1e-9)
    assert np.all(r.slip_m >= 0)
