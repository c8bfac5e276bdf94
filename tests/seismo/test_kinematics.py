"""Tests for repro.seismo.kinematics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RuptureError
from repro.seismo.kinematics import onset_times, rise_times
from repro.seismo.waveforms import _ramp


def slip_ramp(t, onset_s, rise_s):
    """The synthesizer's normalized slip history at times ``t``: its
    cosine ramp over the clipped phase ``(t - onset) / rise``."""
    return _ramp(np.clip((np.asarray(t, dtype=float) - onset_s) / rise_s, 0.0, 1.0))


def test_rise_times_mean_matches_target():
    slip = np.array([1.0, 2.0, 4.0, 0.5])
    rise = rise_times(slip, mean_rise_s=8.0)
    shaped = np.sqrt(slip)
    expected_mean = 8.0
    realized = np.mean(shaped * (expected_mean / shaped.mean()))
    assert np.mean(rise) == pytest.approx(realized)


def test_rise_times_monotone_in_slip():
    slip = np.array([0.5, 1.0, 2.0, 8.0])
    rise = rise_times(slip)
    assert np.all(np.diff(rise) > 0)


def test_rise_times_floor():
    slip = np.array([1e-8, 10.0])
    rise = rise_times(slip, minimum_s=1.0)
    assert rise[0] >= 1.0


def test_rise_times_zero_slip_patch():
    rise = rise_times(np.zeros(4), minimum_s=1.5)
    np.testing.assert_allclose(rise, 1.5)


def test_rise_times_rejects_negative_slip():
    with pytest.raises(RuptureError):
        rise_times(np.array([-1.0]))


def test_rise_times_rejects_bad_scales():
    with pytest.raises(RuptureError):
        rise_times(np.array([1.0]), mean_rise_s=0.0)


def test_onset_zero_at_hypocenter():
    east = np.array([0.0, 10.0, 20.0])
    north = np.zeros(3)
    depth = np.full(3, 20.0)
    onset = onset_times(east, north, depth, hypocenter_index=0)
    assert onset[0] == 0.0
    assert np.all(onset[1:] > 0)


def test_onset_proportional_to_distance():
    east = np.array([0.0, 14.0, 28.0])
    north = np.zeros(3)
    depth = np.zeros(3)
    onset = onset_times(east, north, depth, 0, rupture_velocity_kms=2.8)
    assert onset[1] == pytest.approx(5.0)
    assert onset[2] == pytest.approx(10.0)


def test_onset_default_velocity_is_fraction_of_vs():
    east = np.array([0.0, 2.8])
    onset = onset_times(east, np.zeros(2), np.zeros(2), 0)
    assert onset[1] == pytest.approx(1.0)  # 0.8 * 3.5 = 2.8 km/s


def test_onset_rejects_bad_hypocenter():
    with pytest.raises(RuptureError):
        onset_times(np.zeros(3), np.zeros(3), np.zeros(3), 5)


def test_onset_rejects_shape_mismatch():
    with pytest.raises(RuptureError):
        onset_times(np.zeros(3), np.zeros(2), np.zeros(3), 0)


def test_onset_rejects_nonpositive_velocity():
    with pytest.raises(RuptureError):
        onset_times(np.zeros(2), np.zeros(2), np.zeros(2), 0, rupture_velocity_kms=0.0)


def test_slip_ramp_limits():
    t = np.array([-5.0, 0.0, 2.5, 5.0, 100.0])
    ramp = slip_ramp(t, onset_s=0.0, rise_s=5.0)
    assert ramp[0] == 0.0
    assert ramp[1] == 0.0
    assert ramp[2] == pytest.approx(0.5)
    assert ramp[3] == pytest.approx(1.0)
    assert ramp[4] == 1.0


def test_slip_ramp_monotone():
    t = np.linspace(-2, 12, 200)
    ramp = slip_ramp(t, onset_s=1.0, rise_s=6.0)
    assert np.all(np.diff(ramp) >= -1e-12)


@given(
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(min_value=0.5, max_value=30.0),
)
@settings(max_examples=30, deadline=None)
def test_slip_ramp_bounded(onset, rise):
    t = np.linspace(-10.0, 200.0, 128)
    ramp = slip_ramp(t, onset, rise)
    assert np.all(ramp >= 0.0) and np.all(ramp <= 1.0)
