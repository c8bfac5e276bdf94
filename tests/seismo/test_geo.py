"""Tests for repro.seismo.geo."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.seismo.geo import (
    EARTH_RADIUS_KM,
    LocalProjection,
    haversine_km,
)

lons = st.floats(min_value=-179.0, max_value=179.0)
lats = st.floats(min_value=-85.0, max_value=85.0)


def test_haversine_zero_for_identical_points():
    assert haversine_km(-71.0, -30.0, -71.0, -30.0) == 0.0


def test_haversine_one_degree_latitude():
    # One degree of latitude is ~111.19 km.
    d = haversine_km(0.0, 0.0, 0.0, 1.0)
    assert d == pytest.approx(np.pi * EARTH_RADIUS_KM / 180.0, rel=1e-6)


def test_haversine_antipodal():
    d = haversine_km(0.0, 0.0, 180.0, 0.0)
    assert d == pytest.approx(np.pi * EARTH_RADIUS_KM, rel=1e-6)


def test_haversine_broadcasts():
    lons_arr = np.array([-71.0, -72.0, -73.0])
    d = haversine_km(lons_arr, -30.0, -71.0, -30.0)
    assert d.shape == (3,)
    assert d[0] == 0.0
    assert d[1] < d[2]


@given(lons, lats, lons, lats)
def test_haversine_symmetry(lon1, lat1, lon2, lat2):
    d1 = haversine_km(lon1, lat1, lon2, lat2)
    d2 = haversine_km(lon2, lat2, lon1, lat1)
    assert d1 == pytest.approx(d2, abs=1e-9)


@given(lons, lats, lons, lats)
def test_haversine_bounded_by_half_circumference(lon1, lat1, lon2, lat2):
    d = haversine_km(lon1, lat1, lon2, lat2)
    assert 0.0 <= d <= np.pi * EARTH_RADIUS_KM + 1e-6


def test_projection_origin_maps_to_zero():
    proj = LocalProjection(-71.0, -30.0)
    east, north = proj.to_enu(-71.0, -30.0)
    assert east == 0.0 and north == 0.0


def test_projection_roundtrip():
    proj = LocalProjection(-71.0, -30.0)
    east, north = proj.to_enu(-70.3, -29.1)
    lon, lat = proj.to_geographic(east, north)
    assert lon == pytest.approx(-70.3)
    assert lat == pytest.approx(-29.1)


def test_projection_matches_haversine_locally():
    proj = LocalProjection(-71.0, -30.0)
    east, north = proj.to_enu(-70.9, -29.9)
    approx = float(np.hypot(east, north))
    exact = float(haversine_km(-71.0, -30.0, -70.9, -29.9))
    assert approx == pytest.approx(exact, rel=2e-3)


def test_projection_rejects_bad_origin():
    with pytest.raises(ValueError):
        LocalProjection(-71.0, 95.0)


@given(lons, lats)
def test_projection_roundtrip_property(lon, lat):
    proj = LocalProjection(-71.0, -30.0)
    east, north = proj.to_enu(lon, lat)
    lon2, lat2 = proj.to_geographic(east, north)
    assert float(lon2) == pytest.approx(lon, abs=1e-9)
    assert float(lat2) == pytest.approx(lat, abs=1e-9)
