"""Geometry unit tests.

Frozen reference distances below were computed with mpmath at 50 significant
digits from the same float inputs, then rounded to the nearest double.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from sitepick.clustering import TRIANGLE_FACTOR, HaversineMetric
from sitepick.errors import ValidationError
from sitepick.geo import (
    EARTH,
    EARTH_RADIUS_RANGE_KM,
    EarthModel,
    GeoPoint,
    coords_array,
    from_degrees,
    haversine,
    haversine_km,
)

ONE_DEG_KM = 111.19492664455873  # 6371 * pi / 180
HALF_CIRCLE_KM = 20015.086796020572  # 6371 * pi

# ((lat1, lon1), (lat2, lon2)) -> km, oracle-computed
FIXED_PAIRS = [
    ((1.291598203, 103.8465300), (1.3521, 103.8198), 7.354500074369403),
    ((40.0, -74.0), (51.5, -0.12), 5620.488888398879),
    ((-33.9, 151.2), (35.7, 139.7), 7830.902563722033),
    ((89.9, 10.0), (-89.9, -170.0), 20015.086796020572),
]

latitudes = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False)
longitudes = st.floats(min_value=-180.0, max_value=180.0, allow_nan=False)


def test_from_degrees_origin_and_pole():
    assert from_degrees(0.0, 0.0) == GeoPoint(0.0, 0.0)
    pole = from_degrees(90.0, 0.0)
    assert pole.lat == math.pi / 2 and pole.lon == 0.0


def test_from_degrees_survey_coordinates():
    point = from_degrees(1.291598203, 103.8465300)
    assert point.lat == pytest.approx(0.022542641255192102, abs=1e-15)
    assert point.lon == pytest.approx(1.812463865271067, abs=1e-15)


def test_from_degrees_rejects_bad_latitude():
    with pytest.raises(ValidationError, match="91"):
        from_degrees(91.0, 0.0)
    with pytest.raises(ValidationError):
        from_degrees(float("nan"), 0.0)
    with pytest.raises(ValidationError):
        from_degrees(0.0, float("inf"))


def test_longitude_normalized_into_half_open_interval():
    assert from_degrees(0.0, 180.0).lon == math.pi
    assert from_degrees(0.0, -180.0).lon == math.pi
    assert from_degrees(0.0, 540.0).lon == pytest.approx(math.pi, abs=1e-12)
    assert from_degrees(0.0, -190.0).lon == pytest.approx(math.radians(170.0), rel=1e-15)


@given(latitudes, st.floats(min_value=-1e7, max_value=1e7, allow_nan=False))
def test_longitude_always_in_range(lat_deg, lon_deg):
    point = from_degrees(lat_deg, lon_deg)
    assert -math.pi < point.lon <= math.pi
    assert -math.pi / 2 <= point.lat <= math.pi / 2


@given(latitudes, longitudes)
def test_degree_round_trip(lat_deg, lon_deg):
    point = from_degrees(lat_deg, lon_deg)
    back_lat, back_lon = math.degrees(point.lat), math.degrees(point.lon)
    assert back_lat == pytest.approx(lat_deg, abs=1e-12)
    # -180 normalizes onto +180, which is the same meridian
    if lon_deg == -180.0:
        assert back_lon == 180.0
    else:
        assert back_lon == pytest.approx(lon_deg, abs=1e-12)


def test_identical_points_are_distance_zero():
    point = from_degrees(1.3521, 103.8198)
    assert haversine(point, point) == 0.0


def test_antipodal_distance_is_half_circumference():
    d = haversine(from_degrees(0.0, 0.0), from_degrees(0.0, 180.0))
    assert d == pytest.approx(math.pi * EARTH.radius_km, abs=1e-9)


def test_one_degree_arc():
    d = haversine(from_degrees(0.0, 0.0), from_degrees(1.0, 0.0))
    assert d == pytest.approx(ONE_DEG_KM, abs=1e-9)


@pytest.mark.parametrize("a, b, expected", FIXED_PAIRS)
def test_fixed_distance_oracle_values(a, b, expected):
    d = haversine(from_degrees(*a), from_degrees(*b))
    assert d == pytest.approx(expected, abs=1e-9)


def test_custom_earth_radius_scales_linearly():
    small = EarthModel(radius_km=1.0)
    d = haversine(from_degrees(0.0, 0.0), from_degrees(0.0, 90.0), earth=small)
    assert d == pytest.approx(math.pi / 2, rel=1e-12)


def test_earth_model_rejects_nonpositive_radius():
    with pytest.raises(ValidationError):
        EarthModel(radius_km=0.0)
    with pytest.raises(ValidationError):
        EarthModel(radius_km=-1.0)


def test_earth_model_rejects_a_radius_outside_its_range():
    low, high = EARTH_RADIUS_RANGE_KM
    assert EarthModel(low).radius_km == low and EarthModel(high).radius_km == high
    for radius in (low / 2, high * 2, math.inf, math.nan):
        with pytest.raises(ValidationError, match="earth radius must lie in"):
            EarthModel(radius_km=radius)


@given(latitudes, longitudes, latitudes, longitudes)
def test_metric_axioms(lat1, lon1, lat2, lon2):
    a = from_degrees(lat1, lon1)
    b = from_degrees(lat2, lon2)
    d_ab = haversine(a, b)
    assert d_ab >= 0.0
    assert d_ab <= math.pi * EARTH.radius_km + 1e-9
    assert d_ab == haversine(b, a)
    assert haversine(a, a) == 0.0


@given(latitudes, longitudes, latitudes, longitudes, latitudes, longitudes)
# Near-antipodal rounding: d(a, c) exceeds d(a, b) + d(b, c) by 1.16e-9 km.
@example(0.0, 180.0, 0.0, 0.03125, 0.0, 0.0)
def test_triangle_inequality(lat1, lon1, lat2, lon2, lat3, lon3):
    # The bound HaversineMetric.triangle_slack derives, which Dunn pruning
    # relies on; the exact distances have no slack, computed ones do.
    a = from_degrees(lat1, lon1)
    b = from_degrees(lat2, lon2)
    c = from_degrees(lat3, lon3)
    bound = (haversine(a, b) + haversine(b, c)) * TRIANGLE_FACTOR + HaversineMetric().triangle_slack
    assert haversine(a, c) <= bound


def test_vectorized_matches_scalar():
    rng = np.random.default_rng(4)
    lats = rng.uniform(-90, 90, size=64)
    lons = rng.uniform(-180, 180, size=64)
    points = [from_degrees(la, lo) for la, lo in zip(lats, lons)]
    coords = coords_array(points)
    matrix = haversine_km(
        coords[:, 0][:, None], coords[:, 1][:, None], coords[:, 0][None, :], coords[:, 1][None, :]
    )
    for i in range(0, 64, 7):
        for j in range(0, 64, 5):
            assert matrix[i, j] == pytest.approx(haversine(points[i], points[j]), abs=1e-9)
    alone = haversine_km(*coords[3], *coords[9])
    assert isinstance(alone, float) and alone == matrix[3, 9]


def test_coords_array_shape_and_values():
    points = [from_degrees(0.0, 0.0), from_degrees(45.0, 90.0)]
    coords = coords_array(points)
    assert coords.shape == (2, 2)
    assert coords[1, 0] == points[1].lat and coords[1, 1] == points[1].lon
    assert coords_array([]).shape == (0, 2)
