"""Site extraction tests: nearest-member representatives and site labelling."""

import numpy as np
import pytest

from sitepick.clustering import HaversineMetric, kmeans
from sitepick.errors import EmptyClusterError, ValidationError
from sitepick.geo import GeoPoint, coords_array, from_degrees, haversine
from sitepick.io_pipeline import Quadrant, SurveyResponse
from sitepick.sites import (
    DEFAULT_REGION_ORDER,
    SiteRecord,
    assign_site_ids,
    select_representatives,
)
from sitepick.weighting import FrequencyCategory


def source(lat, lon, region="Central", row=2):
    return SurveyResponse(
        participant_id="p1",
        quadrant=Quadrant.FULL_OF_LIFE_EXCITING,
        region=region,
        lat_deg=lat,
        lon_deg=lon,
        visit_count_category=FrequencyCategory.ONE_TO_THREE,
        avg_duration_min=10.0,
        row=row,
    )


def test_representatives_are_cluster_members():
    points = [
        from_degrees(1.30, 103.80),
        from_degrees(1.31, 103.81),
        from_degrees(1.29, 103.79),
        from_degrees(2.20, 103.80),
        from_degrees(2.21, 103.81),
    ]
    weights = [0.6, 0.9, 0.7, 1.0, 0.8]
    result = kmeans(coords_array(points), weights, k=2, seed=3)
    reps = select_representatives(coords_array(points), result.labels, result.centers)
    assert reps.shape == (2,) and reps.dtype == np.intp
    for cluster, index in enumerate(reps.tolist()):
        members = np.flatnonzero(result.labels == cluster)
        center = GeoPoint(*result.centers[cluster])
        assert index in members
        distance_km = haversine(points[index], center)
        # Nearest means no other member of the cluster is closer.
        for other in members:
            assert distance_km <= haversine(points[other], center) + 1e-12


def test_singleton_cluster_represents_itself():
    points = [from_degrees(1.30, 103.80), from_degrees(2.20, 103.80)]
    centers = [points[0], points[1]]
    for labels in (np.array([0, 1]), [0, 1]):  # labels as an array or a list
        reps = select_representatives(coords_array(points), labels, coords_array(centers))
        assert reps.tolist() == [0, 1]


def test_equidistant_members_tie_to_lowest_index():
    points = [from_degrees(0.0, 0.01), from_degrees(0.0, -0.01)]
    labels = np.array([0, 0])
    center = [from_degrees(0.0, 0.0)]
    reps = select_representatives(coords_array(points), labels, coords_array(center))
    assert reps.tolist() == [0]


def test_representative_is_a_real_point_not_the_midpoint():
    # A two-point cluster's center is the weighted midpoint, which is not a
    # surveyed location; the representative must be one of the inputs.
    points = [from_degrees(1.30, 103.80), from_degrees(1.40, 103.90)]
    result = kmeans(coords_array(points), [0.5, 1.0], k=1, seed=0)
    reps = select_representatives(coords_array(points), result.labels, result.centers)
    assert reps.tolist() == [1]  # heavier point pulls the center toward it
    gap = haversine(points[0], points[1])
    assert 0.0 < haversine(points[1], GeoPoint(*result.centers[0])) < gap


def test_representatives_follow_cluster_relabeling():
    points = [
        from_degrees(1.30, 103.80),
        from_degrees(1.31, 103.81),
        from_degrees(2.20, 103.80),
        from_degrees(2.21, 103.81),
    ]
    labels = np.array([0, 0, 1, 1])
    centers = [from_degrees(1.305, 103.805), from_degrees(2.205, 103.805)]
    forward = select_representatives(coords_array(points), labels, coords_array(centers))
    swapped = select_representatives(
        coords_array(points), 1 - labels, coords_array(centers[::-1])
    )
    assert set(forward.tolist()) == set(swapped.tolist())
    assert forward[0] == swapped[1]


def test_select_representatives_rejects_bad_input():
    points = [from_degrees(1.30, 103.80), from_degrees(1.31, 103.81)]
    all_zero = np.array([0, 0])
    centers = [points[0], points[1]]
    with pytest.raises(EmptyClusterError):
        select_representatives(coords_array(points), all_zero, coords_array(centers))
    with pytest.raises(ValidationError):
        select_representatives(coords_array(points[:1]), all_zero, coords_array(centers))
    # Too few centers: a label names a cluster that has no center.
    with pytest.raises(ValidationError):
        select_representatives(coords_array(points), np.array([0, 1]), coords_array(centers[:1]))
    nan = coords_array(points)
    nan[1, 0] = np.nan
    with pytest.raises(ValidationError):
        select_representatives(nan, np.array([0, 1]), coords_array(centers))
    with pytest.raises(ValidationError):
        select_representatives(coords_array(points), np.array([0, 1]), nan)
    with pytest.raises(ValidationError):
        select_representatives(coords_array(points), np.array([[0, 1]]), coords_array(centers))
    with pytest.raises(ValidationError, match="labels must be integers"):
        select_representatives(coords_array(points), np.array([0.0, 1.5]), coords_array(centers))
    with pytest.raises(ValidationError):
        select_representatives(coords_array(points), np.array([0, 0]), coords_array(centers)[0])


def test_select_representatives_rejects_out_of_range_labels():
    points = [from_degrees(1.30, 103.80), from_degrees(1.31, 103.81)]
    centers = coords_array([points[0], points[1]])
    for labels in (np.array([0, 2]), np.array([-1, 1])):
        with pytest.raises(ValidationError):
            select_representatives(coords_array(points), labels, centers)


def test_site_ids_sort_by_region_then_latitude():
    reps = np.arange(4)
    sources = [
        source(1.35, 103.95, region="East"),
        source(1.40, 103.85, region="CBD"),
        source(1.20, 103.84, region="CBD"),
        source(1.33, 103.70, region="West"),
    ]
    sites = assign_site_ids(reps, Quadrant.FULL_OF_LIFE_EXCITING, sources)
    assert isinstance(sites, tuple) and all(isinstance(r, SiteRecord) for r in sites)
    assert [r.site_id for r in sites] == ["A01", "A02", "A03", "A04"]
    assert [r.cluster for r in sites] == [2, 1, 0, 3]
    assert [r.region for r in sites] == ["CBD", "CBD", "East", "West"]
    assert sites[0].source.lat_deg == 1.20


def test_unknown_regions_sort_after_known_ones():
    reps = np.arange(4)
    sources = [
        source(1.0, 103.0, region="Zetland"),
        source(1.1, 103.1, region="  "),
        source(1.2, 103.2, region="Central"),
        source(1.3, 103.3, region="Albury"),
    ]
    sites = assign_site_ids(reps, Quadrant.CALM_TRANQUIL, sources)
    assert [r.region for r in sites] == ["Central", "Albury", "UNKNOWN", "Zetland"]
    assert [r.site_id for r in sites] == ["C01", "C02", "C03", "C04"]


def test_custom_region_order():
    reps = np.arange(2)
    sources = [source(1.0, 103.0, region="East"), source(1.1, 103.1, region="West")]
    default = assign_site_ids(reps, Quadrant.CHAOTIC_RESTLESS, sources)
    flipped = assign_site_ids(reps, Quadrant.CHAOTIC_RESTLESS, sources, region_order=("West", "East"))
    assert [r.region for r in default] == ["East", "West"]
    assert [r.region for r in flipped] == ["West", "East"]
    assert DEFAULT_REGION_ORDER[0] == "CBD"


def test_ties_fall_back_to_point_index():
    reps = np.array([3, 1])
    sources = [source(1.0, 103.0) for _ in range(4)]
    sites = assign_site_ids(reps, Quadrant.LIFELESS_BORING, sources)
    assert [r.cluster for r in sites] == [1, 0]


def test_site_id_padding_grows_with_count():
    reps = np.arange(15)
    sources = [source(1.0 + 0.01 * i, 103.0) for i in range(15)]
    sites = assign_site_ids(reps, Quadrant.FULL_OF_LIFE_EXCITING, sources)
    assert sites[0].site_id == "A01"
    assert sites[-1].site_id == "A15"

    reps = np.arange(100)
    sources = [source(1.0 + 0.001 * i, 103.0) for i in range(100)]
    sites = assign_site_ids(reps, Quadrant.CHAOTIC_RESTLESS, sources)
    assert sites[0].site_id == "B001"
    assert sites[-1].site_id == "B100"


def test_site_coordinates_are_verbatim():
    reps = np.array([0])
    sources = [source(1.291598203, 103.84653, region="CBD", row=17)]
    (record,) = assign_site_ids(reps, Quadrant.FULL_OF_LIFE_EXCITING, sources)
    assert record.source is sources[0]
    assert record.source.lat_deg == 1.291598203
    assert record.source.lon_deg == 103.84653
    assert record.source.row == 17


def test_assign_site_ids_validates_input():
    sources = [source(1.0, 103.0)]
    bad = np.array([5])
    with pytest.raises(ValidationError):
        assign_site_ids(bad, Quadrant.FULL_OF_LIFE_EXCITING, sources)
