"""Turn cluster centers into concrete recommended sites.

A k-means center is a coordinate average and usually lands on no surveyed
location (it can sit in water or inside a building). Each cluster is
therefore represented by its member point closest to the center, so every
recommended site is verbatim one of the surveyed coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .clustering import DistanceMetric, HaversineMetric
from .errors import EmptyClusterError, ValidationError

if TYPE_CHECKING:
    from .io_pipeline import Quadrant, SurveyResponse

#: Region labels in the order site tables are sorted by, mirroring how the
#: survey area is usually broken down in reports.
DEFAULT_REGION_ORDER: tuple[str, ...] = (
    "CBD",
    "Central",
    "East",
    "North",
    "North-east",
    "West",
)


@dataclass(frozen=True)
class Representative:
    """The member point standing in for one cluster."""

    cluster: int
    point_index: int
    distance_km: float


@dataclass(frozen=True)
class SiteRecord:
    site_id: str
    cluster: int
    lat_deg: float
    lon_deg: float
    region: str
    source_row: int


def select_representatives(
    coords: np.ndarray,
    labels: np.ndarray,
    centers: np.ndarray,
    metric: DistanceMetric | None = None,
) -> "list[Representative]":
    """Pick, for every cluster, the member nearest its center.

    `coords` and `centers` are (n, 2) and (k, 2) [lat, lon] radian arrays and
    `labels` gives each point's cluster in [0, k). Ties go to the lowest
    point index. Output is ordered by cluster index and always has exactly
    one entry per cluster.
    """
    metric = metric if metric is not None else HaversineMetric()
    k = len(centers)
    if labels.size != len(coords):
        raise ValidationError(f"{len(coords)} points but {labels.size} labels")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValidationError(f"every label must lie in [0, {k}) for {k} centers")
    representatives: list[Representative] = []
    for cluster in range(k):
        members = np.flatnonzero(labels == cluster)
        if members.size == 0:
            raise EmptyClusterError(f"cluster {cluster} has no members to represent it")
        dist = metric.pairwise(coords[members], centers[cluster : cluster + 1])[:, 0]
        nearest = int(np.argmin(dist))
        representatives.append(
            Representative(
                cluster=cluster,
                point_index=int(members[nearest]),
                distance_km=float(dist[nearest]),
            )
        )
    return representatives


def assign_site_ids(
    representatives: Sequence[Representative],
    quadrant: "Quadrant",
    sources: Sequence["SurveyResponse"],
    region_order: Sequence[str] = DEFAULT_REGION_ORDER,
) -> "tuple[SiteRecord, ...]":
    """Label representatives as sites like "A01" and order them for reporting.

    Sites sort by region (in region_order, unknown regions alphabetically
    after the known ones), then by latitude ascending. IDs are the quadrant
    letter plus a zero-padded ordinal in that sort order. A representative
    whose source has a blank region is reported under "UNKNOWN".
    """
    ranks = {region: i for i, region in enumerate(region_order)}
    fallback_rank = len(region_order)

    def sort_key(rep: Representative):
        source = sources[rep.point_index]
        region = source.region.strip() or "UNKNOWN"
        return (
            ranks.get(region, fallback_rank),
            region if region not in ranks else "",
            source.lat_deg,
            source.lon_deg,
            rep.point_index,
        )

    for rep in representatives:
        if not 0 <= rep.point_index < len(sources):
            raise ValidationError(f"representative index {rep.point_index} has no source")

    width = max(2, len(str(len(representatives))))
    records = []
    for ordinal, rep in enumerate(sorted(representatives, key=sort_key), start=1):
        source = sources[rep.point_index]
        records.append(
            SiteRecord(
                site_id=f"{quadrant.letter}{ordinal:0{width}d}",
                cluster=rep.cluster,
                lat_deg=source.lat_deg,
                lon_deg=source.lon_deg,
                region=source.region.strip() or "UNKNOWN",
                source_row=source.row,
            )
        )
    return tuple(records)
