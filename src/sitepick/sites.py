"""Turn cluster centers into concrete recommended sites.

A k-means center is a coordinate average and usually lands on no surveyed
location (it can sit in water or inside a building). Each cluster is
therefore represented by its member point closest to the center, so every
recommended site is verbatim one of the surveyed coordinates. Representatives
are point indices in a (k,) array, entry j for cluster j.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .clustering import DistanceMetric, HaversineMetric, _checked_labels, _validate_coords
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
class SiteRecord:
    site_id: str
    cluster: int
    region: str
    source: "SurveyResponse"


def select_representatives(
    coords: np.ndarray,
    labels: np.ndarray,
    centers: np.ndarray,
    metric: DistanceMetric = HaversineMetric(),
) -> np.ndarray:
    """Index of every cluster's member nearest its center, as a (k,) intp
    array whose entry j is cluster j's representative.

    `coords` and `centers` are (n, 2) and (k, 2) [lat, lon] radian arrays and
    `labels` gives each point's cluster in [0, k). Ties go to the lowest
    point index.
    """
    labels = _checked_labels(coords, labels)
    _validate_coords(centers)
    k = len(centers)
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValidationError(f"every label must lie in [0, {k}) for {k} centers")
    representatives = np.empty(k, dtype=np.intp)
    for cluster in range(k):
        members = np.flatnonzero(labels == cluster)
        if members.size == 0:
            raise EmptyClusterError(f"cluster {cluster} has no members to represent it")
        dist = metric.pairwise(coords[members], centers[cluster : cluster + 1])[:, 0]
        representatives[cluster] = members[np.argmin(dist)]
    return representatives


def assign_site_ids(
    representatives: np.ndarray,
    quadrant: "Quadrant",
    sources: Sequence["SurveyResponse"],
    region_order: Sequence[str] = DEFAULT_REGION_ORDER,
) -> "tuple[SiteRecord, ...]":
    """Label representatives as sites like "A01" and order them for reporting.

    Entry j of `representatives` indexes the `sources` row of cluster j's site.
    Sites sort by region (in region_order, unknown regions alphabetically
    after the known ones), then by latitude ascending. IDs are the quadrant
    letter plus a zero-padded ordinal in that sort order. A representative
    whose source has a blank region is reported under "UNKNOWN".
    """
    indices = representatives.tolist()
    for index in indices:
        if not 0 <= index < len(sources):
            raise ValidationError(f"representative index {index} has no source")
    regions = [sources[index].region.strip() or "UNKNOWN" for index in indices]
    ranks = {region: i for i, region in enumerate(region_order)}

    def sort_key(cluster: int):
        source, region = sources[indices[cluster]], regions[cluster]
        return (
            ranks.get(region, len(region_order)),
            region if region not in ranks else "",
            source.lat_deg,
            source.lon_deg,
            indices[cluster],
        )

    width = max(2, len(str(len(indices))))
    records = []
    for ordinal, cluster in enumerate(sorted(range(len(indices)), key=sort_key), start=1):
        records.append(
            SiteRecord(
                site_id=f"{quadrant.letter}{ordinal:0{width}d}",
                cluster=cluster,
                region=regions[cluster],
                source=sources[indices[cluster]],
            )
        )
    return tuple(records)
