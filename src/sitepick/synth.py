"""Synthetic survey generator for demos and end-to-end tests.

Per quadrant it drops a configurable number of point blobs on a ring around
a city center, perturbs each point with an isotropic Gaussian measured in
km, and fabricates visit categories / dwell times according to a weight
law. Output is a CSV in exactly the shape parse_responses expects, and the
whole thing is a pure function of the SynthSpec, so identical specs always
yield the same bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError
from .geo import EARTH
from .io_pipeline import REQUIRED_COLUMNS, Quadrant, render_csv
from .rng import SplitMix64, derive_seed
from .sites import DEFAULT_REGION_ORDER
from .weighting import FrequencyCategory

WEIGHT_LAWS = ("uniform", "high", "low")

_CATEGORIES = tuple(FrequencyCategory)


@dataclass(frozen=True)
class SynthSpec:
    """Shape of one synthetic survey."""

    blobs: int = 4
    per_blob: int = 12
    spread_km: float = 1.0
    ring_km: float = 20.0
    center_lat_deg: float = 1.3521
    center_lon_deg: float = 103.8198
    weight_law: str = "uniform"
    quadrants: tuple[str, ...] = ("A", "B", "C", "D")
    seed: int = 0

    def __post_init__(self) -> None:
        if self.blobs < 1 or self.per_blob < 1:
            raise ValidationError("blobs and per_blob must be >= 1")
        if not (0.0 <= self.spread_km < math.inf and 0.0 < self.ring_km < math.inf):
            raise ValidationError("spread_km must be finite and >= 0, ring_km finite and > 0")
        if self.weight_law not in WEIGHT_LAWS:
            raise ValidationError(f"weight_law must be one of {WEIGHT_LAWS}")
        Quadrant.from_tokens(self.quadrants)
        if not (-85.0 <= self.center_lat_deg <= 85.0 and math.isfinite(self.center_lon_deg)):
            raise ValidationError("center latitude must lie in [-85, 85] and longitude be finite")


def _offset_deg(lat_deg: float, north_km: float, east_km: float) -> tuple[float, float]:
    """Degrees of latitude/longitude for a small local km offset."""
    dlat = math.degrees(north_km / EARTH.radius_km)
    dlon = math.degrees(east_km / (EARTH.radius_km * math.cos(math.radians(lat_deg))))
    return dlat, dlon


def _visit_profile(law: str, rng: SplitMix64) -> tuple[FrequencyCategory, float]:
    # The sigmoid saturates once frequency * duration exceeds ~6, so draw
    # durations short enough that the weights actually spread over (0.5, 1)
    # instead of piling up at 1.
    if law == "high":
        return FrequencyCategory.TEN_OR_MORE, 60.0 + 120.0 * rng.random()
    if law == "low":
        return FrequencyCategory.ONE_TO_THREE, 0.05 + 0.75 * rng.random()
    category = _CATEGORIES[rng.randrange(len(_CATEGORIES))]
    return category, 0.1 + 3.9 * rng.random()


def synthetic_rows(spec: SynthSpec) -> "list[dict[str, str]]":
    """Row dictionaries keyed by the canonical CSV column names."""
    rows: list[dict[str, str]] = []
    quadrants = Quadrant.from_tokens(spec.quadrants)
    for q_index, quadrant in enumerate(quadrants):
        rotation = 2.0 * math.pi * q_index / (len(quadrants) * spec.blobs)
        for blob in range(spec.blobs):
            rng = SplitMix64(derive_seed(spec.seed, ord(quadrant.letter), blob))
            angle = rotation + 2.0 * math.pi * blob / spec.blobs
            blob_north = spec.ring_km * math.sin(angle)
            blob_east = spec.ring_km * math.cos(angle)
            region = DEFAULT_REGION_ORDER[blob % len(DEFAULT_REGION_ORDER)]
            for i in range(spec.per_blob):
                north = blob_north + spec.spread_km * rng.gauss()
                east = blob_east + spec.spread_km * rng.gauss()
                dlat, dlon = _offset_deg(spec.center_lat_deg, north, east)
                category, duration = _visit_profile(spec.weight_law, rng)
                rows.append(
                    {
                        "participant_id": f"synth-{quadrant.letter}{blob:02d}-{i:03d}",
                        "quadrant": quadrant.letter,
                        "region": region,
                        "latitude_deg": f"{spec.center_lat_deg + dlat:.9f}",
                        "longitude_deg": f"{spec.center_lon_deg + dlon:.9f}",
                        "visit_count_category": category.value,
                        "avg_duration_min": f"{duration:.2f}",
                    }
                )
    return rows


def synthetic_csv(spec: SynthSpec) -> bytes:
    """The survey CSV for a spec; byte-identical for identical specs."""
    rows = [[row[column] for column in REQUIRED_COLUMNS] for row in synthetic_rows(spec)]
    return render_csv([REQUIRED_COLUMNS, *rows])
