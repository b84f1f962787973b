"""Reliability-weighted clustering of survey locations into recommended sites."""

__version__ = "0.1.0"

from .clustering import (
    ClusteringResult,
    DistanceMetric,
    HaversineMetric,
    PlanarMetric,
    kmeans,
    weighted_center,
)
from .errors import (
    ConfigError,
    DegenerateClusteringError,
    EmptyClusterError,
    ParseError,
    SitepickError,
    SweepError,
    ValidationError,
)
from .geo import (
    EARTH,
    EarthModel,
    GeoPoint,
    coords_array,
    from_degrees,
    haversine,
    haversine_km,
)
from .io_pipeline import (
    ParseResult,
    Quadrant,
    QuadrantPoints,
    QuadrantSummary,
    RowDiagnostic,
    SurveyResponse,
    build_weighted_points,
    export_dunn_curve,
    export_geojson,
    export_site_table,
    parse_responses,
    sha256_digest,
)
from .model_selection import DunnScore, KBest, SweepResult, default_k_max, dunn_index, sweep
from .rng import SplitMix64, derive_seed, mix64
from .sites import (
    DEFAULT_REGION_ORDER,
    SiteRecord,
    assign_site_ids,
    select_representatives,
)
from .weighting import (
    FrequencyCategory,
    frequency_weight,
    reliability_auc,
    reliability_weight,
    reliability_weights,
)
