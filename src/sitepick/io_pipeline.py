"""Survey CSV parsing, per-quadrant weighting, and artifact export.

Parsing is diagnostic-first: a malformed row is reported with its row number
and column and skipped, it never aborts the run unless strict mode is on.
Accepted rows are kept as columns, one list per field; a SurveyResponse per
row is built only when a caller first asks for ParseResult.responses.
Each quadrant's points are one QuadrantPoints, built once and read by the
sweep, site selection and every export.
Exporters render floats themselves (fixed decimal places) so artifacts are
byte-identical across reruns, platforms and worker counts; json.dumps float
formatting is avoided everywhere coordinates appear. Outside 0.1-1e5 km the
dunn_curve km cells take the shortest text that reads back as the same float.
export_manifest writes the settings the CLI picks, and quadrant summaries.
"""

from __future__ import annotations

import csv
import enum
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .errors import ParseError, ConfigError, ValidationError
from .geo import coords_array, from_degrees
from .model_selection import KBest, SweepResult
from .sites import SiteRecord
from .weighting import FrequencyCategory, frequency_weight, reliability_weight


class Quadrant(enum.Enum):
    """The four mood quadrants responses are collected under."""

    FULL_OF_LIFE_EXCITING = ("A", "full of life and exciting")
    CHAOTIC_RESTLESS = ("B", "chaotic and restless")
    CALM_TRANQUIL = ("C", "calm and tranquil")
    LIFELESS_BORING = ("D", "lifeless and boring")

    @property
    def letter(self) -> str:
        return self.value[0]

    @property
    def label(self) -> str:
        return self.value[1]

    @classmethod
    def from_token(cls, token: str) -> "Quadrant":
        """Resolve a quadrant from its letter or its descriptive label."""
        quadrant = _QUADRANT_BY_TOKEN.get(" ".join(token.split()).casefold())
        if quadrant is None:
            raise ValidationError(f"unknown quadrant {token!r}")
        return quadrant

    @classmethod
    def from_tokens(cls, tokens: Iterable[str]) -> "tuple[Quadrant, ...]":
        """Resolve a list of quadrants, each token as `from_token` takes it;
        the list must name at least one quadrant and none twice."""
        quadrants = tuple(map(cls.from_token, tokens))
        if not quadrants:
            raise ValidationError("quadrants must name at least one quadrant")
        for i, quadrant in enumerate(quadrants):
            if quadrant in quadrants[:i]:
                raise ValidationError(f"quadrant {quadrant.letter} is named twice")
        return quadrants


_QUADRANT_BY_TOKEN = {
    token: quadrant for quadrant in Quadrant for token in (quadrant.letter.casefold(), quadrant.label)
}


REQUIRED_COLUMNS = (
    "participant_id",
    "quadrant",
    "region",
    "latitude_deg",
    "longitude_deg",
    "visit_count_category",
    "avg_duration_min",
)
OPTIONAL_COLUMNS = ("cadence", "rationale")


@dataclass(frozen=True, slots=True)
class SurveyResponse:
    """One accepted survey row."""

    participant_id: str
    quadrant: Quadrant
    region: str
    lat_deg: float
    lon_deg: float
    visit_count_category: FrequencyCategory
    avg_duration_min: float
    row: int
    cadence: Optional[str] = None
    rationale: Optional[str] = None


@dataclass(frozen=True)
class RowDiagnostic:
    """A problem found in one cell; the row it points at was skipped."""

    row: int
    column: str
    message: str

    def __str__(self) -> str:
        return f"row {self.row}, column {self.column}: {self.message}"


@dataclass
class ParseResult:
    """A parsed survey: its diagnostics, its count of non-blank data rows, and
    its accepted rows as aligned columns in input order, one entry per row.
    Each column holds what the SurveyResponse field of the same meaning
    holds; `responses` is the same rows as SurveyResponse objects."""

    diagnostics: "list[RowDiagnostic]"
    total_rows: int
    rows: "list[int]" = field(default_factory=list)
    participant_ids: "list[str]" = field(default_factory=list)
    quadrants: "list[Quadrant]" = field(default_factory=list)
    regions: "list[str]" = field(default_factory=list)
    lat_deg: "list[float]" = field(default_factory=list)
    lon_deg: "list[float]" = field(default_factory=list)
    categories: "list[FrequencyCategory]" = field(default_factory=list)
    durations_min: "list[float]" = field(default_factory=list)
    cadences: "list[Optional[str]]" = field(default_factory=list)
    rationales: "list[Optional[str]]" = field(default_factory=list)

    @property
    def accepted(self) -> int:
        return len(self.rows)

    @cached_property
    def responses(self) -> "list[SurveyResponse]":
        """One SurveyResponse per accepted row, built on first access and
        kept: every later access returns the same list."""
        return list(map(
            SurveyResponse, self.participant_ids, self.quadrants, self.regions, self.lat_deg,
            self.lon_deg, self.categories, self.durations_min, self.rows, self.cadences,
            self.rationales,
        ))


def parse_key_values(text: str) -> "dict[str, str]":
    """Parse "key = value" lines; blank lines and #-comments are ignored."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value.strip()
    return values


_CATEGORY_BY_TOKEN = {c.value: c for c in FrequencyCategory}


def _parse_category(token: str) -> FrequencyCategory:
    cleaned = " ".join(token.split()).casefold()
    if cleaned.endswith(" times"):
        cleaned = cleaned[: -len(" times")]
    category = _CATEGORY_BY_TOKEN.get(cleaned)
    if category is None:
        expected = ", ".join(repr(c.value) for c in FrequencyCategory)
        raise ValidationError(f"expected one of {expected}, got {token!r}")
    return category


_MISSING = "missing value"


def _lines(text: str) -> Iterator[str]:
    """text's lines, each ending at and keeping its "\\n": what io.StringIO(text)
    yields, without StringIO's copy of the whole text."""
    start = 0
    while (end := text.find("\n", start) + 1) > 0:
        yield text[start:end]
        start = end
    if start < len(text):
        yield text[start:]


def _records(reader) -> Iterator[list[str]]:
    """reader's records, with a csv.Error raised as a ParseError naming the line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(f"input is not valid CSV on line {reader.line_num}: {exc}") from None


def _number(raw: Optional[str]) -> "float | str":
    """The finite float a cell holds, or the diagnostic message for the cell.

    A number is ASCII text without underscores: float() alone would also read
    "1_0" as 10 and non-ASCII digits such as "١٢". "-0" reads as 0.0.
    """
    if raw is None:
        return _MISSING
    if "_" in raw or not raw.isascii():
        return f"not a number: {raw!r}"
    try:
        value = float(raw)
    except ValueError:
        return f"not a number: {raw!r}"
    # Adding 0.0 turns -0.0 into 0.0 and keeps every other finite value.
    return value + 0.0 if math.isfinite(value) else f"not finite: {raw!r}"


def _remember(memo: dict, parse: Callable[[str], object], raw: str) -> object:
    """parse(raw), or the text of the ValidationError it raises, kept in memo."""
    try:
        memo[raw] = parse(raw)
    except ValidationError as exc:
        memo[raw] = str(exc)
    return memo[raw]


def parse_responses(
    data: "bytes | str",
    column_map: Mapping[str, str] | None = None,
    strict: bool = False,
) -> ParseResult:
    """Parse survey CSV bytes into columns of accepted rows plus per-row
    diagnostics.

    column_map renames canonical columns to whatever the file actually uses
    (e.g. {"latitude_deg": "lat"}); a key that names no canonical column, or
    two canonical columns read from one file column, is a ConfigError. A
    missing required column, or a column read here that the header names
    twice, is a file-level ParseError.
    Cell-level problems become diagnostics naming the row and the column as
    it appears in the file; with strict=True any diagnostic is escalated to a
    ParseError after the whole file is read.
    """
    columns = REQUIRED_COLUMNS + OPTIONAL_COLUMNS
    column_map = column_map or {}
    for key in column_map:
        if key not in columns:
            raise ConfigError(f"unknown column map key {key!r} (known: {', '.join(columns)})")
    actual = {c: column_map.get(c, c) for c in columns}
    owner: dict = {}
    for canonical, name in actual.items():
        if owner.setdefault(name, canonical) != canonical:
            raise ConfigError(f"column map reads {owner[name]!r} and {canonical!r} from {name!r}")
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            line = exc.object[: exc.start].count(b"\n") + 1
            raise ParseError(
                f"input is not UTF-8 text: byte 0x{exc.object[exc.start]:02x} on line {line}"
            ) from None
    else:
        text = data
    reader = _records(csv.reader(_lines(text)))
    header = next(reader, None)
    if header is None:
        raise ParseError("input has no header row")
    names = [cell.strip() for cell in header]
    position = {name: i for i, name in enumerate(names)}
    for canonical, name in actual.items():
        if name in position and names.index(name) != position[name]:
            raise ParseError(f"column {name!r} appears more than once in the header")
        if name not in position and canonical in REQUIRED_COLUMNS:
            raise ParseError(f"required column {name!r} not found in header")
    at = [position.get(name) for name in actual.values()]
    (participant_at, quadrant_at, region_at, lat_at, lon_at, category_at, duration_at,
     cadence_at, rationale_at) = at
    width = 1 + max(i for i in at if i is not None)

    # Raw token -> its Quadrant / FrequencyCategory, or its diagnostic message.
    quadrant_memo: dict = {None: _MISSING}
    category_memo: dict = {None: _MISSING}
    result = ParseResult(diagnostics=[], total_rows=0)
    diagnostics = result.diagnostics
    total = 0
    # Cells are checked in canonical column order; a row cut short is padded
    # with None, so its "missing value" diagnostics interleave in that order.
    for row, cells in enumerate(reader, start=2):
        if not "".join(cells).strip():
            continue
        total += 1
        if len(cells) < width:
            cells += [None] * (width - len(cells))
        reported = len(diagnostics)

        participant = (cells[participant_at] or "").strip()
        if not participant:
            diagnostics.append(RowDiagnostic(row, actual["participant_id"], _MISSING))
        raw = cells[quadrant_at]
        quadrant = quadrant_memo.get(raw) or _remember(quadrant_memo, Quadrant.from_token, raw)
        if type(quadrant) is str:
            diagnostics.append(RowDiagnostic(row, actual["quadrant"], quadrant))
        region = (cells[region_at] or "").strip()
        if not region:
            diagnostics.append(RowDiagnostic(row, actual["region"], _MISSING))
        lat = _number(cells[lat_at])
        if type(lat) is str:
            diagnostics.append(RowDiagnostic(row, actual["latitude_deg"], lat))
        elif not -90.0 <= lat <= 90.0:
            diagnostics.append(
                RowDiagnostic(row, actual["latitude_deg"], f"latitude {lat} outside [-90, 90]")
            )
        lon = _number(cells[lon_at])
        if type(lon) is str:
            diagnostics.append(RowDiagnostic(row, actual["longitude_deg"], lon))
        raw = cells[category_at]
        category = category_memo.get(raw) or _remember(category_memo, _parse_category, raw)
        if type(category) is str:
            diagnostics.append(RowDiagnostic(row, actual["visit_count_category"], category))
        duration = _number(cells[duration_at])
        if type(duration) is str:
            diagnostics.append(RowDiagnostic(row, actual["avg_duration_min"], duration))
        elif duration < 0.0:
            diagnostics.append(
                RowDiagnostic(row, actual["avg_duration_min"], f"negative duration {duration}")
            )
        cadence = rationale = None
        if cadence_at is not None:
            cadence = cells[cadence_at]
            if cadence is None:
                diagnostics.append(RowDiagnostic(row, actual["cadence"], _MISSING))
        if rationale_at is not None:
            rationale = cells[rationale_at]
            if rationale is None:
                diagnostics.append(RowDiagnostic(row, actual["rationale"], _MISSING))

        if len(diagnostics) > reported:
            continue
        result.rows.append(row)
        result.participant_ids.append(participant)
        result.quadrants.append(quadrant)
        result.regions.append(region)
        result.lat_deg.append(lat)
        result.lon_deg.append(lon)
        result.categories.append(category)
        result.durations_min.append(duration)
        result.cadences.append(cadence.strip() if cadence is not None else None)
        result.rationales.append(rationale.strip() if rationale is not None else None)

    if strict and diagnostics:
        raise ParseError(
            f"{len(diagnostics)} problem(s) in strict mode; first: {diagnostics[0]}"
        )
    result.total_rows = total
    return result


@dataclass(frozen=True, eq=False)
class QuadrantPoints:
    """One quadrant's accepted responses in input order, with the aligned
    (n, 2) [lat, lon] radian coordinates and float64 reliability weights
    that clustering reads. Exports take degrees, regions and source rows
    from the responses, so they never round-trip through radians."""

    responses: tuple[SurveyResponse, ...]
    coords: np.ndarray
    weights: np.ndarray


def build_weighted_points(
    responses: Sequence[SurveyResponse], quadrant: Quadrant
) -> QuadrantPoints:
    """The quadrant's responses, coordinates and weights, in response order."""
    chosen = tuple(r for r in responses if r.quadrant is quadrant)
    weights = [
        reliability_weight(frequency_weight(r.visit_count_category), r.avg_duration_min)
        for r in chosen
    ]
    return QuadrantPoints(
        responses=chosen,
        coords=coords_array([from_degrees(r.lat_deg, r.lon_deg) for r in chosen]),
        weights=np.array(weights, dtype=np.float64),
    )


def sha256_digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def csv_field(text: str) -> str:
    """text as one CSV field: quoted, inner quotes doubled, when it holds a
    comma, a quote, a CR or a LF; otherwise unchanged."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def render_csv(rows: Iterable[Sequence[str]]) -> bytes:
    """UTF-8 CSV of rows of text, fields quoted by `csv_field`, lines ending in
    "\n": csv.writer(lineterminator="\n")'s bytes for text without a CR,
    which that writer leaves unquoted. A lone empty field is written as ""."""
    lines = [",".join(map(csv_field, row)) or '""' * len(row) for row in rows]
    return "".join(line + "\n" for line in lines).encode("utf-8")


def _fixed(value: float, places: int = 12) -> str:
    return f"{value:.{places}f}"


def _km(value: float) -> str:
    """12 to 17 significant digits at any accepted earth radius: 12 fixed
    decimals from 0.1 up to 1e5 km (and 0), else the shortest round-trip text."""
    return _fixed(value) if value == 0.0 or 0.1 <= value < 1e5 else repr(float(value))


def _feature(lon_deg: float, lat_deg: float, properties: "list[tuple[str, str]]") -> str:
    body = ", ".join(f"{json.dumps(key)}: {rendered}" for key, rendered in properties)
    return (
        '{"type": "Feature", "geometry": {"type": "Point", "coordinates": ['
        + _fixed(lon_deg)
        + ", "
        + _fixed(lat_deg)
        + ']}, "properties": {'
        + body
        + "}}"
    )


def export_geojson(points: QuadrantPoints, best: KBest, sites: "tuple[SiteRecord, ...]") -> bytes:
    """One FeatureCollection holding responses, centers and sites.

    Coordinates are [lon, lat] in degrees with 12 fixed decimal places.
    Response features carry their original parsed degrees; only center
    features are converted from radians, since centers exist nowhere else.
    """
    labels = best.labels
    if len(points.responses) != labels.size:
        raise ValidationError(f"{len(points.responses)} points but {labels.size} labels")
    if len(sites) != len(best.centers):
        raise ValidationError(f"{len(sites)} site records for k={len(best.centers)}")
    features: list[str] = []
    for index, (response, weight) in enumerate(zip(points.responses, points.weights.tolist())):
        features.append(
            _feature(
                response.lon_deg,
                response.lat_deg,
                [
                    ("role", json.dumps("response")),
                    ("cluster", str(int(labels[index]))),
                    ("weight", _fixed(weight)),
                    ("region", json.dumps(response.region)),
                    ("source_row", str(response.row)),
                ],
            )
        )
    for cluster, (lat, lon) in enumerate(best.centers.tolist()):
        features.append(
            _feature(
                math.degrees(lon),
                math.degrees(lat),
                [("role", json.dumps("center")), ("cluster", str(cluster))],
            )
        )
    for record in sites:
        features.append(
            _feature(
                record.source.lon_deg,
                record.source.lat_deg,
                [
                    ("role", json.dumps("site")),
                    ("cluster", str(record.cluster)),
                    ("site_id", json.dumps(record.site_id)),
                    ("region", json.dumps(record.region)),
                    ("source_row", str(record.source.row)),
                ],
            )
        )
    document = (
        '{"type": "FeatureCollection", "features": [\n'
        + ",\n".join(features)
        + "\n]}\n"
    )
    return document.encode("utf-8")


def export_site_table(sites: "tuple[SiteRecord, ...]") -> bytes:
    """Site CSV with degree coordinates printed to 9 decimal places."""
    rows = [["ID", "Region", "Latitude_deg", "Longitude_deg", "SourceRow"]]
    for record in sites:
        rows.append(
            [
                record.site_id,
                record.region,
                _fixed(record.source.lat_deg, 9),
                _fixed(record.source.lon_deg, 9),
                str(record.source.row),
            ]
        )
    return render_csv(rows)


def export_dunn_curve(result: SweepResult) -> bytes:
    """Per-k sweep curve CSV; a k whose runs all degenerated leaves its
    score cells empty."""
    rows = [["k", "best_run", "best_seed", "dunn_index", "min_inter_km", "max_intra_km"]]
    for k, best in result.per_k.items():
        if best is None:
            rows.append([str(k), "", "", "", "", ""])
        else:
            rows.append(
                [
                    str(k),
                    str(best.run_index),
                    str(best.seed),
                    _fixed(best.dunn.value),
                    _km(best.dunn.min_inter_km),
                    _km(best.dunn.max_intra_km),
                ]
            )
    return render_csv(rows)


@dataclass(frozen=True)
class QuadrantSummary:
    label: str
    n_points: int
    auc: float
    k_max: int
    optimal_k: int
    best_dunn: float
    min_inter_km: float
    max_intra_km: float
    sites: int


def export_manifest(
    settings: "Mapping[str, object]", quadrants: "Mapping[str, QuadrantSummary]"
) -> bytes:
    """manifest.json: the run's settings, with each quadrant's summary under
    "quadrants", as JSON with sorted keys. The caller leaves out timestamps,
    hostnames, paths and anything else that changes no artifact byte."""
    payload = {**settings, "quadrants": {letter: asdict(s) for letter, s in quadrants.items()}}
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
