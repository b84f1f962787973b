"""Seeded survey inputs for the benchmark workloads.

The generator is the benchmark's own, independent of ``sitepick.synth``, so
no change to the program can change a workload. Every input is a pure
function of its arguments: the same seed gives the same bytes. Alongside
the CSV it returns what the checks need to know about it: the accepted rows
as written, the planted blob count per quadrant and the columns the parser
must report for each planted malformed row.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass, field

HEADER = (
    "participant_id",
    "quadrant",
    "region",
    "latitude_deg",
    "longitude_deg",
    "visit_count_category",
    "avg_duration_min",
    "cadence",
    "rationale",
)
QUADRANTS = (
    ("A", "full of life and exciting"),
    ("B", "chaotic and restless"),
    ("C", "calm and tranquil"),
    ("D", "lifeless and boring"),
)
BRACKETS = (("1 to 3", 1), ("4 to 6", 2), ("7 to 9", 3), ("10 or more", 4))
REGIONS = ("CBD", "Central", "East", "North", "West")
CADENCES = ("daily", "weekly", "monthly", "rarely", "")
RATIONALES = (
    "busy at night",
    "quiet, shaded paths",
    'the "old" market',
    "near home",
    "crowds, noise, traffic",
    "",
)

# Singapore's bounding box in degrees; every sweep point falls inside it.
LAT_RANGE = (1.16, 1.47)
LON_RANGE = (103.60, 104.09)
KM_PER_DEG = 6371.0 * math.pi / 180.0

# Every MALFORMED_EVERY-th data row of the ingest input is malformed.
MALFORMED_EVERY = 100


@dataclass(frozen=True)
class Row:
    """One accepted row, with the exact text written for its numbers."""

    row: int
    participant: str
    letter: str
    region: str
    lat_text: str
    lon_text: str
    factor: int
    minutes_text: str

    @property
    def lat(self) -> float:
        return float(self.lat_text)

    @property
    def lon(self) -> float:
        return float(self.lon_text)

    @property
    def minutes(self) -> float:
        return float(self.minutes_text)


@dataclass
class Survey:
    csv_bytes: bytes
    rows: "dict[int, Row]" = field(default_factory=dict)
    by_quadrant: "dict[str, list[int]]" = field(default_factory=dict)
    planted: "dict[str, int]" = field(default_factory=dict)
    # Row number -> (quadrant the row was meant for, columns the parser must flag).
    malformed: "dict[int, tuple[str, frozenset[str]]]" = field(default_factory=dict)


class _Writer:
    """Accumulates CSV records and numbers them as the parser does (the
    header is row 1)."""

    def __init__(self) -> None:
        self.buffer = io.StringIO()
        self.csv = csv.writer(self.buffer, lineterminator="\n")
        self.csv.writerow(HEADER)
        self.next_row = 2

    def write(self, cells: "list[str]") -> int:
        self.csv.writerow(cells)
        self.next_row += 1
        return self.next_row - 1


def _bracket_text(rng: random.Random, text: str) -> str:
    form = rng.randrange(4)
    if form == 1:
        text += " times"
    elif form == 2:
        text = text.upper() + " TIMES"
    elif form == 3:
        text = "  " + text.replace(" ", "  ") + " "
    return text


def _quadrant_text(rng: random.Random, letter: str, label: str) -> str:
    form = rng.randrange(5)
    return (letter, letter.lower(), label, label.capitalize(), " " + label.upper() + " ")[form]


def _blob_centers(rng: random.Random, count: int) -> "list[tuple[float, float]]":
    """Blob centers on a jittered grid filling the bounding box, at least
    0.7 of a grid cell (about 7.6 km for 15 blobs) apart. The grid keeps
    cells near square at the box's middle latitude, 1.3 degrees."""
    lat_km = (LAT_RANGE[1] - LAT_RANGE[0]) * KM_PER_DEG
    lon_km = (LON_RANGE[1] - LON_RANGE[0]) * KM_PER_DEG * math.cos(math.radians(1.3))
    cols = max(1, round(math.sqrt(count * lon_km / lat_km)))
    rows = math.ceil(count / cols)
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    rng.shuffle(cells)
    centers = []
    for r, c in sorted(cells[:count]):
        lat = LAT_RANGE[0] + (LAT_RANGE[1] - LAT_RANGE[0]) * (r + 0.5 + rng.uniform(-0.15, 0.15)) / rows
        lon = LON_RANGE[0] + (LON_RANGE[1] - LON_RANGE[0]) * (c + 0.5 + rng.uniform(-0.15, 0.15)) / cols
        centers.append((lat, lon))
    return centers


def _blob_point(rng: random.Random, center: "tuple[float, float]", sigma_km: float):
    """Gaussian offset around a blob center, truncated at 3 sigma."""
    while True:
        north, east = rng.gauss(0.0, sigma_km), rng.gauss(0.0, sigma_km)
        if north * north + east * east <= 9.0 * sigma_km * sigma_km:
            break
    lat = center[0] + north / KM_PER_DEG
    lon = center[1] + east / (KM_PER_DEG * math.cos(math.radians(center[0])))
    return f"{lat:.6f}", f"{lon:.6f}"


def clustered_survey(
    seed: int,
    letters: "tuple[str, ...]",
    participants: int,
    blobs: int,
    sigma_km: float = 0.25,
) -> Survey:
    """Planted blobs per quadrant; every participant drops one point in each
    region (``len(REGIONS)`` points per quadrant), each in a random blob of
    that region. Blob i belongs to region i mod len(REGIONS)."""
    rng = random.Random(f"clustered:{seed}")
    labels = dict(QUADRANTS)
    centers = {letter: _blob_centers(rng, blobs) for letter in letters}
    writer = _Writer()
    survey = Survey(b"", by_quadrant={letter: [] for letter in letters})
    for p in range(participants):
        participant = f"P{p + 1:04d}"
        for letter in letters:
            for region_index, region in enumerate(REGIONS):
                own = [b for b in range(blobs) if b % len(REGIONS) == region_index]
                blob = rng.choice(own or range(blobs))
                lat_text, lon_text = _blob_point(rng, centers[letter][blob], sigma_km)
                bracket, factor = rng.choice(BRACKETS)
                minutes_text = f"{rng.uniform(0.0, 8.0):.2f}"
                row = writer.write([
                    participant, _quadrant_text(rng, letter, labels[letter]), region,
                    lat_text, lon_text, _bracket_text(rng, bracket),
                    minutes_text, rng.choice(CADENCES), rng.choice(RATIONALES),
                ])
                survey.rows[row] = Row(row, participant, letter, region, lat_text, lon_text,
                                       factor, minutes_text)
                survey.by_quadrant[letter].append(row)
    survey.planted = {letter: blobs for letter in letters}
    survey.csv_bytes = writer.buffer.getvalue().encode("utf-8")
    return survey


def _malformed(rng: random.Random, kind: int, cells: "list[str]") -> "tuple[list[str], set[str]]":
    """Break one valid record; returns it with the columns the parser must flag."""
    if kind == 0:
        column = rng.choice(("latitude_deg", "longitude_deg", "avg_duration_min"))
        index = HEADER.index(column)
        cells[index] = cells[index][:3] + "x" + cells[index][3:]
        return cells, {column}
    if kind == 1:
        cells[HEADER.index("latitude_deg")] = f"{rng.choice((-1, 1)) * rng.uniform(90.5, 120.0):.6f}"
        return cells, {"latitude_deg"}
    if kind == 2:
        cells[HEADER.index("visit_count_category")] = rng.choice(("11 to 20", "never", "3 to 1"))
        return cells, {"visit_count_category"}
    keep = rng.randrange(3, 7)
    return cells[:keep], set(HEADER[keep:])


def ingest_survey(seed: int, rows_per_quadrant: int) -> Survey:
    """Uniform points over the bounding box, rows_per_quadrant accepted rows
    per quadrant in random quadrant order, with mixed token forms and one
    malformed row in every MALFORMED_EVERY (bad number, latitude out of
    range, unknown bracket, missing cells, in turn)."""
    rng = random.Random(f"ingest:{seed}")
    order = [letter for letter, _ in QUADRANTS for _ in range(rows_per_quadrant)]
    rng.shuffle(order)
    labels = dict(QUADRANTS)
    writer = _Writer()
    survey = Survey(b"", by_quadrant={letter: [] for letter, _ in QUADRANTS})
    data_rows = 0
    kind = 0
    position = 0
    while position < len(order):
        data_rows += 1
        broken = data_rows % MALFORMED_EVERY == 0
        letter = order[position]
        participant = f"P{rng.randrange(1, 100000):05d}"
        region = rng.choice(REGIONS)
        lat_text = f"{rng.uniform(*LAT_RANGE):.6f}"
        lon_text = f"{rng.uniform(*LON_RANGE):.6f}"
        bracket, factor = rng.choice(BRACKETS)
        minutes_text = f"{rng.uniform(0.0, 12.0):.2f}"
        cells = [
            participant, _quadrant_text(rng, letter, labels[letter]), region,
            lat_text, lon_text, _bracket_text(rng, bracket),
            minutes_text, rng.choice(CADENCES), rng.choice(RATIONALES),
        ]
        if broken:
            cells, columns = _malformed(rng, kind, cells)
            kind = (kind + 1) % 4
            row = writer.write(cells)
            survey.malformed[row] = (letter, frozenset(columns))
            continue
        row = writer.write(cells)
        survey.rows[row] = Row(row, participant, letter, region, lat_text, lon_text,
                               factor, minutes_text)
        survey.by_quadrant[letter].append(row)
        position += 1
    survey.csv_bytes = writer.buffer.getvalue().encode("utf-8")
    return survey
