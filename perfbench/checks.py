"""Output checks, computed apart from the program.

Every check compares an artifact against the generated input, against the
benchmark's own arithmetic (its own haversine, sigmoid, weighted means and
trapezoid), or against a property the method must have. None compares
against a stored copy of earlier artifacts. Each check function returns,
per quadrant letter, the list of problems found; an empty list means the
quadrant passed.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import numpy as np

from gen import QUADRANTS, Row, Survey

EARTH_RADIUS_KM = 6371.0
# Exported coordinates carry 12 decimals (rounding error <= 5e-13 degrees);
# the program and this module also sum in different orders.
CENTER_TOL_DEG = 2e-12
DISTANCE_TOL_KM = 1e-9
DUNN_REL_TOL = 1e-9
AUC_TOL = 2e-12
_BLOCK = 256
WEIGHTS_HEADER = "source_row,participant_id,quadrant,region,frequency_factor,avg_duration_min,weight"
_WARNING = re.compile(r"^warning: row (\d+), column ([^:]+): ")


def sigmoid_weight(row: Row) -> float:
    return 1.0 / (1.0 + math.exp(-(row.factor * row.minutes)))


def haversine_km(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Great-circle distance in km for radian inputs (arcsine form)."""
    a = np.sin(0.5 * (lat2 - lat1)) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(0.5 * (lon2 - lon1)) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.minimum(a, 1.0)))


def dunn(lat: np.ndarray, lon: np.ndarray, labels: np.ndarray) -> "tuple[float, float, float]":
    """(index, min inter-cluster km, max intra-cluster km), row block by row block."""
    min_inter, max_intra = math.inf, 0.0
    for start in range(0, lat.size, _BLOCK):
        stop = min(start + _BLOCK, lat.size)
        d = haversine_km(lat[start:stop, None], lon[start:stop, None], lat[None, :], lon[None, :])
        same = labels[start:stop, None] == labels[None, :]
        max_intra = max(max_intra, float(np.where(same, d, 0.0).max()))
        min_inter = min(min_inter, float(np.where(same, np.inf, d).min()))
    return min_inter / max_intra, min_inter, max_intra


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _read_csv(path: Path) -> "list[dict[str, str]]":
    with path.open(newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def check_sweep(out_dir: Path, survey: Survey, k_range: "range | None") -> "dict[str, list[str]]":
    """Checks of one `sitepick sweep` output directory, per quadrant.

    k_range is the candidate range the run asked for, or None for the
    default 2..floor(sqrt(n)).
    """
    problems: dict[str, list[str]] = {}
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return {letter: [f"manifest.json: {exc}"] for letter in survey.by_quadrant}
    for letter, rows in survey.by_quadrant.items():
        found: list[str] = []
        try:
            _check_quadrant(out_dir, letter, [survey.rows[r] for r in rows],
                            survey.planted[letter], manifest, k_range, found)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            found.append(f"unreadable artifact: {type(exc).__name__}: {exc}")
        problems[letter] = found
    return problems


def _check_quadrant(out_dir, letter, rows, planted, manifest, k_range, found) -> None:
    summary = manifest["quadrants"][letter]
    k = int(summary["optimal_k"])
    if k != planted:
        found.append(f"optimal_k {k} but {planted} blobs were planted")
        return

    curve = _read_csv(out_dir / f"dunn_curve_{letter}.csv")
    ks = [int(line["k"]) for line in curve]
    expected_ks = list(k_range if k_range is not None else range(2, math.isqrt(len(rows)) + 1))
    if ks != expected_ks:
        found.append(f"dunn curve covers k {ks[:3]}..{ks[-3:]}, expected {expected_ks[0]}..{expected_ks[-1]}")
    scored = [line for line in curve if line["dunn_index"]]
    best = max(scored, key=lambda line: float(line["dunn_index"]))
    if int(best["k"]) != k:
        found.append(f"highest Dunn on the curve is at k={best['k']}, manifest says {k}")
    optimal = next(line for line in curve if int(line["k"]) == k)

    features = json.loads((out_dir / f"clusters_{letter}.geojson").read_text(encoding="utf-8"),
                          parse_float=str)["features"]
    by_role: dict[str, list[dict]] = {"response": [], "center": [], "site": []}
    for feature in features:
        by_role[feature["properties"]["role"]].append(feature)

    responses = by_role["response"]
    if [f["properties"]["source_row"] for f in responses] != [r.row for r in rows]:
        found.append("response features are not the quadrant's input rows in input order")
        return
    for feature, row in zip(responses, rows):
        lon_text, lat_text = feature["geometry"]["coordinates"]
        if (lat_text, lon_text) != (f"{row.lat:.12f}", f"{row.lon:.12f}"):
            found.append(f"row {row.row}: exported degrees {lat_text},{lon_text} differ from the input")
            return
        if feature["properties"]["weight"] != f"{sigmoid_weight(row):.12f}":
            found.append(f"row {row.row}: weight {feature['properties']['weight']} is not sigma(f*t)")
            return
    labels = np.array([int(f["properties"]["cluster"]) for f in responses])
    if sorted(set(labels.tolist())) != list(range(k)):
        found.append(f"labels do not cover clusters 0..{k - 1}")
        return
    lat = np.radians([r.lat for r in rows])
    lon = np.radians([r.lon for r in rows])
    weights = np.array([sigmoid_weight(r) for r in rows])

    centers = sorted(by_role["center"], key=lambda f: int(f["properties"]["cluster"]))
    if [int(f["properties"]["cluster"]) for f in centers] != list(range(k)):
        found.append(f"center features are not one per cluster 0..{k - 1}")
        return
    center_deg = np.array([[float(c) for c in reversed(f["geometry"]["coordinates"])] for f in centers])
    for j in range(k):
        members = labels == j
        w = weights[members]
        mean = [math.degrees(math.fsum(w * axis[members]) / math.fsum(w)) for axis in (lat, lon)]
        if max(abs(mean[0] - center_deg[j, 0]), abs(mean[1] - center_deg[j, 1])) > CENTER_TOL_DEG:
            found.append(f"center {j} is not the weighted mean of its members")
            return
    center_lat, center_lon = np.radians(center_deg[:, 0]), np.radians(center_deg[:, 1])
    to_centers = haversine_km(lat[:, None], lon[:, None], center_lat[None, :], center_lon[None, :])
    own = to_centers[np.arange(labels.size), labels]
    misplaced = int(np.sum(own > to_centers.min(axis=1) + DISTANCE_TOL_KM))
    if misplaced:
        found.append(f"{misplaced} points are nearer another center than their own")
        return

    value, min_inter, max_intra = dunn(lat, lon, labels)
    reported = [float(optimal[c]) for c in ("dunn_index", "min_inter_km", "max_intra_km")]
    if not all(_close(a, b, DUNN_REL_TOL) for a, b in zip(reported, (value, min_inter, max_intra))):
        found.append(f"Dunn {reported} at k={k} differs from the labels' own {value, min_inter, max_intra}")

    by_row = {r.row: (i, r) for i, r in enumerate(rows)}
    site_rows = _read_csv(out_dir / f"sites_{letter}.csv")
    if [s["ID"] for s in site_rows] != [f"{letter}{i:02d}" for i in range(1, k + 1)]:
        found.append(f"site IDs are not {letter}01..{letter}{k:02d}")
    site_features = by_role["site"]
    if sorted(int(f["properties"]["cluster"]) for f in site_features) != list(range(k)):
        found.append("sites are not exactly one per cluster")
        return
    if sorted(int(s["SourceRow"]) for s in site_rows) != sorted(
            int(f["properties"]["source_row"]) for f in site_features):
        found.append("sites table and geojson name different source rows")
        return
    for site in site_rows:
        source = int(site["SourceRow"])
        if source not in by_row:
            found.append(f"site {site['ID']} names row {source}, not an input row of this quadrant")
            continue
        row = by_row[source][1]
        if (site["Latitude_deg"], site["Longitude_deg"], site["Region"]) != (
                f"{row.lat:.9f}", f"{row.lon:.9f}", row.region):
            found.append(f"site {site['ID']} is not verbatim input row {source}")
    for feature in site_features:
        cluster = int(feature["properties"]["cluster"])
        index = by_row[int(feature["properties"]["source_row"])][0]
        if labels[index] != cluster:
            found.append(f"site of cluster {cluster} is a member of cluster {labels[index]}")
        elif own[index] > own[labels == cluster].min() + DISTANCE_TOL_KM:
            found.append(f"site of cluster {cluster} is not its member nearest the center")


def check_ingest(out_dir: Path, stderr_text: str, survey: Survey) -> "dict[str, list[str]]":
    """Checks of one `sitepick weights` output directory and its stderr."""
    problems: dict[str, list[str]] = {letter: [] for letter, _ in QUADRANTS}

    reported: dict[int, set[str]] = {}
    for line in stderr_text.splitlines():
        match = _WARNING.match(line)
        if match:
            reported.setdefault(int(match.group(1)), set()).add(match.group(2))
    for row in sorted(set(reported) | set(survey.malformed)):
        letter, columns = survey.malformed.get(row, (None, frozenset()))
        if letter is None and row in survey.rows:
            letter = survey.rows[row].letter
        if reported.get(row, set()) != columns:
            message = f"row {row}: stderr flags {sorted(reported.get(row, ()))}, planted {sorted(columns)}"
            for target in [letter] if letter else problems:
                problems[target].append(message)

    try:
        weight_lines = (out_dir / "weights.csv").read_text(encoding="utf-8").splitlines()
        summary = {line["quadrant"]: line for line in _read_csv(out_dir / "auc_summary.csv")}
    except (OSError, ValueError) as exc:
        return {letter: found + [f"unreadable artifact: {exc}"] for letter, found in problems.items()}
    got: dict[str, list[str]] = {letter: [] for letter in problems}
    for line in weight_lines[1:]:
        fields = line.split(",")
        got.setdefault(fields[2] if len(fields) > 2 else "?", []).append(line)
    stray = sorted(set(got) - set(problems))
    for letter, found in problems.items():
        if stray:
            found.append(f"weights.csv has lines for unknown quadrants {stray}")
        rows = [survey.rows[r] for r in survey.by_quadrant[letter]]
        weights = [sigmoid_weight(r) for r in rows]
        expected = [
            f"{r.row},{r.participant},{letter},{r.region},{r.factor},{r.minutes:.6f},{w:.12f}"
            for r, w in zip(rows, weights)
        ]
        lines = got[letter]
        if [line.split(",", 1)[0] for line in lines] != [str(r.row) for r in rows]:
            found.append(f"weights.csv holds {len(lines)} rows, not the {len(rows)} accepted rows in order")
        else:
            wrong = [e for e, g in zip(expected, lines) if e != g]
            if wrong:
                found.append(f"{len(wrong)} weights.csv lines differ, first expected {wrong[0]!r}")
        line = summary.get(letter)
        ordered = sorted(weights)
        auc = (0.5 * (ordered[0] + ordered[-1]) + math.fsum(ordered[1:-1])) / (len(ordered) - 1)
        if line is None or int(line["n_points"]) != len(rows) or abs(float(line["auc"]) - auc) > AUC_TOL:
            found.append(f"auc_summary.csv line {line} does not match n={len(rows)} auc={auc:.12f}")
    if weight_lines[:1] != [WEIGHTS_HEADER]:
        for found in problems.values():
            found.append("weights.csv header changed")
    return problems
