"""Parsing and export tests.

Export assertions check raw bytes, not parsed structures, because the
artifact contract is byte-stability across reruns and platforms.
"""

import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sitepick.errors import ConfigError, ParseError, ValidationError
from sitepick.geo import coords_array, from_degrees
from sitepick.io_pipeline import (
    Quadrant,
    QuadrantSummary,
    SurveyResponse,
    _lines,
    build_weighted_points,
    export_dunn_curve,
    export_geojson,
    export_manifest,
    export_site_table,
    parse_key_values,
    parse_responses,
    render_csv,
    sha256_digest,
)
from sitepick.model_selection import sweep
from sitepick.sites import assign_site_ids, select_representatives
from sitepick.weighting import FrequencyCategory, reliability_weight

HEADER = (
    "participant_id,quadrant,region,latitude_deg,longitude_deg,"
    "visit_count_category,avg_duration_min"
)

SIX_ROWS = "\n".join(
    [
        HEADER,
        "p1,A,CBD,1.291598203,103.84653,10 or more,30",
        "p2,A,CBD,1.292,103.847,4 to 6,12.5",
        "p3,A,East,1.35,103.94,1 to 3,5",
        "p4,A,East,1.351,103.941,7 to 9,45",
        "p5,A,West,1.33,103.70,4 to 6,20",
        "p6,B,CBD,1.30,103.85,1 to 3,8",
        "",
    ]
)


def parse(text, **kwargs):
    return parse_responses(text.encode("utf-8"), **kwargs)


# --- parsing ---


def test_parse_example_row():
    result = parse(SIX_ROWS)
    assert result.total_rows == 6
    assert result.accepted == 6
    assert result.diagnostics == []
    first = result.responses[0]
    assert first.participant_id == "p1"
    assert first.quadrant is Quadrant.FULL_OF_LIFE_EXCITING
    assert first.region == "CBD"
    assert first.lat_deg == 1.291598203
    assert first.lon_deg == 103.84653
    assert first.visit_count_category is FrequencyCategory.TEN_OR_MORE
    assert first.avg_duration_min == 30.0
    assert first.row == 2
    assert first.cadence is None


def test_parse_quadrant_tokens_are_flexible():
    rows = "\n".join(
        [
            HEADER,
            "p1,a,CBD,1.0,103.0,1 to 3,5",
            "p2,FULL of life AND exciting,CBD,1.0,103.0,1 to 3,5",
            "p3,Calm and Tranquil,CBD,1.0,103.0,1 to 3,5",
        ]
    )
    result = parse(rows)
    assert [r.quadrant for r in result.responses] == [
        Quadrant.FULL_OF_LIFE_EXCITING,
        Quadrant.FULL_OF_LIFE_EXCITING,
        Quadrant.CALM_TRANQUIL,
    ]


def test_a_quadrant_list_takes_each_token_as_a_csv_cell_does():
    assert Quadrant.from_tokens(["c", " Full of  LIFE and exciting", "B"]) == (
        Quadrant.CALM_TRANQUIL, Quadrant.FULL_OF_LIFE_EXCITING, Quadrant.CHAOTIC_RESTLESS
    )


@pytest.mark.parametrize("tokens, message", [
    (["A", "E"], "unknown quadrant 'E'"),
    ([], "quadrants must name at least one quadrant"),
    (["A", "A"], "quadrant A is named twice"),
    (["A", "a"], "quadrant A is named twice"),
    (["C", "calm and tranquil"], "quadrant C is named twice"),
])
def test_a_quadrant_list_that_is_empty_or_names_a_quadrant_twice_is_rejected(tokens, message):
    with pytest.raises(ValidationError) as excinfo:
        Quadrant.from_tokens(tokens)
    assert str(excinfo.value) == message


def test_parse_category_tokens_are_flexible():
    rows = "\n".join(
        [
            HEADER,
            "p1,A,CBD,1.0,103.0,4 to 6 times,5",
            "p2,A,CBD,1.0,103.0,10 OR MORE,5",
            "p3,A,CBD,1.0,103.0,7  to  9,5",
        ]
    )
    result = parse(rows)
    assert [r.visit_count_category for r in result.responses] == [
        FrequencyCategory.FOUR_TO_SIX,
        FrequencyCategory.TEN_OR_MORE,
        FrequencyCategory.SEVEN_TO_NINE,
    ]


def test_parse_flags_bad_cells_and_skips_the_row():
    rows = "\n".join(
        [
            HEADER,
            "p1,A,CBD,91.0,103.0,1 to 3,5",
            "p2,E,CBD,1.0,103.0,1 to 3,5",
            "p3,A,CBD,1.0,103.0,weekly,5",
            "p4,A,CBD,1.0,103.0,1 to 3,-4",
            "p5,A,CBD,abc,103.0,1 to 3,5",
            "p6,A,CBD,1.0,103.0,1 to 3,5",
        ]
    )
    result = parse(rows)
    assert result.total_rows == 6
    assert result.accepted == 1
    assert len(result.diagnostics) == 5
    by_row = {d.row: d for d in result.diagnostics}
    assert by_row[2].column == "latitude_deg"
    assert "91" in by_row[2].message
    assert by_row[3].column == "quadrant"
    assert by_row[4].column == "visit_count_category"
    assert by_row[5].column == "avg_duration_min"
    assert by_row[6].column == "latitude_deg"
    assert "not a number" in by_row[6].message
    assert str(by_row[2]) == f"row 2, column latitude_deg: {by_row[2].message}"


def test_parse_short_row_reports_every_missing_cell():
    result = parse(HEADER + "\np1,A,CBD")
    assert result.accepted == 0
    assert result.total_rows == 1
    assert {d.message for d in result.diagnostics} == {"missing value"}
    assert {d.column for d in result.diagnostics} == {
        "latitude_deg",
        "longitude_deg",
        "visit_count_category",
        "avg_duration_min",
    }


def test_parse_empty_or_blank_id_and_region_are_missing_values():
    result = parse("\n".join([
        HEADER,
        ",A,,1.3,103.8,1 to 3,5",
        "p2,A,  ,1.31,103.81,1 to 3,5",
        " \t ,A,CBD,1.32,103.82,1 to 3,5",
        " p4 ,A, East ,1.33,103.83,1 to 3,5",
    ]))
    assert [(d.row, d.column, d.message) for d in result.diagnostics] == [
        (2, "participant_id", "missing value"),
        (2, "region", "missing value"),
        (3, "region", "missing value"),
        (4, "participant_id", "missing value"),
    ]
    assert result.total_rows == 4
    assert (result.rows, result.participant_ids, result.regions) == ([5], ["p4"], ["East"])


def test_parse_blank_rows_are_not_counted_but_keep_numbering():
    rows = HEADER + "\np1,A,CBD,1.0,103.0,1 to 3,5\n,,,\np2,A,CBD,1.1,103.1,1 to 3,5\n"
    result = parse(rows)
    assert result.total_rows == 2
    assert [r.row for r in result.responses] == [2, 4]


def test_parse_header_only_and_empty_input():
    result = parse(HEADER)
    assert result.accepted == 0 and result.total_rows == 0 and result.diagnostics == []
    with pytest.raises(ParseError, match="header"):
        parse("")


def test_parse_missing_required_column():
    with pytest.raises(ParseError, match="latitude_deg"):
        parse("participant_id,quadrant,region,longitude_deg,visit_count_category,avg_duration_min\n")


def test_parse_column_map_renames_and_names_actual_header():
    rows = "\n".join(
        [
            "participant_id,quadrant,region,lat,lng,visit_count_category,avg_duration_min",
            "p1,A,CBD,1.291598203,103.84653,10 or more,30",
            "p2,A,CBD,bogus,103.8,1 to 3,5",
        ]
    )
    column_map = {"latitude_deg": "lat", "longitude_deg": "lng"}
    result = parse(rows, column_map=column_map)
    assert result.accepted == 1
    assert result.responses[0].lat_deg == 1.291598203
    assert result.diagnostics[0].column == "lat"
    # Without the map the renamed column is simply missing.
    with pytest.raises(ParseError, match="'latitude_deg'"):
        parse(rows)


@pytest.mark.parametrize(
    "header",
    [HEADER + ",latitude_deg", "latitude_deg," + HEADER, HEADER + ",cadence,cadence"],
    ids=["required-last", "required-first", "optional"],
)
def test_parse_rejects_a_column_it_reads_named_twice(header):
    with pytest.raises(ParseError, match=r"column '\w+' appears more than once in the header"):
        parse(header + "\n" + "p1,A,CBD,1.0,103.0,1 to 3,5,45.0,x\n")


def test_parse_allows_a_column_it_does_not_read_named_twice():
    result = parse(HEADER + ",note,note\np1,A,CBD,1.0,103.0,1 to 3,5,a,b\n")
    assert result.accepted == 1 and result.responses[0].lat_deg == 1.0


@pytest.mark.parametrize(
    "column_map, message",
    [
        ({"latitude_deg": "lat", "longitude_deg": "lat"}, "'latitude_deg' and 'longitude_deg' from 'lat'"),
        ({"latitude_deg": "longitude_deg"}, "'latitude_deg' and 'longitude_deg' from 'longitude_deg'"),
        ({"cadence": "note", "rationale": "note"}, "'cadence' and 'rationale' from 'note'"),
    ],
)
def test_parse_rejects_a_column_map_that_reads_one_column_twice(column_map, message):
    with pytest.raises(ConfigError, match=f"column map reads {message}$"):
        parse(SIX_ROWS, column_map=column_map)


@pytest.mark.parametrize("key", ["latitude", "cadnce", "Latitude_deg"])
def test_parse_rejects_a_column_map_key_that_names_no_column(key):
    with pytest.raises(ConfigError, match=f"unknown column map key {key!r} "):
        parse(SIX_ROWS, column_map={key: "latitude_deg"})


def test_parse_strict_escalates_after_full_read():
    rows = HEADER + "\np1,A,CBD,91.0,103.0,1 to 3,5\n"
    with pytest.raises(ParseError, match="strict"):
        parse(rows, strict=True)
    assert parse(rows).accepted == 0  # non-strict just skips


def test_parse_handles_utf8_bom():
    data = b"\xef\xbb\xbf" + SIX_ROWS.encode("utf-8")
    assert parse_responses(data).accepted == 6


def test_parse_strips_a_bom_from_text_as_from_bytes():
    # A CSV that Excel exported, read with encoding="utf-8", starts with U+FEFF.
    text = "\ufeff" + SIX_ROWS + "p7,Z,CBD,1.3,103.8,1 to 3,5\n"
    from_text = parse_responses(text)
    assert from_text == parse_responses(text.encode("utf-8"))
    assert (from_text.accepted, len(from_text.diagnostics)) == (6, 1)


def test_parse_rejects_non_utf8_bytes():
    data = b"\xef\xbb\xbf" + SIX_ROWS.encode("utf-8").replace(b"West", b"W\xe9st")
    with pytest.raises(ParseError, match="byte 0xe9 on line 6"):
        parse_responses(data)


def test_parse_keeps_optional_columns():
    rows = "\n".join(
        [
            HEADER + ",cadence,rationale",
            "p1,A,CBD,1.0,103.0,1 to 3,5,weekly,close to work",
        ]
    )
    response = parse(rows).responses[0]
    assert response.cadence == "weekly"
    assert response.rationale == "close to work"


def _response(row, participant, quadrant, region, lat, lon, category, minutes, **optional):
    return SurveyResponse(
        participant_id=participant, quadrant=quadrant, region=region, lat_deg=lat,
        lon_deg=lon, visit_count_category=category, avg_duration_min=minutes, row=row,
        **optional,
    )


def test_parse_pins_every_diagnostic_in_order():
    # BOM, renamed columns in a shuffled order and both optional columns.
    text = "\r\n".join(
        [
            "id,quadrant,lat,lng,region,visits,avg_duration_min,how_often,rationale",
            "p1, Calm  AND tranquil ,1.3,103.8, CBD ,4 to 6 times,5,weekly,near home",
            "p2,A,abc,103.8,CBD,1 to 3,5,,",
            "p3,A,nan,103.8,CBD,1 to 3,5,,",
            "p4,A,1.3,inf,CBD,1 to 3,-inf,,",
            "p5,A,91.5,103.8,CBD,1 to 3,5,,",
            "p6,E,1.3,103.8,CBD,1 to 3,5,,",
            "p7,A,1.3,103.8,CBD,weekly,5,,",
            "p8,A,1.3,103.8,CBD,1 to 3,-4,,",
            "   ",
            ", ,\t,",
            "p9,Z,1e999,xyz",
            "p10",
            'p11,b,-90,200,"West, far",10 OR MORE,-0.0,daily,"two\nlines"',
            "p12,D,1,2,North,7 to 9,3,,,extra",
            "",
        ]
    )
    column_map = {
        "participant_id": "id", "latitude_deg": "lat", "longitude_deg": "lng",
        "visit_count_category": "visits", "cadence": "how_often",
    }
    result = parse_responses(b"\xef\xbb\xbf" + text.encode("utf-8"), column_map=column_map)
    brackets = "'1 to 3', '4 to 6', '7 to 9', '10 or more'"
    assert [(d.row, d.column, d.message) for d in result.diagnostics] == [
        (3, "lat", "not a number: 'abc'"),
        (4, "lat", "not finite: 'nan'"),
        (5, "lng", "not finite: 'inf'"),
        (5, "avg_duration_min", "not finite: '-inf'"),
        (6, "lat", "latitude 91.5 outside [-90, 90]"),
        (7, "quadrant", "unknown quadrant 'E'"),
        (8, "visits", f"expected one of {brackets}, got 'weekly'"),
        (9, "avg_duration_min", "negative duration -4.0"),
        (12, "quadrant", "unknown quadrant 'Z'"),
        (12, "region", "missing value"),
        (12, "lat", "not finite: '1e999'"),
        (12, "lng", "not a number: 'xyz'"),
        (12, "visits", "missing value"),
        (12, "avg_duration_min", "missing value"),
        (12, "how_often", "missing value"),
        (12, "rationale", "missing value"),
        (13, "quadrant", "missing value"),
        (13, "region", "missing value"),
        (13, "lat", "missing value"),
        (13, "lng", "missing value"),
        (13, "visits", "missing value"),
        (13, "avg_duration_min", "missing value"),
        (13, "how_often", "missing value"),
        (13, "rationale", "missing value"),
    ]
    assert result.responses == [
        _response(2, "p1", Quadrant.CALM_TRANQUIL, "CBD", 1.3, 103.8,
                  FrequencyCategory.FOUR_TO_SIX, 5.0, cadence="weekly", rationale="near home"),
        _response(14, "p11", Quadrant.CHAOTIC_RESTLESS, "West, far", -90.0, 200.0,
                  FrequencyCategory.TEN_OR_MORE, -0.0, cadence="daily", rationale="two\nlines"),
        _response(15, "p12", Quadrant.LIFELESS_BORING, "North", 1.0, 2.0,
                  FrequencyCategory.SEVEN_TO_NINE, 3.0, cadence="", rationale=""),
    ]
    assert result.total_rows == 12


def test_parse_pins_a_header_without_optional_columns():
    text = HEADER + "\np1,A,CBD,1.0,103.0,1 to 3,5\np2,A,CBD,-91\n\np3,A\n"
    result = parse(text)
    assert [(d.row, d.column, d.message) for d in result.diagnostics] == [
        (3, "latitude_deg", "latitude -91.0 outside [-90, 90]"),
        (3, "longitude_deg", "missing value"),
        (3, "visit_count_category", "missing value"),
        (3, "avg_duration_min", "missing value"),
        (5, "region", "missing value"),
        (5, "latitude_deg", "missing value"),
        (5, "longitude_deg", "missing value"),
        (5, "visit_count_category", "missing value"),
        (5, "avg_duration_min", "missing value"),
    ]
    assert result.responses == [
        _response(2, "p1", Quadrant.FULL_OF_LIFE_EXCITING, "CBD", 1.0, 103.0,
                  FrequencyCategory.ONE_TO_THREE, 5.0),
    ]
    assert result.total_rows == 3


def test_parse_takes_only_ascii_numbers_without_underscores():
    text = "\n".join([
        HEADER,
        "p1,A,CBD,1_0,103.0,1 to 3,5",
        "p2,A,CBD,1.0,103.0,1 to 3,1_0",
        "p3,A,CBD,1.0,\u0661\u0662,1 to 3,5",
        "p4,A,CBD,1.0,103.0,1 to 3,\u0661\u0662",
        "p5,A,CBD,\u00a01.0,103.0,1 to 3,\uff15",
        "p6,A,CBD, 1.0 ,1e2,1 to 3,-0",
    ])
    result = parse(text)
    assert [(d.row, d.column, d.message) for d in result.diagnostics] == [
        (2, "latitude_deg", "not a number: '1_0'"),
        (3, "avg_duration_min", "not a number: '1_0'"),
        (4, "longitude_deg", "not a number: '\u0661\u0662'"),
        (5, "avg_duration_min", "not a number: '\u0661\u0662'"),
        (6, "latitude_deg", "not a number: '\\xa01.0'"),
        (6, "avg_duration_min", "not a number: '\uff15'"),
    ]
    assert result.rows == [7]
    assert (result.lat_deg, result.lon_deg, result.durations_min) == ([1.0], [100.0], [0.0])
    assert math.copysign(1.0, result.durations_min[0]) == 1.0


def test_parse_minus_zero_reads_as_positive_zero():
    result = parse(HEADER + "\np1,A,CBD,-0,-0.0,1 to 3,-0.000e3\n")
    response = result.responses[0]
    for value in (response.lat_deg, response.lon_deg, response.avg_duration_min):
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_parse_result_columns_are_the_responses_fields():
    header, *rows = SIX_ROWS.splitlines()
    result = parse("\n".join([header + ",cadence,rationale"] + [r + ",weekly,near" for r in rows]))
    assert result.accepted == 6
    responses = result.responses
    assert result.responses is responses
    columns = {
        "row": result.rows, "participant_id": result.participant_ids,
        "quadrant": result.quadrants, "region": result.regions, "lat_deg": result.lat_deg,
        "lon_deg": result.lon_deg, "visit_count_category": result.categories,
        "avg_duration_min": result.durations_min, "cadence": result.cadences,
        "rationale": result.rationales,
    }
    assert set(columns) == {f.name for f in dataclasses.fields(SurveyResponse)}
    for name, column in columns.items():
        assert column == [getattr(r, name) for r in responses], name
    assert result.cadences == ["weekly"] * 6 and result.rationales == ["near"] * 6


def _records(lines):
    try:
        return list(csv.reader(lines))
    except csv.Error as exc:
        return str(exc)


@given(
    pieces=st.lists(st.sampled_from(["\n", "\r", "\r\n", "\x0c", "\x85", "\u2028", '"', ",", "a"])),
    trailing_newline=st.booleans(),
)
def test_lines_split_exactly_as_stringio(pieces, trailing_newline):
    text = "".join(pieces) + ("\n" if trailing_newline else "")
    assert list(_lines(text)) == list(io.StringIO(text))
    assert _records(_lines(text)) == _records(io.StringIO(text))


# --- weighting glue ---


def test_build_weighted_points_filters_and_weights():
    responses = parse(SIX_ROWS).responses
    weighted = build_weighted_points(responses, Quadrant.FULL_OF_LIFE_EXCITING)
    assert len(weighted.responses) == 5
    assert weighted.responses == tuple(responses[:5])
    assert weighted.weights.dtype == np.float64
    assert weighted.weights[0] == reliability_weight(4, 30.0)
    assert weighted.weights[2] == reliability_weight(1, 5.0)
    only_b = build_weighted_points(responses, Quadrant.CHAOTIC_RESTLESS)
    assert only_b.responses == (responses[5],)
    empty = build_weighted_points(responses, Quadrant.LIFELESS_BORING)
    assert empty.responses == ()
    assert empty.coords.shape == (0, 2) and empty.weights.shape == (0,)


def test_quadrant_points_align_responses_with_arrays():
    responses = parse(SIX_ROWS).responses
    weighted = build_weighted_points(responses, Quadrant.CHAOTIC_RESTLESS)
    assert len(weighted.responses) == 1
    source = weighted.responses[0]
    assert source.lat_deg == 1.30
    assert source.region == "CBD"
    assert source.row == 7
    assert np.array_equal(
        weighted.coords, coords_array([from_degrees(source.lat_deg, source.lon_deg)])
    )


# --- exports ---


def clustered_quadrant_a():
    responses = parse(SIX_ROWS).responses
    weighted = build_weighted_points(responses, Quadrant.FULL_OF_LIFE_EXCITING)
    best = sweep(weighted.coords, weighted.weights, k_range=[2], runs_per_k=1, base_seed=1).best
    reps = select_representatives(weighted.coords, best.labels, best.centers)
    sites = assign_site_ids(reps, Quadrant.FULL_OF_LIFE_EXCITING, weighted.responses)
    return responses, weighted, best, sites


def test_export_geojson_structure_and_precision():
    responses, weighted, best, sites = clustered_quadrant_a()
    raw = export_geojson(weighted, best, sites)
    assert raw == export_geojson(weighted, best, sites)
    document = json.loads(raw)
    assert document["type"] == "FeatureCollection"
    features = document["features"]
    assert len(features) == len(weighted.responses) + 2 + 2
    roles = [f["properties"]["role"] for f in features]
    assert roles.count("response") == 5
    assert roles.count("center") == 2
    assert roles.count("site") == 2
    # Coordinates are [lon, lat] and responses carry their original degrees.
    first = features[0]
    assert first["geometry"]["coordinates"] == [103.84653, 1.291598203]
    assert first["properties"]["source_row"] == 2
    assert first["properties"]["region"] == "CBD"
    assert b"103.846530000000" in raw  # 12 fixed decimal places
    weight = float(first["properties"]["weight"])
    assert weight == pytest.approx(weighted.weights[0], abs=1e-12)


def test_export_geojson_validates_alignment():
    _, weighted, best, sites = clustered_quadrant_a()
    shorter = dataclasses.replace(
        weighted,
        responses=weighted.responses[:-1],
        coords=weighted.coords[:-1],
        weights=weighted.weights[:-1],
    )
    with pytest.raises(ValidationError):
        export_geojson(shorter, best, sites)
    with pytest.raises(ValidationError):
        export_geojson(weighted, best, sites[:1])


def test_export_site_table_bytes():
    responses, _, _, sites = clustered_quadrant_a()
    raw = export_site_table(sites)
    lines = raw.decode("utf-8").splitlines()
    assert lines[0] == "ID,Region,Latitude_deg,Longitude_deg,SourceRow"
    assert len(lines) == 3
    id_column = [line.split(",")[0] for line in lines[1:]]
    assert id_column == ["A01", "A02"]
    surveyed = {(r.lat_deg, r.lon_deg) for r in responses}
    for line in lines[1:]:
        _, _, lat_text, lon_text, _ = line.split(",")
        assert len(lat_text.split(".")[1]) == 9  # fixed 9 decimal places
        assert len(lon_text.split(".")[1]) == 9
        assert (float(lat_text), float(lon_text)) in surveyed


# Text cells with what CSV quoting is about (comma, quote, CR, LF, an empty
# field) drawn often, beside any other character UTF-8 can encode (no lone
# surrogates, which no decoded survey holds).
_CSV_CELL = st.text(st.sampled_from(',"\r\n a') | st.characters(codec="utf-8"), max_size=6)
_CSV_ROWS = st.lists(st.lists(_CSV_CELL, max_size=4), max_size=4)


@given(_CSV_ROWS)
def test_render_csv_reads_back_unchanged(rows):
    text = render_csv(rows).decode("utf-8")
    assert list(csv.reader(io.StringIO(text, newline=""))) == rows


@given(_CSV_ROWS.map(lambda rows: [[cell.replace("\r", "") for cell in row] for row in rows]))
def test_render_csv_matches_csv_writer_on_text_without_cr(rows):
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    assert render_csv(rows) == buffer.getvalue().encode("utf-8")


def test_export_site_table_empty_report():
    assert export_site_table(()) == b"ID,Region,Latitude_deg,Longitude_deg,SourceRow\n"


def test_export_dunn_curve_leaves_degenerate_rows_empty():
    # One duplicated point caps the usable cluster count at 2, so k=3 has no
    # scoreable run and its row keeps empty cells.
    points = [from_degrees(lat, 103.8) for lat in (1.30, 1.30, 1.40, 1.50)]
    result = sweep(coords_array(points), [1.0] * 4, k_range=[2, 3], runs_per_k=3, base_seed=0)
    lines = export_dunn_curve(result).decode("utf-8").splitlines()
    assert lines[0] == "k,best_run,best_seed,dunn_index,min_inter_km,max_intra_km"
    assert lines[1].startswith("2,")
    assert lines[2] == "3,,,,,"
    assert len(lines[1].split(",")) == 6


def test_export_manifest_writes_settings_and_summaries_as_sorted_json():
    summary = QuadrantSummary(
        label="full of life and exciting",
        n_points=5,
        auc=0.91,
        k_max=2,
        optimal_k=2,
        best_dunn=12.5,
        min_inter_km=2.0,
        max_intra_km=0.16,
        sites=2,
    )
    settings = {"tool_version": "0.1.0", "k_max": None, "region_order": ("CBD", "East"),
                "column_map": {"region": "area", "latitude_deg": "lat"}}
    raw = export_manifest(settings, {"B": summary, "A": summary})
    assert raw == export_manifest(dict(reversed(settings.items())), {"A": summary, "B": summary})
    # Keys sorted at every level, two-space indents, one final newline.
    assert raw == (json.dumps(json.loads(raw), indent=2, sort_keys=True) + "\n").encode("utf-8")
    assert json.loads(raw) == {
        "tool_version": "0.1.0",
        "k_max": None,
        "region_order": ["CBD", "East"],
        "column_map": {"region": "area", "latitude_deg": "lat"},
        "quadrants": {"A": dataclasses.asdict(summary), "B": dataclasses.asdict(summary)},
    }


# --- small helpers ---


def test_parse_key_values():
    text = "# comment\n\nbase_seed = 7\nk_min=2\n"
    assert parse_key_values(text) == {"base_seed": "7", "k_min": "2"}
    with pytest.raises(ConfigError, match="duplicate"):
        parse_key_values("a=1\na=2\n")
    with pytest.raises(ConfigError, match="key=value"):
        parse_key_values("just words\n")
    with pytest.raises(ConfigError, match="empty key"):
        parse_key_values("=5\n")


def test_sha256_digest_known_value():
    assert sha256_digest(b"") == (
        "sha256:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )
