"""End-to-end command-line tests, run in-process through main()."""

import concurrent.futures
import csv
import errno
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import pytest

import sitepick.cli
import sitepick.io_pipeline
from sitepick.cli import RunConfig, build_parser, load_config_file, main, resolve_config
from sitepick.errors import EmptyClusterError
from sitepick.io_pipeline import Quadrant, parse_responses

HEADER = (
    "participant_id,quadrant,region,latitude_deg,longitude_deg,"
    "visit_count_category,avg_duration_min"
)

TWO_REGION_ROWS = [
    "p1,A,East,1.35,103.94,1 to 3,5",
    "p2,A,East,1.351,103.941,4 to 6,12",
    "p3,A,West,1.33,103.70,1 to 3,7",
    "p4,A,West,1.331,103.701,10 or more,30",
]


def write_survey(tmp_path, rows, name="survey.csv"):
    path = tmp_path / name
    path.write_text(HEADER + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


def read_sites(out_dir, letter="A"):
    return (out_dir / f"sites_{letter}.csv").read_text(encoding="utf-8").splitlines()


# --- synth ---


def test_synth_output_parses_cleanly(tmp_path):
    target = tmp_path / "synth.csv"
    code = main(
        ["synth", "-o", str(target), "--blobs", "2", "--per-blob", "5",
         "--quadrant", "A", "--quadrant", "B", "--seed", "3"]
    )
    assert code == 0
    parsed = parse_responses(target.read_bytes())
    assert parsed.total_rows == 2 * 5 * 2
    assert parsed.accepted == parsed.total_rows
    assert parsed.diagnostics == []


def test_synth_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["synth", "--blobs", "2", "--per-blob", "4", "--seed", "11"]
    assert main(argv + ["-o", str(a)]) == 0
    assert main(argv + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_synth_zero_spread_collapses_blobs(tmp_path):
    target = tmp_path / "tight.csv"
    main(["synth", "-o", str(target), "--blobs", "1", "--per-blob", "3",
          "--spread-km", "0", "--quadrant", "C"])
    parsed = parse_responses(target.read_bytes())
    coords = {(r.lat_deg, r.lon_deg) for r in parsed.responses}
    assert len(parsed.responses) == 3
    assert len(coords) == 1


@pytest.mark.parametrize("flags", [
    ["--spread-km", "nan"], ["--spread-km", "inf"], ["--ring-km", "inf"], ["--ring-km", "nan"],
    ["--center-lon", "inf"], ["--center-lon", "nan"], ["--center-lat", "nan"],
])
def test_synth_rejects_a_coordinate_setting_that_is_not_finite(tmp_path, capsys, flags):
    # Each used to exit 0 and write nan or inf coordinate cells.
    target = tmp_path / "synth.csv"
    assert main(["synth", "-o", str(target), *flags]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not target.exists()


@pytest.mark.parametrize("second", ["A", "a"])
def test_synth_rejects_a_repeated_quadrant(tmp_path, capsys, second):
    # Each used to exit 0 and write quadrant A's rows twice.
    target = tmp_path / "synth.csv"
    argv = ["synth", "-o", str(target), "--blobs", "2", "--per-blob", "2"]
    assert main(argv + ["--quadrant", "A", "--quadrant", second]) == 2
    assert capsys.readouterr() == ("", "error: quadrant A is named twice\n")
    assert not target.exists()


# --- weights ---


def test_weights_single_response(tmp_path, capsys):
    survey = write_survey(tmp_path, ["p1,A,CBD,1.3,103.8,10 or more,30"])
    out = tmp_path / "out"
    assert main(["weights", str(survey), "-o", str(out)]) == 0
    weights_lines = (out / "weights.csv").read_text().splitlines()
    assert len(weights_lines) == 2
    assert weights_lines[1].startswith("2,p1,A,CBD,4,30.000000,")
    assert weights_lines[1].endswith("1.000000000000")
    auc_lines = (out / "auc_summary.csv").read_text().splitlines()
    assert auc_lines[1] == "A,full of life and exciting,1,1.000000000000"
    assert "auc=1.0000" in capsys.readouterr().out


def test_weights_zero_duration_floor(tmp_path):
    survey = write_survey(
        tmp_path,
        ["p1,B,CBD,1.30,103.80,1 to 3,0", "p2,B,CBD,1.31,103.81,10 or more,0"],
    )
    out = tmp_path / "out"
    assert main(["weights", str(survey), "-o", str(out), "--quadrant", "B"]) == 0
    auc_lines = (out / "auc_summary.csv").read_text().splitlines()
    assert auc_lines[1] == "B,chaotic and restless,2,0.500000000000"


@pytest.mark.parametrize("token", ["c", "Calm and  Tranquil"])
def test_a_quadrant_flag_takes_what_a_csv_cell_takes(tmp_path, token):
    rows = [row.replace(",A,", ",C,") for row in TWO_REGION_ROWS]
    survey = write_survey(tmp_path, rows + ["p5,B,CBD,1.3,103.8,1 to 3,5"])
    by_letter, by_token = tmp_path / "letter", tmp_path / "token"
    assert main(["weights", str(survey), "-o", str(by_letter), "--quadrant", "C"]) == 0
    assert main(["weights", str(survey), "-o", str(by_token), "--quadrant", token]) == 0
    for name in ("weights.csv", "auc_summary.csv"):
        assert (by_token / name).read_bytes() == (by_letter / name).read_bytes()


def test_weights_csv_quotes_fields_that_need_it(tmp_path):
    survey = write_survey(
        tmp_path,
        [
            '"P,1",A,"Central, North",1.35,103.94,1 to 3,5',
            '"say ""hi""",A,"two\nlines",1.35,103.94,4 to 6,5',
            '"P\r3",A,"a\rb",1.35,103.94,1 to 3,5',
            "p4,A,East,1.35,103.94,1 to 3,5",
        ],
    )
    out = tmp_path / "out"
    assert main(["weights", str(survey), "-o", str(out)]) == 0
    with open(out / "weights.csv", encoding="utf-8", newline="") as handle:
        records = list(csv.reader(handle))
    assert [len(record) for record in records] == [7] * 5
    assert [record[1] for record in records[1:]] == ["P,1", 'say "hi"', "P\r3", "p4"]
    assert [record[3] for record in records[1:]] == ["Central, North", "two\nlines", "a\rb", "East"]
    # A field that needs no quoting is written as before.
    assert (out / "weights.csv").read_text(encoding="utf-8").splitlines()[-1].startswith(
        "5,p4,A,East,1,5.000000,"
    )


# A BOM, CRLF line ends, renamed columns in a shuffled order, rationale
# present and cadence absent, blank and short rows, every diagnostic kind,
# quoted commas, quotes and CRs, and quadrant D with no accepted row.
MESSY_SURVEY = b"\xef\xbb\xbf" + "\r\n".join([
    "quadrant,id,region,lat,lng,visit_count_category,avg_duration_min,why",
    'A,p1,"Central, North",1.35,103.94,1 to 3,5,"near ""home"", mostly"',
    'calm and tranquil,"p,2",East,1.3,103.8,10 OR MORE times,12.5,"late\rnight"',
    "",
    ",,,",
    "B",
    "E,p5,West,1.3,103.8,1 to 3,5,x",
    "B,p6,West,abc,103.8,1 to 3,5,x",
    "B,p7,West,1.3,nan,1 to 3,5,x",
    "B,p8,West,95,103.8,1 to 3,5,x",
    "B,p9,West,1.3,103.8,weekly,5,x",
    "B,p10,West,1.3,103.8,4 to 6,-2.5,x",
    'b,p11,"say ""hi""",1.29,103.85,7 to 9,0,',
    'C,"p\r12","Marina\rBay",1.28,103.86,4 to 6,3.25,',
    "C,p13,North,1.44,103.79,10 or more,45",
    " Chaotic and Restless ,p14,  CBD ,1.3,103.8, 4  to  6 ,7.5,extra,cells",
    "D,p15,CBD,1.3,103.8,1 to 3,inf,x",
    "lifeless and boring,p16,CBD,1.3,-181e999,1 to 3,1,x",
    "",
]).encode("utf-8")
MESSY_COLUMN_MAP = "participant_id = id\nlatitude_deg = lat\nlongitude_deg = lng\nrationale = why\n"
MESSY_WEIGHTS = (
    b"source_row,participant_id,quadrant,region,frequency_factor,avg_duration_min,weight\n"
    b'2,p1,A,"Central, North",1,5.000000,0.993307149076\n'
    b'13,p11,B,"say ""hi""",3,0.000000,0.500000000000\n'
    b"16,p14,B,CBD,2,7.500000,0.999999694098\n"
    b'3,"p,2",C,East,4,12.500000,1.000000000000\n'
    b'14,"p\r12",C,"Marina\rBay",2,3.250000,0.998498817743\n'
)
MESSY_AUC = (
    b"quadrant,label,n_points,auc\n"
    b"A,full of life and exciting,1,0.993307149076\n"
    b"B,chaotic and restless,2,0.749999847049\n"
    b"C,calm and tranquil,2,0.999249408872\n"
)
MESSY_STDOUT = (
    "quadrant A (full of life and exciting): n=1 auc=0.9933\n"
    "quadrant B (chaotic and restless): n=2 auc=0.7500\n"
    "quadrant C (calm and tranquil): n=2 auc=0.9992\n"
)
MESSY_STDERR = (
    "warning: row 6, column id: missing value\n"
    "warning: row 6, column region: missing value\n"
    "warning: row 6, column lat: missing value\n"
    "warning: row 6, column lng: missing value\n"
    "warning: row 6, column visit_count_category: missing value\n"
    "warning: row 6, column avg_duration_min: missing value\n"
    "warning: row 6, column why: missing value\n"
    "warning: row 7, column quadrant: unknown quadrant 'E'\n"
    "warning: row 8, column lat: not a number: 'abc'\n"
    "warning: row 9, column lng: not finite: 'nan'\n"
    "warning: row 10, column lat: latitude 95.0 outside [-90, 90]\n"
    "warning: row 11, column visit_count_category: expected one of "
    "'1 to 3', '4 to 6', '7 to 9', '10 or more', got 'weekly'\n"
    "warning: row 12, column avg_duration_min: negative duration -2.5\n"
    "warning: row 15, column why: missing value\n"
    "warning: row 17, column avg_duration_min: not finite: 'inf'\n"
    "warning: row 18, column lng: not finite: '-181e999'\n"
    "quadrant D (lifeless and boring): no responses\n"
)


def run_messy_weights(tmp_path, capsys):
    survey = tmp_path / "messy.csv"
    survey.write_bytes(MESSY_SURVEY)
    column_map = tmp_path / "columns.txt"
    column_map.write_text(MESSY_COLUMN_MAP, encoding="utf-8")
    out = tmp_path / "out"
    code = main(["weights", str(survey), "-o", str(out), "--column-map", str(column_map)])
    captured = capsys.readouterr()
    return code, out, captured


def test_weights_pins_a_messy_survey(tmp_path, capsys):
    code, out, captured = run_messy_weights(tmp_path, capsys)
    assert code == 0
    assert (out / "weights.csv").read_bytes() == MESSY_WEIGHTS
    assert (out / "auc_summary.csv").read_bytes() == MESSY_AUC
    assert captured.out == MESSY_STDOUT
    assert captured.err == MESSY_STDERR


def test_weights_builds_no_survey_response(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("weights built a SurveyResponse")

    monkeypatch.setattr(sitepick.io_pipeline.ParseResult, "responses", property(refuse))
    monkeypatch.setattr(sitepick.io_pipeline, "SurveyResponse", refuse)
    code, out, captured = run_messy_weights(tmp_path, capsys)
    assert code == 0
    assert (out / "weights.csv").read_bytes() == MESSY_WEIGHTS
    assert (out / "auc_summary.csv").read_bytes() == MESSY_AUC
    assert captured.err == MESSY_STDERR


def test_weights_prints_a_minus_zero_duration_as_zero(tmp_path):
    survey = write_survey(tmp_path, ["p1,A,CBD,-0,-0.0,1 to 3,-0", "p2,A,CBD,1.3,103.8,1 to 3,-0e5"])
    out = tmp_path / "out"
    assert main(["weights", str(survey), "-o", str(out)]) == 0
    assert (out / "weights.csv").read_text(encoding="utf-8").splitlines()[1:] == [
        "2,p1,A,CBD,1,0.000000,0.500000000000",
        "3,p2,A,CBD,1,0.000000,0.500000000000",
    ]


# --- cluster ---


def test_sites_csv_reads_back_regions_that_need_quoting(tmp_path):
    # csv.writer(lineterminator="\n") left a region holding a bare CR
    # unquoted, so csv.reader read that site's row back as two rows.
    regions = ["East\rSide", "two\nlines", "North, East", 'say "hi"']
    # Two close points per region, regions a degree apart: four clusters.
    rows = [
        f'p{i}{j},A,"{region.replace(chr(34), 2 * chr(34))}",{1.3 + i + 0.001 * j},103.8,1 to 3,5'
        for i, region in enumerate(regions)
        for j in range(2)
    ]
    out = tmp_path / "out"
    survey = write_survey(tmp_path, rows)
    assert main(["cluster", str(survey), "-o", str(out), "--k", "4", "--runs-per-k", "1"]) == 0
    with open(out / "sites_A.csv", encoding="utf-8", newline="") as handle:
        records = list(csv.reader(handle))
    assert [len(record) for record in records] == [5] * 5
    assert sorted(record[1] for record in records[1:]) == sorted(regions)


def test_cluster_fixed_k_artifacts(tmp_path):
    survey = write_survey(tmp_path, TWO_REGION_ROWS)
    out = tmp_path / "out"
    code = main(["cluster", str(survey), "-o", str(out), "--k", "2",
                 "--runs-per-k", "5"])
    assert code == 0
    for name in ("clusters_A.geojson", "sites_A.csv", "dunn_curve_A.csv", "manifest.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["k_min"] == 2 and manifest["k_max"] == 2
    assert manifest["quadrants"]["A"]["optimal_k"] == 2
    assert manifest["quadrants"]["A"]["sites"] == 2
    sites = read_sites(out)
    assert sites[1].startswith("A01,East,1.35")
    assert sites[2].startswith("A02,West,1.33")


def test_cluster_rerun_is_byte_identical(tmp_path):
    survey = write_survey(tmp_path, TWO_REGION_ROWS)
    first, second = tmp_path / "one", tmp_path / "two"
    argv = ["cluster", str(survey), "--k", "2", "--runs-per-k", "5", "--base-seed", "7"]
    assert main(argv + ["-o", str(first)]) == 0
    assert main(argv + ["-o", str(second)]) == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_cluster_equals_single_k_sweep(tmp_path):
    survey = write_survey(tmp_path, TWO_REGION_ROWS)
    fixed, collapsed = tmp_path / "fixed", tmp_path / "collapsed"
    common = [str(survey), "--runs-per-k", "5", "--base-seed", "3"]
    assert main(["cluster", *common, "-o", str(fixed), "--k", "2"]) == 0
    assert main(["sweep", *common, "-o", str(collapsed), "--k-min", "2",
                 "--k-max", "2"]) == 0
    names = sorted(p.name for p in fixed.iterdir())
    assert names == sorted(p.name for p in collapsed.iterdir())
    for name in names:
        assert (fixed / name).read_bytes() == (collapsed / name).read_bytes(), name


def test_cluster_k_below_two_is_usage_error(tmp_path):
    survey = write_survey(tmp_path, TWO_REGION_ROWS)
    assert main(["cluster", str(survey), "-o", str(tmp_path / "o"), "--k", "1"]) == 2


@pytest.mark.parametrize("flags, message", [
    (["--runs-per-k", "0"], "runs_per_k must be >= 1, got 0"),
    (["--max-iterations", "0"], "max_iterations must be >= 1, got 0"),
    (["--workers", "0"], "workers must be >= 1, got 0"),
    (["--k-min", "1"], "candidate k values must lie in [2, 4], got [1, 2] (quadrant A)"),
    (["--k-min", "5", "--k-max", "3"], "no candidate k values to sweep (quadrant A)"),
    (["--k-max", "0"], "no candidate k values to sweep (quadrant A)"),
    (["--earth-radius-km", "1e160"], "earth radius must lie in [1e-100, 1e+100] km, got 1e+160"),
])
def test_a_bad_sweep_setting_fails_in_the_library_call_that_reads_it(
    tmp_path, capsys, flags, message
):
    survey = write_survey(tmp_path, TWO_REGION_ROWS)
    out = tmp_path / "o"
    assert main(["sweep", str(survey), "-o", str(out), *flags]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_a_malformed_strict_survey_fails_before_a_bad_sweep_setting(tmp_path):
    survey = write_survey(tmp_path, TWO_REGION_ROWS + ["p5,A,East,95,103.9,1 to 3,5"])
    out = tmp_path / "o"
    assert main(["sweep", str(survey), "-o", str(out), "--strict", "--runs-per-k", "0"]) == 3
    assert not out.exists()


def test_weights_takes_only_the_options_it_reads(tmp_path, capsys):
    args = vars(build_parser().parse_args(["weights", "s.csv"]))
    assert set(args) - {"command", "handler"} == {
        "input", "output_dir", "config", "column_map", "strict", "quadrants"
    }
    survey = write_survey(tmp_path, TWO_REGION_ROWS)
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as excinfo:
        main(["weights", str(survey), "-o", str(out), "--runs-per-k", "3"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --runs-per-k 3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--k-min", "--k-max"])
@pytest.mark.parametrize("value", ["1", "5"])
def test_cluster_takes_no_k_range_flags(tmp_path, capsys, flag, value):
    survey = write_survey(tmp_path, TWO_REGION_ROWS)
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as excinfo:
        main(["cluster", str(survey), "-o", str(out), "--k", "3", flag, value])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()


def test_cluster_k_overrides_the_config_file_k_range(tmp_path):
    survey = write_survey(tmp_path, TWO_REGION_ROWS)
    config = tmp_path / "run.cfg"
    config.write_text("k_min = 1\nk_max = 9\nruns_per_k = 3\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["cluster", str(survey), "-o", str(out), "--k", "3",
                 "--config", str(config)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["k_min"], manifest["k_max"]) == (3, 3)
    assert manifest["quadrants"]["A"]["optimal_k"] == 3


def test_cluster_coincident_points_exit_code(tmp_path, capsys):
    synth_csv = tmp_path / "tight.csv"
    main(["synth", "-o", str(synth_csv), "--blobs", "1", "--per-blob", "4",
          "--spread-km", "0", "--quadrant", "A"])
    code = main(["cluster", str(synth_csv), "-o", str(tmp_path / "o"), "--k", "2",
                 "--runs-per-k", "3"])
    assert code == 4
    assert "degenerate" in capsys.readouterr().err


def test_empty_cluster_error_exit_code(tmp_path, capsys, monkeypatch):
    def lose_a_cluster(*args, **kwargs):
        raise EmptyClusterError("cluster 1 lost all members")

    monkeypatch.setattr(sitepick.cli, "sweep", lose_a_cluster)
    survey = write_survey(tmp_path, TWO_REGION_ROWS)
    assert main(["cluster", str(survey), "-o", str(tmp_path / "o"), "--k", "2"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: cluster 1 lost all members")
    assert not (tmp_path / "o").exists()


# Quadrant A sweeps normally; quadrant B is five coincident points, so every
# run there is degenerate and the sweep fails after A has finished.
A_THEN_DEGENERATE_B = TWO_REGION_ROWS + [f"q{i},B,CBD,1.3,103.8,1 to 3,5" for i in range(5)]


def test_quadrant_errors_name_the_quadrant(tmp_path, capsys):
    survey = write_survey(tmp_path, TWO_REGION_ROWS[:3])
    assert main(["sweep", str(survey), "-o", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "error: need at least 4 points to sweep, got 3 (quadrant A)\n"
    )
    survey = write_survey(tmp_path, A_THEN_DEGENERATE_B)
    assert main(["sweep", str(survey), "-o", str(tmp_path / "o"), "--runs-per-k", "3"]) == 4
    assert capsys.readouterr().err.endswith(" (quadrant B)\n")


def test_a_column_read_twice_fails_the_run(tmp_path, capsys):
    # The last latitude_deg column used to win silently, putting the sites at
    # 45-46.5 degrees instead of among the responses.
    survey = tmp_path / "survey.csv"
    rows = [f"{row},{45 + 0.5 * i}" for i, row in enumerate(TWO_REGION_ROWS)]
    survey.write_text(HEADER + ",latitude_deg\n" + "\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["cluster", str(survey), "-o", str(out), "--k", "2", "--runs-per-k", "3"]) == 3
    assert capsys.readouterr().err == (
        "error: column 'latitude_deg' appears more than once in the header\n"
    )
    assert not out.exists()


def test_a_column_map_reading_one_column_twice_is_a_usage_error(tmp_path, capsys):
    survey = write_survey(tmp_path, TWO_REGION_ROWS)
    column_map = tmp_path / "columns.txt"
    column_map.write_text("latitude_deg = longitude_deg\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["cluster", str(survey), "-o", str(out), "--k", "2",
                 "--column-map", str(column_map)]) == 2
    assert capsys.readouterr().err == (
        "error: column map reads 'latitude_deg' and 'longitude_deg' from 'longitude_deg'\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", [["weights"], ["cluster", "--k", "2"]])
def test_a_column_map_key_that_names_no_column_is_a_usage_error(tmp_path, capsys, command):
    # A typo for latitude_deg used to be ignored, and the run exited 0.
    survey = write_survey(tmp_path, TWO_REGION_ROWS)
    column_map = tmp_path / "columns.txt"
    column_map.write_text("latitude = lat\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main([command[0], str(survey), "-o", str(out), *command[1:],
                 "--column-map", str(column_map)]) == 2
    assert capsys.readouterr().err.startswith("error: unknown column map key 'latitude' (known: ")
    assert not out.exists()


def test_failed_quadrant_writes_no_output_dir(tmp_path, capsys):
    survey = write_survey(tmp_path, A_THEN_DEGENERATE_B)
    out = tmp_path / "out"
    assert main(["sweep", str(survey), "-o", str(out), "--runs-per-k", "3"]) == 4
    assert "quadrant A" in capsys.readouterr().out
    assert not out.exists()


def test_failed_quadrant_leaves_old_output_untouched(tmp_path):
    survey = write_survey(tmp_path, A_THEN_DEGENERATE_B)
    out = tmp_path / "out"
    assert main(["sweep", str(survey), "-o", str(out), "--quadrant", "A",
                 "--runs-per-k", "3"]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert main(["sweep", str(survey), "-o", str(out), "--runs-per-k", "3",
                 "--base-seed", "5"]) == 4
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_failed_write_leaves_old_output_untouched(tmp_path, monkeypatch, capsys):
    survey = write_survey(tmp_path, TWO_REGION_ROWS)
    out = tmp_path / "out"
    assert main(["sweep", str(survey), "-o", str(out), "--quadrant", "A",
                 "--runs-per-k", "3"]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    write_bytes = pathlib.Path.write_bytes
    calls = []

    def full_on_second_file(self, data):
        calls.append(self.name)
        if len(calls) == 2:
            write_bytes(self, data[: len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")
        return write_bytes(self, data)

    monkeypatch.setattr(pathlib.Path, "write_bytes", full_on_second_file)
    assert main(["sweep", str(survey), "-o", str(out), "--quadrant", "A", "--runs-per-k", "3",
                 "--base-seed", "5"]) == 2
    assert len(calls) == 2
    assert capsys.readouterr().err.startswith("error: cannot write ")
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_failed_rename_leaves_no_old_manifest(tmp_path, capsys):
    first = write_survey(tmp_path, TWO_REGION_ROWS, name="s1.csv")
    moved = [row.replace(",103.", ",104.") for row in TWO_REGION_ROWS]
    second = write_survey(tmp_path, moved, name="s2.csv")
    out = tmp_path / "out"
    argv = ["-o", str(out), "--quadrant", "A", "--runs-per-k", "3"]
    assert main(["sweep", str(first)] + argv) == 0
    (out / "sites_A.csv").unlink()
    (out / "sites_A.csv").mkdir()
    assert main(["sweep", str(second)] + argv) == 2
    assert capsys.readouterr().err.startswith("error: cannot write ")
    assert not (out / "manifest.json").exists()
    assert not list(out.glob("*.tmp"))


def test_best_run_that_did_not_converge_is_reported(tmp_path, capsys):
    survey = write_survey(tmp_path, TWO_REGION_ROWS)
    out = tmp_path / "out"
    assert main(["sweep", str(survey), "-o", str(out), "--quadrant", "A",
                 "--runs-per-k", "3"]) == 0
    assert "without converging" not in capsys.readouterr().err
    artifacts = {path.name: path.read_bytes() for path in out.iterdir()}
    assert main(["sweep", str(survey), "-o", str(out), "--quadrant", "A", "--runs-per-k", "3",
                 "--max-iterations", "1"]) == 0
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "warning: quadrant A: best run at k=2 stopped at max_iterations=1 without converging"
    ]
    # The warning goes to stderr only; the manifest records the cap as before.
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["max_iterations"] == 1
    assert "converg" not in (out / "manifest.json").read_text(encoding="utf-8")
    assert set(artifacts) == {path.name for path in out.iterdir()}


def test_cluster_across_antimeridian_converges_without_warnings(tmp_path, capsys):
    # The six Fiji points of test_clustering, on both sides of lon 180.
    rows = [
        f"p1,A,East,{lat},{lon},1 to 3,5" for lat in (-16, -17, -18) for lon in (179.95, -179.95)
    ]
    survey = write_survey(tmp_path, rows)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["cluster", str(survey), "-o", str(tmp_path / "out"), "--k", "2",
                     "--runs-per-k", "1"])
    assert code == 0
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert "LongitudeSpanWarning" not in err
    assert "without converging" not in err


def _dunn_curve_without_km(out_dir):
    """dunn_curve_A.csv rows as (k, run, seed, dunn): the columns that do not
    scale with the radius."""
    lines = (out_dir / "dunn_curve_A.csv").read_text(encoding="utf-8").splitlines()
    return [line.split(",")[:4] for line in lines]


@pytest.mark.parametrize("radius, code", [
    ("1e-100", 0), ("1e100", 0), ("9.99e-101", 2), ("1.01e100", 2), ("1e-160", 2), ("1e160", 2),
])
def test_earth_radius_is_checked_against_its_range(tmp_path, capsys, radius, code):
    # At 1e160 km the squared distances of k-means++ overflow to inf and at
    # 1e-160 km they underflow: either run used to exit 0 with other draws.
    # Within the range the run and score columns are those of 6371 km.
    survey = tmp_path / "s.csv"
    assert main(["synth", "--blobs", "3", "--per-blob", "8", "--quadrant", "A", "--seed", "1",
                 "-o", str(survey)]) == 0
    argv = ["sweep", str(survey), "--runs-per-k", "5", "-o"]
    assert main(argv + [str(tmp_path / "earth")]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + [str(tmp_path / "out"), "--earth-radius-km", radius]) == code
    if code:
        assert "earth radius must lie in [1e-100, 1e+100] km" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
    else:
        assert _dunn_curve_without_km(tmp_path / "out") == _dunn_curve_without_km(tmp_path / "earth")
        # The km cells keep their digits at either end of the range.
        summary = json.loads((tmp_path / "out" / "manifest.json").read_text())["quadrants"]["A"]
        rows = (tmp_path / "out" / "dunn_curve_A.csv").read_text(encoding="utf-8").splitlines()
        row = next(row.split(",") for row in rows if row.startswith(f"{summary['optimal_k']},"))
        assert math.isclose(float(row[4]), summary["min_inter_km"], rel_tol=1e-11)
        assert math.isclose(float(row[5]), summary["max_intra_km"], rel_tol=1e-11)


# --- sweep ---


def test_sweep_finds_blob_count(tmp_path):
    synth_csv = tmp_path / "ring.csv"
    main(["synth", "-o", str(synth_csv), "--blobs", "4", "--per-blob", "6",
          "--spread-km", "0.5", "--quadrant", "A", "--seed", "5"])
    out = tmp_path / "out"
    code = main(["sweep", str(synth_csv), "-o", str(out), "--runs-per-k", "20"])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    summary = manifest["quadrants"]["A"]
    assert summary["n_points"] == 24
    assert summary["k_max"] == 4  # floor(sqrt(24))
    assert summary["optimal_k"] == 4
    assert summary["best_dunn"] > 1.0
    curve = (out / "dunn_curve_A.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in curve] == ["k", "2", "3", "4"]
    assert len(read_sites(out)) == 1 + 4


def test_sweep_worker_count_does_not_change_artifacts(tmp_path):
    synth_csv = tmp_path / "ring.csv"
    main(["synth", "-o", str(synth_csv), "--blobs", "3", "--per-blob", "6",
          "--quadrant", "A", "--quadrant", "B", "--seed", "2"])
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    argv = ["sweep", str(synth_csv), "--runs-per-k", "8"]
    assert main(argv + ["-o", str(serial), "--workers", "1"]) == 0
    assert main(argv + ["-o", str(parallel), "--workers", "3"]) == 0
    names = sorted(p.name for p in serial.iterdir())
    assert names == sorted(p.name for p in parallel.iterdir())
    for name in names:
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()


# --- manifest ---


# A new RunConfig field is either recorded here or listed in cli._UNRECORDED
# as one that changes no artifact byte: this set makes that a choice.
MANIFEST_KEYS = {
    "base_seed", "column_map", "earth_radius_km", "input_digest", "k_max", "k_min",
    "max_iterations", "quadrants", "region_order", "runs_per_k", "strict", "tool_version",
}


@pytest.mark.parametrize("argv", [["sweep"], ["cluster", "--k", "2"]])
def test_manifest_records_every_setting_that_can_change_an_artifact(tmp_path, argv):
    survey = write_survey(tmp_path, TWO_REGION_ROWS)
    out = tmp_path / "out"
    assert main([argv[0], str(survey), "-o", str(out), "--runs-per-k", "2", *argv[1:]]) == 0
    assert set(json.loads((out / "manifest.json").read_text(encoding="utf-8"))) == MANIFEST_KEYS


def test_manifest_records_no_path_and_no_worker_count(tmp_path):
    survey = write_survey(tmp_path, TWO_REGION_ROWS)
    copy = tmp_path / "elsewhere" / "renamed.csv"
    copy.parent.mkdir()
    copy.write_bytes(survey.read_bytes())
    first, second = tmp_path / "out", tmp_path / "elsewhere" / "other_out"
    argv = ["sweep", "--runs-per-k", "3"]
    assert main(argv + [str(survey), "-o", str(first)]) == 0
    assert main(argv + [str(copy), "-o", str(second), "--workers", "2"]) == 0
    assert (first / "manifest.json").read_bytes() == (second / "manifest.json").read_bytes()


@pytest.fixture
def counted_pools(monkeypatch):
    """The max_workers of every process pool the sweep starts, with two CPUs
    allowed so that --workers 2 may start one."""
    started = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    return started


def test_sweep_of_four_quadrants_starts_one_pool(tmp_path, counted_pools):
    synth_csv = tmp_path / "four.csv"
    main(["synth", "-o", str(synth_csv), "--blobs", "2", "--per-blob", "5", "--seed", "8"])
    out = tmp_path / "out"
    assert main(["sweep", str(synth_csv), "-o", str(out), "--runs-per-k", "3",
                 "--workers", "2"]) == 0
    assert counted_pools == [2]
    assert list(json.loads((out / "manifest.json").read_text())["quadrants"]) == list("ABCD")


def test_cluster_over_two_quadrants_gets_a_pool(tmp_path, counted_pools):
    synth_csv = tmp_path / "two.csv"
    main(["synth", "-o", str(synth_csv), "--blobs", "3", "--per-blob", "5",
          "--quadrant", "A", "--quadrant", "B", "--seed", "6"])
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    argv = ["cluster", str(synth_csv), "--k", "3", "--runs-per-k", "6"]
    assert main(argv + ["-o", str(serial), "--workers", "1"]) == 0
    assert counted_pools == []
    assert main(argv + ["-o", str(parallel), "--workers", "2"]) == 0
    assert counted_pools == [2]
    names = sorted(p.name for p in serial.iterdir())
    assert names == sorted(p.name for p in parallel.iterdir())
    for name in names:
        assert (serial / name).read_bytes() == (parallel / name).read_bytes(), name


def coincident(letter):
    """Five coincident points of one quadrant: every run there is degenerate."""
    return [f"{letter}{i},{letter},CBD,1.3,103.8,1 to 3,5" for i in range(5)]


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize(
    "rows, code, error, letter",
    [
        # Both quadrants' sweeps fail; B's rows come first in the file.
        pytest.param(coincident("B") + coincident("A"), 4,
                     "error: every run at every candidate k was degenerate", "A",
                     id="both-sweeps"),
        # A's sweep would fail, but B's k range (3 points) fails before any sweep.
        pytest.param(
            coincident("A") + [row.replace(",A,", ",B,") for row in TWO_REGION_ROWS[:3]],
            2, "error: need at least 4 points to sweep, got 3", "B", id="sweep-then-k-range",
        ),
    ],
)
def test_first_failing_quadrant_decides_the_error(
    tmp_path, capsys, rows, code, error, letter, workers
):
    survey = write_survey(tmp_path, rows)
    out = tmp_path / "out"
    assert main(["sweep", str(survey), "-o", str(out), "--runs-per-k", "3",
                 "--workers", workers]) == code
    captured = capsys.readouterr()
    assert captured.err.startswith(error)
    assert captured.err.endswith(f" (quadrant {letter})\n")
    assert captured.out == ""
    assert not out.exists()


def test_sweep_quadrant_filter(tmp_path):
    synth_csv = tmp_path / "two.csv"
    main(["synth", "-o", str(synth_csv), "--blobs", "2", "--per-blob", "6",
          "--quadrant", "A", "--quadrant", "B"])
    out = tmp_path / "out"
    assert main(["sweep", str(synth_csv), "-o", str(out), "--quadrant", "B",
                 "--runs-per-k", "5"]) == 0
    assert (out / "clusters_B.geojson").exists()
    assert not (out / "clusters_A.geojson").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert list(manifest["quadrants"]) == ["B"]


def test_region_order_flag_renumbers_sites(tmp_path):
    survey = write_survey(tmp_path, TWO_REGION_ROWS)
    out = tmp_path / "flipped"
    assert main(["cluster", str(survey), "-o", str(out), "--k", "2",
                 "--runs-per-k", "5", "--region-order", "West,East"]) == 0
    sites = read_sites(out)
    assert sites[1].startswith("A01,West,")
    assert sites[2].startswith("A02,East,")


# --- configuration and failure modes ---


def test_config_file_precedence(tmp_path):
    survey = write_survey(tmp_path, TWO_REGION_ROWS)
    config = tmp_path / "run.cfg"
    config.write_text("base_seed = 9\nruns_per_k = 5\nworkers = 1\n", encoding="utf-8")
    out = tmp_path / "out"
    code = main(["cluster", str(survey), "-o", str(out), "--k", "2",
                 "--config", str(config), "--base-seed", "1"])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["base_seed"] == 1  # flag beats file
    assert manifest["runs_per_k"] == 5  # file beats default


def test_config_file_unknown_key(tmp_path, capsys):
    survey = write_survey(tmp_path, TWO_REGION_ROWS)
    config = tmp_path / "run.cfg"
    config.write_text("bogus_knob = 1\n", encoding="utf-8")
    code = main(["sweep", str(survey), "-o", str(tmp_path / "o"), "--config", str(config)])
    assert code == 2
    assert "bogus_knob" in capsys.readouterr().err


def test_config_file_bad_value(tmp_path):
    survey = write_survey(tmp_path, TWO_REGION_ROWS)
    config = tmp_path / "run.cfg"
    config.write_text("base_seed = soon\n", encoding="utf-8")
    assert main(["sweep", str(survey), "-o", str(tmp_path / "o"),
                 "--config", str(config)]) == 2


@pytest.mark.parametrize("flag", ["--config", "--column-map"])
def test_missing_key_value_file_is_a_usage_error(tmp_path, capsys, flag):
    survey = write_survey(tmp_path, TWO_REGION_ROWS)
    missing = tmp_path / "nope.txt"
    assert main(["sweep", str(survey), "-o", str(tmp_path / "o"), flag, str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read ")
    assert str(missing) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--config", "--column-map"])
def test_non_utf8_key_value_file_is_a_usage_error(tmp_path, capsys, flag):
    survey = write_survey(tmp_path, TWO_REGION_ROWS)
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"base_seed = 1\n# \xff\n")
    assert main(["sweep", str(survey), "-o", str(tmp_path / "o"), flag, str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(bad) in err and "not UTF-8 text: byte 0xff" in err
    assert "Traceback" not in err


def test_missing_input_file(tmp_path, capsys):
    assert main(["sweep", str(tmp_path / "nope.csv"), "-o", str(tmp_path / "o")]) == 2
    assert "cannot read input" in capsys.readouterr().err


def test_strict_mode_escalates_diagnostics(tmp_path, capsys):
    survey = write_survey(tmp_path, TWO_REGION_ROWS + ["p5,A,East,91.0,103.9,1 to 3,5"])
    out = tmp_path / "o"
    assert main(["cluster", str(survey), "-o", str(out), "--k", "2", "--strict"]) == 3
    capsys.readouterr()
    # Without --strict the bad row is only a warning.
    assert main(["cluster", str(survey), "-o", str(out), "--k", "2",
                 "--runs-per-k", "3"]) == 0
    assert "warning: row 6" in capsys.readouterr().err


def test_empty_input_is_a_parse_error(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_bytes(b"")
    assert main(["sweep", str(empty), "-o", str(tmp_path / "o")]) == 3


def test_non_utf8_input_is_a_parse_error(tmp_path, capsys):
    survey = write_survey(tmp_path, TWO_REGION_ROWS)
    survey.write_bytes(survey.read_bytes().rstrip(b"\n") + b"\xff\n")
    assert main(["sweep", str(survey), "-o", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: input is not UTF-8 text: byte 0xff on line 5")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text, line",
    [
        (HEADER + "\r" + "\r".join(TWO_REGION_ROWS) + "\r", 1),
        (HEADER + "\n" + "\n".join(TWO_REGION_ROWS).replace("West", "We\rst", 1) + "\n", 4),
    ],
    ids=["bare-CR line endings", "bare CR in an unquoted cell"],
)
def test_stray_carriage_return_is_a_parse_error(tmp_path, capsys, text, line):
    survey = tmp_path / "survey.csv"
    survey.write_bytes(text.encode("utf-8"))
    assert main(["weights", str(survey), "-o", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: input is not valid CSV on line {line}: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_output_dir_under_a_file_is_a_usage_error(tmp_path, capsys):
    survey = write_survey(tmp_path, TWO_REGION_ROWS)
    blocker = tmp_path / "afile"
    blocker.write_bytes(b"")
    code = main(["sweep", str(survey), "-o", str(blocker / "out"), "--quadrant", "A",
                 "--runs-per-k", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ")
    assert "Traceback" not in err


def _tree(root):
    return sorted((str(path), path.is_dir()) for path in root.rglob("*"))


@pytest.mark.parametrize("command", ["weights", "sweep"])
@pytest.mark.parametrize("below", [(), ("out", "deeper")], ids=["the-file", "under-it"])
def test_an_output_dir_at_or_under_a_file_fails_before_the_survey_is_read(
    tmp_path, capsys, monkeypatch, command, below
):
    survey = write_survey(tmp_path, TWO_REGION_ROWS)
    blocker = tmp_path / "afile"
    blocker.write_bytes(b"kept")
    before = _tree(tmp_path)
    monkeypatch.setattr(sitepick.cli, "_parse_survey",
                        lambda *args: pytest.fail("the survey was read"))
    assert main([command, str(survey), "-o", str(blocker.joinpath(*below))]) == 2
    out, err = capsys.readouterr()
    assert err == f"error: cannot write into {str(blocker)!r}: Not a directory\n"
    assert out == ""
    assert _tree(tmp_path) == before
    assert blocker.read_bytes() == b"kept"


def test_synth_into_an_existing_directory_names_that_directory(tmp_path, capsys):
    target = tmp_path / "taken"
    (target / "inner").mkdir(parents=True)
    before = _tree(tmp_path)
    assert main(["synth", "-o", str(target), "--blobs", "2", "--per-blob", "3"]) == 2
    assert capsys.readouterr().err == f"error: cannot write {str(target)!r}: Is a directory\n"
    assert _tree(tmp_path) == before


def test_selected_quadrant_without_responses(tmp_path, capsys):
    survey = write_survey(tmp_path, ["p1,B,CBD,1.3,103.8,1 to 3,5"])
    code = main(["sweep", str(survey), "-o", str(tmp_path / "o"), "--quadrant", "A"])
    assert code == 2
    assert "no selected quadrant" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["weights", "sweep"])
def test_an_empty_quadrant_list_is_a_usage_error(tmp_path, capsys, command):
    survey = write_survey(tmp_path, TWO_REGION_ROWS)
    config = tmp_path / "run.cfg"
    config.write_text("quadrants =\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main([command, str(survey), "-o", str(out), "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: config key quadrants: quadrants must name at least one quadrant\n"
    )
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["weights", "sweep"])
@pytest.mark.parametrize("source, prefix", [
    (["--quadrant", "B", "--quadrant", "b"], ""),
    (["--config", "run.cfg"], "config key quadrants: "),
])
def test_a_repeated_quadrant_is_a_usage_error(tmp_path, capsys, monkeypatch, command,
                                              source, prefix):
    monkeypatch.chdir(tmp_path)
    survey = write_survey(tmp_path, TWO_REGION_ROWS)
    (tmp_path / "run.cfg").write_text("quadrants = B, chaotic and restless\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main([command, str(survey), "-o", str(out), *source]) == 2
    assert capsys.readouterr() == ("", f"error: {prefix}quadrant B is named twice\n")
    assert not out.exists()


def test_version_flag():
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0


# --- config plumbing details ---


def test_resolve_config_takes_parsed_flags_over_the_file(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("strict = yes\nquadrants = B\n", encoding="utf-8")
    parse = build_parser().parse_args
    # Leaving --strict out keeps the file's value.
    assert resolve_config(parse(["sweep", "s.csv", "--config", str(config)])).strict is True
    assert resolve_config(parse(["sweep", "s.csv"])).strict is False
    # Leaving -o out keeps RunConfig's output_dir.
    assert resolve_config(parse(["weights", "s.csv"])).output_dir == "sitepick_out"
    assert resolve_config(parse(["sweep", "s.csv", "--strict"])).strict is True
    resolved = resolve_config(parse(["sweep", "s.csv", "--config", str(config),
                                     "--region-order", "West, East",
                                     "--quadrant", "A", "--quadrant", "C"]))
    assert resolved.region_order == ("West", "East")
    assert resolved.quadrants == (Quadrant.FULL_OF_LIFE_EXCITING, Quadrant.CALM_TRANQUIL)
    assert resolved.strict is True


def test_load_config_file_parses_every_knob(tmp_path):
    config = tmp_path / "all.cfg"
    config.write_text(
        "\n".join(
            [
                "base_seed = 3",
                "runs_per_k = 10",
                "k_min = 2",
                "k_max = 6",
                "max_iterations = 50",
                "earth_radius_km = 6371.0088",
                "strict = yes",
                "quadrants = a, c",
                "region_order = West, East",
                "workers = 2",
            ]
        ),
        encoding="utf-8",
    )
    loaded = load_config_file(config)
    assert loaded.base_seed == 3
    assert loaded.k_max == 6
    assert loaded.strict is True
    assert loaded.quadrants == (Quadrant.FULL_OF_LIFE_EXCITING, Quadrant.CALM_TRANQUIL)
    assert loaded.region_order == ("West", "East")
    assert loaded.workers == 2


# A text for every run option, and the same option as its flag gives it.
OPTION_TEXTS = {
    "strict": ("yes", ["--strict"]),
    "quadrants": ("b, d", ["--quadrant", "B", "--quadrant", "D"]),
    "base_seed": ("7", None),
    "runs_per_k": ("4", None),
    "k_min": ("3", None),
    "k_max": ("5", None),
    "max_iterations": ("9", None),
    "earth_radius_km": ("6371.0088", None),
    "region_order": ("West, East", None),
    "workers": ("2", None),
}


@pytest.mark.parametrize("key", sorted(OPTION_TEXTS))
def test_each_run_option_reads_alike_from_its_flag_and_the_config_file(tmp_path, key):
    assert set(OPTION_TEXTS) == set(sitepick.cli._RUN_OPTIONS)
    text, flag = OPTION_TEXTS[key]
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {text}\n", encoding="utf-8")
    parse = build_parser().parse_args
    from_file = resolve_config(parse(["sweep", "s.csv", "--config", str(config)]))
    argv = flag or ["--" + key.replace("_", "-"), text]
    from_flag = resolve_config(parse(["sweep", "s.csv", *argv]))
    assert from_file == from_flag != RunConfig(input="s.csv")


@pytest.mark.parametrize(
    "argv", [["weights", "s.csv"], ["sweep", "s.csv"], ["cluster", "s.csv", "--k", "3"]]
)
def test_every_run_option_has_a_flag(argv):
    dests = set(vars(build_parser().parse_args(argv)))
    expected = set(sitepick.cli._RUN_OPTIONS)
    if argv[0] == "cluster":
        expected -= {"k_min", "k_max"}
    elif argv[0] == "weights":
        expected = {"strict", "quadrants"}
    assert dests & set(sitepick.cli._RUN_OPTIONS) == expected


# --- what a run loads ---

# Runs in a fresh interpreter: the test process has these modules loaded
# already. Prints which of them are loaded after the import, after weights,
# at each matrix a serial sweep builds, and after that sweep.
LOADED_BY_A_RUN = """
import json, sys
LAZY = ("hashlib", "_hashlib", "concurrent.futures.process", "multiprocessing")

def loaded():
    return [name for name in LAZY if name in sys.modules]

import sitepick, sitepick.cli
from sitepick import model_selection
report = {"import": loaded(), "at_matrix": []}
build = model_selection._distance_matrix

def recorded_matrix(*args):
    report["at_matrix"].append(loaded())
    return build(*args)

model_selection._distance_matrix = recorded_matrix
survey, out = sys.argv[1:]
assert sitepick.cli.main(["weights", survey, "-o", out + "/w"]) == 0
report["weights"] = loaded()
assert sitepick.cli.main(
    ["sweep", survey, "-o", out + "/s", "--runs-per-k", "2", "--workers", "1"]) == 0
report["sweep"] = loaded()
print(json.dumps(report))
"""


def test_the_pool_and_hashing_load_only_on_the_paths_that_use_them(tmp_path):
    survey = tmp_path / "survey.csv"
    assert main(["synth", "-o", str(survey), "--blobs", "2", "--per-blob", "5"]) == 0
    src = pathlib.Path(sitepick.cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", LOADED_BY_A_RUN, str(survey), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert (report["import"], report["weights"]) == ([], [])
    assert report["at_matrix"] == [[]] * 4
    assert "hashlib" in report["sweep"]
    assert "concurrent.futures.process" not in report["sweep"]
    assert "multiprocessing" not in report["sweep"]
