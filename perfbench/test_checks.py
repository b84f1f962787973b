"""The benchmark's output checks must pass real artifacts and reject
hand-corrupted ones.

Run from the repository root: python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
from pathlib import Path

import pytest

import checks
import gen

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from sitepick import cli  # noqa: E402


def _edit(path: Path, change) -> None:
    lines = path.read_text(encoding="utf-8").split("\n")
    index = change(lines)
    assert index is not None, f"nothing to corrupt in {path.name}"
    path.write_text("\n".join(lines), encoding="utf-8")


@pytest.fixture(scope="module")
def sweep_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("sweep")
    survey = gen.clustered_survey(3, ("A",), participants=12, blobs=4)
    (work / "survey.csv").write_bytes(survey.csv_bytes)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["sweep", str(work / "survey.csv"), "-o", str(work / "out"),
                         "--k-max", "6", "--runs-per-k", "10"])
    assert code == 0
    return survey, work / "out"


@pytest.fixture(scope="module")
def ingest_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("ingest")
    survey = gen.ingest_survey(5, rows_per_quadrant=300)
    (work / "survey.csv").write_bytes(survey.csv_bytes)
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = cli.main(["weights", str(work / "survey.csv"), "-o", str(work / "out")])
    assert code == 0
    return survey, work / "out", stderr.getvalue()


def _copy(out: Path, tmp_path: Path) -> Path:
    return Path(shutil.copytree(out, tmp_path / "out"))


def test_sweep_artifacts_pass(sweep_run):
    survey, out = sweep_run
    assert checks.check_sweep(out, survey, range(2, 7)) == {"A": []}


def test_ingest_artifacts_pass(ingest_run):
    survey, out, stderr = ingest_run
    assert survey.malformed
    assert checks.check_ingest(out, stderr, survey) == {letter: [] for letter, _ in gen.QUADRANTS}


def test_site_moved_off_its_input_row_is_rejected(sweep_run, tmp_path):
    survey, out = sweep_run
    out = _copy(out, tmp_path)

    def move_first_site(lines):
        cells = lines[1].split(",")
        cells[2] = f"{float(cells[2]) + 1e-6:.9f}"
        lines[1] = ",".join(cells)
        return 1

    _edit(out / "sites_A.csv", move_first_site)
    assert any("verbatim" in p for p in checks.check_sweep(out, survey, range(2, 7))["A"])


def test_relabelled_point_is_rejected(sweep_run, tmp_path):
    survey, out = sweep_run
    out = _copy(out, tmp_path)

    def relabel_first_response(lines):
        for index, line in enumerate(lines):
            if '"role": "response", "cluster": 0,' in line:
                lines[index] = line.replace('"cluster": 0,', '"cluster": 1,')
                return index
        return None

    _edit(out / "clusters_A.geojson", relabel_first_response)
    assert checks.check_sweep(out, survey, range(2, 7))["A"]


def test_weight_changed_in_last_printed_digit_is_rejected(ingest_run, tmp_path):
    survey, out, stderr = ingest_run
    out = _copy(out, tmp_path)
    changed = {}

    def bump_last_digit(lines):
        line = lines[1]
        lines[1] = line[:-1] + str((int(line[-1]) + 1) % 10)
        changed["letter"] = line.split(",")[2]
        return 1

    _edit(out / "weights.csv", bump_last_digit)
    problems = checks.check_ingest(out, stderr, survey)
    assert [letter for letter, found in problems.items() if found] == [changed["letter"]]


def test_malformed_row_dropped_from_stderr_is_rejected(ingest_run):
    survey, out, stderr = ingest_run
    lines = stderr.splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("warning: row "))
    row = int(lines[first].split()[2].rstrip(","))
    del lines[first]
    problems = checks.check_ingest(out, "\n".join(lines), survey)
    assert [letter for letter, found in problems.items() if found] == [survey.malformed[row][0]]
