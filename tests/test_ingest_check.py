"""The benchmark's own check of `sitepick weights`, run on a small survey, so a
parser regression fails here and not only in a benchmark run."""

import importlib.util
import pathlib
import sys

from sitepick import cli

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # checks.py imports gen by its bare name, and dataclasses look a
    # module up in sys.modules while its classes are created.
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_weights_passes_the_benchmark_ingest_check(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    gen = _load("gen", monkeypatch)
    checks = _load("checks", monkeypatch)
    survey = gen.ingest_survey(7, rows_per_quadrant=500)
    path = tmp_path / "survey.csv"
    path.write_bytes(survey.csv_bytes)
    out = tmp_path / "out"
    assert survey.malformed
    assert cli.main(["weights", str(path), "-o", str(out)]) == 0
    problems = checks.check_ingest(out, capsys.readouterr().err, survey)
    assert problems == {letter: [] for letter, _ in gen.QUADRANTS}
