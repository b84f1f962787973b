"""Property test of the whole command line: generated surveys and flags, run
in-process through main() with one and with two workers."""

import contextlib
import io
import os
import pathlib
import random
import re
import tempfile

from hypothesis import event, given, settings, strategies as st

from sitepick.cli import main

HEADER = (
    "participant_id,quadrant,region,latitude_deg,longitude_deg,"
    "visit_count_category,avg_duration_min"
)

# Bad cells for the number columns and for the text columns.
_BAD_NUMBERS = ["", "x", "nan", "inf", "-inf", "1e999"]
_BAD_TEXT = ["", "  ", "often"]
_CATEGORIES = ["1 to 3", "4 to 6", "7 to 9", "10 or more"]


def _point(rng, kind):
    """[lat, lon] in degrees: scattered over a city, one shared point, or
    within about ten metres of a pole."""
    if kind == "mixed":
        kind = rng.choice(["scattered", "coincident", "pole"])
    if kind == "scattered":
        return rng.uniform(1.2, 1.5), rng.uniform(103.6, 104.0)
    if kind == "coincident":
        return 1.3, 103.8
    return rng.choice([1.0, -1.0]) * (90.0 - rng.uniform(0.0, 1e-4)), rng.uniform(-180.0, 180.0)


@st.composite
def _rows(draw, letter):
    """One quadrant's rows, possibly none, drawn from a seeded generator:
    their points of one kind, and some with a bad cell or cut short."""
    n = draw(st.integers(0, 14))
    kind = draw(st.sampled_from(["scattered", "coincident", "pole", "mixed"]))
    flawed = draw(st.integers(0, 2))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for i in range(n):
        lat, lon = _point(rng, kind)
        cells = [f"{letter}{i}", letter, rng.choice(["East", "West"]), repr(lat), repr(lon),
                 rng.choice(_CATEGORIES), repr(rng.uniform(0.0, 60.0))]
        if i < flawed:
            if rng.random() < 0.8:
                at = rng.randrange(len(cells))
                cells[at] = rng.choice(_BAD_NUMBERS if at in (3, 4, 6) else _BAD_TEXT)
            else:
                cells = cells[: rng.randrange(1, len(cells))]
        rows.append(",".join(cells))
    return rows


@st.composite
def _runs(draw):
    """A survey's text and the flags of one `sweep` or `cluster` run on it."""
    rows = [row for letter in "ABCD" for row in draw(_rows(letter))]
    rows = draw(st.permutations(rows))
    argv = [draw(st.sampled_from(["sweep", "cluster"])),
            "--runs-per-k", str(draw(st.integers(1, 3))),
            "--base-seed", str(draw(st.integers(0, 3)))]
    if argv[0] == "cluster":
        argv += ["--k", str(draw(st.one_of(st.integers(2, 4), st.integers(2, 50))))]
    else:
        k_max = draw(st.one_of(st.none(), st.integers(2, 8), st.integers(2, 50)))
        if k_max is not None:
            argv += ["--k-max", str(k_max)]
        if draw(st.booleans()):
            argv += ["--k-min", str(draw(st.integers(2, 4)))]
    for letter in draw(st.lists(st.sampled_from("ABCD"), unique=True, max_size=3)):
        argv += ["--quadrant", letter]
    if draw(st.integers(0, 3)) == 0:
        argv.append("--strict")
    return "\n".join([HEADER, *rows]) + "\n", argv


def _run(survey, argv, workers):
    """main()'s exit code, stdout and the output directory's files, if any."""
    out = pathlib.Path(survey).parent / f"out{workers}"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([*argv, survey, "-o", str(out), "--workers", str(workers)])
    files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else None
    return code, stdout.getvalue(), files


# A number that cannot be written back: nan, inf or infinity in any case.
_NOT_FINITE = re.compile(rb"(?i)\b-?(nan|inf|infinity)\b")


@settings(max_examples=150)
@given(_runs())
def test_every_run_exits_cleanly_and_alike_for_one_and_two_workers(run):
    text, argv = run
    with tempfile.TemporaryDirectory() as scratch:
        survey = os.path.join(scratch, "survey.csv")
        pathlib.Path(survey).write_text(text, encoding="utf-8")
        code, stdout, files = _run(survey, argv, workers=1)
        assert code in (0, 2, 3, 4)
        event(f"{argv[0]} exits {code}")
        if code == 0:
            assert files is not None and "manifest.json" in files
            for name, payload in files.items():
                assert not _NOT_FINITE.search(payload), name
        else:
            assert files is None
        assert _run(survey, argv, workers=2) == (code, stdout, files)
