"""Golden digests of every `sitepick sweep` artifact, and of the `weights`
and `cluster --k 3` artifacts of the serial survey.

Two small fixed synthetic surveys are swept through the CLI, one serially
and one with a two-process pool, and the sha256 of each artifact is compared
with a pinned value. A third, paper-scale survey (one quadrant of
67 participants x 5 regions) is swept at the default k range and restarts,
both serially and with a pool, against one set of digests. Any change to the numeric path (distance matrix, Dunn
scoring, Lloyd iterations, export formatting) that moves a single output
byte fails here. A deliberate change to the outputs must re-pin these
digests and say why in CHANGES.md.
"""

import hashlib

import pytest

from sitepick.cli import main
from sitepick.synth import SynthSpec, synthetic_csv

CASES = {
    "serial": (
        SynthSpec(blobs=3, per_blob=6, spread_km=0.8, quadrants=("A", "B"), seed=11),
        ["--runs-per-k", "6", "--base-seed", "4", "--workers", "1"],
        {
            "clusters_A.geojson": "08c9bd896f060252452e7d675a9fb0a48b08e64163a1934a349b10eb775361cd",
            "clusters_B.geojson": "d82879b5ffebd371fd50e2aabf64b99602f1787c8d6db649bd2a6439da1f45d8",
            "dunn_curve_A.csv": "68031788f5780aa8615daa84427584277085c0fa6799072ae78c8e9aa0b8171c",
            "dunn_curve_B.csv": "a9b50f8e5dfb34d52266c58d0889dd5e93929705fc220546c22f7f5999b0918e",
            "manifest.json": "e72f87a65f22aec4785799a95cf04f3f4621bccf0a0bdc6122387f5ac9f35928",
            "sites_A.csv": "98dcc2ee3238719a29c4e99a303bbb7a3674fee2908dcd49ace1026cfec02b40",
            "sites_B.csv": "e3619c6e09e0915bae2a58741488505140aa7dd2d8464f5a7cda10c24eae564e",
        },
    ),
    "pool": (
        SynthSpec(
            blobs=4, per_blob=8, spread_km=0.5, ring_km=15.0, weight_law="low",
            quadrants=("C", "D"), seed=3,
        ),
        ["--runs-per-k", "5", "--base-seed", "9", "--workers", "2"],
        {
            "clusters_C.geojson": "52f42f67646f901cf23f516cf9e7654a207e16d8e5f554175a36f53deff30554",
            "clusters_D.geojson": "d06b96e3961619e4cb95e6345190b3af39be1063a6cc2ddb2f238053b8f0908a",
            "dunn_curve_C.csv": "6e9fcc35cd43addecc5313661676fb4c2432c7faafa474210fea86b4c1590f64",
            "dunn_curve_D.csv": "214f4afe2940bcabf701d9f781c14df93d313465a9888eda4c8e14d6e11ba8b3",
            "manifest.json": "27e04f98b16de77757fc8e1d1fde0a6f2aff913d9b763d6e429372ce5b4c6481",
            "sites_C.csv": "9e5fe03bad230b4d0169795939661e28630fe9234d1c120d85141c44317dacf4",
            "sites_D.csv": "8982b78395f0704aa1318af33bd9779b001f0583ad9a441e849003d10cec18a0",
        },
    ),
}


# Further subcommands over the "serial" survey and flags: (argv after the
# input path, expected digests).
SERIAL_COMMANDS = {
    "weights": (
        ["weights"],
        {
            "auc_summary.csv": "be0d8c3a0250b0aa1ce19eee5f43c88e6de3146f5f44a31185787f993a018faf",
            "weights.csv": "f23dbec2759631698116eb9c3b6dfd1020ee75450793111e547aeb92028de19d",
        },
    ),
    "cluster": (
        ["cluster", "--k", "3"],
        {
            "clusters_A.geojson": "08c9bd896f060252452e7d675a9fb0a48b08e64163a1934a349b10eb775361cd",
            "clusters_B.geojson": "d82879b5ffebd371fd50e2aabf64b99602f1787c8d6db649bd2a6439da1f45d8",
            "dunn_curve_A.csv": "09be9e9a706b345dd5cf14a618397e18633607f7b6557c6a0dd6d34eea8aa7c6",
            "dunn_curve_B.csv": "e5c72e032d038754720d63de4751551756a91232249c9ba75331a1a7ef73dc6e",
            "manifest.json": "d30ccf03db6c26572f7e066c9c3b31dd88a7372de8df184ce876ece1da75652d",
            "sites_A.csv": "98dcc2ee3238719a29c4e99a303bbb7a3674fee2908dcd49ace1026cfec02b40",
            "sites_B.csv": "e3619c6e09e0915bae2a58741488505140aa7dd2d8464f5a7cda10c24eae564e",
        },
    ),
}


# One quadrant of 335 points swept with the CLI defaults: k 2..18 and 100
# restarts, which at k = 18 run as batches of 43, 43 and 14.
PAPER_SCALE = (
    SynthSpec(blobs=5, per_blob=67, quadrants=("A",), seed=16),
    {
        "clusters_A.geojson": "ed83661d71e6279ab76b992471757c4cb3d92ae673405fa2c88d8166427ec016",
        "dunn_curve_A.csv": "ebcf5e0ac8c247d2a789083723df1d0dc04d807ee23fba98178789e3bf91b33f",
        "manifest.json": "76a3c95bb73485ed86586aff848d7ed8a88622673190d0cdc79854ac9ef9a8b5",
        "sites_A.csv": "3b87d4b6f891a9931ecb9eb2dd7256467af3b7fc2b669fde1dd0c4956b50e38b",
    },
)


def digests(directory):
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_artifact_digests(tmp_path, name):
    spec, flags, expected = CASES[name]
    survey = tmp_path / "survey.csv"
    survey.write_bytes(synthetic_csv(spec))
    out = tmp_path / "out"
    assert main(["sweep", str(survey), "-o", str(out)] + flags) == 0
    assert digests(out) == expected


@pytest.mark.parametrize("command", sorted(SERIAL_COMMANDS))
def test_serial_command_artifact_digests(tmp_path, command):
    spec, flags, _ = CASES["serial"]
    argv, expected = SERIAL_COMMANDS[command]
    survey = tmp_path / "survey.csv"
    survey.write_bytes(synthetic_csv(spec))
    out = tmp_path / "out"
    if argv[0] == "weights":
        flags = []  # weights takes none of the sweep flags
    assert main([argv[0], str(survey), "-o", str(out)] + argv[1:] + flags) == 0
    assert digests(out) == expected


def test_weights_reads_no_sweep_setting_of_its_config_file(tmp_path):
    # One config file serves every command; weights parses its sweep keys
    # but reads none of them, so values a sweep rejects change nothing.
    spec, _, _ = CASES["serial"]
    _, expected = SERIAL_COMMANDS["weights"]
    survey = tmp_path / "survey.csv"
    survey.write_bytes(synthetic_csv(spec))
    config = tmp_path / "run.cfg"
    config.write_text(
        "runs_per_k = 0\nk_min = 1\nworkers = 0\nearth_radius_km = 1e300\n", encoding="utf-8"
    )
    out = tmp_path / "out"
    assert main(["weights", str(survey), "-o", str(out), "--config", str(config)]) == 0
    assert digests(out) == expected


def test_only_sweep_and_cluster_read_region_order(tmp_path, capsys):
    spec, _, _ = CASES["serial"]
    _, expected = SERIAL_COMMANDS["weights"]
    survey = tmp_path / "survey.csv"
    survey.write_bytes(synthetic_csv(spec))
    config = tmp_path / "run.cfg"
    config.write_text("region_order =\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["weights", str(survey), "-o", str(out), "--config", str(config)]) == 0
    assert digests(out) == expected
    capsys.readouterr()
    for argv in (["sweep"], ["cluster", "--k", "3"]):
        swept = tmp_path / argv[0]
        assert main([argv[0], str(survey), "-o", str(swept), "--config", str(config),
                     *argv[1:]]) == 2
        assert capsys.readouterr() == ("", "error: region_order must name at least one region\n")
        assert not swept.exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_paper_scale_sweep_digests(tmp_path, workers):
    spec, expected = PAPER_SCALE
    survey = tmp_path / "survey.csv"
    survey.write_bytes(synthetic_csv(spec))
    out = tmp_path / "out"
    assert main(["sweep", str(survey), "-o", str(out), "--workers", workers]) == 0
    assert digests(out) == expected
