#!/usr/bin/env python3
"""End-to-end demo on synthetic data, no input files needed.

Generates a survey of Gaussian blobs on a ring, weights the responses,
sweeps the cluster count for every quadrant and checks what the pipeline
recovered: it exits 1 unless every quadrant's optimal k equals --blobs,
which it should with blobs well apart.
"""

import argparse
import json
import sys
from pathlib import Path

from sitepick.cli import main as sitepick_main
from sitepick.io_pipeline import parse_responses
from sitepick.synth import SynthSpec, synthetic_csv


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--blobs", type=int, default=4)
    parser.add_argument("--per-blob", type=int, default=12)
    parser.add_argument("--spread-km", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--runs-per-k", type=int, default=25)
    parser.add_argument("-o", "--output-dir", default="demo_out")
    args = parser.parse_args(argv)

    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    survey = out / "synthetic_survey.csv"
    spec = SynthSpec(
        blobs=args.blobs,
        per_blob=args.per_blob,
        spread_km=args.spread_km,
        seed=args.seed,
    )
    survey.write_bytes(synthetic_csv(spec))
    parsed = parse_responses(survey.read_bytes())
    print(f"generated {parsed.accepted} responses across 4 quadrants -> {survey}")

    code = sitepick_main(
        [
            "sweep",
            str(survey),
            "-o",
            str(out),
            "--runs-per-k",
            str(args.runs_per_k),
            "--base-seed",
            str(args.seed),
        ]
    )
    if code != 0:
        return code
    print(f"artifacts in {out}/ (clusters_*.geojson, sites_*.csv, "
          f"dunn_curve_*.csv, manifest.json)")
    quadrants = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["quadrants"]
    missed = {letter: q["optimal_k"] for letter, q in quadrants.items()
              if q["optimal_k"] != args.blobs}
    if missed:
        print(f"error: expected k = {args.blobs} in every quadrant, got {missed}",
              file=sys.stderr)
        return 1
    print(f"recovered k = {args.blobs} in quadrants {', '.join(quadrants)}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
