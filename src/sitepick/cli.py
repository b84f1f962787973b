"""Command-line pipeline: survey CSV in, clustered site recommendations out.

Subcommands:
  weights   parse a survey and report reliability weights and per-quadrant AUC
            (of the run options it takes only --strict and --quadrant)
  sweep     full pipeline: sweep k per quadrant, pick the best, emit artifacts
  cluster   sweep at the one k given by --k (it takes no --k-min or --k-max)
  synth     generate a synthetic survey CSV for demos and tests

Configuration is read from flags and, optionally, a key=value config file
given with --config; flags win over the file. One file serves every command,
though weights reads none of its sweep keys. cluster --k K is sweep with
k_min = k_max = K, whatever the file says. A quadrant list, from --quadrant
or the quadrants key, goes through Quadrant.from_tokens: each token as a CSV
cell takes it, at least one and none twice. Each other setting is checked
where it is read: the earth radius and region_order by sweep and cluster,
before the survey. Environment variables are
deliberately never consulted, so a command line plus its files fully
determines the run. Exit codes: 0 success, 2 bad configuration or usage
(including a --config or --column-map file that is missing or not UTF-8
text, and an output directory that cannot be created or written; one at or
under a file fails before the survey is read), 3
unparseable input (including input that is not UTF-8 text), 4 clustering
that produced no scoreable partition or lost a cluster. A run that fails
writes no artifacts: all go to temp files before any is renamed into place,
and the old manifest.json is removed before the first rename.

manifest.json records the resolved RunConfig less the fields in _UNRECORDED,
plus the tool version, the input digest, the column map and one summary per
quadrant.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .clustering import DEFAULT_MAX_ITERATIONS, HaversineMetric
from .errors import (
    ConfigError,
    DegenerateClusteringError,
    EmptyClusterError,
    ParseError,
    SitepickError,
    SweepError,
    ValidationError,
)
from .geo import EARTH, EARTH_RADIUS_RANGE_KM, EarthModel
from .io_pipeline import (
    ParseResult,
    Quadrant,
    QuadrantPoints,
    QuadrantSummary,
    build_weighted_points,
    csv_field,
    export_dunn_curve,
    export_geojson,
    export_manifest,
    export_site_table,
    parse_key_values,
    parse_responses,
    sha256_digest,
)
from .model_selection import (
    DEFAULT_RUNS_PER_K, candidate_ks, default_k_max, sweep_quadrants as sweep
)
from .sites import DEFAULT_REGION_ORDER, assign_site_ids, select_representatives
from .synth import WEIGHT_LAWS, SynthSpec, synthetic_csv
from .weighting import FrequencyCategory, frequency_weight, reliability_auc, reliability_weight


@dataclass(frozen=True)
class RunConfig:
    """Resolved knobs for a pipeline run (defaults < config file < flags)."""

    input: Optional[str] = None
    output_dir: str = "sitepick_out"
    base_seed: int = 0
    runs_per_k: int = DEFAULT_RUNS_PER_K
    k_min: int = 2
    k_max: Optional[int] = None  # None: floor(sqrt(n)) per quadrant
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    earth_radius_km: float = EARTH.radius_km
    strict: bool = False
    quadrants: tuple[Quadrant, ...] = tuple(Quadrant)
    region_order: tuple[str, ...] = DEFAULT_REGION_ORDER
    workers: int = 1


# manifest.json records every RunConfig field but these, which change no
# artifact byte: the two paths, and workers (acceptance criterion 6 pins that
# artifacts do not depend on it). quadrants is recorded as the per-quadrant
# summaries. A new field that changes no byte, such as an output path for run
# stats or a memory budget, belongs here too.
_UNRECORDED = ("input", "output_dir", "workers", "quadrants")


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _parse_list(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


# Each run option once: config key -> (text reader, flag help), in --help order.
# Its flag is --key-with-dashes, except --strict (no value) and --quadrant.
_QUADRANT_HELP = "a letter or label, as in the CSV's quadrant column (repeatable; default all)"
_RUN_OPTIONS = {
    "strict": (_parse_bool, "treat any row diagnostic as a fatal parse error"),
    "quadrants": (lambda raw: Quadrant.from_tokens(_parse_list(raw)),
                  "quadrant to process: " + _QUADRANT_HELP),
    "base_seed": (int, f"seed all runs derive from (default {RunConfig.base_seed})"),
    "runs_per_k": (int, f"restarts per candidate k (default {RunConfig.runs_per_k})"),
    "k_min": (int, f"smallest candidate k (default {RunConfig.k_min})"),
    "k_max": (int, "largest candidate k (default: floor(sqrt(n)) per quadrant)"),
    "max_iterations": (int, f"iteration cap per run (default {RunConfig.max_iterations})"),
    "earth_radius_km": (float, "sphere radius for distances, within [%g, %g] (default %g)"
                        % (*EARTH_RADIUS_RANGE_KM, RunConfig.earth_radius_km)),
    "region_order": (_parse_list, "comma-separated region ordering for site tables"),
    "workers": (int, "processes for the sweep, at most one per (quadrant, k) cell and per "
                     "CPU; each holds one quadrant's 8*n*n-byte distance matrix at a time "
                     "and up to 2 MB of k-means scratch; results do not depend on this"),
}


def _read_key_values(path: "str | Path", what: str) -> "dict[str, str]":
    """Parse a UTF-8 key=value file, turning an unreadable file into ConfigError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {str(path)!r}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"{what} {str(path)!r} is not UTF-8 text: "
            f"byte 0x{exc.object[exc.start]:02x} at offset {exc.start}"
        ) from None
    return parse_key_values(text)


def load_config_file(path: "str | Path") -> RunConfig:
    """RunConfig from a key=value file; unknown keys are an error."""
    fields: dict = {}
    for key, raw in _read_key_values(path, "config file").items():
        if key not in _RUN_OPTIONS:
            known = ", ".join(sorted(_RUN_OPTIONS))
            raise ConfigError(f"unknown config key {key!r} (known: {known})")
        try:
            fields[key] = _RUN_OPTIONS[key][0](raw)
        except SitepickError as exc:
            raise ConfigError(f"config key {key}: {exc}") from None
        except ValueError:
            raise ConfigError(f"config key {key}: could not parse {raw!r}") from None
    return RunConfig(**fields)


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, the --config file and flags; cluster's --k K sets k_min = k_max = K."""
    config = RunConfig()
    if args.config is not None:
        config = load_config_file(args.config)
    overrides: dict = {}
    for name in ("input", "output_dir", *_RUN_OPTIONS):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = Quadrant.from_tokens(value) if name == "quadrants" else value
    if getattr(args, "k", None) is not None:
        overrides["k_min"] = overrides["k_max"] = args.k
    return replace(config, **overrides)


def _load_column_map(path: "str | None") -> "dict[str, str] | None":
    return None if path is None else _read_key_values(path, "column map")


def _parse_survey(
    config: RunConfig, column_map: "dict[str, str] | None"
) -> tuple[bytes, ParseResult]:
    assert config.input is not None
    try:
        data = Path(config.input).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read input {config.input!r}: {exc}") from exc
    parsed = parse_responses(data, column_map=column_map, strict=config.strict)
    sys.stderr.write("".join(f"warning: {diagnostic}\n" for diagnostic in parsed.diagnostics))
    return data, parsed


def _write(directory: Path, files: "list[tuple[str, bytes]]") -> None:
    """Write each (name, payload) to a temp file in directory, then rename them
    into place in order, the last entry only after its old copy is removed.
    A failure removes the temp files: a failed write leaves directory as it
    was, and a failed rename leaves no last entry."""
    temps: list[Path] = []
    try:
        directory.mkdir(parents=True, exist_ok=True)
        for name, payload in files:
            temps.append(directory / f".{name}.{os.getpid()}.tmp")
            temps[-1].write_bytes(payload)
        # A rename that fails midway must not leave the old manifest.json
        # describing a mix of old and new artifacts.
        (directory / files[-1][0]).unlink(missing_ok=True)
        for (name, _), temp in zip(files, temps):
            os.replace(temp, directory / name)
    except OSError as exc:
        for temp in temps:
            temp.unlink(missing_ok=True)
        raise ConfigError(f"cannot write into {str(directory)!r}: {exc.strerror or exc}") from exc


def _check_output_dir(directory: Path) -> None:
    """Raise ConfigError when directory, or its nearest existing ancestor,
    is not a directory, so that a run `_write` would fail does not start."""
    for path in (directory, *directory.parents):
        if path.exists():
            if not path.is_dir():
                raise ConfigError(f"cannot write into {str(path)!r}: Not a directory")
            return


def cmd_weights(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    out_dir = Path(config.output_dir)
    _check_output_dir(out_dir)
    _, parsed = _parse_survey(config, _load_column_map(args.column_map))
    lines = ["source_row,participant_id,quadrant,region,frequency_factor,avg_duration_min,weight"]
    summary = ["quadrant,label,n_points,auc"]
    # Keyed by identity: hashing an enum member runs Python code, and the
    # lookup runs once per accepted row.
    factor_by_id = {id(category): frequency_weight(category) for category in FrequencyCategory}
    source_rows, participants, regions = parsed.rows, parsed.participant_ids, parsed.regions
    categories, durations = parsed.categories, parsed.durations_min
    for quadrant in config.quadrants:
        letter = quadrant.letter
        weights: list[float] = []
        for i in [i for i, q in enumerate(parsed.quadrants) if q is quadrant]:
            factor = factor_by_id[id(categories[i])]
            weights.append(reliability_weight(factor, durations[i]))
            lines.append(
                f"{source_rows[i]},{csv_field(participants[i])},{letter},{csv_field(regions[i])},"
                f"{factor},{durations[i]:.6f},{weights[-1]:.12f}"
            )
        n = len(weights)
        if not n:
            print(f"quadrant {letter} ({quadrant.label}): no responses", file=sys.stderr)
            continue
        auc = reliability_auc(weights)
        summary.append(f"{letter},{quadrant.label},{n},{auc:.12f}")
        print(f"quadrant {letter} ({quadrant.label}): n={n} auc={auc:.4f}")
    tables = (("weights.csv", lines), ("auc_summary.csv", summary))
    _write(out_dir, [(name, ("\n".join(rows) + "\n").encode("utf-8")) for name, rows in tables])
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    _check_output_dir(Path(config.output_dir))
    metric = HaversineMetric(EarthModel(config.earth_radius_km))
    if not config.region_order:
        raise ConfigError("region_order must name at least one region")
    column_map = _load_column_map(args.column_map)
    data, parsed = _parse_survey(config, column_map)
    # Phase 1: each selected quadrant's points and candidate ks (None when it
    # has no responses), so a k range that cannot be met fails before any sweep.
    jobs: list[tuple[Quadrant, QuadrantPoints, Optional[Sequence[int]]]] = []
    for quadrant in config.quadrants:
        points = build_weighted_points(parsed.responses, quadrant)
        n = len(points.responses)
        ks = None
        if n:
            try:
                top = default_k_max(n) if config.k_max is None else config.k_max
                ks = candidate_ks(n, range(config.k_min, top + 1))
            except SitepickError as exc:
                raise type(exc)(f"{exc} (quadrant {quadrant.letter})") from exc
        jobs.append((quadrant, points, ks))
    # Phase 2: one sweep over the (quadrant, k) cells of every quadrant, then
    # quadrant by quadrant, the first failing sweep decides the error.
    # Artifacts are rendered in full before anything is written, so a
    # quadrant that fails leaves no artifacts of the quadrants before it.
    results = sweep(
        [(points.coords, points.weights, ks) for _, points, ks in jobs if ks is not None],
        runs_per_k=config.runs_per_k,
        base_seed=config.base_seed,
        metric=metric,
        max_iterations=config.max_iterations,
        workers=config.workers,
    )
    artifacts: list[tuple[str, bytes]] = []
    summaries: dict[str, QuadrantSummary] = {}
    for quadrant, points, ks in jobs:
        letter, n = quadrant.letter, len(points.responses)
        if ks is None:
            print(f"quadrant {letter} ({quadrant.label}): no responses, skipped", file=sys.stderr)
            continue
        auc = reliability_auc(points.weights)
        try:
            swept = next(results)
            best = swept.best
            reps = select_representatives(points.coords, best.labels, best.centers, metric)
            sites = assign_site_ids(
                reps, quadrant, points.responses, region_order=config.region_order
            )
            artifacts += [
                (f"clusters_{letter}.geojson", export_geojson(points, best, sites)),
                (f"sites_{letter}.csv", export_site_table(sites)),
                (f"dunn_curve_{letter}.csv", export_dunn_curve(swept)),
            ]
        except SitepickError as exc:
            raise type(exc)(f"{exc} (quadrant {letter})") from exc
        if not best.converged:
            print(f"warning: quadrant {letter}: best run at k={swept.optimal_k} stopped at "
                  f"max_iterations={config.max_iterations} without converging", file=sys.stderr)
        summaries[letter] = QuadrantSummary(
            label=quadrant.label,
            n_points=n,
            auc=auc,
            k_max=max(swept.per_k),
            optimal_k=swept.optimal_k,
            best_dunn=best.dunn.value,
            min_inter_km=best.dunn.min_inter_km,
            max_intra_km=best.dunn.max_intra_km,
            sites=len(sites),
        )
        print(
            f"quadrant {letter} ({quadrant.label}): n={n} auc={auc:.4f} "
            f"k={swept.optimal_k} dunn={best.dunn.value:.4f} sites={len(sites)}"
        )
    if not summaries:
        raise ConfigError("no selected quadrant had any responses")
    settings = {key: value for key, value in asdict(config).items() if key not in _UNRECORDED}
    settings.update(tool_version=__version__, input_digest=sha256_digest(data),
                    column_map=column_map)
    manifest = export_manifest(settings, summaries)
    _write(Path(config.output_dir), artifacts + [("manifest.json", manifest)])
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    spec = SynthSpec(
        blobs=args.blobs,
        per_blob=args.per_blob,
        spread_km=args.spread_km,
        ring_km=args.ring_km,
        center_lat_deg=args.center_lat,
        center_lon_deg=args.center_lon,
        weight_law=args.weight_law,
        quadrants=tuple(args.quadrant) if args.quadrant else SynthSpec.quadrants,
        seed=args.seed,
    )
    target = Path(args.output)
    _check_output_dir(target.parent)
    if target.is_dir():
        raise ConfigError(f"cannot write {str(target)!r}: Is a directory")
    payload = synthetic_csv(spec)
    _write(target.parent, [(target.name, payload)])
    rows = payload.count(b"\n") - 1
    print(f"wrote {rows} synthetic responses to {target}")
    return 0


def _add_run_options(parser: argparse.ArgumentParser, keys: Sequence[str]) -> None:
    """The arguments every run command takes, and a flag for each of `keys`."""
    parser.add_argument("input", help="survey CSV file")
    parser.add_argument("-o", "--output-dir",
                        help=f"directory for artifacts (default: {RunConfig.output_dir})")
    parser.add_argument("--config", help="key=value config file; flags override it")
    parser.add_argument("--column-map",
                        help="key=value file renaming canonical CSV columns to yours")
    for key in keys:
        reader, help_text = _RUN_OPTIONS[key]
        if key == "strict":
            parser.add_argument("--strict", action="store_const", const=True, help=help_text)
        elif key == "quadrants":
            parser.add_argument("--quadrant", action="append", dest=key, metavar="QUADRANT",
                                help=help_text)
        else:
            parser.add_argument("--" + key.replace("_", "-"), type=reader, help=help_text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sitepick",
        description="Pick representative sites from weighted survey locations.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    weights = commands.add_parser("weights", help="compute reliability weights and AUC")
    _add_run_options(weights, ("strict", "quadrants"))
    weights.set_defaults(handler=cmd_weights)

    cluster = commands.add_parser("cluster", help="cluster quadrants at a fixed k")
    _add_run_options(cluster, [key for key in _RUN_OPTIONS if key not in ("k_min", "k_max")])
    cluster.add_argument("--k", type=int, required=True, help="number of clusters")
    cluster.set_defaults(handler=cmd_sweep)

    swp = commands.add_parser("sweep", help="sweep k, keep the best clustering per quadrant")
    _add_run_options(swp, _RUN_OPTIONS)
    swp.set_defaults(handler=cmd_sweep)

    synth = commands.add_parser("synth", help="generate a synthetic survey CSV")
    synth.add_argument("-o", "--output", default="synthetic_survey.csv",
                       help="output CSV path (default: %(default)s)")
    synth.add_argument("--blobs", type=int, default=SynthSpec.blobs, help="blobs per quadrant")
    synth.add_argument("--per-blob", type=int, default=SynthSpec.per_blob, help="points per blob")
    synth.add_argument("--spread-km", type=float, default=SynthSpec.spread_km,
                       help="Gaussian spread of each blob in km")
    synth.add_argument("--ring-km", type=float, default=SynthSpec.ring_km,
                       help="radius of the ring blobs are placed on")
    synth.add_argument("--center-lat", type=float, default=SynthSpec.center_lat_deg)
    synth.add_argument("--center-lon", type=float, default=SynthSpec.center_lon_deg)
    synth.add_argument("--weight-law", choices=WEIGHT_LAWS, default=SynthSpec.weight_law,
                       help="how visit counts and durations are drawn")
    synth.add_argument("--quadrant", action="append",
                       help="quadrant to generate: " + _QUADRANT_HELP)
    synth.add_argument("--seed", type=int, default=SynthSpec.seed)
    synth.set_defaults(handler=cmd_synth)
    return parser


def main(argv: "Sequence[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DegenerateClusteringError, EmptyClusterError, SweepError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
