"""Per-layer tracing of one CLI run, installed from outside the program.

Each public function through which a module of ``sitepick`` is entered is
wrapped where it is defined and everywhere another ``sitepick`` module has
bound it by name (``from .geo import haversine_km`` makes a second binding
in ``sitepick.clustering``). The wrappers count calls and add up time; they
change no argument and no result. A function that no longer exists is not
an error: its metrics are listed in ``Tracer.absent`` and left out.
"""

from __future__ import annotations

import sys
import time

import numpy as np

# (module, function, metrics filled by its wrapper); the first metric of a
# timed wrapper is its busy time.
TARGETS = (
    ("io_pipeline", "parse_responses",
     ("io_pipeline.parse_s", "io_pipeline.rows", "io_pipeline.diagnostics")),
    ("io_pipeline", "build_weighted_points", ("io_pipeline.build_weighted_s",)),
    ("io_pipeline", "export_geojson", ("io_pipeline.export_s", "io_pipeline.export_bytes")),
    ("io_pipeline", "export_site_table", ("io_pipeline.export_s", "io_pipeline.export_bytes")),
    ("io_pipeline", "export_dunn_curve", ("io_pipeline.export_s", "io_pipeline.export_bytes")),
    ("weighting", "reliability_weight", ("weighting.weight_s", "weighting.weight_calls")),
    ("weighting", "frequency_weight", ("weighting.frequency_calls",)),
    ("weighting", "reliability_auc", ("weighting.auc_s",)),
    ("geo", "haversine_km", tuple(
        f"geo.{kind}_{what}"
        for kind in ("matrix", "assign", "single", "between")
        for what in ("calls", "evals", "s")
    ) + ("geo.matrix_bytes",)),
    ("geo", "from_degrees", ("geo.from_degrees_calls",)),
    ("geo", "coords_array", ("geo.coords_array_points",)),
    ("model_selection", "sweep", ("model_selection.sweep_s", "model_selection.sweep_other_s")),
    ("sites", "select_representatives", ("sites.select_s",)),
    ("sites", "assign_site_ids", ("sites.assign_ids_s",)),
)


class Tracer:
    """Counters and busy times for one process; install() once per run."""

    def __init__(self) -> None:
        self.values: dict[str, float] = {}
        self.absent: list[str] = []
        self._sweep_depth = 0
        self._geo_in_sweep = 0.0

    def install(self) -> None:
        for module_name, function, metrics in TARGETS:
            module = sys.modules.get(f"sitepick.{module_name}")
            original = getattr(module, function, None)
            if original is None:
                self.absent.extend(m for m in metrics if m not in self.absent)
                continue
            for metric in metrics:
                self.values.setdefault(metric, 0)
            wrapper = getattr(self, f"_wrap_{function}", None)
            wrapped = wrapper(original) if wrapper else self._timed(original, metrics[0])
            for name, bound in list(sys.modules.items()):
                if name == "sitepick" or name.startswith("sitepick."):
                    for attr, value in list(vars(bound).items()):
                        if value is original:
                            setattr(bound, attr, wrapped)

    def report(self) -> "dict[str, float]":
        values = dict(self.values)
        if "model_selection.sweep_other_s" in values:
            values["model_selection.sweep_other_s"] = values["model_selection.sweep_s"] - self._geo_in_sweep
        return values

    def _timed(self, original, metric, after=None):
        values = self.values

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = original(*args, **kwargs)
            values[metric] += time.perf_counter() - start
            if after is not None:
                after(result)
            return result

        return wrapper

    def _counted(self, original, metric):
        values = self.values

        def wrapper(*args, **kwargs):
            values[metric] += 1
            return original(*args, **kwargs)

        return wrapper

    def _wrap_parse_responses(self, original):
        def after(parsed):
            self.values["io_pipeline.rows"] += parsed.total_rows
            self.values["io_pipeline.diagnostics"] += len(parsed.diagnostics)

        return self._timed(original, "io_pipeline.parse_s", after)

    def _export(self, original):
        def after(payload):
            self.values["io_pipeline.export_bytes"] += len(payload)

        return self._timed(original, "io_pipeline.export_s", after)

    _wrap_export_geojson = _wrap_export_site_table = _wrap_export_dunn_curve = _export

    def _wrap_reliability_weight(self, original):
        def after(_):
            self.values["weighting.weight_calls"] += 1

        return self._timed(original, "weighting.weight_s", after)

    def _wrap_frequency_weight(self, original):
        return self._counted(original, "weighting.frequency_calls")

    def _wrap_from_degrees(self, original):
        return self._counted(original, "geo.from_degrees_calls")

    def _wrap_coords_array(self, original):
        values = self.values

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = original(*args, **kwargs)
            if self._sweep_depth:
                self._geo_in_sweep += time.perf_counter() - start
            values["geo.coords_array_points"] += len(result)
            return result

        return wrapper

    def _wrap_haversine_km(self, original):
        """Classifies each call by result shape: n x n is the pairwise
        matrix, n x 1 a single center (seeding, repair, sites), n x k the
        Lloyd assignment and a flat result row-aligned pairs (objective)."""
        values = self.values

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = original(*args, **kwargs)
            elapsed = time.perf_counter() - start
            shape = np.shape(result)
            if len(shape) != 2:
                kind = "between"
            elif shape[1] == 1:
                kind = "single"
            elif shape[0] == shape[1]:
                kind = "matrix"
                values["geo.matrix_bytes"] += 8 * shape[0] * shape[1]
            else:
                kind = "assign"
            values[f"geo.{kind}_calls"] += 1
            values[f"geo.{kind}_evals"] += int(np.size(result))
            values[f"geo.{kind}_s"] += elapsed
            if self._sweep_depth:
                self._geo_in_sweep += elapsed
            return result

        return wrapper

    def _wrap_sweep(self, original):
        values = self.values

        def wrapper(*args, **kwargs):
            self._sweep_depth += 1
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                values["model_selection.sweep_s"] += time.perf_counter() - start
                self._sweep_depth -= 1

        return wrapper
