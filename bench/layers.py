"""Which roadsurf functions the trace wraps, and the per-layer metrics built
from their spans.

A layer is a module of the package.  Per-point and per-parameter helpers
(``nurbs.basis_functions``, ``metrics._MeshIndex.query``) are never wrapped:
they run thousands of times per invocation and a wrapper would dominate
them.
"""

from __future__ import annotations

import os
import statistics

from spans import Span, Tracer, self_times

# (span name, call sites).  A call site is the module attribute the caller
# looks up: the CLI imports run_filter and save_surface by name.
TRACED = (
    ("synth.generate", [("synth", "generate")]),
    ("synth.save_scene", [("synth", "save_scene")]),
    ("grid.load_raster", [("grid", "load_raster")]),
    ("grid.load_mask", [("grid", "load_mask")]),
    ("grid.save_mask", [("grid", "save_mask")]),
    ("filtering.run_filter", [("cli", "run_filter"), ("filtering", "run_filter")]),
    ("filtering.get_neighbors", [("filtering", "get_neighbors")]),
    ("filtering.grow_regions", [("filtering", "grow_regions")]),
    ("filtering.merge_clusters", [("filtering", "merge_clusters")]),
    ("filtering.clean_clusters", [("filtering", "clean_clusters")]),
    ("fit.initialize_surface", [("fit", "initialize_surface")]),
    ("fit.fit", [("fit", "fit")]),
    ("fit.total_loss", [("fit", "total_loss")]),
    ("fit.loss_road", [("fit", "loss_road")]),
    ("fit.loss_terrain", [("fit", "loss_terrain")]),
    ("fit.loss_reg", [("fit", "loss_reg")]),
    ("nurbs.basis_matrix", [("nurbs", "basis_matrix")]),
    ("mesh.build_tin", [("mesh", "build_tin")]),
    ("mesh.dynamic_sample", [("mesh", "dynamic_sample")]),
    ("mesh.delaunay", [("mesh", "delaunay")]),
    ("mesh.fit_plane", [("mesh", "fit_plane")]),
    ("mesh.plane_mesh", [("mesh", "plane_mesh")]),
    ("mesh.rgt_mesh", [("mesh", "rgt_mesh")]),
    ("mesh.export_mesh", [("mesh", "export_mesh")]),
    ("metrics.evaluate_all", [("metrics", "evaluate_all")]),
    ("metrics.point_mesh_distances", [("metrics", "point_mesh_distances")]),
    ("cli.write_metrics_csv", [("cli", "write_metrics_csv")]),
    ("cli.save_surface", [("cli", "save_surface"), ("nurbs", "save_surface")]),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _on_load(tracer, span, args, kwargs, result):
    tracer.counts["grid.load_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _on_filter(tracer, span, args, kwargs, result):
    points = _arg(args, kwargs, 0, "points")
    filtered, mask = result
    tracer.counts["filtering.cells_removed"] += points.count - filtered.count
    tracer.captured["mask_plus"].append(mask)


def _on_fit(tracer, span, args, kwargs, result):
    surface, report = result
    tracer.counts["fit.iterations"] += report.iterations
    tracer.captured["best_iter_ratio"].append(report.best_iteration / report.iterations)
    tracer.captured["surface"].append(surface)


def _tag_mesh(label):
    def hook(tracer, span, args, kwargs, result):
        tracer.captured["meshes"].append((label, result))
    return hook


def _on_evaluate(tracer, span, args, kwargs, result):
    mesh = _arg(args, kwargs, 0, "mesh")
    span.tag = next((label for label, m in tracer.captured["meshes"] if m is mesh),
                    "other")


def _on_distances(tracer, span, args, kwargs, result):
    _, covered = result
    tracer.counts["metrics.points_queried"] += len(covered)
    tracer.counts["metrics.points_covered"] += int(covered.sum())


def _count(key, measure):
    def hook(tracer, span, args, kwargs, result):
        tracer.counts[key] += measure(args, kwargs, result)
    return hook


HOOKS = {
    "grid.load_raster": _on_load,
    "filtering.run_filter": _on_filter,
    "filtering.grow_regions": _count("filtering.clusters_grown",
                                     lambda a, k, r: r.label_count),
    "filtering.merge_clusters": _count("filtering.clusters_after_merge",
                                       lambda a, k, r: r.label_count),
    "fit.fit": _on_fit,
    "mesh.dynamic_sample": _count("mesh.samples", lambda a, k, r: len(r)),
    "mesh.delaunay": _count("mesh.triangles", lambda a, k, r: len(r)),
    "mesh.build_tin": _tag_mesh("nurbs"),
    "mesh.plane_mesh": _tag_mesh("plane"),
    "mesh.rgt_mesh": _tag_mesh("rgt"),
    "metrics.evaluate_all": _on_evaluate,
    "metrics.point_mesh_distances": _on_distances,
}


def make_tracer() -> Tracer:
    return Tracer(TRACED, HOOKS)


# Per-layer metrics of one traced invocation, with their units.  Counts must
# repeat exactly from one invocation to the next.
UNITS = {
    "grid.load_s": "s", "grid.load_mb": "MB", "grid.save_s": "s",
    "filtering.neighbors_s": "s", "filtering.grow_s": "s",
    "filtering.merge_s": "s", "filtering.clean_s": "s",
    "filtering.clusters_grown": "count", "filtering.clusters_merged": "count",
    "filtering.cells_removed": "count",
    "fit.init_s": "s", "fit.total_s": "s", "fit.iterations": "count",
    "fit.iter_ms": "ms", "fit.loss_terms_s": "s", "fit.backprop_s": "s",
    "fit.step_s": "s", "fit.best_iter_ratio": "ratio",
    "nurbs.basis_s": "s", "nurbs.basis_calls": "count",
    "mesh.sample_s": "s", "mesh.samples": "count", "mesh.delaunay_s": "s",
    "mesh.delaunay_us_per_point": "us", "mesh.triangles": "count",
    "mesh.baseline_s": "s", "mesh.export_s": "s",
    "metrics.distance_s": "s", "metrics.distance_s.nurbs": "s",
    "metrics.distance_s.plane": "s", "metrics.distance_s.rgt": "s",
    "metrics.points_queried": "count", "metrics.query_us": "us",
    "metrics.covered_ratio": "ratio", "metrics.smoothness_s": "s",
    "cli.artifacts_s": "s", "cli.untraced_s": "s",
    "share.grid": "ratio", "share.filtering": "ratio", "share.fit": "ratio",
    "share.mesh": "ratio", "share.delaunay": "ratio", "share.metrics": "ratio",
}

COUNTS = tuple(name for name, unit in UNITS.items() if unit == "count")

# Every per-layer metric a traced run reports: the above, plus set-up spans,
# the filter scored against provenance, tracing overhead and result quality.
PER_LAYER = {
    **UNITS,
    "synth.generate_s": "s", "synth.save_s": "s",
    "filtering.noise_recall": "ratio", "filtering.noise_recall.vehicle": "ratio",
    "filtering.noise_recall.tree": "ratio", "filtering.noise_recall.facade": "ratio",
    "filtering.clean_kept": "ratio", "trace_overhead_s": "s",
    "quality.fit_loss": "loss", "quality.l2_road_m": "m", "quality.l2_terrain_m": "m",
    "quality.mad_road_deg": "deg", "quality.mad_terrain_deg": "deg",
}


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def invocation_metrics(spans: list[Span], counts, captured, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced invocation lasting ``wall`` seconds."""
    selfs = self_times(spans)

    def total(*names):
        return sum(s.duration for s in spans if s.name in names)

    def own(*names):
        return sum(t for s, t in zip(spans, selfs) if s.name in names)

    def outer(*names):
        # spans of the group not nested inside another span of the group
        out = 0.0
        for s in spans:
            if s.name not in names:
                continue
            parent = s.parent
            while parent is not None and spans[parent].name not in names:
                parent = spans[parent].parent
            if parent is None:
                out += s.duration
        return out

    def distance(tag):
        return sum(s.duration for s in spans if s.name == "metrics.point_mesh_distances"
                   and s.parent is not None and spans[s.parent].tag == tag)

    fit_s = total("fit.fit")
    delaunay_s = total("mesh.delaunay")
    distance_s = total("metrics.point_mesh_distances")
    points = counts["metrics.points_queried"]
    delaunay_points = counts["mesh.samples"]
    grown = counts["filtering.clusters_grown"]
    ratios = captured.get("best_iter_ratio", [])
    m = {
        "grid.load_s": outer("grid.load_raster", "grid.load_mask"),
        "grid.load_mb": counts["grid.load_bytes"] / 1e6,
        "grid.save_s": total("grid.save_mask"),
        "filtering.neighbors_s": total("filtering.get_neighbors"),
        "filtering.grow_s": total("filtering.grow_regions"),
        "filtering.merge_s": total("filtering.merge_clusters"),
        "filtering.clean_s": total("filtering.clean_clusters"),
        "filtering.clusters_grown": grown,
        "filtering.clusters_merged": grown - counts["filtering.clusters_after_merge"],
        "filtering.cells_removed": counts["filtering.cells_removed"],
        "fit.init_s": total("fit.initialize_surface"),
        "fit.total_s": fit_s,
        "fit.iterations": counts["fit.iterations"],
        "fit.iter_ms": _ratio(fit_s, counts["fit.iterations"], 1e3),
        "fit.loss_terms_s": total("fit.loss_road", "fit.loss_terrain", "fit.loss_reg"),
        "fit.backprop_s": own("fit.total_loss"),
        "fit.step_s": own("fit.fit"),
        "fit.best_iter_ratio": statistics.fmean(ratios) if ratios else 0.0,
        "nurbs.basis_s": total("nurbs.basis_matrix"),
        "nurbs.basis_calls": sum(1 for s in spans if s.name == "nurbs.basis_matrix"),
        "mesh.sample_s": total("mesh.dynamic_sample"),
        "mesh.samples": delaunay_points,
        "mesh.delaunay_s": delaunay_s,
        "mesh.delaunay_us_per_point": _ratio(delaunay_s, delaunay_points, 1e6),
        "mesh.triangles": counts["mesh.triangles"],
        "mesh.baseline_s": total("mesh.fit_plane", "mesh.plane_mesh", "mesh.rgt_mesh"),
        "mesh.export_s": total("mesh.export_mesh"),
        "metrics.distance_s": distance_s,
        "metrics.distance_s.nurbs": distance("nurbs"),
        "metrics.distance_s.plane": distance("plane"),
        "metrics.distance_s.rgt": distance("rgt"),
        "metrics.points_queried": points,
        "metrics.query_us": _ratio(distance_s, points, 1e6),
        "metrics.covered_ratio": _ratio(counts["metrics.points_covered"], points),
        "metrics.smoothness_s": own("metrics.evaluate_all"),
        "cli.artifacts_s": total("cli.write_metrics_csv", "mesh.export_mesh",
                                 "cli.save_surface", "grid.save_mask"),
        "cli.untraced_s": wall - sum(s.duration for s in spans if s.parent is None),
    }
    stages = {
        "grid": m["grid.load_s"],
        "filtering": total("filtering.run_filter"),
        "fit": total("fit.initialize_surface", "fit.fit"),
        "mesh": total("mesh.build_tin") + m["mesh.baseline_s"],
        "delaunay": delaunay_s,
        "metrics": total("metrics.evaluate_all"),
    }
    for stage, seconds in stages.items():
        m[f"share.{stage}"] = _ratio(seconds, wall)
    return m


def filter_scores(input_bits, provenance, kept_bits) -> dict[str, float]:
    """Filter decisions scored against the scene's provenance raster.

    ``noise_recall``: share of noise cells in the input mask the filter
    removed, overall and per class; ``clean_kept``: share of clean mask
    cells it kept.  An empty class scores 1 (nothing to remove).
    """
    in_mask = input_bits == 1
    kept = kept_bits == 1
    noise = in_mask & (provenance > 0)
    clean = in_mask & (provenance == 0)

    def share(cells, hit):
        n = int(cells.sum())
        return float((cells & hit).sum()) / n if n else 1.0

    scores = {"filtering.noise_recall": share(noise, ~kept),
              "filtering.clean_kept": share(clean, kept)}
    for code, label in ((1, "vehicle"), (2, "tree"), (3, "facade")):
        scores[f"filtering.noise_recall.{label}"] = share(
            in_mask & (provenance == code), ~kept)
    return scores
