"""Synthetic test tiles with known ground truth.

A tile is built from an analytic base terrain (linear grades plus Gaussian
hills), a road ribbon around a polyline, and three classes of elevation
noise: vehicle boxes on the road, tree discs and wall strips near the road
edge.  The DTM is the clean base terrain; the DSM adds the noise objects and
optional per-cell jitter.  Ground truth for both classes lies exactly on the
base terrain.

Provenance codes per cell: 0 clean, 1 vehicle, 2 tree, 3 facade.

Noise heights are chosen so every object class rises well above typical
elevation-continuity thresholds (around 0.5 m), and the default terrain is
gentle enough (base gradient below roughly 0.08) that an object top never
comes back within such a threshold of the road surface anywhere nearby, so
cluster filtering of a default scene is well posed.

Generation is a pure function of the spec: draws come from a seeded
generator in a fixed order (vehicles, then trees, then facades, then
jitter), so equal specs give bit-identical tiles.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .grid import FieldError, Mask, Raster, mask_raster, read_lines, save_rasters

PROV_VEHICLE = 1
PROV_TREE = 2
PROV_FACADE = 3


@dataclass
class SceneSpec:
    tile_size: float = 100.0
    cell_size: float = 1.0
    base_elevation: float = 100.0
    slope_x: float = 1.5            # grade along x, percent
    slope_y: float = 0.5            # grade along y, percent
    hills: list[tuple[float, float, float, float]] = field(
        default_factory=lambda: [(30.0, 40.0, 3.0, 40.0), (75.0, 20.0, 5.0, 50.0)])
    road: list[tuple[float, float]] = field(
        default_factory=lambda: [(0.0, 35.0), (35.0, 45.0), (65.0, 55.0), (100.0, 70.0)])
    target_road_fraction: float = 0.18  # the road width is solved for
    vehicles: int = 0
    trees: int = 0
    facades: int = 0
    jitter_sigma: float = 0.0
    corrupt_mask: bool = False      # grow the mask onto noise objects
    seed: int = 0

    def __post_init__(self):
        for key in ("tile_size", "cell_size"):
            if not 0 < getattr(self, key) < np.inf:
                raise FieldError((key,), "tile_size and cell_size must be finite and positive")
        if len(self.road) < 2:
            raise FieldError(("road",), "road polyline needs at least two waypoints")
        for x, y in self.road:
            if not (0 <= x <= self.tile_size and 0 <= y <= self.tile_size):
                raise FieldError(("road", "tile_size"), "road waypoint outside the tile")
        # the squared lengths the road's geometry divides by
        if not ((np.diff(np.asarray(self.road, dtype=float), axis=0) ** 2).sum(axis=1) > 0).all():
            raise FieldError(("road",), "road segments must have positive length")
        if not (0 < self.target_road_fraction < 1):
            raise FieldError(("target_road_fraction",), "target_road_fraction must be in (0, 1)")
        for key in ("vehicles", "trees", "facades"):
            if getattr(self, key) < 0:
                raise FieldError((key,), "vehicles, trees and facades must be non-negative")
        if not 0 <= self.jitter_sigma < np.inf:
            raise FieldError(("jitter_sigma",), "jitter_sigma must be finite and non-negative")
        for key in ("base_elevation", "slope_x", "slope_y"):
            if not np.isfinite(getattr(self, key)):
                raise FieldError((key,), "base_elevation, slope_x and slope_y must be finite")
        for hill in self.hills:
            if not (np.isfinite(hill).all() and hill[3] > 0):
                raise FieldError(("hills",), "hill values must be finite and sigma positive")


@dataclass
class Scene:
    dsm: Raster
    dtm: Raster
    mask: Mask
    gt_road: Raster
    gt_terrain: Raster
    provenance: Raster


def _segment_geometry(px: np.ndarray, py: np.ndarray,
                      waypoints: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distance from points to a polyline and the nearest segment index."""
    best = np.full(px.shape, np.inf)
    seg_id = np.zeros(px.shape, dtype=int)
    for s in range(len(waypoints) - 1):
        ax, ay = waypoints[s]
        bx, by = waypoints[s + 1]
        vx, vy = bx - ax, by - ay
        vv = vx * vx + vy * vy
        t = np.clip(((px - ax) * vx + (py - ay) * vy) / vv, 0.0, 1.0)
        dx = px - (ax + t * vx)
        dy = py - (ay + t * vy)
        d = np.hypot(dx, dy)
        closer = d < best
        best = np.where(closer, d, best)
        seg_id = np.where(closer, s, seg_id)
    return best, seg_id


def _polyline_sample(waypoints: np.ndarray, s: float) -> tuple[np.ndarray, np.ndarray]:
    """Point and unit tangent at arclength s along the polyline, on the first
    segment whose end reaches s, or on the last."""
    lengths = np.hypot(*(np.diff(waypoints, axis=0).T))
    ends = np.cumsum(lengths)
    s = np.clip(s, 0.0, lengths.sum())
    k = min(int(np.searchsorted(ends, s)), len(lengths) - 1)
    t = (s - (ends[k - 1] if k else 0.0)) / lengths[k]
    a, b = waypoints[k], waypoints[k + 1]
    return a + t * (b - a), (b - a) / lengths[k]


def _base_field(spec: SceneSpec, gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    z = (spec.base_elevation
         + spec.slope_x / 100.0 * gx
         + spec.slope_y / 100.0 * gy)
    for cx, cy, amp, sigma in spec.hills:
        z = z + amp * np.exp(-((gx - cx) ** 2 + (gy - cy) ** 2) / (2.0 * sigma ** 2))
    return z


def _road_ribbon(spec: SceneSpec, dist: np.ndarray) -> tuple[np.ndarray, float]:
    lo, hi = spec.cell_size * 0.5, spec.tile_size
    target = spec.target_road_fraction
    for _ in range(48):
        width = 0.5 * (lo + hi)
        frac = float((dist <= width / 2.0).mean())
        if abs(frac - target) <= 0.002:
            break
        if frac < target:
            lo = width
        else:
            hi = width
    return dist <= width / 2.0, width


def generate(spec: SceneSpec) -> Scene:
    """Build a tile from a spec. See the module docstring for conventions."""
    n = int(round(spec.tile_size / spec.cell_size)) + 1
    cell = spec.cell_size
    xs = np.arange(n) * cell
    gx, gy = np.meshgrid(xs, xs)
    rng = np.random.default_rng(spec.seed)
    waypoints = np.asarray(spec.road, dtype=float)

    base = _base_field(spec, gx, gy)
    dist, seg_id = _segment_geometry(gx, gy, waypoints)
    ribbon, width = _road_ribbon(spec, dist)

    noise = np.zeros_like(base)
    prov = np.zeros(base.shape, dtype=np.uint8)

    def stamp(footprint: np.ndarray, height: float, code: int) -> None:
        sel = footprint & (height > noise)
        noise[sel] = height
        prov[sel] = code

    # vehicles (cars through buses) sit on the road, aligned with the local
    # direction of travel
    lane = ribbon & (dist <= max(cell, width / 2.0 - 2.5))
    lane_j, lane_i = np.nonzero(lane)
    for _ in range(spec.vehicles):
        if lane_j.size == 0:
            break
        pick = int(rng.integers(lane_j.size))
        cx, cy = xs[lane_i[pick]], xs[lane_j[pick]]
        seg = waypoints[seg_id[lane_j[pick], lane_i[pick]]:][:2]
        t = seg[1] - seg[0]
        t = t / np.hypot(*t)
        along = (gx - cx) * t[0] + (gy - cy) * t[1]
        across = -(gx - cx) * t[1] + (gy - cy) * t[0]
        height = float(rng.uniform(1.5, 2.0))
        length = float(rng.uniform(4.5, 9.0))
        body = float(rng.uniform(1.8, 2.5))
        stamp((np.abs(along) <= length / 2.0) & (np.abs(across) <= body / 2.0),
              height, PROV_VEHICLE)

    # trees stand on the verge right next to the road edge
    verge = (~ribbon) & (dist <= width / 2.0 + 5.0)
    verge_j, verge_i = np.nonzero(verge)
    for _ in range(spec.trees):
        if verge_j.size == 0:
            break
        pick = int(rng.integers(verge_j.size))
        cx, cy = xs[verge_i[pick]], xs[verge_j[pick]]
        radius = float(rng.uniform(1.5, 3.5))
        height = float(rng.uniform(5.0, 15.0))
        stamp((gx - cx) ** 2 + (gy - cy) ** 2 <= radius ** 2, height, PROV_TREE)

    # facades are building fronts running parallel to the road, nearly flush
    # with its edge
    total_len = float(np.hypot(*(np.diff(waypoints, axis=0).T)).sum())
    for _ in range(spec.facades):
        s = float(rng.uniform(0.15, 0.85)) * total_len
        side = 1.0 if rng.random() < 0.5 else -1.0
        length = float(rng.uniform(20.0, 40.0))
        thickness = float(rng.uniform(2.5, 5.0))
        height = float(rng.uniform(8.0, 20.0))
        offset = width / 2.0 + thickness / 2.0 + float(rng.uniform(0.5, 1.5))
        point, tangent = _polyline_sample(waypoints, s)
        normal = np.array([-tangent[1], tangent[0]]) * side
        c0 = point + normal * offset - tangent * length / 2.0
        c1 = point + normal * offset + tangent * length / 2.0
        wall_dist, _ = _segment_geometry(gx, gy, np.vstack([c0, c1]))
        stamp(wall_dist <= thickness / 2.0, height, PROV_FACADE)

    dsm = base + noise
    if spec.jitter_sigma > 0:
        dsm = dsm + rng.normal(0.0, spec.jitter_sigma, base.shape)

    mask_bits = ribbon | (prov > 0) if spec.corrupt_mask else ribbon

    georef = dict(width=n, height=n, cell_size=cell, origin_x=0.0, origin_y=0.0)
    return Scene(
        dsm=Raster(**georef, values=dsm),
        dtm=Raster(**georef, values=base.copy()),
        mask=Mask(**georef, bits=mask_bits.astype(np.uint8)),
        gt_road=Raster(**georef, values=np.where(ribbon, base, np.nan)),
        gt_terrain=Raster(**georef, values=np.where(~ribbon, base, np.nan)),
        provenance=Raster(**georef, values=prov.astype(float)),
    )


def save_scene(scene: Scene, out_dir: str | Path) -> dict[str, Path]:
    """Write all tile layers as .asc files in one ``save_rasters`` call, which
    formats a value the layers share once; returns the paths by layer name."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {layer.name: out / f"{layer.name}.asc" for layer in fields(Scene)}
    save_rasters({path: mask_raster(scene.mask) if layer == "mask" else getattr(scene, layer)
                  for layer, path in paths.items()})
    return paths


def boolean(text: str) -> bool:
    """A boolean in one of configparser's spellings, in any case:
    1/yes/true/on or 0/no/false/off."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {text!r}") from None


# the caster of each scalar field type, shared with the CLI's config keys
CASTERS = {"float": float, "int": int, "bool": boolean}
# the SceneSpec fields a scene file sets with one value, and their casters
SCALAR_KEYS = {spec.name: CASTERS[spec.type] for spec in fields(SceneSpec)
               if spec.type in CASTERS}


def parse_scene_file(path: str | Path) -> SceneSpec:
    """Read a scene spec from a flat key-value text file.

    One ``key value...`` pair per line; ``#`` starts a comment.  ``hill cx cy
    amplitude sigma`` may repeat; ``road`` takes two or more ``x,y``
    waypoints, every other key a fixed number of values.  Any hill or road
    line replaces its default entirely.  A ``grid.FieldError`` from a
    SceneSpec check names the line that last set the key it blames.
    """
    spec = SceneSpec()
    hills: list[tuple[float, float, float, float]] = []
    road: list[tuple[float, float]] = []
    # values per key; road's waypoints are checked where they are read
    arity = {"hill": 4, **dict.fromkeys(SCALAR_KEYS, 1)}
    set_by: dict[str, int] = {}  # the line that last set each key
    for line_no, raw in enumerate(read_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, *rest = line.split()
        try:
            if key != "road" and key not in arity:
                raise ValueError(f"unknown key {key!r}")
            if len(rest) != arity.get(key, len(rest)):
                raise ValueError(f"{key} takes {arity[key]} value(s), got {len(rest)}")
            if key == "hill":
                hills.append(tuple(float(v) for v in rest))
            elif key == "road":
                road = [tuple(float(c) for c in pt.split(",")) for pt in rest]
                if len(road) < 2 or any(len(pt) != 2 for pt in road):
                    raise ValueError("road takes two or more x,y waypoints")
            else:
                setattr(spec, key, SCALAR_KEYS[key](rest[0]))
        except ValueError as err:
            raise ValueError(f"{path}:{line_no}: {err}") from None
        set_by["hills" if key == "hill" else key] = line_no
    if hills:
        spec.hills = hills
    if road:
        spec.road = road
    try:
        spec.__post_init__()
    except FieldError as err:
        # the defaults pass every check, so a failed one reads a key the file set
        line_no = next(set_by[key] for key in err.keys if key in set_by)
        raise ValueError(f"{path}:{line_no}: {err}") from None
    return spec
