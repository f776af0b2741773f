"""Procedural labelled shape generator for the synthetic benchmark.

Four shape kinds (plane, chair, table, rocket), each assembled from a few
surface primitives.  Every primitive belongs to exactly one named component;
points carry the component id as their label.  Components receive fixed
fractions of the point budget (largest-remainder rounding), and points are
sampled uniformly on each primitive's surface, so every component is
guaranteed a healthy share of points regardless of its area.

Given the same (kind, n, seed) the output is bit-identical.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgument
from .geometry import PointCloud, normalize

# ---------------------------------------------------------------------------
# surface samplers (local frames; axis = 0/1/2 picks the long direction)
# ---------------------------------------------------------------------------


def _orient(local: np.ndarray, axis: int) -> np.ndarray:
    """Map local (a, b, c) coordinates so that c lies along ``axis``."""
    cols = {0: (2, 0, 1), 1: (1, 2, 0), 2: (0, 1, 2)}[axis]
    return local[:, cols]


def _sample_box(rng: np.random.Generator, count: int, center, half) -> np.ndarray:
    """Uniform samples on the surface of an axis-aligned box.

    Face ``f`` lies at ``(-1)**(f % 2) * half[f // 2]`` on axis ``f // 2``;
    its two free coordinates, in axis order, are ``u`` and ``v`` scaled by
    their half-widths.  Every coordinate is written at once for all points.
    """
    hx, hy, hz = half
    areas = np.array([hy * hz, hy * hz, hx * hz, hx * hz, hx * hy, hx * hy])
    faces = rng.choice(6, size=count, p=areas / areas.sum())
    u = rng.uniform(-1.0, 1.0, size=count)
    v = rng.uniform(-1.0, 1.0, size=count)
    axis, sign = np.divmod(faces, 2)
    pts = np.stack([u * hx, np.where(axis == 0, u, v) * hy, v * hz], axis=1)
    pts[np.arange(count), axis] = np.array(half, dtype=np.float64)[axis] * (1.0 - 2.0 * sign)
    return pts + np.asarray(center)


def _sample_cylinder(rng: np.random.Generator, count: int, center, axis: int,
                     radius: float, height: float, caps: bool = True) -> np.ndarray:
    """Uniform samples on a cylinder surface (optionally including end caps).

    Region 0 is the lateral surface, 1 the top cap and 2 the bottom cap; a
    cap point sits at radius ``radius * sqrt(u)``.  Every coordinate is
    written at once for all points.
    """
    lateral = 2.0 * np.pi * radius * height
    cap = np.pi * radius * radius
    weights = np.array([lateral, cap, cap]) if caps else np.array([1.0])
    region = rng.choice(len(weights), size=count, p=weights / weights.sum())
    theta = rng.uniform(0.0, 2.0 * np.pi, size=count)
    u = rng.uniform(0.0, 1.0, size=count)
    side = region == 0
    r = np.where(side, radius, radius * np.sqrt(u))
    z = np.where(side, (u - 0.5) * height, np.where(region == 1, 0.5 * height, -0.5 * height))
    local = np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=1)
    return _orient(local, axis) + np.asarray(center)


def _sample_cone(rng: np.random.Generator, count: int, base_center, axis: int,
                 radius: float, height: float) -> np.ndarray:
    """Uniform samples on the lateral surface of a cone (base open)."""
    theta = rng.uniform(0.0, 2.0 * np.pi, size=count)
    t = np.sqrt(rng.uniform(0.0, 1.0, size=count))  # area density grows linearly
    local = np.empty((count, 3))
    local[:, 0] = radius * t * np.cos(theta)
    local[:, 1] = radius * t * np.sin(theta)
    local[:, 2] = height * (1.0 - t)
    return _orient(local, axis) + np.asarray(base_center)


# ---------------------------------------------------------------------------
# shape definitions
# ---------------------------------------------------------------------------
# kind -> [(component, point share, [(weight, sampler, args)])], where
# ``sampler`` names ``_sample_<sampler>``, called as (rng, count, *args) and
# looked up when the shape is drawn, so a patched sampler is the one used.
# Shares per shape sum to 1 and every share is >= 0.1 so no component can
# starve at small n.

_SHAPES = {
    "plane": [
        ("fuselage", 0.35, [(1.0, "cylinder", ((0, 0, 0), 0, 0.09, 1.3))]),
        ("wing_left", 0.20, [(1.0, "box", ((0.1, 0.48, 0.0), (0.20, 0.40, 0.015)))]),
        ("wing_right", 0.20, [(1.0, "box", ((0.1, -0.48, 0.0), (0.20, 0.40, 0.015)))]),
        ("tail", 0.25, [(0.5, "box", ((-0.60, 0.0, 0.16), (0.10, 0.015, 0.16))),
                        (0.5, "box", ((-0.60, 0.0, 0.02), (0.10, 0.22, 0.015)))]),
    ],
    "chair": [
        ("seat", 0.30, [(1.0, "box", ((0, 0, 0), (0.35, 0.35, 0.03)))]),
        ("back", 0.30, [(1.0, "box", ((0, -0.33, 0.40), (0.35, 0.02, 0.37)))]),
        ("legs", 0.30, [(0.25, "cylinder", ((sx * 0.30, sy * 0.30, -0.33), 2, 0.030, 0.62))
                        for sx in (1, -1) for sy in (1, -1)]),
        ("armrests", 0.10, [(0.5, "box", ((0.37, 0.0, 0.20), (0.025, 0.30, 0.02))),
                            (0.5, "box", ((-0.37, 0.0, 0.20), (0.025, 0.30, 0.02)))]),
    ],
    "table": [
        ("top", 0.45, [(1.0, "box", ((0, 0, 0.41), (0.52, 0.36, 0.03)))]),
        ("legs", 0.35, [(0.25, "cylinder", ((sx * 0.43, sy * 0.28, 0.0), 2, 0.035, 0.76))
                        for sx in (1, -1) for sy in (1, -1)]),
        ("apron", 0.20, [(0.5, "box", ((0.0, 0.26, 0.33), (0.44, 0.015, 0.035))),
                         (0.5, "box", ((0.0, -0.26, 0.33), (0.44, 0.015, 0.035)))]),
    ],
    "rocket": [
        ("body", 0.40, [(1.0, "cylinder", ((0, 0, 0), 2, 0.14, 1.0, False))]),  # no caps
        ("nose", 0.20, [(1.0, "cone", ((0, 0, 0.50), 2, 0.14, 0.38))]),
        ("fins", 0.25, [(0.25, "box", ((0.20 * np.cos(k * np.pi / 2.0),
                                        0.20 * np.sin(k * np.pi / 2.0), -0.46), half))
                        for k, half in enumerate([(0.10, 0.015, 0.13), (0.015, 0.10, 0.13)] * 2)]),
        ("nozzle", 0.15, [(1.0, "cylinder", ((0, 0, -0.56), 2, 0.08, 0.12))]),
    ],
}

SHAPE_KINDS = tuple(sorted(_SHAPES))

SHAPE_COMPONENTS = {kind: [name for name, _, _ in comps] for kind, comps in _SHAPES.items()}


def apportion(total: int, weights: list[float]) -> list[int]:
    """Split ``total`` into integer counts proportional to ``weights``.

    Largest-remainder rounding; remainder ties go to the earliest entry.
    """
    w = np.asarray(weights, dtype=np.float64)
    quotas = total * w / w.sum()
    base = np.floor(quotas).astype(np.int64)
    short = total - int(base.sum())
    if short:
        order = np.lexsort((np.arange(len(w)), -(quotas - base)))
        base[order[:short]] += 1
    return [int(b) for b in base]


def make_shape(kind: str, n: int, seed: int) -> PointCloud:
    """Sample a labelled ``kind`` shape with exactly ``n`` points.

    Points are grouped per component: component i's points carry label i in
    the order listed by ``SHAPE_COMPONENTS[kind]``.  The cloud is normalised
    to centroid zero and maximum radius one.
    """
    if kind not in _SHAPES:
        raise InvalidArgument(f"unknown shape kind '{kind}' (have {', '.join(SHAPE_KINDS)})")
    if n < 64:
        raise InvalidArgument(f"make_shape needs n >= 64, got {n}")
    rng = np.random.default_rng(seed)
    components = _SHAPES[kind]
    counts = apportion(n, [share for _, share, _ in components])
    chunks = []
    labels = []
    for label, ((_, _, prims), count) in enumerate(zip(components, counts)):
        sub = apportion(count, [w for w, _, _ in prims])
        for (_, sampler, args), c in zip(prims, sub):
            if c:
                chunks.append(globals()[f"_sample_{sampler}"](rng, c, *args))
        labels.append(np.full(count, label, dtype=np.int64))
    points = normalize(np.concatenate(chunks, axis=0))
    return PointCloud(points=points, labels=np.concatenate(labels), shape_class=kind)


def make_corpus(pairs: list[tuple[str, int]], n: int) -> tuple[np.ndarray, np.ndarray]:
    """(B, n, 3) points and (B, n) labels: one ``make_shape`` call per (kind, seed) pair."""
    clouds = [make_shape(kind, n, seed) for kind, seed in pairs]
    return np.stack([c.points for c in clouds]), np.stack([c.labels for c in clouds])
