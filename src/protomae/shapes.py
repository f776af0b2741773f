"""Procedural labelled shape generator for the synthetic benchmark.

Four shape kinds (plane, chair, table, rocket), each assembled from a few
surface primitives.  Every primitive belongs to exactly one named component;
points carry the component id as their label.  Components receive fixed
fractions of the point budget (largest-remainder rounding), and points are
sampled uniformly on each primitive's surface, so every component is
guaranteed a healthy share of points regardless of its area.

Draw order: cloud (kind, seed) is one ``default_rng(seed).random(total)``
row.  The primitives of its kind consume that row in table order, and a
primitive with ``count`` points takes ``draws * count`` consecutive entries:
``count`` choice draws, then ``count`` for the first coordinate and
``count`` for the second (the cone, with no choice, takes the last two).
The choice and uniform transforms are numpy's own, so this is the corpus
that per-primitive ``rng.choice(p=...)`` and ``rng.uniform`` calls gave,
bit for bit.  Given the same (kind, n, seed) the output is bit-identical.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgument
from .geometry import normalize

# ---------------------------------------------------------------------------
# surface samplers (local frames; axis = 0/1/2 picks the long direction)
# ---------------------------------------------------------------------------
# Each sampler reads (B, draws, count) uniforms in [0, 1) and returns
# (B, count, 3) points, one row per cloud.


def _choice(u: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``Generator.choice(len(weights), p=weights / weights.sum())`` of its draws ``u``."""
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(u, side="right")


def _uniform(u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """``Generator.uniform(lo, hi)`` of its draws ``u``."""
    return lo + (hi - lo) * u


def _orient(local: np.ndarray, axis: int) -> np.ndarray:
    """Map local (a, b, c) coordinates so that c lies along ``axis``."""
    cols = {0: (2, 0, 1), 1: (1, 2, 0), 2: (0, 1, 2)}[axis]
    return local[..., cols]


def _sample_box(u: np.ndarray, center, half) -> np.ndarray:
    """Uniform samples on the surface of an axis-aligned box.

    Face ``f`` lies at ``(-1)**(f % 2) * half[f // 2]`` on axis ``f // 2``;
    its two free coordinates, in axis order, are ``a`` and ``b`` scaled by
    their half-widths.
    """
    hx, hy, hz = half
    areas = np.array([hy * hz, hy * hz, hx * hz, hx * hz, hx * hy, hx * hy])
    axis, sign = np.divmod(_choice(u[:, 0], areas), 2)
    a = _uniform(u[:, 1], -1.0, 1.0)
    b = _uniform(u[:, 2], -1.0, 1.0)
    pts = np.stack([a * hx, np.where(axis == 0, a, b) * hy, b * hz], axis=-1)
    fixed = np.array(half, dtype=np.float64)[axis] * (1.0 - 2.0 * sign)
    np.put_along_axis(pts, axis[..., None], fixed[..., None], axis=-1)
    return pts + np.asarray(center)


def _sample_cylinder(u: np.ndarray, center, axis: int, radius: float, height: float,
                     caps: bool = True) -> np.ndarray:
    """Uniform samples on a cylinder surface (optionally including end caps).

    Region 0 is the lateral surface, 1 the top cap and 2 the bottom cap; a
    cap point sits at radius ``radius * sqrt(h)``.  Without caps the
    one-way region choice still takes its draws.
    """
    lateral = 2.0 * np.pi * radius * height
    cap = np.pi * radius * radius
    region = _choice(u[:, 0], np.array([lateral, cap, cap]) if caps else np.array([1.0]))
    theta = _uniform(u[:, 1], 0.0, 2.0 * np.pi)
    h = _uniform(u[:, 2], 0.0, 1.0)
    side = region == 0
    r = np.where(side, radius, radius * np.sqrt(h))
    z = np.where(side, (h - 0.5) * height, np.where(region == 1, 0.5 * height, -0.5 * height))
    local = np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=-1)
    return _orient(local, axis) + np.asarray(center)


def _sample_cone(u: np.ndarray, base_center, axis: int, radius: float,
                 height: float) -> np.ndarray:
    """Uniform samples on the lateral surface of a cone (base open)."""
    theta = _uniform(u[:, 0], 0.0, 2.0 * np.pi)
    t = np.sqrt(_uniform(u[:, 1], 0.0, 1.0))  # area density grows linearly
    local = np.stack([radius * t * np.cos(theta), radius * t * np.sin(theta),
                      height * (1.0 - t)], axis=-1)
    return _orient(local, axis) + np.asarray(base_center)


# sampler name -> (sampler, uniform draws per point)
_SAMPLERS = {"box": (_sample_box, 3), "cylinder": (_sample_cylinder, 3), "cone": (_sample_cone, 2)}


# ---------------------------------------------------------------------------
# shape definitions
# ---------------------------------------------------------------------------
# kind -> [(component, point share, [(weight, sampler, args)])], where
# ``sampler`` is a ``_SAMPLERS`` name, called as (uniforms, *args).
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


def make_shape(kind: str, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, 3) points and (n,) labels of a ``kind`` shape: ``make_corpus`` of one pair."""
    points, labels = make_corpus([(kind, seed)], n)
    return points[0], labels[0]


def _check_corpus(pairs, n: int) -> None:
    if not pairs:
        raise InvalidArgument("make_corpus needs at least one (kind, seed) pair")
    if n < 64:
        raise InvalidArgument(f"make_corpus needs n >= 64, got {n}")
    for kind, seed in pairs:
        if kind not in _SHAPES:
            raise InvalidArgument(f"pair ({kind!r}, {seed!r}): unknown shape kind "
                                  f"(have {', '.join(SHAPE_KINDS)})")
        if not isinstance(seed, (int, np.integer)) or seed < 0:
            raise InvalidArgument(f"pair ({kind!r}, {seed!r}): seed must be an integer >= 0")


def make_corpus(pairs: list[tuple[str, int]], n: int) -> tuple[np.ndarray, np.ndarray]:
    """(B, n, 3) points and (B, n) int64 labels, one cloud per (kind, seed) pair.

    Points are grouped per component: component i's points carry label i in
    the order listed by ``SHAPE_COMPONENTS[kind]``.  Each cloud is normalised
    to centroid zero and maximum radius one.  The clouds of one kind are
    drawn together, one uniform row per cloud, and land in pair order.
    """
    _check_corpus(pairs, n)
    points = np.empty((len(pairs), n, 3))
    labels = np.empty((len(pairs), n), dtype=np.int64)
    for kind in dict.fromkeys(kind for kind, _ in pairs):
        rows = [b for b, (k, _) in enumerate(pairs) if k == kind]
        components = _SHAPES[kind]
        counts = apportion(n, [share for _, share, _ in components])
        layout = []
        for (_, _, prims), count in zip(components, counts):
            sub = apportion(count, [w for w, _, _ in prims])
            layout += [(*_SAMPLERS[name], c, args) for (_, name, args), c in zip(prims, sub) if c]
        total = sum(draws * c for _, draws, c, _ in layout)
        u = np.stack([np.random.default_rng(pairs[b][1]).random(total) for b in rows])
        chunks, lo = [], 0
        for sampler, draws, c, args in layout:
            chunks.append(sampler(u[:, lo:lo + draws * c].reshape(len(rows), draws, c), *args))
            lo += draws * c
        points[rows] = normalize(np.concatenate(chunks, axis=1))
        labels[rows] = np.repeat(np.arange(len(counts)), counts)
    return points, labels
