"""Exact point-cloud kernels: sampling, neighbourhoods, set distance, I/O.

Everything here is plain float64 numpy with deterministic tie-breaking
(lowest index wins), so the same inputs always produce the same outputs
bit for bit.  The sampling and neighbourhood kernels take any leading batch
axes and treat each leading entry as an independent cloud.  A cloud is
plain arrays: (..., N, 3) points and, where known, (..., N) int64 component
labels.  The chamfer kernel here is the one behind the reconstruction
losses: ``autodiff`` differentiates it rather than keeping its own.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import InvalidArgument

# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between two broadcastable (..., 3) point arrays.

    Summed coordinate by coordinate, left to right: bit for bit what
    ``((a - b) ** 2).sum(axis=-1)`` gives for 3-d points, without
    materialising the (..., 3) difference array.
    """
    d = np.subtract(a[..., 0], b[..., 0])
    d *= d
    t = np.empty_like(d)
    for axis in range(1, a.shape[-1]):
        np.subtract(a[..., axis], b[..., axis], out=t)
        t *= t
        d += t
    return d


def normalize(points: np.ndarray) -> np.ndarray:
    """Centre each (..., N, 3) cloud on its centroid and scale its farthest point to norm 1."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim < 2 or pts.shape[-1] != 3 or pts.shape[-2] == 0:
        raise InvalidArgument(f"normalize expects nonempty (..., N, 3) points, got {pts.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        centred = pts - pts.mean(axis=-2, keepdims=True)
        radius = np.linalg.norm(centred, axis=-1).max(axis=-1, keepdims=True)
    if not np.all(np.isfinite(radius)):
        raise InvalidArgument("normalize of a cloud whose extent overflows float64")
    if np.any(radius == 0.0):
        raise InvalidArgument("normalize of a degenerate single-location cloud")
    return centred / radius[..., None]


def _clouds(points: np.ndarray, op: str) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim < 2 or pts.shape[-1] != 3:
        raise InvalidArgument(f"{op} expects (..., N, 3) points, got {pts.shape}")
    return pts


def fps(points: np.ndarray, count: int, start=0) -> np.ndarray:
    """Farthest point sampling.

    Greedy: begin at ``start``, then repeatedly pick the point whose minimum
    distance to the picked set is largest.  Distance ties break to the lowest
    index (numpy argmax returns the first maximum).  Returns ``count`` point
    indices in pick order.  ``points`` is (..., N, 3); every leading entry is
    sampled independently, in one pass over all of them, from its own
    ``start`` (an int, or one per leading entry).
    """
    pts = _clouds(points, "fps")
    lead, n = pts.shape[:-2], pts.shape[-2]
    if not 1 <= count <= n:
        raise InvalidArgument(f"fps count {count} out of range for {n} points")
    starts = np.asarray(start, dtype=np.int64)
    if starts.size and (starts.min() < 0 or starts.max() >= n):
        raise InvalidArgument(f"fps start index {start} out of range for {n} points")
    flat = pts.reshape(-1, n, 3)
    rows = np.arange(flat.shape[0])
    picks = np.empty((flat.shape[0], count), dtype=np.int64)
    picks[:, 0] = np.broadcast_to(starts, lead).reshape(-1)
    # squared distances preserve the argmax and every tie
    mind = sq_dists(flat, flat[rows, picks[:, 0]][:, None, :])
    for i in range(1, count):
        nxt = np.argmax(mind, axis=1)
        picks[:, i] = nxt
        np.minimum(mind, sq_dists(flat, flat[rows, nxt][:, None, :]), out=mind)
    return picks.reshape(lead + (count,))


def knn(points: np.ndarray, center_indices: np.ndarray,
        k: int) -> tuple[np.ndarray, np.ndarray]:
    """k nearest neighbours of each centre, self included: (members, local coordinates).

    ``points`` is (..., N, 3) and ``center_indices`` (..., G), or (G,) for
    the same centres in every leading entry.  Members are ordered by
    (Euclidean distance, index): ``argpartition`` keeps the k nearest of
    each row of the (G, N) distance matrices, and a stable sort orders
    them.  A row where points tie at the k-th distance is sorted whole
    instead, so ties always keep the lowest indices.  Returns the
    (..., G, k) int64 member indices and their (..., G, k, 3) coordinates
    minus the centre coordinate, computed by exact subtraction.
    """
    pts = _clouds(points, "knn")
    lead, n = pts.shape[:-2], pts.shape[-2]
    if not 1 <= k <= n:
        raise InvalidArgument(f"knn k={k} out of range for {n} points")
    centers = np.asarray(center_indices, dtype=np.int64)
    if centers.size and (centers.min() < 0 or centers.max() >= n):
        raise InvalidArgument("knn centre index out of range")
    centers = np.broadcast_to(centers, lead + centers.shape[-1:])
    g = centers.shape[-1]
    flat = pts.reshape(-1, n, 3)
    rows = np.arange(flat.shape[0])[:, None]
    origin = flat[rows, centers.reshape(-1, g)]                        # (L, G, 3)
    d = sq_dists(flat[:, None, :, :], origin[:, :, None, :])
    members = np.sort(np.argpartition(d, k - 1, axis=-1)[..., :k], axis=-1)   # (L, G, k)
    near = np.take_along_axis(d, members, axis=-1)
    members = np.take_along_axis(members, np.argsort(near, axis=-1, kind="stable"), axis=-1)
    tied = np.count_nonzero(d <= near.max(axis=-1, keepdims=True), axis=-1) > k
    if tied.any():
        members[tied] = np.argsort(d[tied], axis=-1, kind="stable")[:, :k]
    local = flat[rows[..., None], members] - origin[:, :, None, :]
    return members.reshape(lead + (g, k)), local.reshape(lead + (g, k, 3))


def chamfer_nearest(a: np.ndarray, b: np.ndarray):
    """Symmetric squared-L2 chamfer distance of n point-set pairs, (n, M, D) and (n, L, D).

    Per pair: mean over a of min squared distance to b, plus the same with the
    sets swapped.  Returns (values (n,), nearest b for each a (n, M), nearest a
    for each b (n, L)); ties go to the lowest index.  Works in the inputs' dtype.
    """
    d = sq_dists(a[:, :, None, :], b[:, None, :, :])
    ia = np.argmin(d, axis=2)
    ib = np.argmin(d, axis=1)
    value = (np.take_along_axis(d, ia[:, :, None], axis=2).mean(axis=(1, 2))
             + np.take_along_axis(d, ib[:, None, :], axis=1).mean(axis=(1, 2)))
    return value, ia, ib


def chamfer(a: np.ndarray, b: np.ndarray) -> float:
    """``chamfer_nearest`` of one (M, D), (L, D) pair: zero iff both cover the same locations."""
    pa = np.asarray(a, dtype=np.float64)
    pb = np.asarray(b, dtype=np.float64)
    if pa.ndim != 2 or pb.ndim != 2 or pa.shape[1] != pb.shape[1]:
        raise InvalidArgument(f"chamfer expects (M,D) and (L,D), got {pa.shape} and {pb.shape}")
    if pa.shape[0] == 0 or pb.shape[0] == 0:
        raise InvalidArgument("chamfer of an empty point set")
    if not (np.all(np.isfinite(pa)) and np.all(np.isfinite(pb))):
        raise InvalidArgument("chamfer of non-finite coordinates")
    return float(chamfer_nearest(pa[None], pb[None])[0][0])


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------
# One point per line: "x y z" or "x y z label", whitespace separated, decimal
# doubles, with blank lines and '#' comments ignored.


def save_cloud(path: str | Path, points: np.ndarray, labels: np.ndarray | None = None) -> None:
    """Write (N, 3) ``points``, with a label column when (N,) ``labels`` is given."""
    lines = [f"{x:.17g} {y:.17g} {z:.17g}" for x, y, z in points]
    if labels is not None:
        lines = [f"{line} {int(label)}" for line, label in zip(lines, labels)]
    Path(path).write_text("\n".join(lines) + "\n")


def load_cloud(path: str | Path) -> tuple[np.ndarray, np.ndarray | None]:
    """(N, 3) float64 points and (N,) int64 labels, or None for a 3-column file."""
    points: list[list[float]] = []
    labels: list[int] = []
    saw_label = None
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidArgument(f"cannot read cloud file {path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (3, 4):
            raise InvalidArgument(f"{path}:{lineno}: expected 'x y z [label]', got {len(parts)} fields")
        try:
            xyz = [float(v) for v in parts[:3]]
        except ValueError as exc:
            raise InvalidArgument(f"{path}:{lineno}: bad coordinate: {exc}") from None
        if not all(math.isfinite(v) for v in xyz):
            raise InvalidArgument(f"{path}:{lineno}: non-finite coordinate")
        has_label = len(parts) == 4
        if saw_label is None:
            saw_label = has_label
        elif saw_label != has_label:
            raise InvalidArgument(f"{path}:{lineno}: inconsistent label column")
        if has_label:
            try:
                labels.append(int(parts[3]))
            except ValueError:
                raise InvalidArgument(f"{path}:{lineno}: bad label '{parts[3]}'") from None
        points.append(xyz)
    if not points:
        raise InvalidArgument(f"{path}: no points")
    return (np.array(points, dtype=np.float64),
            np.array(labels, dtype=np.int64) if saw_label else None)
