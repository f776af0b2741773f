"""Exact point-cloud kernels: sampling, neighbourhoods, set distance, I/O.

Everything here is numpy with deterministic tie-breaking (lowest index
wins), so the same inputs always produce the same outputs bit for bit.  The
sampling and neighbourhood kernels work in float64, take any leading batch
axes and treat each leading entry as an independent cloud.  A cloud is
plain arrays: (..., N, 3) points and, where known, (..., N) int64 component
labels.  The chamfer kernel works in its inputs' dtype (float32 at paper
widths) and is the one behind the reconstruction losses: ``autodiff``
differentiates it rather than keeping its own.  It finds nearest points
with a GEMM screen and rechecks, with ``sq_dists``, every row the screen's
rounding could have decided wrongly, so its indices and value are those of
the brute-force (n, M, L) distance matrix.
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
    """Squared Euclidean distances between two broadcastable (..., D) point arrays.

    Summed coordinate by coordinate, left to right: bit for bit what
    ``((a - b) ** 2).sum(axis=-1)`` gives for 2-d and 3-d points, without
    materialising the (..., D) difference array.
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


def _nearest(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """First index of the nearest b for each a, (n, M) from (n, M, D) and (n, L, D) pairs.

    Equal to ``sq_dists(a[:, :, None], b[:, None]).argmin(axis=2)`` on every
    input, without that matrix.  A batched GEMM ``[-2a, |a|², 1] @ [b, 1,
    |b|²]ᵀ`` screens approximate distances s; each row keeps its argmin j and
    the gap from s_j to the row's second smallest entry.  With u the unit
    roundoff and R = |a_i|² + max_l |b_l|², s errs from the exact distance
    δ by at most about (3D + 4)·u·R, in any summation order and with or
    without FMA, and ``sq_dists`` errs by at most (D + 2)·u·δ, where δ ≤ 2R.
    So a point whose ``sq_dists`` value ties or beats j's lies within
    (10D + 16)·u·R of s_j.  A row whose gap exceeds 2·tol, tol = 16·(D + 2)·
    ε·R = 32·(D + 2)·u·R, therefore has j as its unique exact nearest point.
    Every other row is rechecked with one exact ``sq_dists`` row and its
    first argmin.  ``4·R`` is computed as is, so it overflows, and forces
    the recheck, before any distance can; a NaN in the row, or an infinite
    best or tolerance, makes the gap test false, which rechecks the row too;
    and the floor of 4·(D + 2) smallest subnormals covers the absolute error
    of gradual underflow.
    """
    n, m, dim = a.shape
    fin = np.finfo(np.result_type(a, b))
    with np.errstate(over="ignore", invalid="ignore"):
        na = np.einsum("nmd,nmd->nm", a, a)
        nb = np.einsum("nld,nld->nl", b, b)
        s = np.matmul(np.concatenate([-2 * a, na[..., None], np.ones_like(na)[..., None]], axis=2),
                      np.concatenate([b, np.ones_like(nb)[..., None], nb[..., None]],
                                     axis=2).transpose(0, 2, 1)).reshape(n * m, -1)
        rows = np.arange(n * m)
        j = s.argmin(axis=1)
        best = s[rows, j]
        s[rows, j] = np.inf
        reach = 4 * (na + nb.max(axis=1, keepdims=True))
        tol = 4 * (dim + 2) * (fin.eps * reach + fin.smallest_subnormal)
        gap = s[rows, s.argmin(axis=1)] - best
        redo = np.flatnonzero(~(gap > 2 * tol.reshape(-1)))
    if redo.size:
        j[redo] = sq_dists(a.reshape(n * m, dim)[redo, None, :], b[redo // m]).argmin(axis=1)
    return j.reshape(n, m)


def chamfer_nearest(a: np.ndarray, b: np.ndarray):
    """Symmetric squared-L2 chamfer distance of n point-set pairs, (n, M, D) and (n, L, D).

    Per pair: mean over a of min squared distance to b, plus the same with the
    sets swapped.  Returns (values (n,), nearest b for each a (n, M), nearest a
    for each b (n, L)); ties go to the lowest index.  Works in the inputs' dtype.
    The nearest indices come from ``_nearest``'s screen and recheck, and the
    chosen pairs' distances from ``sq_dists``, averaged over the (n, M, 1) and
    (n, 1, L) shapes a gather from the full distance matrix would give: the
    outputs are bit for bit those of the brute-force matrix.
    """
    n, m, _ = a.shape
    ia = _nearest(a, b)
    ib = _nearest(b, a)
    pair = np.arange(n)[:, None]
    da = sq_dists(a, b[pair, ia])
    db = sq_dists(a[pair, ib], b)
    value = da.reshape(n, m, 1).mean(axis=(1, 2)) + db.reshape(n, 1, -1).mean(axis=(1, 2))
    return value, ia, ib


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
