"""Geometry kernels against brute-force oracles, plus shape generator and
text-format contracts."""

import hashlib
import inspect

import numpy as np
import pytest

from protomae import autodiff as ad
from protomae import geometry as geo
from protomae import shapes
from protomae.errors import InvalidArgument

RNG = np.random.default_rng(41)


# ---------------------------------------------------------------------------
# brute-force oracles (independent loop implementations)
# ---------------------------------------------------------------------------


def oracle_fps(points, count, start):
    picked = [start]
    candidates = set(range(len(points))) - {start}
    while len(picked) < count:
        best_idx, best_d = None, -1.0
        for i in sorted(candidates):
            d = min(float(np.linalg.norm(points[i] - points[j])) for j in picked)
            if d > best_d:
                best_idx, best_d = i, d
        picked.append(best_idx)
        candidates.discard(best_idx)
    return picked


def oracle_knn(points, center, k):
    scored = sorted(
        (float(((points[i] - points[center]) ** 2).sum()), i) for i in range(len(points)))
    return [i for _, i in scored[:k]]


def oracle_chamfer(a, b):
    total = 0.0
    for p in a:
        total += min(float(((p - q) ** 2).sum()) for q in b) / len(a)
    for q in b:
        total += min(float(((p - q) ** 2).sum()) for p in a) / len(b)
    return total


def chamfer(a, b):
    """``chamfer_nearest``'s value for one (M, D), (L, D) pair."""
    return float(geo.chamfer_nearest(a[None], b[None])[0][0])


def brute_chamfer_nearest(a, b):
    """The brute-force chamfer kernel: the whole (n, M, L) distance matrix,
    its first argmins both ways, and the gathered minima's means."""
    d = geo.sq_dists(a[:, :, None, :], b[:, None, :, :])
    ia = np.argmin(d, axis=2)
    ib = np.argmin(d, axis=1)
    value = (np.take_along_axis(d, ia[:, :, None], axis=2).mean(axis=(1, 2))
             + np.take_along_axis(d, ib[:, None, :], axis=1).mean(axis=(1, 2)))
    return value, ia, ib


# ---------------------------------------------------------------------------
# fps
# ---------------------------------------------------------------------------


def test_fps_collinear_hand_case():
    # x positions 0,1,2,3,10 on a line: picks are 0, then 10, then 3
    pts = np.zeros((5, 3))
    pts[:, 0] = [0.0, 1.0, 2.0, 3.0, 10.0]
    picks = geo.fps(pts, 3, start=0)
    expected = oracle_fps(pts, 3, 0)
    assert expected == [0, 4, 3]
    assert picks.tolist() == expected


def test_fps_count_equals_n_is_permutation():
    pts = RNG.normal(size=(12, 3))
    picks = geo.fps(pts, 12, start=5)
    assert sorted(picks.tolist()) == list(range(12))


def test_fps_duplicate_points_tie_to_lowest_index():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [1.0, 0, 0], [0.5, 0, 0]])
    picks = geo.fps(pts, 2, start=0)
    assert picks.tolist() == [0, 1]


def test_fps_minmax_invariant():
    """Every pick's min distance to prior picks >= any unpicked candidate's."""
    for trial in range(20):
        rng = np.random.default_rng(trial)
        pts = rng.normal(size=(40, 3))
        picks = geo.fps(pts, 10, start=int(rng.integers(40)))
        chosen = set()
        for step, p in enumerate(picks):
            if step > 0:
                dp = min(((pts[p] - pts[j]) ** 2).sum() for j in chosen)
                for cand in range(40):
                    if cand in chosen or cand == p:
                        continue
                    dc = min(((pts[cand] - pts[j]) ** 2).sum() for j in chosen)
                    assert dp >= dc - 1e-12
            chosen.add(int(p))


def test_fps_against_oracle_random_instances():
    for trial in range(30):
        rng = np.random.default_rng(1000 + trial)
        n = int(rng.integers(4, 40))
        pts = rng.normal(size=(n, 3))
        count = int(rng.integers(1, n + 1))
        start = int(rng.integers(n))
        assert geo.fps(pts, count, start).tolist() == oracle_fps(pts, count, start)


def test_fps_bad_args():
    pts = RNG.normal(size=(5, 3))
    with pytest.raises(InvalidArgument):
        geo.fps(pts, 6)
    with pytest.raises(InvalidArgument):
        geo.fps(pts, 0)
    with pytest.raises(InvalidArgument):
        geo.fps(pts, 2, start=5)


# ---------------------------------------------------------------------------
# knn
# ---------------------------------------------------------------------------


def test_knn_includes_self_first():
    pts = RNG.normal(size=(20, 3))
    centers = np.array([0, 7, 19])
    members, local = geo.knn(pts, centers, 5)
    np.testing.assert_array_equal(members[:, 0], centers)
    np.testing.assert_array_equal(local[:, 0], np.zeros((3, 3)))


def test_knn_sorted_by_distance_then_index():
    pts = np.array([[0.0, 0, 0], [2.0, 0, 0], [-2.0, 0, 0], [1.0, 0, 0]])
    members = geo.knn(pts, np.array([0]), 4)[0][0]
    # distances: self 0, idx3 1, idx1 4, idx2 4 -> tie between 1 and 2 keeps index order
    assert members.tolist() == [0, 3, 1, 2]


def test_knn_k_equals_n():
    pts = RNG.normal(size=(9, 3))
    members = geo.knn(pts, np.array([4]), 9)[0][0]
    assert sorted(members.tolist()) == list(range(9))


def test_knn_against_oracle_random_instances():
    for trial in range(30):
        rng = np.random.default_rng(2000 + trial)
        n = int(rng.integers(3, 50))
        pts = rng.normal(size=(n, 3))
        k = int(rng.integers(1, n + 1))
        c = int(rng.integers(n))
        members, local = geo.knn(pts, np.array([c]), k)
        assert members[0].tolist() == oracle_knn(pts, c, k)
        np.testing.assert_array_equal(local[0], pts[members[0]] - pts[c])


def test_knn_ties_at_the_kth_place_keep_the_lowest_indices():
    # an integer grid puts many points at equal distance from every centre,
    # so most k cut through a tie; two leading entries share one call
    axis = np.arange(3.0)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
    clouds = np.stack([grid, grid[::-1]])
    centers = np.arange(grid.shape[0])
    for k in range(1, grid.shape[0] + 1):
        members, _ = geo.knn(clouds, centers, k)
        for b in range(2):
            for c in centers:
                assert members[b, c].tolist() == oracle_knn(clouds[b], c, k), (b, c, k)


def test_knn_local_coords_translation_invariant():
    pts = RNG.normal(size=(30, 3))
    centers = np.array([3, 11])
    base_members, base_local = geo.knn(pts, centers, 6)
    moved_members, moved_local = geo.knn(pts + np.array([10.0, -4.0, 2.5]), centers, 6)
    np.testing.assert_array_equal(base_members, moved_members)
    np.testing.assert_allclose(base_local, moved_local, atol=1e-9)


def test_knn_bad_k():
    pts = RNG.normal(size=(5, 3))
    with pytest.raises(InvalidArgument):
        geo.knn(pts, np.array([0]), 6)


# ---------------------------------------------------------------------------
# chamfer
# ---------------------------------------------------------------------------


def test_chamfer_single_point_hand_case():
    assert chamfer(np.array([[0.0, 0, 0]]), np.array([[1.0, 0, 0]])) == pytest.approx(2.0, abs=1e-15)


def test_chamfer_identical_sets_zero():
    pts = RNG.normal(size=(15, 3))
    assert chamfer(pts, pts.copy()) == 0.0
    assert chamfer(pts, pts[RNG.permutation(15)]) == 0.0


def test_chamfer_symmetry_and_positivity():
    a = RNG.normal(size=(8, 3))
    b = RNG.normal(size=(13, 3))
    assert chamfer(a, b) == pytest.approx(chamfer(b, a), abs=1e-15)
    assert chamfer(a, b) > 0.0


def test_chamfer_against_oracle_random_instances():
    for trial in range(30):
        rng = np.random.default_rng(3000 + trial)
        a = rng.normal(size=(int(rng.integers(1, 20)), 3))
        b = rng.normal(size=(int(rng.integers(1, 20)), 3))
        assert chamfer(a, b) == pytest.approx(oracle_chamfer(a, b), abs=1e-12)


def _screen_test_pairs(rng, shape, dim, dtype):
    """(name, a, b) chamfer inputs that stress the GEMM screen in ``dtype``.

    Random points; coordinates rounded to 1/4, whose distances tie exactly;
    duplicated points; scaled clouds, down to where squares underflow and up
    to where they overflow; and clouds offset so far out that every norm
    overflows while the distances stay finite.
    """
    n, m, l = shape
    a = rng.normal(size=(n, m, dim))
    b = rng.normal(size=(n, l, dim))
    dup_a, dup_b = a.copy(), b.copy()
    dup_a[:, 1::3] = a[:, :1]
    dup_b[:, ::2] = dup_a[:, -1:]
    scales = (1e-3, 1e-150, 1e-160, 1e150) if dtype == np.float64 else (1e-3, 1e-20, 1e20)
    far = np.sqrt(np.finfo(dtype).max)
    pairs = [("random", a, b), ("lattice", np.round(4 * a) / 4, np.round(4 * b) / 4),
             ("duplicate", dup_a, dup_b)]
    pairs += [(f"scale {c:g}", c * a, c * b) for c in scales]
    pairs.append(("far", far + 1e-3 * far * a, far + 1e-3 * far * b))
    return [(name, x.astype(dtype), y.astype(dtype)) for name, x, y in pairs]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("shape", [(1, 1, 1), (3, 1, 7), (4, 7, 1), (5, 33, 17), (152, 8, 8),
                                   (8, 256, 256), (2, 1024, 1024)])
def test_chamfer_nearest_is_brute_force_bit_for_bit(dtype, dim, shape):
    rng = np.random.default_rng([np.dtype(dtype).itemsize, dim, *shape])
    for name, a, b in _screen_test_pairs(rng, shape, dim, dtype):
        # distances overflow at the largest scales, in both kernels alike
        with np.errstate(over="ignore"):
            want = brute_chamfer_nearest(a, b)
            got = geo.chamfer_nearest(a, b)
        for w, g in zip(want, got):
            assert g.dtype == w.dtype and g.shape == w.shape, name
            assert g.tobytes() == w.tobytes(), name


def test_chamfer_nearest_corrects_a_screen_that_picks_wrongly():
    # float32 clouds far from the origin: the screen's GEMM loses the distances
    # to cancellation, so its own argmin is wrong and only the recheck is right
    rng = np.random.default_rng(7)
    a = (100 + 1e-3 * rng.normal(size=(2, 64, 3))).astype(np.float32)
    b = (100 + 1e-3 * rng.normal(size=(2, 48, 3))).astype(np.float32)
    na, nb = (a * a).sum(axis=2), (b * b).sum(axis=2)
    screen = np.concatenate([-2 * a, na[..., None], np.ones_like(na)[..., None]], axis=2) @ \
        np.concatenate([b, np.ones_like(nb)[..., None], nb[..., None]], axis=2).transpose(0, 2, 1)
    value, ia, ib = brute_chamfer_nearest(a, b)
    assert (screen.argmin(axis=2) != ia).any()
    got = geo.chamfer_nearest(a, b)
    assert got[0].tobytes() == value.tobytes()
    assert np.array_equal(got[1], ia) and np.array_equal(got[2], ib)


def test_chamfer_gradient_matches_finite_differences():
    a0 = RNG.normal(size=(7, 3))
    b0 = RNG.normal(size=(5, 3))
    t = ad.Tensor(a0.copy(), requires_grad=True)
    ad.chamfer_batch(t, b0).backward()
    step = 1e-5
    flat = a0.reshape(-1)
    for i in RNG.choice(flat.size, size=8, replace=False):
        keep = flat[i]
        flat[i] = keep + step
        hi = chamfer(a0, b0)
        flat[i] = keep - step
        lo = chamfer(a0, b0)
        flat[i] = keep
        fd = (hi - lo) / (2 * step)
        analytic = t.grad.reshape(-1)[i]
        assert abs(analytic - fd) <= 1e-4 * max(abs(analytic), abs(fd), 1e-3)


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------


def test_normalize_centroid_and_radius():
    pts = RNG.normal(size=(50, 3)) * 7.0 + np.array([3.0, -2.0, 9.0])
    out = geo.normalize(pts)
    assert np.abs(out.mean(axis=0)).max() <= 1e-6
    radii = np.linalg.norm(out, axis=1)
    assert radii.max() <= 1.0 + 1e-6
    assert radii.max() == pytest.approx(1.0, abs=1e-12)


def test_normalize_batch_is_per_cloud_normalize_bit_for_bit():
    clouds = RNG.normal(size=(2, 3, 40, 3)) * 5.0 + 2.0
    out = geo.normalize(clouds)
    for idx in np.ndindex(2, 3):
        np.testing.assert_array_equal(out[idx].view(np.int64),
                                      geo.normalize(clouds[idx]).view(np.int64))


def test_normalize_degenerate_cloud():
    with pytest.raises(InvalidArgument):
        geo.normalize(np.ones((4, 3)))
    with pytest.raises(InvalidArgument, match="degenerate"):
        geo.normalize(np.stack([RNG.normal(size=(4, 3)), np.ones((4, 3))]))
    with pytest.raises(InvalidArgument):
        geo.normalize(np.ones((2, 0, 3)))


# ---------------------------------------------------------------------------
# shapes
# ---------------------------------------------------------------------------


def test_make_shape_deterministic_bit_identical():
    a_points, a_labels = shapes.make_shape("plane", 512, seed=33)
    b_points, b_labels = shapes.make_shape("plane", 512, seed=33)
    np.testing.assert_array_equal(a_points, b_points)
    np.testing.assert_array_equal(a_labels, b_labels)
    c_points, _ = shapes.make_shape("plane", 512, seed=34)
    assert not np.array_equal(a_points, c_points)


def test_make_shape_normalized_output():
    for kind in shapes.SHAPE_KINDS:
        points, labels = shapes.make_shape(kind, 256, seed=7)
        assert points.shape == (256, 3) and labels.shape == (256,)
        assert np.abs(points.mean(axis=0)).max() <= 1e-6
        assert np.linalg.norm(points, axis=1).max() <= 1.0 + 1e-6


def test_make_shape_chair_component_floor():
    _, labels = shapes.make_shape("chair", 512, seed=0)
    n_components = len(shapes.SHAPE_COMPONENTS["chair"])
    counts = np.bincount(labels, minlength=n_components)
    assert len(counts) == n_components
    assert counts.min() >= 0.05 * 512


def test_make_shape_every_kind_labels_contiguous():
    for kind in shapes.SHAPE_KINDS:
        _, labels = shapes.make_shape(kind, 128, seed=11)
        names = shapes.SHAPE_COMPONENTS[kind]
        assert 3 <= len(names) <= 5
        assert set(np.unique(labels)) == set(range(len(names)))


def test_shape_table_invariants():
    for kind, components in shapes._SHAPES.items():
        shares = [share for _, share, _ in components]
        assert abs(sum(shares) - 1.0) <= 1e-12, kind
        assert min(shares) >= 0.1, kind
        for name, _, prims in components:
            assert abs(sum(w for w, _, _ in prims) - 1.0) <= 1e-12, (kind, name)
            for _, sampler, args in prims:
                fn, _ = shapes._SAMPLERS[sampler]
                inspect.signature(fn).bind(None, *args)


def reference_sample_box(rng, count, center, half):
    """Per-face loop over one ``rng.choice`` and two ``rng.uniform`` calls."""
    hx, hy, hz = half
    areas = np.array([hy * hz, hy * hz, hx * hz, hx * hz, hx * hy, hx * hy])
    faces = rng.choice(6, size=count, p=areas / areas.sum())
    u = rng.uniform(-1.0, 1.0, size=count)
    v = rng.uniform(-1.0, 1.0, size=count)
    pts = np.empty((count, 3))
    for face in range(6):
        m = faces == face
        if not np.any(m):
            continue
        axis, sign = divmod(face, 2)
        fixed = (hx, hy, hz)[axis] * (1.0 if sign == 0 else -1.0)
        others = [a for a in range(3) if a != axis]
        pts[m, axis] = fixed
        pts[m, others[0]] = u[m] * (hx, hy, hz)[others[0]]
        pts[m, others[1]] = v[m] * (hx, hy, hz)[others[1]]
    return pts + np.asarray(center)


def reference_orient(local, axis):
    return local[:, {0: (2, 0, 1), 1: (1, 2, 0), 2: (0, 1, 2)}[axis]]


def reference_sample_cylinder(rng, count, center, axis, radius, height, caps=True):
    """Per-region loop over one ``rng.choice`` and two ``rng.uniform`` calls."""
    lateral = 2.0 * np.pi * radius * height
    cap = np.pi * radius * radius
    weights = np.array([lateral, cap, cap]) if caps else np.array([1.0])
    region = rng.choice(len(weights), size=count, p=weights / weights.sum())
    theta = rng.uniform(0.0, 2.0 * np.pi, size=count)
    u = rng.uniform(0.0, 1.0, size=count)
    local = np.empty((count, 3))
    side = region == 0
    local[side, 0] = radius * np.cos(theta[side])
    local[side, 1] = radius * np.sin(theta[side])
    local[side, 2] = (u[side] - 0.5) * height
    for reg, zc in ((1, 0.5 * height), (2, -0.5 * height)):
        m = region == reg
        if not np.any(m):
            continue
        r = radius * np.sqrt(u[m])
        local[m, 0] = r * np.cos(theta[m])
        local[m, 1] = r * np.sin(theta[m])
        local[m, 2] = zc
    return reference_orient(local, axis) + np.asarray(center)


def reference_sample_cone(rng, count, base_center, axis, radius, height):
    theta = rng.uniform(0.0, 2.0 * np.pi, size=count)
    t = np.sqrt(rng.uniform(0.0, 1.0, size=count))
    local = np.empty((count, 3))
    local[:, 0] = radius * t * np.cos(theta)
    local[:, 1] = radius * t * np.sin(theta)
    local[:, 2] = height * (1.0 - t)
    return reference_orient(local, axis) + np.asarray(base_center)


REFERENCE_SAMPLERS = {"box": reference_sample_box, "cylinder": reference_sample_cylinder,
                      "cone": reference_sample_cone}


def reference_make_shape(kind, n, seed):
    """One cloud at a time, with ``rng.choice``/``rng.uniform`` calls per
    primitive: the corpus ``shapes.make_corpus`` must reproduce bit for bit."""
    rng = np.random.default_rng(seed)
    components = shapes._SHAPES[kind]
    counts = shapes.apportion(n, [share for _, share, _ in components])
    chunks, labels = [], []
    for label, ((_, _, prims), count) in enumerate(zip(components, counts)):
        sub = shapes.apportion(count, [w for w, _, _ in prims])
        for (_, sampler, args), c in zip(prims, sub):
            if c:
                chunks.append(REFERENCE_SAMPLERS[sampler](rng, c, *args))
        labels.append(np.full(count, label, dtype=np.int64))
    pts = np.concatenate(chunks, axis=0)
    centred = pts - pts.mean(axis=0)
    return centred / np.linalg.norm(centred, axis=1).max(), np.concatenate(labels)


def assert_matches_reference(points, labels, pairs, n):
    for b, (kind, seed) in enumerate(pairs):
        ref_points, ref_labels = reference_make_shape(kind, n, seed)
        np.testing.assert_array_equal(points[b].view(np.int64), ref_points.view(np.int64),
                                      err_msg=f"{kind} n={n} seed={seed}")
        np.testing.assert_array_equal(labels[b], ref_labels)


def test_make_corpus_bit_identical_to_per_primitive_generator():
    for kind in shapes.SHAPE_KINDS:
        for n in (64, 65, 100, 256, 257, 1024, 2048):
            pairs = [(kind, seed) for seed in range(20)]
            assert_matches_reference(*shapes.make_corpus(pairs, n), pairs, n)


def test_synthetic_corpus_matches_golden_digest():
    # recorded before the samplers were vectorized; every training corpus
    # and held-out evaluation set is drawn from make_shape
    from protomae.pipeline import HELD_OUT_SEED_BASE
    digest = hashlib.sha256()
    for kind in shapes.SHAPE_KINDS:
        for seed in (0, 7, HELD_OUT_SEED_BASE):
            for n in (256, 1024):
                points, labels = shapes.make_shape(kind, n, seed)
                digest.update(points.astype("<f8").tobytes())
                digest.update(labels.astype("<i8").tobytes())
    assert digest.hexdigest() == \
        "d702f5c76d838ea4cc7f0427dec11a3f09a318939ea48eaa1b466b6035b5997d"


def test_make_corpus_keeps_pair_order_for_mixed_repeated_pairs():
    pairs = [("rocket", 4), ("plane", 0), ("rocket", 4), ("chair", 1_000_000),
             ("table", 9), ("plane", np.int64(3)), ("rocket", 2), ("chair", 0)]
    points, labels = shapes.make_corpus(pairs, 100)
    assert points.shape == (8, 100, 3) and labels.shape == (8, 100)
    assert points.dtype == np.float64 and labels.dtype == np.int64
    assert_matches_reference(points, labels, pairs, 100)
    one_points, one_labels = shapes.make_shape("chair", 100, 1_000_000)
    np.testing.assert_array_equal(one_points.view(np.int64), points[3].view(np.int64))
    np.testing.assert_array_equal(one_labels, labels[3])


@pytest.mark.parametrize("pairs, n, match", [
    ([], 128, "at least one"),
    ([("plane", 0), ("boat", 1)], 128, r"\('boat', 1\): unknown shape kind"),
    ([("plane", 0), ("chair", -1)], 128, r"\('chair', -1\): seed must be an integer >= 0"),
    ([("plane", 0), ("chair", 1.5)], 128, r"\('chair', 1.5\): seed must be an integer >= 0"),
    ([("plane", 0)], 63, "n >= 64, got 63"),
], ids=["empty", "unknown-kind", "negative-seed", "non-integer-seed", "small-n"])
def test_make_corpus_rejects_bad_input_before_any_draw(monkeypatch, pairs, n, match):
    def no_draws(seed):
        raise AssertionError("drew before validating")

    monkeypatch.setattr(shapes.np.random, "default_rng", no_draws)
    with pytest.raises(InvalidArgument, match=match):
        shapes.make_corpus(pairs, n)


def test_make_shape_rejects_small_n_and_bad_kind():
    with pytest.raises(InvalidArgument):
        shapes.make_shape("plane", 63, seed=0)
    with pytest.raises(InvalidArgument):
        shapes.make_shape("boat", 128, seed=0)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


def test_cloud_roundtrip_with_labels(tmp_path):
    points, labels = shapes.make_shape("table", 128, seed=3)
    path = tmp_path / "cloud.txt"
    geo.save_cloud(path, points, labels)
    back_points, back_labels = geo.load_cloud(path)
    np.testing.assert_array_equal(back_points, points)
    np.testing.assert_array_equal(back_labels, labels)


def test_cloud_roundtrip_without_labels(tmp_path):
    pts = RNG.normal(size=(17, 3))
    path = tmp_path / "plain.txt"
    geo.save_cloud(path, pts)
    back_points, back_labels = geo.load_cloud(path)
    assert back_labels is None
    np.testing.assert_array_equal(back_points, pts)


def test_cloud_load_ignores_comments_and_blanks(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("# header\n\n1.0 2.0 3.0 0\n  # indented comment\n4.0 5.0 6.0 1  # trailing\n")
    points, labels = geo.load_cloud(path)
    np.testing.assert_array_equal(points, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    np.testing.assert_array_equal(labels, [0, 1])


def test_cloud_load_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1.0 2.0\n")
    with pytest.raises(InvalidArgument):
        geo.load_cloud(path)
    path.write_text("1 2 3 0\n1 2 3\n")
    with pytest.raises(InvalidArgument, match="label"):
        geo.load_cloud(path)
    path.write_text("# only comments\n")
    with pytest.raises(InvalidArgument):
        geo.load_cloud(path)


# ---------------------------------------------------------------------------
# batched kernels and non-finite input
# ---------------------------------------------------------------------------


def test_fps_and_knn_batch_equal_per_cloud():
    rng = np.random.default_rng(77)
    pts = rng.normal(size=(3, 30, 3))
    starts = np.array([0, 17, 29])
    picks = geo.fps(pts, 8, start=starts)
    members, local = geo.knn(pts, picks, 5)
    assert picks.shape == (3, 8) and members.shape == (3, 8, 5)
    for i in range(3):
        single = geo.fps(pts[i], 8, start=int(starts[i]))
        np.testing.assert_array_equal(picks[i], single)
        one_members, one_local = geo.knn(pts[i], single, 5)
        np.testing.assert_array_equal(members[i], one_members)
        np.testing.assert_array_equal(local[i], one_local)


def test_cloud_load_rejects_non_finite_coordinates(tmp_path):
    path = tmp_path / "nan.txt"
    for bad in ("nan", "inf", "-inf"):
        path.write_text(f"1 2 3\n4 {bad} 6\n")
        with pytest.raises(InvalidArgument, match=r"nan\.txt:2: non-finite"):
            geo.load_cloud(path)
