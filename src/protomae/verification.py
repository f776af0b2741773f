"""Self-contained verification suites: brute-force oracles and gradient checks.

Both suites are callable from the CLI and from tests.  They return structured
reports instead of printing, and raise nothing on failure - callers inspect
the ``ok`` flags so a harness can render every result before deciding.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import backbone, embedding, geometry, heads, pcsm, pipeline, shapes
from .autodiff import Tensor
from .config import RunConfig, preset
from .masking import csem_mask


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------

def _fps_oracle(pts: np.ndarray, count: int, start: int) -> np.ndarray:
    """Greedy farthest point sampling, written as bare loops."""
    n = pts.shape[0]
    picked = [start]
    best = np.full(n, np.inf)
    for _ in range(count - 1):
        last = pts[picked[-1]]
        for i in range(n):
            d = float(((pts[i] - last) ** 2).sum())
            if d < best[i]:
                best[i] = d
        winner = 0
        for i in range(1, n):
            if best[i] > best[winner]:
                winner = i
        picked.append(winner)
    return np.array(picked[:count], dtype=np.int64)


def _knn_oracle(pts: np.ndarray, center: int, k: int) -> np.ndarray:
    scored = sorted(range(pts.shape[0]),
                    key=lambda i: (float(((pts[i] - pts[center]) ** 2).sum()), i))
    return np.array(scored[:k], dtype=np.int64)


def _chamfer_oracle(a: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Chamfer value and nearest indices both ways, ties to the lowest index."""
    def one_way(src, dst):
        total = 0.0
        near = []
        for p in src:
            dists = [float(((p - q) ** 2).sum()) for q in dst]
            best = min(dists)
            total += best
            near.append(dists.index(best))
        return total / src.shape[0], np.array(near, dtype=np.int64)

    (va, ia), (vb, ib) = one_way(a, b), one_way(b, a)
    return va + vb, ia, ib


@dataclass
class OracleReport:
    op: str
    instances: int
    mismatches: int
    max_deviation: float

    @property
    def ok(self) -> bool:
        return self.mismatches == 0


def oracle_suite(instances: int = 200) -> list[OracleReport]:
    """Compare fps/knn/chamfer against independent brute-force versions.

    Index-valued results must agree exactly: fps picks, knn members and
    ``chamfer_nearest``'s nearest indices both ways, whose ties go to the
    lowest index.  The chamfer value must agree within 1e-12.  The chamfer
    instances cycle through random points, points on a 1/4 lattice (exact
    distance ties) and sets that repeat points of one another.
    """
    rng = np.random.default_rng(0)
    reports = []

    mism = 0
    for _ in range(instances):
        n = int(rng.integers(4, 65))
        pts = rng.normal(size=(n, 3))
        count = int(rng.integers(1, n + 1))
        start = int(rng.integers(n))
        if not np.array_equal(geometry.fps(pts, count, start),
                              _fps_oracle(pts, count, start)):
            mism += 1
    reports.append(OracleReport("fps", instances, mism, 0.0))

    mism = 0
    for _ in range(instances):
        n = int(rng.integers(2, 65))
        pts = rng.normal(size=(n, 3))
        k = int(rng.integers(1, n + 1))
        center = int(rng.integers(n))
        got = geometry.knn(pts, np.array([center]), k)[0][0]
        if not np.array_equal(got, _knn_oracle(pts, center, k)):
            mism += 1
    reports.append(OracleReport("knn", instances, mism, 0.0))

    mism = 0
    worst = 0.0
    for i in range(instances):
        na, nb = int(rng.integers(1, 65)), int(rng.integers(1, 65))
        a = rng.normal(size=(na, 3))
        b = rng.normal(size=(nb, 3))
        if i % 3 == 1:
            a, b = np.round(4 * a) / 4, np.round(4 * b) / 4
        elif i % 3 == 2:
            a = a[rng.integers(min(na, 4), size=na)]
            b = np.concatenate([a, b])[rng.integers(na + nb, size=nb)]
        value, ia, ib = geometry.chamfer_nearest(a[None], b[None])
        want, want_ia, want_ib = _chamfer_oracle(a, b)
        dev = abs(float(value[0]) - want)
        worst = max(worst, dev)
        if dev > 1e-12 or not (np.array_equal(ia[0], want_ia) and np.array_equal(ib[0], want_ib)):
            mism += 1
    reports.append(OracleReport("chamfer", instances, mism, worst))
    return reports


# ---------------------------------------------------------------------------
# gradient suite
# ---------------------------------------------------------------------------

_STEP = 1e-5            # the wider secant step; the other is a tenth of it
_PROBES_PER_TENSOR = 3  # entries probed in each parameter tensor


@dataclass
class GradReport:
    loss: str
    tensors: int
    probes: int
    skipped: int
    max_rel_err: float
    worst_parameter: str

    @property
    def ok(self) -> bool:
        return self.max_rel_err <= 1e-4 and self.probes > 0


def _central_difference(loss_fn, flat: np.ndarray, idx: int) -> tuple[float, bool]:
    """Two-scale secant; reports not-smooth when the scales disagree.

    A relu/max kink inside the stencil bends the secant differently at each
    scale; genuinely smooth points agree to ~1e-10, so the 1e-6 gate is wide
    enough for noise yet far stricter than the 1e-4 assertion.
    """
    base = flat[idx]
    secants = []
    for h in (_STEP, _STEP / 10.0):
        flat[idx] = base + h
        up = float(loss_fn().values)
        flat[idx] = base - h
        down = float(loss_fn().values)
        flat[idx] = base
        secants.append((up - down) / (2.0 * h))
    smooth = abs(secants[0] - secants[1]) <= 1e-6 * max(1.0, abs(secants[0]))
    return secants[0], smooth


def _check_loss(store: ad.ParamStore, loss_fn, names: list[str],
                rng: np.random.Generator) -> tuple[int, int, float, str]:
    store.zero_grads()
    loss_fn().backward()
    grads = {name: store[name].grad for name in names}
    probes = skipped = 0
    worst = 0.0
    worst_name = ""
    for name in names:
        flat = store[name].values.reshape(-1)
        count = min(_PROBES_PER_TENSOR, flat.size)
        for idx in rng.choice(flat.size, size=count, replace=False):
            fd, smooth = _central_difference(loss_fn, flat, int(idx))
            if not smooth:
                skipped += 1
                continue
            analytic = 0.0 if grads[name] is None else grads[name].reshape(-1)[int(idx)]
            rel = abs(analytic - fd) / max(1.0, abs(fd))
            if rel > worst:
                worst, worst_name = rel, f"{name}[{int(idx)}]"
            probes += 1
    return probes, skipped, worst, worst_name


def gradient_suite(cfg: RunConfig | None = None) -> list[GradReport]:
    """Finite-difference checks for all four losses, on the toy preset by default.

    The suite always runs in float64, whatever ``cfg.dtype`` says: its 1e-4
    bound is a double-precision bound.

    Each loss is checked over the parameters its tape actually reaches, plus
    any parameter that is provably inert for it (zero analytic gradient, and
    the finite difference confirms the loss does not move).  The grouping
    branch losses hold the encoded token features and the hard assignment
    fixed, exactly as the training tape does: features cross the
    stop-gradient boundary as constants and the argmax is index data.
    """
    cfg = replace(cfg or preset("toy"), dtype="float64")
    rng = np.random.default_rng(0)
    kinds = cfg.kinds()
    store = pipeline.init_model(cfg, decoder=True, pcsm_branch=True)
    heads.init_head_params(store, cfg, len(kinds), csep=False)
    points, _ = shapes.make_shape(kinds[0], cfg.n_points, seed=3)

    # fixed masking plan, token features and assignment from the initial
    # weights, by the frozen pass of ``pcsm.cloud_assignment``; l_3d re-embeds
    # the visible patches of the same token batch on the tape
    frozen = ad.frozen(store)
    tb0 = embedding.tokenize(points, frozen, cfg, start=0)
    tokens_encoded, _, assignment = pcsm.group(tb0, frozen, cfg)
    masked, _ = csem_mask(assignment, cfg.full_mask_components, cfg.mask_ratio,
                          np.random.default_rng(5))
    vis, msk = np.flatnonzero(~masked), np.flatnonzero(masked)

    def l3d_fn():
        return backbone.reconstruction_loss(tb0, vis, msk, store, cfg)

    te = Tensor(tokens_encoded)

    def proto_fn():
        p_hat = pcsm.update_prototypes(store["pcsm.prototypes"], te)
        return pcsm.ppr_reconstruct(p_hat, tb0.pos, assignment, points, store, cfg)

    def cont_fn():
        p_hat = pcsm.update_prototypes(store["pcsm.prototypes"], te)
        return pcsm.l_cont(p_hat, cfg.cont_temperature)

    def ce_fn():
        return ad.cross_entropy(heads.classify_baseline(points, store, cfg), 1)

    all_names = store.names()
    scopes = {
        "l_3d": (l3d_fn, [n for n in all_names if n.startswith(
            ("embed.", "enc.", "dec.", "recon."))]),
        "l_proto": (proto_fn, [n for n in all_names if n.startswith("pcsm.")]),
        "l_cont": (cont_fn, ["pcsm.prototypes", "pcsm.enhance.wq"]),
        "cross_entropy": (ce_fn, [n for n in all_names if n.startswith(
            ("embed.", "enc.", "cls."))]),
    }
    reports = []
    for loss_name, (fn, names) in scopes.items():
        probes, skipped, worst, worst_param = _check_loss(store, fn, names, rng)
        reports.append(GradReport(loss=loss_name, tensors=len(names),
                                  probes=probes, skipped=skipped,
                                  max_rel_err=worst,
                                  worst_parameter=worst_param))
    return reports
