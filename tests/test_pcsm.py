"""Prototype grouping branch: knorm, update/grouping algebra, reconstruction, separation."""

import math

import numpy as np
import pytest

from protomae import autodiff as ad
from protomae import backbone as bb
from protomae import embedding, pcsm
from protomae.autodiff import Tensor
from protomae.config import preset
from protomae.errors import InvalidArgument


def toy_model(seed=0):
    cfg = preset("toy")
    store = ad.ParamStore(seed)
    embedding.init_embedding_params(store, cfg)
    bb.init_backbone_params(store, cfg)
    pcsm.init_pcsm_params(store, cfg)
    return cfg, store


# ---------------------------------------------------------------------------
# knorm
# ---------------------------------------------------------------------------

def knorm_oracle(tokens, centers, k, eps=1e-8):
    g = tokens.shape[0]
    out = np.empty_like(tokens)
    for i in range(g):
        d = ((centers - centers[i]) ** 2).sum(axis=1)
        nearest = np.lexsort((np.arange(g), d))[:k]
        block = tokens[nearest]
        mu = block.mean(axis=0)
        sd = block.std(axis=0)
        out[i] = tokens[i] + (tokens[i] - mu) / (sd + eps)
    return out


def test_knorm_matches_exhaustive_oracle():
    rng = np.random.default_rng(0)
    tokens = rng.normal(size=(6, 5))
    centers = rng.normal(size=(6, 3))
    for k in (1, 2, 3, 6):
        got = pcsm.knorm_enhance(tokens, centers, k)
        assert np.array_equal(got, knorm_oracle(tokens, centers, k))


def test_knorm_k1_is_identity():
    rng = np.random.default_rng(1)
    tokens = rng.normal(size=(5, 4))
    centers = rng.normal(size=(5, 3))
    assert np.array_equal(pcsm.knorm_enhance(tokens, centers, 1), tokens)


def test_knorm_identical_tokens_is_identity():
    tokens = np.tile(np.arange(4.0), (7, 1))
    centers = np.random.default_rng(2).normal(size=(7, 3))
    assert np.array_equal(pcsm.knorm_enhance(tokens, centers, 3), tokens)


def test_knorm_widens_receptive_field():
    # moving a neighbour changes a token's output even though the token's own
    # feature row is untouched
    rng = np.random.default_rng(3)
    tokens = rng.normal(size=(6, 4))
    centers = rng.normal(size=(6, 3))
    base = pcsm.knorm_enhance(tokens, centers, 6)
    tokens2 = tokens.copy()
    tokens2[5] += 1.0
    moved = pcsm.knorm_enhance(tokens2, centers, 6)
    assert np.abs(moved[0] - base[0]).max() > 1e-9


def test_knorm_validation():
    tokens = np.zeros((4, 3))
    centers = np.zeros((4, 3))
    with pytest.raises(InvalidArgument):
        pcsm.knorm_enhance(tokens, centers, 5)
    with pytest.raises(InvalidArgument):
        pcsm.knorm_enhance(tokens, np.zeros((3, 3)), 2)


# ---------------------------------------------------------------------------
# prototype update algebra
# ---------------------------------------------------------------------------

def test_update_prototypes_single_token():
    p = Tensor(np.random.default_rng(4).normal(size=(3, 8)))
    t = Tensor(np.random.default_rng(5).normal(size=(1, 8)))
    out = pcsm.update_prototypes(p, t)
    assert np.allclose(out.values, np.tile(t.values, (3, 1)), atol=1e-12)


def test_update_prototypes_uniform_when_orthogonal():
    # orthonormal tokens, prototype orthogonal to all of them: equal logits,
    # so the update is the plain token average
    c = 8
    tokens = np.zeros((3, c))
    tokens[0, 0] = tokens[1, 1] = tokens[2, 2] = 1.0
    p = np.zeros((1, c))
    p[0, 7] = 2.5
    out = pcsm.update_prototypes(Tensor(p), Tensor(tokens))
    assert np.allclose(out.values[0], tokens.mean(axis=0), atol=1e-12)


def test_update_prototypes_hand_case():
    p = np.array([[1.0, 0.0]])
    t = np.array([[2.0, 0.0], [0.0, 2.0]])
    logits = p @ t.T / math.sqrt(2)
    w = np.exp(logits - logits.max())
    w /= w.sum()
    expect = w @ t
    out = pcsm.update_prototypes(Tensor(p), Tensor(t))
    assert np.allclose(out.values, expect, atol=1e-12)


def test_updated_prototypes_stay_in_convex_hull():
    rng = np.random.default_rng(6)
    p = Tensor(rng.normal(size=(4, 6)))
    t = rng.normal(size=(9, 6))
    out = pcsm.update_prototypes(p, Tensor(t))
    # recompute the attention weights and confirm the convex reconstruction
    logits = p.values @ t.T / math.sqrt(6)
    w = np.exp(logits - logits.max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    assert (w >= 0).all()
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(out.values, w @ t, atol=1e-12)


def test_update_prototypes_width_mismatch():
    with pytest.raises(InvalidArgument):
        pcsm.update_prototypes(Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 5))))


# ---------------------------------------------------------------------------
# token enhancement
# ---------------------------------------------------------------------------

def test_enhance_zero_projection_reduces_to_layer_norm():
    cfg, store = toy_model()
    store["pcsm.enhance.wo"].values[:] = 0.0
    rng = np.random.default_rng(7)
    tokens = Tensor(rng.normal(size=(5, cfg.dim)))
    phat = Tensor(rng.normal(size=(cfg.n_prototypes, cfg.dim)))
    out = pcsm.enhance_tokens(tokens, phat, store, cfg)
    expect = ad.layer_norm(tokens, store["pcsm.enhance.ln.g"], store["pcsm.enhance.ln.b"])
    assert np.array_equal(out.values, expect.values)


def test_enhance_parameters_receive_gradient():
    cfg, store = toy_model()
    rng = np.random.default_rng(8)
    tokens = Tensor(rng.normal(size=(5, cfg.dim)))
    phat = Tensor(rng.normal(size=(cfg.n_prototypes, cfg.dim)), requires_grad=True)
    out = pcsm.enhance_tokens(tokens, phat, store, cfg)
    ad.sum_all(ad.mul_const(out, out.values)).backward()
    for name in ("pcsm.enhance.wq", "pcsm.enhance.wk", "pcsm.enhance.wo", "pcsm.enhance.ln.g"):
        assert np.abs(store[name].grad).max() > 0.0, name


# ---------------------------------------------------------------------------
# similarity / grouping
# ---------------------------------------------------------------------------

def test_similarity_rows_are_stochastic():
    rng = np.random.default_rng(9)
    s, assignment = pcsm.similarity(Tensor(rng.normal(size=(10, 6))),
                                    Tensor(rng.normal(size=(4, 6))))
    assert np.allclose(s.values.sum(axis=1), 1.0, atol=1e-9)
    assert assignment.shape == (10,)
    assert ((assignment >= 0) & (assignment < 4)).all()
    assert np.array_equal(assignment, s.values.argmax(axis=1))


def test_similarity_argmax_scale_invariant():
    rng = np.random.default_rng(10)
    tokens = rng.normal(size=(12, 6))
    phat = Tensor(rng.normal(size=(3, 6)))
    _, a = pcsm.similarity(Tensor(tokens), phat)
    _, b = pcsm.similarity(Tensor(37.0 * tokens), phat)
    assert np.array_equal(a, b)


def test_similarity_single_prototype():
    s, assignment = pcsm.similarity(Tensor(np.random.default_rng(11).normal(size=(5, 4))),
                                    Tensor(np.ones((1, 4))))
    assert np.allclose(s.values, 1.0, atol=1e-12)
    assert np.array_equal(assignment, np.zeros(5, dtype=np.int64))


def test_similarity_tie_breaks_to_lowest_index():
    tokens = np.ones((2, 4))
    phat = np.tile(np.ones(4), (3, 1))  # identical prototypes: all logits tie
    _, assignment = pcsm.similarity(Tensor(tokens), Tensor(phat))
    assert np.array_equal(assignment, np.zeros(2, dtype=np.int64))


# ---------------------------------------------------------------------------
# prototype-position reconstruction
# ---------------------------------------------------------------------------

def test_ppr_centroid_bias_matches_chamfer_oracle():
    from protomae import geometry as geo
    cfg, store = toy_model()
    rng = np.random.default_rng(12)
    cloud = rng.normal(size=(cfg.n_points, 3))
    centroid = cloud.mean(axis=0)
    store["pcsm.ppr.w0"].values[:] = 0.0
    store["pcsm.ppr.w1"].values[:] = 0.0
    store["pcsm.ppr.b1"].values[:] = np.tile(centroid, cfg.recon_points)
    g = cfg.n_patches
    phat = Tensor(rng.normal(size=(cfg.n_prototypes, cfg.dim)))
    pos = Tensor(rng.normal(size=(g, cfg.dim)))
    assignment = rng.integers(0, cfg.n_prototypes, g)
    loss = pcsm.ppr_reconstruct(phat, pos, assignment, cloud, store, cfg)
    oracle = geo.chamfer_nearest(centroid[None, None, :], cloud[None])[0][0] / g
    assert abs(float(loss.values) - oracle) < 1e-12


def test_ppr_empty_groups_are_legal():
    cfg, store = toy_model()
    rng = np.random.default_rng(13)
    phat = Tensor(rng.normal(size=(cfg.n_prototypes, cfg.dim)))
    pos = Tensor(rng.normal(size=(cfg.n_patches, cfg.dim)))
    assignment = np.zeros(cfg.n_patches, dtype=np.int64)  # groups 1..Q-1 empty
    cloud = rng.normal(size=(cfg.n_points, 3))
    loss = pcsm.ppr_reconstruct(phat, pos, assignment, cloud, store, cfg)
    assert np.isfinite(float(loss.values))


def test_ppr_row_order_follows_tokens():
    # token i's row is [phat[assignment[i]] || pos[i]]: permuting two tokens
    # with different prototypes only permutes the predicted points, while
    # swapping their positions alone re-pairs them and moves the loss
    cfg, store = toy_model()
    rng = np.random.default_rng(14)
    phat = Tensor(rng.normal(size=(cfg.n_prototypes, cfg.dim)))
    pos_values = rng.normal(size=(cfg.n_patches, cfg.dim))
    cloud = rng.normal(size=(cfg.n_points, 3))
    assignment = np.zeros(cfg.n_patches, dtype=np.int64)
    assignment[0] = 1
    loss_a = pcsm.ppr_reconstruct(phat, Tensor(pos_values), assignment, cloud, store, cfg)
    swapped = pos_values.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    assignment2 = assignment.copy()
    assignment2[[0, 1]] = assignment2[[1, 0]]
    loss_b = pcsm.ppr_reconstruct(phat, Tensor(swapped), assignment2, cloud, store, cfg)
    assert abs(float(loss_a.values) - float(loss_b.values)) < 1e-12
    positions_only = pcsm.ppr_reconstruct(phat, Tensor(swapped), assignment, cloud, store, cfg)
    assert abs(float(loss_a.values) - float(positions_only.values)) > 1e-9


def test_ppr_validation():
    cfg, store = toy_model()
    phat = Tensor(np.zeros((cfg.n_prototypes, cfg.dim)))
    pos = Tensor(np.zeros((cfg.n_patches, cfg.dim)))
    cloud = np.zeros((cfg.n_points, 3))
    bad = np.zeros(cfg.n_patches - 1, dtype=np.int64)
    with pytest.raises(InvalidArgument):
        pcsm.ppr_reconstruct(phat, pos, bad, cloud, store, cfg)
    out_of_range = np.full(cfg.n_patches, cfg.n_prototypes, dtype=np.int64)
    with pytest.raises(InvalidArgument):
        pcsm.ppr_reconstruct(phat, pos, out_of_range, cloud, store, cfg)


# ---------------------------------------------------------------------------
# contrastive separation loss
# ---------------------------------------------------------------------------

def test_l_cont_identical_rows_closed_form():
    rows = np.tile(np.array([0.3, -0.7, 0.1]), (2, 1))
    loss = pcsm.l_cont(Tensor(rows), temperature=0.07)
    assert abs(float(loss.values) - 2.0 * math.log(2.0)) < 1e-9
    # any temperature: identical rows always cost Q log Q
    loss = pcsm.l_cont(Tensor(np.tile(rows, (2, 1))), temperature=0.3)
    assert abs(float(loss.values) - 4.0 * math.log(4.0)) < 1e-9


def test_l_cont_orthogonal_rows_closed_form():
    rows = np.array([[2.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
    loss = pcsm.l_cont(Tensor(rows), temperature=1.0)
    assert abs(float(loss.values) - 2.0 * math.log(1.0 + math.exp(-1.0))) < 1e-9


def test_l_cont_strictly_decreases_with_separation():
    values = []
    for theta in np.linspace(0.0, np.pi / 2, 12):
        rows = np.array([[1.0, 0.0], [math.cos(theta), math.sin(theta)]])
        values.append(float(pcsm.l_cont(Tensor(rows), 0.5).values))
    assert all(a > b for a, b in zip(values, values[1:]))


def test_l_cont_permutation_invariant():
    rng = np.random.default_rng(15)
    rows = rng.normal(size=(5, 7))
    a = float(pcsm.l_cont(Tensor(rows), 0.07).values)
    b = float(pcsm.l_cont(Tensor(rows[::-1].copy()), 0.07).values)
    assert abs(a - b) < 1e-9


def test_l_cont_rejects_bad_temperature():
    with pytest.raises(InvalidArgument):
        pcsm.l_cont(Tensor(np.eye(2)), 0.0)


# ---------------------------------------------------------------------------
# full branch forward
# ---------------------------------------------------------------------------

def forward_toy(seed=16):
    cfg, store = toy_model()
    rng = np.random.default_rng(seed)
    cloud = rng.normal(size=(cfg.n_points, 3))
    tb = embedding.tokenize(cloud, store, cfg)
    return cfg, store, pcsm.group(tb, store, cfg), pcsm.pcsm_forward(tb, cloud, store, cfg)


def test_pcsm_forward_shapes():
    cfg, store, (te, p_hat, grouped), (assignment, _, _) = forward_toy()
    g, q = cfg.n_patches, cfg.n_prototypes
    assert te.shape == (g, cfg.dim)
    assert p_hat.values.shape == (q, cfg.dim)
    bank = p_hat.detach()
    tokens_hat = pcsm.enhance_tokens(Tensor(te), bank, ad.frozen(store), cfg)
    assert tokens_hat.values.shape == (g, cfg.dim)
    similarity, expected = pcsm.similarity(tokens_hat, bank)
    assert similarity.values.shape == (g, q)
    assert assignment.shape == (g,)
    assert np.array_equal(assignment, expected)
    assert np.array_equal(grouped, expected)
    assert np.allclose(similarity.values.sum(axis=1), 1.0, atol=1e-9)


def test_pcsm_losses_leave_encoder_untouched():
    # the complete-cloud pass is frozen: only the prototype bank, the
    # enhancement attention, and the reconstruction head may accumulate
    # gradient from the two branch losses
    _, store, _, (_, loss_proto, loss_cont) = forward_toy()
    ad.add(loss_proto, loss_cont).backward()
    assert np.abs(store["pcsm.prototypes"].grad).max() > 0.0
    assert np.abs(store["pcsm.ppr.w1"].grad).max() > 0.0
    for name in ("enc.block00.attn.wq", "embed.mlp1.w0", "embed.pos.w",
                 "dec.block00.attn.wq", "recon.w"):
        assert store[name].grad is None, name


def test_pcsm_enhancement_gradient_is_structurally_zero():
    # the enhanced tokens only feed the hard argmax, which no loss
    # differentiates through, so the enhancement attention sits at exactly
    # zero gradient; it is trained in no run, only exercised
    _, store, _, (_, loss_proto, loss_cont) = forward_toy()
    ad.add(loss_proto, loss_cont).backward()
    for name in store.names():
        if name.startswith("pcsm.enhance."):
            assert store[name].grad is None, name


def test_pcsm_forward_deterministic():
    _, _, (te_a, p_hat_a, _), a = forward_toy(seed=17)
    _, _, (te_b, p_hat_b, _), b = forward_toy(seed=17)
    assert np.array_equal(te_a, te_b)
    assert np.array_equal(p_hat_a.values, p_hat_b.values)
    assert np.array_equal(a[0], b[0])
    assert float(a[1].values) == float(b[1].values)
    assert float(a[2].values) == float(b[2].values)
