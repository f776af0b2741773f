"""Tokenizer behaviour: geometry bookkeeping, invariances, gradients."""

import dataclasses

import numpy as np
import pytest

from protomae import autodiff as ad
from protomae import embedding
from protomae import geometry as geo
from protomae.config import preset
from protomae.errors import InvalidArgument


def toy_setup(seed=0):
    cfg = preset("toy")
    store = ad.ParamStore(seed)
    embedding.init_embedding_params(store, cfg)
    return cfg, store


def test_paper_default_token_shape():
    cfg = preset("paper-default")
    store = ad.ParamStore(0)
    embedding.init_embedding_params(store, cfg)
    pts = np.random.default_rng(0).normal(size=(1024, 3))
    tb = embedding.tokenize(pts, store, cfg)
    assert tb.tokens.values.shape == (64, 384)
    assert tb.centers.shape == (64, 3)
    assert tb.member_indices.shape == (64, 32)
    assert tb.local_coords.shape == (64, 32, 3)


def test_patch_geometry_bookkeeping():
    cfg, store = toy_setup()
    pts = np.random.default_rng(1).normal(size=(40, 3))
    tb = embedding.tokenize(pts, store, cfg)
    assert np.array_equal(tb.centers, pts[geo.fps(pts, cfg.n_patches)])
    gathered = pts[tb.member_indices] - tb.centers[:, None, :]
    assert np.array_equal(tb.local_coords, gathered)


def test_tokens_deterministic():
    cfg, store = toy_setup()
    pts = np.random.default_rng(2).normal(size=(40, 3))
    a = embedding.tokenize(pts, store, cfg)
    b = embedding.tokenize(pts, store, cfg)
    assert np.array_equal(a.tokens.values, b.tokens.values)


def test_tokens_invariant_to_point_order():
    # same cloud, shuffled storage order: identical tokens when the first
    # farthest-point pick maps to the same physical point
    cfg, store = toy_setup()
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(40, 3))
    perm = rng.permutation(40)
    start_new = int(np.flatnonzero(perm == 0)[0])
    a = embedding.tokenize(pts, store, cfg, start=0)
    b = embedding.tokenize(pts[perm], store, cfg, start=start_new)
    assert np.array_equal(a.centers, b.centers)
    assert np.array_equal(a.tokens.values, b.tokens.values)


def test_tokens_nearly_invariant_to_translation():
    cfg, store = toy_setup()
    pts = np.random.default_rng(4).normal(size=(40, 3))
    shift = np.array([10.0, -3.0, 0.5])
    a = embedding.tokenize(pts, store, cfg)
    b = embedding.tokenize(pts + shift, store, cfg)
    picks = geo.fps(pts, cfg.n_patches)
    assert np.array_equal(a.centers, pts[picks])
    assert np.array_equal(b.centers, (pts + shift)[picks])
    assert np.allclose(a.tokens.values, b.tokens.values, atol=1e-9)


def test_position_embedding_is_not_translation_invariant():
    cfg, store = toy_setup()
    pts = np.random.default_rng(5).normal(size=(40, 3))
    tb = embedding.tokenize(pts, store, cfg)
    pa = embedding.pos_embed(tb.centers, store)
    pb = embedding.pos_embed(tb.centers + 1.0, store)
    assert np.abs(pa.values - pb.values).max() > 1e-6


def test_single_member_patches_collapse_to_equal_tokens():
    # k = 1 keeps only the centre, whose local coordinate is zero, so every
    # patch feeds the network the same input
    cfg, store = toy_setup()
    cfg = dataclasses.replace(cfg, knn_k=1)
    pts = np.random.default_rng(6).normal(size=(40, 3))
    tb = embedding.tokenize(pts, store, cfg)
    assert np.allclose(tb.tokens.values, tb.tokens.values[0], atol=0)
    assert np.array_equal(tb.local_coords, np.zeros_like(tb.local_coords))


def test_tokenize_rejects_small_clouds():
    cfg, store = toy_setup()
    with pytest.raises(InvalidArgument):
        embedding.tokenize(np.zeros((cfg.n_patches - 1, 3)), store, cfg)


def test_token_gradients_match_finite_differences():
    # the relu/max-pool pipeline is only piecewise smooth: trust a secant
    # only when two step sizes agree, and require enough smooth probes to
    # make the test meaningful
    cfg, store = toy_setup()
    pts = np.random.default_rng(7).normal(size=(36, 3))
    names = ["embed.mlp1.w0", "embed.mlp2.w1", "embed.mlp1.b1"]

    def loss_value():
        return float(ad.sum_all(embedding.tokenize(pts, store, cfg).tokens).values)

    def secant(flat, j, eps):
        keep = flat[j]
        flat[j] = keep + eps
        up = loss_value()
        flat[j] = keep - eps
        down = loss_value()
        flat[j] = keep
        return (up - down) / (2 * eps)

    loss = ad.sum_all(embedding.tokenize(pts, store, cfg).tokens)
    loss.backward()
    smooth = 0
    for name in names:
        p = store[name]
        flat = p.values.reshape(-1)
        for j in (0, flat.size // 2, flat.size - 1):
            fd1 = secant(flat, j, 1e-5)
            fd2 = secant(flat, j, 1e-6)
            if abs(fd1 - fd2) > 1e-6 * max(1.0, abs(fd1)):
                continue  # a kink sits inside the step
            smooth += 1
            an = p.grad.reshape(-1)[j]
            assert abs(an - fd2) <= 1e-4 * max(1.0, abs(fd2)), (name, j)
    assert smooth >= 6


def test_pos_embed_affine_and_validation():
    cfg, store = toy_setup()
    store["embed.pos.w"].values[:] = 0.0
    store["embed.pos.b"].values[:] = np.arange(cfg.dim, dtype=np.float64)
    out = embedding.pos_embed(np.random.default_rng(8).normal(size=(5, 3)), store)
    assert np.array_equal(out.values, np.tile(np.arange(cfg.dim), (5, 1)))
    with pytest.raises(InvalidArgument):
        embedding.pos_embed(np.zeros((5, 2)), store)
