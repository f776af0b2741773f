"""Encoder/decoder wiring: identity, equivariance, masked reconstruction."""

import numpy as np
import pytest

from protomae import autodiff as ad
from protomae import backbone as bb
from protomae.autodiff import Tensor
from protomae.config import preset
from protomae.errors import InvalidArgument


def build(seed=0, with_decoder=True):
    cfg = preset("toy")
    store = ad.ParamStore(seed)
    bb.init_backbone_params(store, cfg, with_decoder=with_decoder)
    return cfg, store


def zero_projections(store):
    for name in store.names():
        if name.endswith(".attn.wo") or name.endswith(".mlp.w1"):
            store[name].values[:] = 0.0


def test_zeroed_projections_make_encode_identity():
    cfg, store = build()
    zero_projections(store)
    rng = np.random.default_rng(0)
    tokens = Tensor(rng.normal(size=(8, cfg.dim)))
    pos = Tensor(rng.normal(size=(8, cfg.dim)))
    out = bb.encode(tokens, pos, store, cfg)
    assert np.array_equal(out.values, tokens.values)


def test_encode_changes_tokens_when_projections_are_live():
    cfg, store = build()
    rng = np.random.default_rng(1)
    tokens = Tensor(rng.normal(size=(8, cfg.dim)))
    pos = Tensor(rng.normal(size=(8, cfg.dim)))
    out = bb.encode(tokens, pos, store, cfg)
    assert np.abs(out.values - tokens.values).max() > 1e-8


def test_encode_mismatched_positions_rejected():
    cfg, store = build()
    with pytest.raises(InvalidArgument):
        bb.encode(Tensor(np.zeros((8, cfg.dim))), Tensor(np.zeros((7, cfg.dim))), store, cfg)


def test_encode_accepts_any_sequence_length():
    cfg, store = build()
    for g in (1, 3, 17):
        out = bb.encode(Tensor(np.ones((g, cfg.dim))), Tensor(np.zeros((g, cfg.dim))), store, cfg)
        assert out.values.shape == (g, cfg.dim)


def test_attention_mixes_the_whole_sequence():
    # perturbing one visible token must reach every output row through
    # attention
    cfg, store = build()
    rng = np.random.default_rng(2)
    tokens = rng.normal(size=(6, cfg.dim))
    pos = Tensor(rng.normal(size=(6, cfg.dim)))
    base = bb.encode(Tensor(tokens), pos, store, cfg).values
    tokens2 = tokens.copy()
    tokens2[3, 5] += 0.5
    out = bb.encode(Tensor(tokens2), pos, store, cfg).values
    changed = np.abs(out - base).max(axis=1)
    assert (changed > 1e-12).all()


def test_decode_row_order_matches_position_order():
    # permuting the visible rows (tokens together with their positions) must
    # not change what the masked rows decode to
    cfg, store = build()
    rng = np.random.default_rng(3)
    vis = rng.normal(size=(6, cfg.dim))
    pv = rng.normal(size=(6, cfg.dim))
    pm = rng.normal(size=(3, cfg.dim))
    masked_a = bb.decode(Tensor(vis), Tensor(pv), Tensor(pm), store, cfg)
    perm = np.array([4, 0, 5, 2, 1, 3])
    masked_b = bb.decode(Tensor(vis[perm]), Tensor(pv[perm]), Tensor(pm), store, cfg)
    assert np.allclose(masked_a.values, masked_b.values, atol=1e-9)


def test_decode_mask_rows_differ_only_through_positions():
    # the mask token is shared, so two masked patches with equal positions
    # decode identically
    cfg, store = build()
    rng = np.random.default_rng(4)
    vis = Tensor(rng.normal(size=(5, cfg.dim)))
    pv = Tensor(rng.normal(size=(5, cfg.dim)))
    pm = np.tile(rng.normal(size=(1, cfg.dim)), (2, 1))
    masked = bb.decode(vis, pv, Tensor(pm), store, cfg)
    assert np.allclose(masked.values[0], masked.values[1], atol=0)


def test_decode_validation():
    cfg, store = build()
    vis = Tensor(np.zeros((4, cfg.dim)))
    with pytest.raises(InvalidArgument):
        bb.decode(vis, Tensor(np.zeros((3, cfg.dim))), Tensor(np.zeros((2, cfg.dim))), store, cfg)
    with pytest.raises(InvalidArgument):
        bb.decode(vis, Tensor(np.zeros((4, cfg.dim))), Tensor(np.zeros((0, cfg.dim))), store, cfg)


def test_recon_head_shapes_and_linearity():
    cfg, store = build()
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(3, cfg.dim)))
    out = bb.recon_head(x, store, cfg)
    assert out.values.shape == (3, cfg.knn_k, 3)
    # doubling the input doubles the output once the bias is removed
    out2 = bb.recon_head(Tensor(2.0 * x.values), store, cfg)
    b = store["recon.b"].values.reshape(1, cfg.knn_k, 3)
    assert np.allclose(out2.values - b, 2.0 * (out.values - b), atol=1e-12)


def test_l_3d_matches_mean_of_per_patch_chamfer():
    from protomae import geometry as geo
    cfg, store = build()
    rng = np.random.default_rng(6)
    pred = rng.normal(size=(4, cfg.knn_k, 3))
    tgt = rng.normal(size=(4, cfg.knn_k, 3))
    loss = bb.l_3d(Tensor(pred), tgt)
    oracle = np.mean([geo.chamfer_nearest(pred[i:i + 1], tgt[i:i + 1])[0][0]
                      for i in range(4)])
    assert abs(float(loss.values) - oracle) < 1e-12


def test_l_3d_validation():
    with pytest.raises(InvalidArgument):
        bb.l_3d(Tensor(np.zeros((0, 4, 3))), np.zeros((0, 4, 3)))
    with pytest.raises(InvalidArgument):
        bb.l_3d(Tensor(np.zeros((2, 4, 3))), np.zeros((3, 4, 3)))


def test_masked_path_gradients_reach_every_parameter_family():
    cfg, store = build()
    rng = np.random.default_rng(7)
    vis = Tensor(rng.normal(size=(6, cfg.dim)))
    pv = Tensor(rng.normal(size=(6, cfg.dim)))
    pm = Tensor(rng.normal(size=(2, cfg.dim)))
    tgt = rng.normal(size=(2, cfg.knn_k, 3))
    masked = bb.decode(vis, pv, pm, store, cfg)
    loss = bb.l_3d(bb.recon_head(masked, store, cfg), tgt)
    loss.backward()
    for name in ("dec.mask_token", "recon.w", "dec.block00.attn.wq", "dec.block00.mlp.w0"):
        assert np.abs(store[name].grad).max() > 0.0, name


def test_encoder_sees_no_mask_tokens():
    # encoding depends only on the visible subsequence: dropping a masked
    # row entirely leaves the others' encoding unchanged
    cfg, store = build()
    rng = np.random.default_rng(8)
    tokens = rng.normal(size=(6, cfg.dim))
    pos = rng.normal(size=(6, cfg.dim))
    full = bb.encode(Tensor(tokens), Tensor(pos), store, cfg).values
    sub = bb.encode(Tensor(tokens[:5]), Tensor(pos[:5]), store, cfg).values
    assert not np.allclose(full[:5], sub, atol=1e-12)  # attention pools all rows
    again = bb.encode(Tensor(tokens[:5]), Tensor(pos[:5]), store, cfg).values
    assert np.array_equal(sub, again)
