"""One batched tape per step: a (B, N, 3) batch must give the per-cloud
results, a training step must build the same tape whatever B is, and only
the visible patches go through the taped mini-PointNet."""

import dataclasses

import numpy as np
import pytest

from protomae import autodiff as ad
from protomae import backbone, embedding, heads, masking, pcsm, pipeline, shapes
from protomae.autodiff import Tensor
from protomae.config import preset

TOL = dict(rtol=1e-12, atol=1e-12)
B = 3


@pytest.fixture(scope="module")
def setup():
    cfg = preset("toy")
    store = pipeline.init_model(cfg, decoder=True, pcsm_branch=True)
    heads.init_head_params(store, cfg, 4, csep=True)
    points = np.stack([shapes.make_shape(kind, cfg.n_points, seed=i)[0]
                       for i, kind in enumerate(("chair", "plane", "rocket"))])
    starts = np.array([0, 11, 40])
    return cfg, store, points, starts


def test_tokenize_batch_equals_per_cloud(setup):
    cfg, store, points, starts = setup
    tb = embedding.tokenize(points, store, cfg, start=starts)
    assert tb.tokens.values.shape == (B, cfg.n_patches, cfg.dim)
    for i in range(B):
        one = embedding.tokenize(points[i], store, cfg, start=int(starts[i]))
        np.testing.assert_array_equal(tb.centers[i], one.centers)
        np.testing.assert_array_equal(tb.member_indices[i], one.member_indices)
        np.testing.assert_array_equal(tb.local_coords[i], one.local_coords)
        np.testing.assert_allclose(tb.tokens.values[i], one.tokens.values, **TOL)


def test_encode_batch_equals_per_cloud(setup):
    cfg, store, points, starts = setup
    tb = embedding.tokenize(points, store, cfg, start=starts)
    pos = embedding.pos_embed(tb.centers, store)
    enc = backbone.encode(tb.tokens, pos, store, cfg).values
    for i in range(B):
        one = backbone.encode(Tensor(tb.tokens.values[i]), Tensor(pos.values[i]), store, cfg)
        np.testing.assert_allclose(enc[i], one.values, **TOL)


def _one_cloud(tb, i):
    """Cloud ``i`` of a token batch, as a batch of its own with the same values."""
    return embedding.TokenBatch(
        centers=tb.centers[i], member_indices=tb.member_indices[i],
        local_coords=tb.local_coords[i],
        tokens=Tensor(tb.tokens.values[i]), pos=Tensor(tb.pos.values[i]))


def _similarity(tokens_encoded, prototypes_hat, store, cfg):
    """The row-stochastic similarity behind ``pcsm.group``'s assignment."""
    bank = prototypes_hat.detach()
    enhanced = pcsm.enhance_tokens(Tensor(tokens_encoded), bank, ad.frozen(store), cfg)
    return pcsm.similarity(enhanced, bank)[0].values


def test_pcsm_forward_batch_equals_per_cloud(setup):
    cfg, store, points, starts = setup
    tb = embedding.tokenize(points, store, cfg, start=starts)
    te, p_hat, _ = pcsm.group(tb, store, cfg)
    out = pcsm.pcsm_forward(tb, points, store, cfg)
    singles = [(pcsm.group(_one_cloud(tb, i), store, cfg),
                pcsm.pcsm_forward(_one_cloud(tb, i), points[i], store, cfg)) for i in range(B)]
    similarity = _similarity(te, p_hat, store, cfg)
    for i, ((te_one, p_hat_one, _), one) in enumerate(singles):
        np.testing.assert_allclose(te[i], te_one, **TOL)
        np.testing.assert_allclose(p_hat.values[i], p_hat_one.values, **TOL)
        np.testing.assert_allclose(similarity[i], _similarity(te_one, p_hat_one, store, cfg),
                                   **TOL)
        np.testing.assert_array_equal(out[0][i], one[0])
    for j, name in ((1, "loss_proto"), (2, "loss_cont")):
        mean = np.mean([float(one[j].values) for _, one in singles])
        assert float(out[j].values) == pytest.approx(mean, abs=1e-12), name


def test_classify_csep_batch_equals_per_cloud(setup):
    cfg, store, points, _ = setup
    logits = heads.classify_csep(points, store, cfg)
    assert logits.values.shape == (B, 1, 4)
    for i in range(B):
        one = heads.classify_csep(points[i], store, cfg)
        np.testing.assert_allclose(logits.values[i], one.values, **TOL)


def test_batched_gradient_is_mean_of_per_cloud_gradients(setup):
    cfg, store, points, _ = setup
    labels = np.array([0, 2, 1])
    store.zero_grads()
    ad.cross_entropy(heads.classify_csep(points, store, cfg), labels).backward()
    batched = {name: t.grad for name, t in store.items()}
    store.zero_grads()
    for i in range(B):
        loss = ad.cross_entropy(heads.classify_csep(points[i], store, cfg), int(labels[i]))
        ad.mul_const(loss, 1.0 / B).backward()
    assert any(g is not None for g in batched.values())
    for name, t in store.items():
        # both passes reach the same parameters
        assert (batched[name] is None) == (t.grad is None), name
        if t.grad is not None:
            np.testing.assert_allclose(batched[name], t.grad, **TOL, err_msg=name)
    store.zero_grads()


def _nodes_per_step(monkeypatch, batch_size):
    cfg = dataclasses.replace(preset("toy"), epochs=1, batch_size=batch_size).validate()
    counts = {"nodes": 0, "steps": 0}
    real_node, real_step = ad._node, ad.AdamW.step

    def counting_node(*args, **kwargs):
        counts["nodes"] += 1
        return real_node(*args, **kwargs)

    def counting_step(self, loss=None):
        counts["steps"] += 1
        return real_step(self, loss)

    monkeypatch.setattr(ad, "_node", counting_node)
    monkeypatch.setattr(ad.AdamW, "step", counting_step)
    pipeline.pretrain(cfg)
    monkeypatch.undo()
    assert counts["steps"] == 16 // batch_size
    return counts["nodes"] / counts["steps"]


def test_tape_size_per_step_does_not_grow_with_batch(monkeypatch):
    # a per-cloud loop inside the step would scale the node count with B
    assert _nodes_per_step(monkeypatch, 2) == _nodes_per_step(monkeypatch, 4)


def test_cloud_assignment_is_pcsm_forward_assignment_without_a_tape(setup, monkeypatch):
    cfg, store, points, _ = setup
    store.zero_grads()
    tracked = []
    real_node = ad._node

    def recording_node(*args, **kwargs):
        out = real_node(*args, **kwargs)
        tracked.append(out.requires_grad)
        return out

    monkeypatch.setattr(ad, "_node", recording_node)
    _, assignment = pcsm.cloud_assignment(points, store, cfg)
    monkeypatch.undo()
    assert tracked and not any(tracked)
    for name, t in store.items():
        assert t.grad is None, name
    tb = embedding.tokenize(points, store, cfg, start=0)
    out = pcsm.pcsm_forward(tb, points, store, cfg)
    assert assignment.shape == (B, cfg.n_patches)
    np.testing.assert_array_equal(assignment, out[0])


def test_classify_csep_prompts_are_the_refreshed_bank(setup):
    # the prompt rows written out step by step: frozen encode, k-norm, refresh
    cfg, store, points, _ = setup
    tb = embedding.tokenize(points, store, cfg)
    pos = embedding.pos_embed(tb.centers, store)
    te = backbone.encode(Tensor(tb.tokens.values), Tensor(pos.values), ad.frozen(store), cfg)
    te = pcsm.knorm_enhance(te.values, tb.centers, cfg.knorm_k)
    p_hat = pcsm.update_prototypes(store["pcsm.prototypes"], Tensor(te)).values
    np.testing.assert_allclose(pcsm.refresh(tb, store, cfg)[1].values, p_hat, **TOL)


def _full_tokenize_reconstruction_loss(points, starts, vis, msk, store, cfg):
    """The reference ``l_3d``: every patch through the taped mini-PointNet,
    then the visible tokens and both position sets gathered."""
    tb = embedding.tokenize(points, store, cfg, start=starts)
    pos_vis = ad.gather_rows(tb.pos, vis)
    enc = backbone.encode(ad.gather_rows(tb.tokens, vis), pos_vis, store, cfg)
    dm = backbone.decode(enc, pos_vis, ad.gather_rows(tb.pos, msk), store, cfg)
    target = np.take_along_axis(tb.local_coords, msk[..., None, None], axis=-3)
    return backbone.l_3d(backbone.recon_head(dm, store, cfg), target)


def _value_and_grads(loss_fn, store, names):
    store.zero_grads()
    loss = loss_fn()
    loss.backward()
    grads = {name: store[name].grad.copy() for name in names}
    store.zero_grads()
    return float(loss.values), grads


def _mask_indices(cfg, seed):
    masked, _ = masking.make_plans("randm", np.zeros((B, cfg.n_patches), dtype=np.int64), None,
                                   cfg.mask_ratio, 0, np.random.default_rng(seed))
    return np.nonzero(~masked)[1].reshape(B, -1), np.nonzero(masked)[1].reshape(B, -1)


def test_visible_only_reconstruction_matches_full_tokenize(setup):
    cfg, store, points, starts = setup
    assert cfg.dtype == "float64"
    vis, msk = _mask_indices(cfg, seed=7)
    tb = embedding.tokenize(points, ad.frozen(store), cfg, start=starts)
    assert not tb.tokens.requires_grad and not tb.pos.requires_grad
    names = [n for n in store.names() if n.startswith(("embed.", "enc.", "dec.", "recon."))]
    value, grads = _value_and_grads(
        lambda: backbone.reconstruction_loss(tb, vis, msk, store, cfg), store, names)
    ref_value, ref = _value_and_grads(
        lambda: _full_tokenize_reconstruction_loss(points, starts, vis, msk, store, cfg),
        store, names)
    assert value == pytest.approx(ref_value, rel=1e-10, abs=0.0)
    for name in names:
        np.testing.assert_allclose(grads[name], ref[name], rtol=1e-10,
                                   atol=1e-10 * np.abs(ref[name]).max(), err_msg=name)
    h2 = cfg.embed_hidden2
    w0 = grads["embed.mlp2.w0"]
    for label, g in (("embed.pos.w", grads["embed.pos.w"]), ("embed.pos.b", grads["embed.pos.b"]),
                     ("embed.mlp2.w0 member rows", w0[:h2]),
                     ("embed.mlp2.w0 pooled rows", w0[h2:])):
        assert np.abs(g).max() > 0.0, label


def test_pretrain_step_tapes_only_the_visible_patches(monkeypatch):
    # one step over the whole toy dataset; the grouping branch tokenizes every
    # patch without a tape, the reconstruction branch the visible ones on it
    toy = preset("toy")
    cfg = dataclasses.replace(toy, epochs=1, clouds_per_kind=2, mask_ratio=0.6,
                              batch_size=2 * len(toy.kinds())).validate()
    g = cfg.n_patches
    n_visible = g - masking.random_mask(g, cfg.mask_ratio, np.random.default_rng(0)).sum()
    assert 0 < n_visible < g
    nodes, inside = [], [0]
    real_node, real_pointnet = ad._node, embedding.mini_pointnet

    def recording_node(*args, **kwargs):
        out = real_node(*args, **kwargs)
        nodes.append((out.values.shape, out.requires_grad, inside[0] > 0))
        return out

    def marked_pointnet(*args, **kwargs):
        inside[0] += 1
        try:
            return real_pointnet(*args, **kwargs)
        finally:
            inside[0] -= 1

    monkeypatch.setattr(ad, "_node", recording_node)
    monkeypatch.setattr(embedding, "mini_pointnet", marked_pointnet)
    pipeline.pretrain(cfg)
    monkeypatch.undo()

    # no (B, patches, members or pooled row, channels) array on the tape spans
    # all G patches (the toy's 2 attention heads differ from its k = 4 members)
    assert not [shape for shape, grad, _ in nodes
                if grad and len(shape) == 4 and shape[1] == g and shape[2] in (cfg.knn_k, 1)]
    # batch arrays of the mini-PointNet, leaving out the sliced 2-d weights
    batch_arrays = [(shape, grad) for shape, grad, pointnet in nodes
                    if pointnet and len(shape) >= 3]
    taped = {shape for shape, grad in batch_arrays if grad}
    frozen = {shape for shape, grad in batch_arrays if not grad}
    assert taped and {shape[:2] for shape in taped} == {(cfg.batch_size, n_visible)}
    assert frozen and {shape[:2] for shape in frozen} == {(cfg.batch_size, g)}
