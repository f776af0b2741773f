"""One batched tape per step: a (B, N, 3) batch must give the per-cloud
results, and a training step must build the same tape whatever B is."""

import dataclasses

import numpy as np
import pytest

from protomae import autodiff as ad
from protomae import backbone, embedding, heads, pcsm, pipeline, shapes
from protomae.autodiff import Tensor
from protomae.config import preset

TOL = dict(rtol=1e-12, atol=1e-12)
B = 3


@pytest.fixture(scope="module")
def setup():
    cfg = preset("toy")
    store = pipeline.init_model(cfg, decoder=True, pcsm_branch=True)
    heads.init_head_params(store, cfg, 4, csep=True)
    points = np.stack([shapes.make_shape(kind, cfg.n_points, seed=i).points
                       for i, kind in enumerate(("chair", "plane", "rocket"))])
    starts = np.array([0, 11, 40])
    return cfg, store, points, starts


def test_tokenize_batch_equals_per_cloud(setup):
    cfg, store, points, starts = setup
    tb = embedding.tokenize(points, store, cfg, start=starts)
    assert tb.tokens.values.shape == (B, cfg.n_patches, cfg.dim)
    for i in range(B):
        one = embedding.tokenize(points[i], store, cfg, start=int(starts[i]))
        np.testing.assert_array_equal(tb.center_indices[i], one.center_indices)
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
        center_indices=tb.center_indices[i], centers=tb.centers[i],
        member_indices=tb.member_indices[i], local_coords=tb.local_coords[i],
        tokens=Tensor(tb.tokens.values[i]), pos=Tensor(tb.pos.values[i]))


def _similarity(out, store, cfg):
    """The row-stochastic similarity behind ``out.assignment``."""
    bank = out.prototypes_hat.detach()
    enhanced = pcsm.enhance_tokens(Tensor(out.tokens_encoded), bank, store.frozen(), cfg)
    return pcsm.similarity(enhanced, bank)[0].values


def test_pcsm_forward_batch_equals_per_cloud(setup):
    cfg, store, points, starts = setup
    tb = embedding.tokenize(points, store, cfg, start=starts)
    out = pcsm.pcsm_forward(tb, points, store, cfg)
    singles = [pcsm.pcsm_forward(_one_cloud(tb, i), points[i], store, cfg) for i in range(B)]
    similarity = _similarity(out, store, cfg)
    for i, one in enumerate(singles):
        np.testing.assert_allclose(out.tokens_encoded[i], one.tokens_encoded, **TOL)
        np.testing.assert_allclose(out.prototypes_hat.values[i], one.prototypes_hat.values,
                                   **TOL)
        np.testing.assert_allclose(similarity[i], _similarity(one, store, cfg), **TOL)
        np.testing.assert_array_equal(out.assignment[i], one.assignment)
    for name in ("loss_proto", "loss_cont"):
        mean = np.mean([float(getattr(one, name).values) for one in singles])
        assert float(getattr(out, name).values) == pytest.approx(mean, abs=1e-12), name


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
    batched = {name: t.grad.copy() for name, t in store.items()}
    store.zero_grads()
    for i in range(B):
        loss = ad.cross_entropy(heads.classify_csep(points[i], store, cfg), int(labels[i]))
        ad.scale(loss, 1.0 / B).backward()
    for name, t in store.items():
        np.testing.assert_allclose(batched[name], t.grad, **TOL, err_msg=name)
    store.zero_grads()


def _nodes_per_step(monkeypatch, batch_size):
    cfg = dataclasses.replace(preset("toy"), epochs=1, batch_size=batch_size).validate()
    counts = {"nodes": 0, "steps": 0}
    real_node, real_step = ad._node, ad.AdamW.step

    def counting_node(*args, **kwargs):
        counts["nodes"] += 1
        return real_node(*args, **kwargs)

    def counting_step(self):
        counts["steps"] += 1
        return real_step(self)

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
    _, grouping = pcsm.cloud_assignment(points, store, cfg)
    assignment = grouping.assignment
    monkeypatch.undo()
    assert tracked and not any(tracked)
    for name, t in store.items():
        assert not t.grad.any(), name
    tb = embedding.tokenize(points, store, cfg, start=0)
    out = pcsm.pcsm_forward(tb, points, store, cfg)
    assert assignment.shape == (B, cfg.n_patches)
    np.testing.assert_array_equal(assignment, out.assignment)


def test_classify_csep_prompts_are_the_refreshed_bank(setup):
    # the prompt rows written out step by step: frozen encode, k-norm, refresh
    cfg, store, points, _ = setup
    tb = embedding.tokenize(points, store, cfg)
    pos = embedding.pos_embed(tb.centers, store)
    te = backbone.encode(Tensor(tb.tokens.values), Tensor(pos.values), store.frozen(), cfg)
    te = pcsm.knorm_enhance(te.values, tb.centers, cfg.knorm_k)
    p_hat = pcsm.update_prototypes(store["pcsm.prototypes"], Tensor(te)).values
    np.testing.assert_allclose(heads.classify_csep(points, store, cfg).values,
                               heads.classify_csep(points, store, cfg, prompt_rows=p_hat).values,
                               **TOL)
