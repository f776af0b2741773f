"""Class-token readout and prototype-prompted classification."""

import numpy as np
import pytest

from protomae import autodiff as ad
from protomae import backbone, embedding, heads, pcsm, shapes
from protomae.autodiff import Tensor
from protomae.config import preset
from protomae.errors import ConfigError, InvalidArgument

N_CLASSES = 4


def make_store(csep, seed=0, cfg=None):
    cfg = cfg or preset("toy")
    store = ad.ParamStore(seed)
    embedding.init_embedding_params(store, cfg)
    backbone.init_backbone_params(store, cfg, with_decoder=False)
    if csep:
        pcsm.init_pcsm_params(store, cfg)
    heads.init_head_params(store, cfg, N_CLASSES, csep=csep)
    return cfg, store


def zero_projections(store):
    # with the residual-branch output projections zeroed every encoder block
    # is an exact identity, which exposes the feature wiring directly
    for name in store.names():
        if name.endswith(".attn.wo") or name.endswith(".mlp.w1"):
            store[name].values[:] = 0.0


def cloud(seed=0, cfg=None):
    cfg = cfg or preset("toy")
    return shapes.make_shape("chair", cfg.n_points, seed=seed)[0]


def fix_prompts(monkeypatch, prompts):
    # the prompted head takes its prompt rows from pcsm.refresh
    monkeypatch.setattr(pcsm, "refresh", lambda tb, params, cfg: (None, Tensor(prompts)))


# ---------------------------------------------------------------------------
# widths and shapes
# ---------------------------------------------------------------------------

def test_head_input_widths():
    cfg, plain = make_store(csep=False)
    _, prompted = make_store(csep=True)
    assert plain["cls.head.w0"].values.shape == (2 * cfg.dim, cfg.head_hidden)
    assert prompted["cls.head.w0"].values.shape == (3 * cfg.dim, cfg.head_hidden)


@pytest.mark.parametrize("csep", [False, True])
def test_classify_on_a_frozen_view_matches_the_store(csep):
    cfg, store = make_store(csep=csep)
    classify = heads.classify_csep if csep else heads.classify_baseline
    live = classify(cloud(), store, cfg)
    frozen = classify(cloud(), ad.frozen(store), cfg)
    assert live.requires_grad and not frozen.requires_grad
    assert np.array_equal(live.values, frozen.values)


def test_logit_shapes_and_determinism():
    cfg, store = make_store(csep=False)
    a = heads.classify_baseline(cloud(), store, cfg)
    b = heads.classify_baseline(cloud(), store, cfg)
    assert a.values.shape == (1, N_CLASSES)
    assert np.array_equal(a.values, b.values)

    cfg, store = make_store(csep=True)
    a = heads.classify_csep(cloud(), store, cfg)
    b = heads.classify_csep(cloud(), store, cfg)
    assert a.values.shape == (1, N_CLASSES)
    assert np.array_equal(a.values, b.values)


def test_feature_width_mismatch_rejected():
    cfg, store = make_store(csep=False)
    wide = Tensor(np.zeros((1, 3 * cfg.dim)))
    with pytest.raises(InvalidArgument, match="width"):
        heads.head_logits(wide, store)


def test_csep_requires_prototypes():
    cfg, store = make_store(csep=False)
    with pytest.raises(ConfigError, match="checkpoint"):
        heads.classify_csep(cloud(), store, cfg)


# ---------------------------------------------------------------------------
# sequence structure
# ---------------------------------------------------------------------------

def test_csep_sequence_rows(monkeypatch):
    cfg, store = make_store(csep=True)
    seen = []
    real = backbone.encode

    def spy(tokens, pos, params, inner_cfg):
        seen.append((tokens.values.shape[0], pos.values.copy()))
        return real(tokens, pos, params, inner_cfg)

    monkeypatch.setattr(heads.backbone, "encode", spy)
    heads.classify_csep(cloud(), store, cfg)
    lengths = [n for n, _ in seen]
    g, q = cfg.n_patches, cfg.n_prototypes
    # one plain pass to refresh the prototypes, one prompted pass
    assert lengths == [g, 1 + q + g]
    _, pos_seq = seen[1]
    assert np.array_equal(pos_seq[0], store["cls.pos"].values[0])
    assert np.array_equal(pos_seq[1:1 + q], np.zeros((q, cfg.dim)))
    tb = embedding.tokenize(cloud(), store, cfg)
    assert np.array_equal(pos_seq[1 + q:], embedding.pos_embed(tb.centers, store).values)


def test_single_prototype_pools_to_its_own_row(monkeypatch):
    cfg, store = make_store(csep=True)
    zero_projections(store)
    captured = {}
    real = heads.head_logits

    def spy(features, inner_store):
        captured["f"] = features.values.copy()
        return real(features, inner_store)

    monkeypatch.setattr(heads, "head_logits", spy)
    prompt = np.random.default_rng(3).normal(size=(1, cfg.dim))
    fix_prompts(monkeypatch, prompt)
    heads.classify_csep(cloud(), store, cfg)
    c = cfg.dim
    assert captured["f"].shape == (1, 3 * c)
    assert np.array_equal(captured["f"][0, c:2 * c], prompt[0])
    # identity encoder: the class-token slice is the raw class token
    assert np.array_equal(captured["f"][0, :c], store["cls.token"].values[0])


def test_prototype_order_does_not_change_logits(monkeypatch):
    cfg, store = make_store(csep=True)
    prompts = np.random.default_rng(4).normal(size=(cfg.n_prototypes, cfg.dim))
    pts = cloud()
    fix_prompts(monkeypatch, prompts)
    a = heads.classify_csep(pts, store, cfg)
    fix_prompts(monkeypatch, prompts[::-1].copy())
    b = heads.classify_csep(pts, store, cfg)
    np.testing.assert_allclose(a.values, b.values, rtol=0, atol=1e-12)


def test_zero_prompts_reduce_to_baseline(monkeypatch):
    # share every weight outside the readout, zero the residual-branch
    # projections so the encoder is an exact identity, and give the prompted
    # readout the plain readout's weights with a zero block on the pooled
    # prototype slice: zero prompt rows must then reproduce the plain logits
    cfg, plain = make_store(csep=False, seed=11)
    _, prompted = make_store(csep=True, seed=12)
    for name in plain.names():
        if name.startswith(("embed.", "enc.")) or name in ("cls.token", "cls.pos"):
            prompted[name].values[...] = plain[name].values
    c = cfg.dim
    w0 = np.zeros((3 * c, cfg.head_hidden))
    w0[:c] = plain["cls.head.w0"].values[:c]
    w0[2 * c:] = plain["cls.head.w0"].values[c:]
    prompted["cls.head.w0"].values[...] = w0
    for name in ("cls.head.b0", "cls.head.w1", "cls.head.b1"):
        prompted[name].values[...] = plain[name].values
    zero_projections(plain)
    zero_projections(prompted)
    pts = cloud(seed=5)
    base = heads.classify_baseline(pts, plain, cfg)
    fix_prompts(monkeypatch, np.zeros((cfg.n_prototypes, c)))
    got = heads.classify_csep(pts, prompted, cfg)
    np.testing.assert_allclose(got.values, base.values, rtol=0, atol=1e-12)


def test_csep_logits_read_no_grouping_weight_but_the_bank():
    # of the grouping branch the prompted head reads only pcsm.prototypes:
    # the enhancement and reconstruction weights play no part in its logits
    cfg, store = make_store(csep=True)
    want = heads.classify_csep(cloud(), store, cfg).values
    unused = [n for n in store.names() if n.startswith(("pcsm.enhance.", "pcsm.ppr."))]
    assert unused
    for name in unused:
        store[name].values[...] = np.nan
    assert np.array_equal(heads.classify_csep(cloud(), store, cfg).values, want)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_csep_gradient_reaches_prompt_path():
    cfg, store = make_store(csep=True)
    logits = heads.classify_csep(cloud(), store, cfg)
    ad.cross_entropy(logits, 2).backward()
    for name in ("pcsm.prototypes", "cls.token", "cls.head.w0",
                 "enc.block00.attn.wq", "embed.mlp1.w0"):
        assert np.abs(store[name].grad).max() > 0.0, name
    # the enhancement attention and reconstruction head play no role in
    # classification
    assert store["pcsm.enhance.wq"].grad is None
    assert store["pcsm.ppr.w0"].grad is None


def _fd_smooth_grad_check(store, loss_fn, names, rng):
    """Compare analytic gradients against central differences.

    Probes are skipped when two secant scales disagree (a relu/max kink sits
    inside the stencil); smooth probes must match to 1e-4 relative.
    """
    store.zero_grads()
    loss_fn().backward()
    grads = {n: store[n].grad.copy() for n in names}
    checked = 0
    for name in names:
        p = store[name]
        flat = p.values.reshape(-1)
        for idx in rng.choice(flat.size, size=min(3, flat.size), replace=False):
            base = flat[idx]
            secants = []
            for h in (1e-5, 1e-6):
                flat[idx] = base + h
                up = float(loss_fn().values)
                flat[idx] = base - h
                dn = float(loss_fn().values)
                flat[idx] = base
                secants.append((up - dn) / (2 * h))
            fd = secants[0]
            if abs(secants[0] - secants[1]) > 1e-6 * max(1.0, abs(fd)):
                continue
            analytic = grads[name].reshape(-1)[idx]
            assert abs(analytic - fd) <= 1e-4 * max(1.0, abs(fd)), \
                f"{name}[{idx}]: analytic {analytic} vs fd {fd}"
            checked += 1
    assert checked >= 2 * len(names) // 2  # at least a few smooth probes


def test_cross_entropy_gradient_matches_finite_differences(monkeypatch):
    pts = cloud(seed=1)
    names = ("cls.token", "cls.pos", "cls.head.w0", "cls.head.w1",
             "enc.block00.attn.wv", "embed.mlp1.w0")
    for classify, extra in ((heads.classify_baseline, ()),
                            (heads.classify_csep, ("pcsm.prototypes",))):
        cfg, store = make_store(csep=bool(extra), seed=2)
        if extra:
            # the prompts refresh the bank against frozen-encoded token
            # features, which cross the stop-gradient boundary as constants:
            # hold them at their initial values, as the training tape does
            te, _ = pcsm.refresh(embedding.tokenize(pts, store, cfg), store, cfg)
            monkeypatch.setattr(pcsm, "refresh", lambda tb, params, cfg: (
                te, pcsm.update_prototypes(params["pcsm.prototypes"], Tensor(te))))

        def loss_fn():
            return ad.cross_entropy(classify(pts, store, cfg), 1)

        _fd_smooth_grad_check(store, loss_fn, names + extra, np.random.default_rng(6))
