"""Prototype-based component grouping over encoded tokens.

A small bank of learnable prototypes is refreshed against the encoded tokens
of the complete cloud (single-head attention, no projections), tokens are
enhanced by cross-attending to the refreshed prototypes, and a row-softmax
similarity between the two yields a hard component assignment per token.

Two losses train this branch: a reconstruction loss that decodes each token's
(prototype, position-embedding) pair back to a piece of the cloud, and a
contrastive loss that pushes refreshed prototypes apart in cosine similarity.
Each pass reads one ``params`` mapping, the store or a frozen view as
its caller picks, and reads the bank from it as given.  The encoder pass
feeding this module always reads a frozen view (the grouping branch's
stop-gradient), so these losses train only the prototype bank and the
reconstruction head.  The enhancement feeds only the hard argmax, which no
loss differentiates through, so it reads a frozen view too.

Every function takes a single cloud's (G, C) tokens or a (B, G, C) batch.
The shared bank is refreshed against each cloud's own tokens, and the
batched losses are means over clouds of the per-cloud losses.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from . import autodiff as ad
from . import backbone, embedding
from . import geometry as geo
from .autodiff import Tensor
from .config import RunConfig
from .embedding import TokenBatch
from .errors import InvalidArgument

_KNORM_EPS = 1e-8   # knorm_enhance's standard-deviation offset


def init_pcsm_params(store: ad.ParamStore, cfg: RunConfig) -> None:
    c = cfg.dim
    store.create("pcsm.prototypes", (cfg.n_prototypes, c))
    for name in ("wq", "wk", "wv", "wo"):
        store.create(f"pcsm.enhance.{name}", (c, c))
        store.create(f"pcsm.enhance.b{name[1]}", (c,), init="zeros")
    store.create("pcsm.enhance.ln.g", (c,), init="ones")
    store.create("pcsm.enhance.ln.b", (c,), init="zeros")
    kp = cfg.recon_points
    store.create("pcsm.ppr.w0", (2 * c, 2 * c))
    store.create("pcsm.ppr.b0", (2 * c,), init="zeros")
    store.create("pcsm.ppr.w1", (2 * c, 3 * kp))
    store.create("pcsm.ppr.b1", (3 * kp,), init="zeros")


def knorm_enhance(tokens: np.ndarray, centers: np.ndarray, k: int) -> np.ndarray:
    """Widen each token's receptive field using its k nearest token peers.

    For token i, gather the k tokens whose patch centres are nearest (self
    included, ties by index), z-score token i per channel against the
    gathered block's statistics, and add that z-scored row back onto the
    token (residual).  Pooling the z-scored block instead would cancel
    exactly (z-scores sum to zero over the axis that defined them), so the
    residual carries the token's own deviation from its neighbourhood.
    Zero-variance channels contribute exactly zero (the guard keeps the
    divide finite), so k=1 or an all-identical token set returns the input
    unchanged.

    Parameter free and applied only to stop-gradient features, so it is plain
    numpy.  ``tokens`` is (..., G, C) and ``centers`` (..., G, 3).  It
    computes in float64 and returns the tokens' dtype.
    """
    tokens = np.asarray(tokens)
    dtype = np.float32 if tokens.dtype == np.float32 else np.float64
    tokens = tokens.astype(np.float64, copy=False)
    centers = np.asarray(centers, dtype=np.float64)
    g, c = tokens.shape[-2:]
    if centers.shape[:-1] != tokens.shape[:-1]:
        raise InvalidArgument(f"tokens {tokens.shape} and centres {centers.shape} differ")
    members = geo.knn(centers, np.arange(g), k)[0].reshape(-1, g, k)
    flat = tokens.reshape(-1, g, c)
    gathered = flat[np.arange(flat.shape[0])[:, None, None], members]   # (L, G, k, C)
    mu = gathered.mean(axis=-2)
    sd = gathered.std(axis=-2)
    z = ((flat - mu) / (sd + _KNORM_EPS)).reshape(tokens.shape)
    return (tokens + z).astype(dtype, copy=False)


def update_prototypes(prototypes: Tensor, tokens: Tensor) -> Tensor:
    """Refresh the bank against encoded tokens.

    Single-head attention with no projections: each refreshed prototype is a
    softmax(p T^T / sqrt(C))-weighted average of token rows, hence always
    inside the tokens' convex hull.
    """
    return ad.multi_head_attention(prototypes, tokens, tokens, heads=1)


def enhance_tokens(tokens: Tensor, prototypes_hat: Tensor,
                   params: Mapping[str, Tensor], cfg: RunConfig) -> Tensor:
    """Cross-attention from tokens to refreshed prototypes, residual + LN."""
    q = ad.linear(tokens, params["pcsm.enhance.wq"], params["pcsm.enhance.bq"])
    k = ad.linear(prototypes_hat, params["pcsm.enhance.wk"], params["pcsm.enhance.bk"])
    v = ad.linear(prototypes_hat, params["pcsm.enhance.wv"], params["pcsm.enhance.bv"])
    att = ad.multi_head_attention(q, k, v, cfg.heads)
    att = ad.linear(att, params["pcsm.enhance.wo"], params["pcsm.enhance.bo"])
    return ad.layer_norm(ad.add(tokens, att),
                         params["pcsm.enhance.ln.g"], params["pcsm.enhance.ln.b"])


def similarity(tokens_hat: Tensor, prototypes_hat: Tensor) -> tuple[Tensor, np.ndarray]:
    """Row-softmax similarity and the hard component assignment.

    Returns (S, assignment): S[i, q] = softmax over q of token-prototype
    similarity scaled by 1/sqrt(C); assignment[i] = argmax_q S[i, q], ties to
    the lowest prototype id.  Scaling every token by a positive constant
    scales all logits in a row equally, so the assignment is scale invariant.
    """
    c = tokens_hat.values.shape[-1]
    logits = ad.mul_const(ad.matmul(tokens_hat, ad.transpose(prototypes_hat)), 1.0 / math.sqrt(c))
    s = ad.softmax_rows(logits)
    return s, np.argmax(s.values, axis=-1).astype(np.int64)


def ppr_reconstruct(prototypes_hat: Tensor, pos: Tensor, assignment: np.ndarray,
                    cloud_points: np.ndarray, params: Mapping[str, Tensor],
                    cfg: RunConfig) -> Tensor:
    """Loss of reconstructing the whole cloud from (assigned prototype, position) pairs.

    Token i contributes the row [p_hat[assignment[i]] || pos[i]].  A two-layer
    head maps each row to k' points and the loss is the global chamfer
    distance from all G * k' points to the cloud, scaled by 1/G (averaged
    over clouds for a batch).  Empty components are legal; they simply
    contribute no rows.
    """
    lead, g = pos.values.shape[:-2], pos.values.shape[-2]
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.shape != lead + (g,):
        raise InvalidArgument(f"assignment must be {lead + (g,)}, got {assignment.shape}")
    kp = cfg.recon_points
    f = ad.concat([ad.gather_rows(prototypes_hat, assignment), pos], axis=-1)
    h = ad.gelu(ad.linear(f, params["pcsm.ppr.w0"], params["pcsm.ppr.b0"]))
    out = ad.linear(h, params["pcsm.ppr.w1"], params["pcsm.ppr.b1"])
    pred = ad.reshape(out, lead + (g * kp, 3))
    return ad.mul_const(ad.chamfer_batch(pred, cloud_points), 1.0 / g)


def l_cont(prototypes_hat: Tensor, temperature: float) -> Tensor:
    """Contrastive separation of refreshed prototypes.

    Rows are L2-normalised (1e-12 floor), pairwise cosine similarities D are
    divided by the temperature, and the loss is
    sum_i [logsumexp_j D_ij - D_ii].  Since D_ii = 1 identically, the
    diagonal contributes the constant Q/temperature; the loss is therefore
    invariant to prototype order and strictly decreases as off-diagonal
    similarity falls.  For a (B, Q, C) batch of banks the loss is the mean
    over the B banks.
    """
    if temperature <= 0.0:
        raise InvalidArgument(f"temperature must be positive, got {temperature}")
    q = prototypes_hat.values.shape[-2]
    banks = prototypes_hat.values.size // (q * prototypes_hat.values.shape[-1])
    pn = ad.l2_normalize_rows(prototypes_hat)
    d = ad.mul_const(ad.matmul(pn, ad.transpose(pn)), 1.0 / temperature)
    lse = ad.logsumexp_rows(d)
    diagonal = Tensor(np.asarray(-q / temperature, dtype=lse.values.dtype))
    return ad.add(ad.mul_const(ad.sum_all(lse), 1.0 / banks), diagonal)


def refresh(tb: TokenBatch, params: Mapping[str, Tensor],
            cfg: RunConfig) -> tuple[np.ndarray, Tensor]:
    """Frozen encode, k-norm, prototype refresh: (tokens_encoded, prototypes_hat).

    The batch's tokens and positions enter as constants and are encoded
    through a frozen view of ``params``, so no gradient reaches the embedding
    or the encoder (the stop-gradient boundary).  The bank
    ``params["pcsm.prototypes"]`` is read as given and refreshed against each
    cloud's own k-normed tokens.
    """
    te = backbone.encode(tb.tokens.detach(), tb.pos.detach(), ad.frozen(params), cfg).values
    if cfg.knorm_enabled:
        te = knorm_enhance(te, tb.centers, cfg.knorm_k)
    return te, update_prototypes(params["pcsm.prototypes"], Tensor(te))


def group(tb: TokenBatch, params: Mapping[str, Tensor],
          cfg: RunConfig) -> tuple[np.ndarray, Tensor, np.ndarray]:
    """``refresh``, then enhancement, similarity and the hard assignment.

    Returns (tokens_encoded, prototypes_hat, assignment): the (..., G, C)
    stop-gradient encoder output after k-norm, the (..., Q, C) refreshed
    bank and the (..., G) int64 assignment.  The enhancement reads a frozen
    view of ``params``: its output feeds only the argmax, so no loss could
    differentiate through it.  Given a frozen view, the pass records no
    gradient tape.
    """
    te, p_hat = refresh(tb, params, cfg)
    detached = p_hat.detach()
    _, assignment = similarity(enhance_tokens(Tensor(te), detached, ad.frozen(params), cfg),
                               detached)
    return te, p_hat, assignment


def cloud_assignment(points: np.ndarray, params: Mapping[str, Tensor],
                     cfg: RunConfig) -> tuple[TokenBatch, np.ndarray]:
    """The frozen assignment pass: tokenize and ``group`` on a frozen view of ``params``.

    ``points`` is one (N, 3) cloud or a (B, N, 3) batch, tokenized from its
    first point.  Returns the token batch and its (..., G) assignment; the
    pass builds no losses and no gradient tape.
    """
    frozen = ad.frozen(params)
    tb = embedding.tokenize(points, frozen, cfg, start=0)
    return tb, group(tb, frozen, cfg)[2]


def pcsm_forward(tb: TokenBatch, cloud_points: np.ndarray, params: Mapping[str, Tensor],
                 cfg: RunConfig) -> tuple[np.ndarray, Tensor, Tensor]:
    """Full component-grouping pass on a complete cloud, or a batch of them.

    Returns (assignment, loss_proto, loss_cont), the losses as means over
    clouds.  ``tb`` is read only as constants, so it may come from a
    tokenize on a frozen view.  The grouping runs as in ``group``; given the
    store, the trainable inputs of the two losses are the prototype bank and
    the reconstruction head.
    """
    _, p_hat, assignment = group(tb, params, cfg)
    loss_proto = ppr_reconstruct(p_hat, tb.pos.detach(), assignment, cloud_points, params, cfg)
    return assignment, loss_proto, l_cont(p_hat, cfg.cont_temperature)
