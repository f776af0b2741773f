"""Pre-norm transformer encoder/decoder and the masked-patch reconstruction path.

Position embeddings are injected at every block: each block's attention
branch reads LN(x + pos), while the residual stream carries x unchanged.
With zeroed attention and MLP output projections a block is therefore an
exact identity, which keeps the wiring testable.

The decoder consumes encoded visible tokens plus one shared learnable mask
token per masked patch; each mask token is distinguished only by the position
embedding of the patch it stands in for.

Sequences are (..., G, C): a (B, G, C) batch runs through the same tape ops
as a single (G, C) sequence, with every batch entry attending only to itself.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from . import autodiff as ad
from . import embedding
from .autodiff import Tensor
from .config import RunConfig
from .errors import InvalidArgument


def init_backbone_params(store: ad.ParamStore, cfg: RunConfig,
                         with_decoder: bool = True) -> None:
    for i in range(cfg.encoder_blocks):
        _init_block(store, f"enc.block{i:02d}", cfg)
    if with_decoder:
        for i in range(cfg.decoder_blocks):
            _init_block(store, f"dec.block{i:02d}", cfg)
        store.create("dec.mask_token", (1, cfg.dim))
        store.create("recon.w", (cfg.dim, 3 * cfg.knn_k))
        store.create("recon.b", (3 * cfg.knn_k,), init="zeros")


def _init_block(store: ad.ParamStore, prefix: str, cfg: RunConfig) -> None:
    c = cfg.dim
    hidden = int(round(cfg.mlp_ratio * c))
    store.create(f"{prefix}.ln1.g", (c,), init="ones")
    store.create(f"{prefix}.ln1.b", (c,), init="zeros")
    for name in ("wq", "wk", "wv", "wo"):
        store.create(f"{prefix}.attn.{name}", (c, c))
        store.create(f"{prefix}.attn.b{name[1]}", (c,), init="zeros")
    store.create(f"{prefix}.ln2.g", (c,), init="ones")
    store.create(f"{prefix}.ln2.b", (c,), init="zeros")
    store.create(f"{prefix}.mlp.w0", (c, hidden))
    store.create(f"{prefix}.mlp.b0", (hidden,), init="zeros")
    store.create(f"{prefix}.mlp.w1", (hidden, c))
    store.create(f"{prefix}.mlp.b1", (c,), init="zeros")


def _block(x: Tensor, pos: Tensor, params: Mapping[str, Tensor], prefix: str,
           cfg: RunConfig) -> Tensor:
    a = ad.layer_norm(ad.add(x, pos), params[f"{prefix}.ln1.g"], params[f"{prefix}.ln1.b"])
    q = ad.linear(a, params[f"{prefix}.attn.wq"], params[f"{prefix}.attn.bq"])
    k = ad.linear(a, params[f"{prefix}.attn.wk"], params[f"{prefix}.attn.bk"])
    v = ad.linear(a, params[f"{prefix}.attn.wv"], params[f"{prefix}.attn.bv"])
    att = ad.multi_head_attention(q, k, v, cfg.heads)
    att = ad.linear(att, params[f"{prefix}.attn.wo"], params[f"{prefix}.attn.bo"])
    x = ad.add(x, att)
    h = ad.layer_norm(x, params[f"{prefix}.ln2.g"], params[f"{prefix}.ln2.b"])
    h = ad.linear(ad.gelu(ad.linear(h, params[f"{prefix}.mlp.w0"], params[f"{prefix}.mlp.b0"])),
                  params[f"{prefix}.mlp.w1"], params[f"{prefix}.mlp.b1"])
    return ad.add(x, h)


def encode(tokens: Tensor, pos: Tensor, params: Mapping[str, Tensor],
           cfg: RunConfig) -> Tensor:
    """Run the encoder stack over token sequences of any length."""
    if tokens.values.shape != pos.values.shape:
        raise InvalidArgument(
            f"tokens {tokens.values.shape} and positions {pos.values.shape} must match")
    x = tokens
    for i in range(cfg.encoder_blocks):
        x = _block(x, pos, params, f"enc.block{i:02d}", cfg)
    return x


def decode(visible: Tensor, pos_visible: Tensor, pos_masked: Tensor,
           params: Mapping[str, Tensor], cfg: RunConfig) -> Tensor:
    """Decode visible tokens plus mask tokens; returns the masked rows.

    The sequence is [visible tokens, repeated mask token]; positions follow
    the same ordering, so row i of the output corresponds to row i of
    ``pos_masked`` (masked patches in their original token order).
    """
    g_vis = visible.values.shape[-2]
    g_mask = pos_masked.values.shape[-2]
    if pos_visible.values.shape[-2] != g_vis:
        raise InvalidArgument(
            f"{g_vis} visible tokens but {pos_visible.values.shape[-2]} visible positions")
    if g_mask < 1:
        raise InvalidArgument("decode requires at least one masked patch")
    mask_token = params["dec.mask_token"]
    x = ad.concat([visible, ad.broadcast(mask_token, (g_mask, mask_token.values.shape[-1]))],
                  axis=-2)
    pos = ad.concat([pos_visible, pos_masked], axis=-2)
    for i in range(cfg.decoder_blocks):
        x = _block(x, pos, params, f"dec.block{i:02d}", cfg)
    return ad.slice_rows(x, g_vis, g_vis + g_mask)


def recon_head(decoded_masked: Tensor, params: Mapping[str, Tensor],
               cfg: RunConfig) -> Tensor:
    """Linear map from decoded mask tokens to k centre-relative points each."""
    flat = ad.linear(decoded_masked, params["recon.w"], params["recon.b"])
    return ad.reshape(flat, flat.values.shape[:-1] + (cfg.knn_k, 3))


def l_3d(pred: Tensor, target_local: np.ndarray) -> Tensor:
    """Masked-patch reconstruction loss.

    Mean over masked patches (and over clouds, for a (B, G_mask, k, 3)
    batch) of the chamfer distance between the predicted and true
    centre-relative patches; ``chamfer_batch`` checks the shapes.
    """
    return ad.chamfer_batch(pred, target_local)


def reconstruction_loss(tb: embedding.TokenBatch, visible: np.ndarray, masked: np.ndarray,
                        params: Mapping[str, Tensor], cfg: RunConfig) -> Tensor:
    """The masked-autoencoding branch of a pre-training step: its ``l_3d``.

    Reads only the patch geometry of ``tb``, which may come from a tape-free
    tokenize.  Only the ``visible`` patches ((..., n) indices) go through
    ``embedding.mini_pointnet`` on ``params``; the positions of all G centres
    are embedded on ``params`` too, so ``embed.pos.*`` trains.  The encoder
    sees the visible tokens, the decoder adds the ``masked`` positions, and
    the prediction is scored against the masked patches' local coordinates.
    """
    local_vis = np.take_along_axis(tb.local_coords, visible[..., None, None], axis=-3)
    pos = embedding.pos_embed(tb.centers, params)
    pos_vis = ad.gather_rows(pos, visible)
    enc = encode(embedding.mini_pointnet(local_vis, params, cfg), pos_vis, params, cfg)
    dm = decode(enc, pos_vis, ad.gather_rows(pos, masked), params, cfg)
    target = np.take_along_axis(tb.local_coords, masked[..., None, None], axis=-3)
    return l_3d(recon_head(dm, params, cfg), target)
