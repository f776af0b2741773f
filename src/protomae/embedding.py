"""Patch construction and token embedding.

A cloud becomes G tokens in three steps: farthest-point sampling picks patch
centres, k-nearest-neighbour gathering builds centre-relative local patches,
and a shared mini-PointNet maps each patch to a C-dimensional token.  Because
the network only ever sees local coordinates, tokens are translation
invariant; all absolute position information travels separately, as the
batch's ``pos`` field (``pos_embed``, a single affine map of the centre
coordinates).

``tokenize`` builds the patch geometry and runs ``mini_pointnet`` over every
patch; a training step also runs ``mini_pointnet`` alone, over its visible
patches (``backbone.reconstruction_loss``).

A batch of clouds is one (B, N, 3) array and yields (B, G, C) tokens from one
pass; a single (N, 3) cloud yields (G, C) tokens from the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import autodiff as ad
from . import geometry as geo
from .autodiff import Tensor
from .config import RunConfig


@dataclass
class TokenBatch:
    """Tokens and their position embeddings, plus the patch geometry they
    were built from.

    Every field carries the leading batch axes of the input cloud array.
    """

    centers: np.ndarray             # (..., G, 3)
    member_indices: np.ndarray      # (..., G, k)
    local_coords: np.ndarray        # (..., G, k, 3) member minus centre
    tokens: Tensor                  # (..., G, C)
    pos: Tensor                     # (..., G, C) ``pos_embed`` of the centres


def init_embedding_params(store: ad.ParamStore, cfg: RunConfig) -> None:
    h1, h2, c = cfg.embed_hidden1, cfg.embed_hidden2, cfg.dim
    store.create("embed.mlp1.w0", (3, h1))
    store.create("embed.mlp1.b0", (h1,), init="zeros")
    store.create("embed.mlp1.w1", (h1, h2))
    store.create("embed.mlp1.b1", (h2,), init="zeros")
    store.create("embed.mlp2.w0", (2 * h2, 2 * h2))
    store.create("embed.mlp2.b0", (2 * h2,), init="zeros")
    store.create("embed.mlp2.w1", (2 * h2, c))
    store.create("embed.mlp2.b1", (c,), init="zeros")
    store.create("embed.pos.w", (3, c))
    store.create("embed.pos.b", (c,), init="zeros")


def tokenize(points: np.ndarray, params: Mapping[str, Tensor], cfg: RunConfig,
             start=0) -> TokenBatch:
    """Embed a cloud, or a (B, N, 3) batch of clouds, into G tokens of width C each.

    The patch geometry comes first: farthest-point sampling picks the G
    centres and kNN gathers each centre's k members.  Patch order follows the
    farthest-point pick order; ``start`` selects the first pick (fixed for
    evaluation, drawn from the training RNG during training), one int for
    every cloud or one per cloud.  ``mini_pointnet`` then maps all G patches
    to tokens, and the position embeddings come from the same ``params``.
    """
    pts = np.asarray(points, dtype=np.float64)
    center_idx = geo.fps(pts, cfg.n_patches, start=start)
    members, local = geo.knn(pts, center_idx, cfg.knn_k)
    centers = np.take_along_axis(pts, center_idx[..., None], axis=-2)
    return TokenBatch(centers=centers, member_indices=members, local_coords=local,
                      tokens=mini_pointnet(local, params, cfg), pos=pos_embed(centers, params))


def mini_pointnet(local_coords: np.ndarray, params: Mapping[str, Tensor],
                  cfg: RunConfig) -> Tensor:
    """Map (..., n, k, 3) centre-relative patches to (..., n, C) tokens.

    The usual two-stage construction: a shared per-point MLP, max-pool over
    the patch, the pooled vector concatenated back onto every point feature,
    a second shared MLP, and a final max-pool.  The second MLP's first layer
    is applied to the concatenation in two halves: ``[h | pool] @ W0`` is
    ``h @ W0[:h2] + pool @ W0[h2:]``, and the pooled half is computed once
    per patch rather than once per member.  Patches are independent, so a
    subset of them gives the same tokens as the full set.
    """
    x = Tensor(local_coords.astype(params["embed.mlp1.w0"].values.dtype, copy=False))
    h = ad.relu(ad.linear(x, params["embed.mlp1.w0"], params["embed.mlp1.b0"]))
    h = ad.linear(h, params["embed.mlp1.w1"], params["embed.mlp1.b1"])
    w0, h2 = params["embed.mlp2.w0"], cfg.embed_hidden2
    pooled = ad.linear(pool_row(h), ad.slice_rows(w0, h2, 2 * h2), params["embed.mlp2.b0"])
    h = ad.relu(ad.add(ad.linear(h, ad.slice_rows(w0, 0, h2)), pooled))
    h = ad.linear(h, params["embed.mlp2.w1"], params["embed.mlp2.b1"])
    return ad.max_over_rows(h)


def pool_row(rows: Tensor) -> Tensor:
    """Max-pool (..., n, C) rows into one (..., 1, C) row."""
    pooled = ad.max_over_rows(rows)
    return ad.reshape(pooled, pooled.values.shape[:-1] + (1, pooled.values.shape[-1]))


def pos_embed(centers: np.ndarray, params: Mapping[str, Tensor]) -> Tensor:
    """Affine map of absolute centre coordinates to token width, in the weights' dtype."""
    w = params["embed.pos.w"]
    return ad.linear(Tensor(np.asarray(centers, dtype=w.values.dtype)), w, params["embed.pos.b"])
