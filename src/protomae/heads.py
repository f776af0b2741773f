"""Classification heads: plain class-token readout and the prototype-prompted variant.

Both heads prepend a learnable class token to the patch tokens and encode the
sequence with the pretrained encoder.  The prompted variant additionally feeds
the refreshed prototypes in as extra sequence rows between the class token and
the patch tokens; prototypes are not spatial, so those rows carry a zero
position embedding while the class token gets a learnable one.

A single (N, 3) cloud gives (1, n_classes) logits; a (B, N, 3) batch gives
(B, 1, n_classes) from one pass.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from . import autodiff as ad
from . import backbone, embedding, pcsm
from .autodiff import Tensor
from .config import RunConfig
from .errors import ConfigError, InvalidArgument


def init_head_params(store: ad.ParamStore, cfg: RunConfig, n_classes: int,
                     csep: bool) -> None:
    """Create the class token, its position, and the two-layer readout.

    The readout input width is 2C for the plain head and 3C for the prompted
    one; the extra C slice is the pooled encoded-prototype feature.
    """
    if n_classes < 2:
        raise InvalidArgument(f"need at least 2 classes, got {n_classes}")
    c = cfg.dim
    store.create("cls.token", (1, c))
    store.create("cls.pos", (1, c))
    width = (3 if csep else 2) * c
    store.create("cls.head.w0", (width, cfg.head_hidden))
    store.create("cls.head.b0", (cfg.head_hidden,), init="zeros")
    store.create("cls.head.w1", (cfg.head_hidden, n_classes))
    store.create("cls.head.b1", (n_classes,), init="zeros")


def head_logits(features: Tensor, params: Mapping[str, Tensor]) -> Tensor:
    w0 = params["cls.head.w0"]
    if features.values.shape[-1] != w0.values.shape[0]:
        raise InvalidArgument(
            f"feature width {features.values.shape[-1]} does not match head "
            f"input width {w0.values.shape[0]}")
    h = ad.gelu(ad.linear(features, w0, params["cls.head.b0"]))
    return ad.linear(h, params["cls.head.w1"], params["cls.head.b1"])


def _readout(blocks: list[tuple[Tensor, Tensor]], params: Mapping[str, Tensor],
             cfg: RunConfig) -> Tensor:
    """Logits of [class token || blocks]: the class row and each block max-pooled.

    Each block is a (rows, positions) pair of (..., n, C) tensors.
    """
    enc = backbone.encode(ad.concat([params["cls.token"]] + [rows for rows, _ in blocks], axis=-2),
                          ad.concat([params["cls.pos"]] + [pos for _, pos in blocks], axis=-2),
                          params, cfg)
    features, lo = [ad.slice_rows(enc, 0, 1)], 1
    for rows, _ in blocks:
        n = rows.values.shape[-2]
        features.append(embedding.pool_row(ad.slice_rows(enc, lo, lo + n)))
        lo += n
    return head_logits(ad.concat(features, axis=-1), params)


def classify_baseline(points: np.ndarray, params: Mapping[str, Tensor],
                      cfg: RunConfig) -> Tensor:
    """Logits from [class token || patch tokens] features: t_cls || f_g."""
    tb = embedding.tokenize(points, params, cfg)
    return _readout([(tb.tokens, tb.pos)], params, cfg)


def classify_csep(points: np.ndarray, params: Mapping[str, Tensor], cfg: RunConfig) -> Tensor:
    """Logits with refreshed prototypes as prompt rows: t_cls || p_g || f_g.

    The prompts come from ``pcsm.refresh``: the prototype bank against this
    cloud's own encoded tokens, with the token features treated as constants
    exactly as during pre-training.  The encoder sees [class token || Q
    prototype rows || patch tokens]; the prototype rows get a zero position
    embedding.  The pooled encoded prototypes become the middle slice of the
    3C readout input.
    """
    if "pcsm.prototypes" not in params:
        raise ConfigError("prompted classification needs pre-trained prototypes; "
                          "load a pre-training checkpoint first")
    tb = embedding.tokenize(points, params, cfg)
    _, p_hat = pcsm.refresh(tb, params, cfg)
    zeros = Tensor(np.zeros((p_hat.values.shape[-2], cfg.dim), dtype=p_hat.values.dtype))
    return _readout([(p_hat, zeros), (tb.tokens, tb.pos)], params, cfg)
