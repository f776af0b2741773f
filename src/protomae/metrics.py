"""Clustering-quality metrics for the component grouping.

All of these compare a predicted assignment against ground-truth labels (or
measure the assignment alone); none of them feed any loss.  Each scores every
row of a (..., G) stack of ids at once and returns (...,) values.  ``nmi`` and
``purity`` read every row's contingency table from one offset ``bincount``
(``bincount_rows``), and ``nmi`` holds the one NMI formula: the random
baseline scores its picks with it too.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgument


def _entropy(p: np.ndarray) -> np.ndarray:
    """Shannon entropy (nats) over the last axis; zero entries contribute 0."""
    return -np.sum(p * np.log(p, where=p > 0, out=np.zeros_like(p)), axis=-1)


def bincount_rows(ids: np.ndarray, width: int, weights: np.ndarray | None = None) -> np.ndarray:
    """(..., width) count (or ``weights`` sum) of each id in [0, width) in
    each row of (..., G) ids: one ``bincount`` over rows offset by ``width``."""
    rows = np.arange(ids[..., 0].size).reshape(ids.shape[:-1] + (1,)) * width
    weights = None if weights is None else np.ravel(weights)
    counts = np.bincount((rows + ids).ravel(), weights, minlength=rows.size * width)
    return counts.reshape(ids.shape[:-1] + (width,))


def _tables(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """(..., A, B) contingency table of each row of two (..., G) id stacks
    whose leading axes broadcast; each side's ids are compacted over its
    whole stack, so a row's table may hold empty rows and columns."""
    pred, truth = (np.asarray(a, dtype=np.int64) for a in (pred, truth))
    try:
        shape = np.broadcast_shapes(pred.shape, truth.shape)
    except ValueError:
        shape = ()
    if min(pred.ndim, truth.ndim) == 0 or pred.shape[-1] != truth.shape[-1] or 0 in shape:
        raise InvalidArgument(f"assignments must have equal nonempty shapes (..., G) up to "
                              f"broadcasting, got {pred.shape} and {truth.shape}")
    # each id's rank among its stack's distinct ids (np.unique's inverse): offset
    # by the minimum, mark the ids present, count the marks up to each id
    pred, truth = (a - a.min() for a in (pred, truth))
    pred, truth = ((np.cumsum(np.bincount(a.ravel()) > 0) - 1)[a] for a in (pred, truth))
    width = int(truth.max()) + 1
    table = bincount_rows(pred * width + truth, (int(pred.max()) + 1) * width)
    return table.reshape(table.shape[:-1] + (-1, width))


def nmi(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Normalized mutual information, 2·MI/(H(pred)+H(truth)), in [0, 1], of
    each row of (..., G) ids; the leading axes of the two stacks broadcast.

    A degenerate side (single cluster, zero entropy) scores 0: a collapsed
    grouping carries no information regardless of the other side.  Ids that
    a row does not use add nothing to its entropies, so a row of the stack
    scores as it scores alone, up to summation order.
    """
    table = _tables(pred, truth)
    n = np.shape(pred)[-1]
    # marginals from exact integer counts
    pab, pa, pb = table / n, table.sum(axis=-1) / n, table.sum(axis=-2) / n
    ha, hb = _entropy(pa), _entropy(pb)
    outer = pa[..., :, None] * pb[..., None, :]
    ratio = np.divide(pab, outer, where=pab > 0, out=np.ones_like(pab))
    mi = np.sum(pab * np.log(ratio), axis=(-2, -1))
    return np.divide(2.0 * mi, ha + hb, where=(ha > 0.0) & (hb > 0.0), out=np.zeros_like(mi))[()]


def purity(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Per row of (..., G) assignments, the fraction of elements whose
    cluster's majority truth label matches."""
    return _tables(pred, truth).max(axis=-1).sum(axis=-1) / np.shape(pred)[-1]


def group_entropy(assignment: np.ndarray, n_groups: int) -> np.ndarray:
    """Shannon entropy (nats) of the group-size distribution of each row of (..., G) ids.

    0 means collapse onto one group; log(n_groups) is a perfectly even split.
    """
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.size == 0:
        raise InvalidArgument("empty assignment")
    if assignment.min() < 0 or assignment.max() >= n_groups:
        raise InvalidArgument(f"assignment ids outside [0, {n_groups})")
    return _entropy(bincount_rows(assignment, n_groups) / assignment.shape[-1])


def random_nmi_baseline(truth: np.ndarray, n_groups: int, draws: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Per row of (..., G) truths, the mean ``nmi`` of ``draws`` uniformly
    random ``n_groups``-way assignments against it.

    All picks come from one ``rng.integers(0, n_groups, (..., draws, G))``
    call.  It yields the same picks, and leaves ``rng`` in the same state, as
    a loop of one size-G call per row and draw: bounded integers below 2**32
    are drawn 32 bits at a time from the generator's own buffer, which
    persists across calls.  One ``nmi`` call scores every pick.
    """
    if draws < 1:
        raise InvalidArgument(f"random_nmi_baseline needs draws >= 1, got {draws}")
    if n_groups < 1:
        raise InvalidArgument(f"random_nmi_baseline needs n_groups >= 1, got {n_groups}")
    truth = np.asarray(truth, dtype=np.int64)
    if truth.ndim == 0 or truth.size == 0:
        raise InvalidArgument(f"random_nmi_baseline over an empty truth or a scalar, "
                              f"got shape {truth.shape}")
    picks = rng.integers(0, n_groups, truth.shape[:-1] + (draws, truth.shape[-1]))
    return np.mean(nmi(picks, truth[..., None, :]), axis=-1)
