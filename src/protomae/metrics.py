"""Clustering-quality metrics for the component grouping.

All of these compare a predicted assignment against ground-truth labels (or
measure the assignment alone); none of them feed any loss.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgument


def _entropy(p: np.ndarray) -> np.ndarray:
    """Shannon entropy (nats) over the last axis; zero entries contribute 0."""
    return -np.sum(p * np.log(p, where=p > 0, out=np.zeros_like(p)), axis=-1)


def _contingency(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape != b.shape or a.ndim != 1:
        raise InvalidArgument(f"assignments must be equal-length vectors, "
                              f"got {a.shape} and {b.shape}")
    if a.size == 0:
        raise InvalidArgument("empty assignment")
    ua, ia = np.unique(a, return_inverse=True)
    ub, ib = np.unique(b, return_inverse=True)
    table = np.bincount(ia * ub.size + ib, minlength=ua.size * ub.size)
    return table.reshape(ua.size, ub.size).astype(np.float64)


def _nmi(pab: np.ndarray, pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """NMI, 2·MI/(H(a)+H(b)), of joint distributions ``pab`` (..., A, B).

    ``pa`` (..., A) and ``pb`` (..., B) are its marginals, passed in so
    that ``nmi`` can take them from exact integer counts.  A side with zero
    entropy scores 0.
    """
    ha, hb = _entropy(pa), _entropy(pb)
    outer = pa[..., :, None] * pb[..., None, :]
    ratio = np.divide(pab, outer, where=pab > 0, out=np.ones_like(pab))
    mi = np.sum(pab * np.log(ratio), axis=(-2, -1))
    return np.divide(2.0 * mi, ha + hb, where=(ha > 0.0) & (hb > 0.0), out=np.zeros_like(mi))


def nmi(a: np.ndarray, b: np.ndarray) -> float:
    """Normalized mutual information, 2·MI/(H(a)+H(b)), in [0, 1].

    A degenerate side (single cluster, zero entropy) scores 0: a collapsed
    grouping carries no information regardless of the other side.
    """
    table = _contingency(a, b)
    n = table.sum()
    return float(_nmi(table / n, table.sum(axis=1) / n, table.sum(axis=0) / n))


def bincount_rows(ids: np.ndarray, width: int, weights: np.ndarray | None = None) -> np.ndarray:
    """(..., width) count (or ``weights`` sum) of each id in [0, width) in
    each row of (..., G) ids: one ``bincount`` over rows offset by ``width``."""
    rows = np.arange(ids[..., 0].size).reshape(ids.shape[:-1] + (1,)) * width
    weights = None if weights is None else np.ravel(weights)
    counts = np.bincount((rows + ids).ravel(), weights, minlength=rows.size * width)
    return counts.reshape(ids.shape[:-1] + (width,))


def purity(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Per row of (..., G) assignments, the fraction of elements whose
    cluster's majority truth label matches."""
    pred, truth = (np.asarray(a, dtype=np.int64) for a in (pred, truth))
    # NumPy < 2 returns the inverse flat, whatever the input's shape
    pred, truth = (np.unique(a, return_inverse=True)[1].reshape(a.shape) for a in (pred, truth))
    if pred.shape != truth.shape or pred.size == 0:
        raise InvalidArgument(f"assignments must have equal nonempty shapes (..., G), "
                              f"got {pred.shape} and {truth.shape}")
    width = int(truth.max()) + 1
    table = bincount_rows(pred * width + truth, (int(pred.max()) + 1) * width)
    table = table.reshape(pred.shape[:-1] + (-1, width))
    return table.max(axis=-1).sum(axis=-1) / pred.shape[-1]


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
                        rng: np.random.Generator) -> float:
    """Mean NMI of uniformly random ``n_groups``-way assignments vs truth.

    All picks come from one ``rng.integers(0, n_groups, (draws, n))`` call.
    It yields the same picks, and leaves ``rng`` in the same state, as a loop
    of ``draws`` calls of size ``n``: bounded integers below 2**32 are drawn
    32 bits at a time from the generator's own buffer, which persists across
    calls.  The NMIs come from one stack of integer contingency tables.  Empty
    groups and absent labels add nothing to any entropy, so the fixed
    (n_groups, labels) table scores each draw exactly as ``nmi`` would.
    """
    if draws < 1:
        raise InvalidArgument(f"random_nmi_baseline needs draws >= 1, got {draws}")
    if n_groups < 1:
        raise InvalidArgument(f"random_nmi_baseline needs n_groups >= 1, got {n_groups}")
    _, truth_ids = np.unique(np.asarray(truth, dtype=np.int64), return_inverse=True)
    if truth_ids.size == 0:
        raise InvalidArgument("random_nmi_baseline over an empty truth")
    n, width = truth_ids.size, int(truth_ids.max()) + 1
    picks = rng.integers(0, n_groups, (draws, n))
    counts = bincount_rows(picks * width + truth_ids, n_groups * width)
    counts = counts.reshape(draws, n_groups, width)
    return float(np.mean(_nmi(counts / n, counts.sum(axis=2) / n, counts.sum(axis=1) / n)))
