"""Token masking strategies: uniform random, spatial block, component-aware.

All three produce a (G,) bool mask with exactly round_half_up(ratio * G)
masked entries, at least one token masked and at least one visible.  The
component-aware strategy masks a few whole components (and returns their
ids) and spreads the remaining budget across the other components in
proportion to their size, so every component is partially visible and
partially hidden in a controlled way.  A batch's masks are one (B, G) array.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .errors import InvalidArgument
from .geometry import sq_dists
from .metrics import bincount_rows
from .shapes import apportion

log = logging.getLogger(__name__)

STRATEGIES = ("randm", "randbm", "csem")


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _target(g: int, ratio: float) -> int:
    if not 0.0 < ratio < 1.0:
        raise InvalidArgument(f"mask ratio must be in (0, 1), got {ratio}")
    n = round_half_up(ratio * g)
    if not 1 <= n <= g - 1:
        raise InvalidArgument(f"ratio {ratio} over {g} tokens masks {n}; need 1..{g - 1}")
    return n


def random_mask(g: int, ratio: float, rng: np.random.Generator) -> np.ndarray:
    """(G,) bool mask: uniform masking without replacement."""
    masked = np.zeros(g, dtype=bool)
    masked[rng.choice(g, size=_target(g, ratio), replace=False)] = True
    return masked


def block_mask(centers: np.ndarray, ratio: float, rng: np.random.Generator) -> np.ndarray:
    """(G,) bool mask of a spatially contiguous block around a random anchor token."""
    centers = np.asarray(centers, dtype=np.float64)
    if centers.ndim != 2 or centers.shape[1] != 3:
        raise InvalidArgument(f"block_mask expects (G, 3) centres, got {centers.shape}")
    g = centers.shape[0]
    n = _target(g, ratio)
    anchor = int(rng.integers(g))
    d = sq_dists(centers, centers[anchor])
    order = np.lexsort((np.arange(g), d))
    masked = np.zeros(g, dtype=bool)
    masked[order[:n]] = True
    return masked


def csem_mask(assignment: np.ndarray, full_components: int, ratio: float,
              rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Component-aware masking: a (G,) bool mask and the ascending ids of
    the components it masked whole.

    Mask all tokens of ``full_components`` uniformly chosen nonempty
    components whose combined size fits the budget (rejection sampling with a
    retry cap, reducing the count when no combination fits), then distribute
    the remaining budget across the other nonempty components proportionally
    to their sizes by largest-remainder apportionment (remainder ties to the
    lowest component id) and mask uniformly inside each.

    At least one nonempty component always stays partly visible: the count
    is capped at the number of nonempty components minus one.  If every token
    sits in one component, falls back to ``random_mask`` with a logged
    warning.
    """
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.ndim != 1 or assignment.size == 0:
        raise InvalidArgument("assignment must be a nonempty 1-d integer array")
    if full_components < 0:
        raise InvalidArgument("full_components must be >= 0")
    g = assignment.size
    target = _target(g, ratio)
    ids, sizes = np.unique(assignment, return_counts=True)
    q_ne = ids.size

    if q_ne == 1:
        if full_components >= 1:
            log.warning("all %d tokens share component %d; falling back to random masking",
                        g, int(ids[0]))
        return random_mask(g, ratio, rng), ids[:0]

    selected = ids[:0]
    for m_c in range(min(full_components, q_ne - 1), 0, -1):
        picks = (rng.choice(q_ne, size=m_c, replace=False) for _ in range(q_ne * 10))
        fit = next((pick for pick in picks if sizes[pick].sum() <= target), None)
        if fit is not None:
            selected = np.sort(ids[fit])
            break

    masked = np.isin(assignment, selected)
    rest = ~np.isin(ids, selected)
    takes = apportion(target - int(masked.sum()), sizes[rest])
    for comp, take in zip(ids[rest], takes):  # ascending id: deterministic RNG consumption
        if take:
            masked[rng.choice(np.flatnonzero(assignment == comp), size=take, replace=False)] = True
    return masked, selected


def make_plans(strategy: str, assignment: np.ndarray, centers: np.ndarray, ratio: float,
               full_components: int, rng: np.random.Generator
               ) -> tuple[np.ndarray, np.ndarray]:
    """(B, G) bool ``masked`` and (B, Q) bool ``selected`` (the components
    masked whole, Q the largest id plus one) of a (B, G) assignment with
    (B, G, 3) centres under ``strategy``, one of ``STRATEGIES``.

    Clouds are planned in batch order, which fixes the order of the draws
    from ``rng``.  The strategy function is looked up in this module when
    called, so a wrapper set on ``masking.csem_mask`` (say) sees every plan.
    """
    if strategy not in STRATEGIES:
        raise InvalidArgument(f"unknown mask strategy '{strategy}' (have {', '.join(STRATEGIES)})")
    assignment = np.asarray(assignment, dtype=np.int64)
    b, g = assignment.shape
    masked = np.zeros((b, g), dtype=bool)
    selected = np.zeros((b, int(assignment.max()) + 1), dtype=bool)
    for j in range(b):
        if strategy == "randm":
            masked[j] = random_mask(g, ratio, rng)
        elif strategy == "randbm":
            masked[j] = block_mask(centers[j], ratio, rng)
        else:
            masked[j], ids = csem_mask(assignment[j], full_components, ratio, rng)
            selected[j, ids] = True
    return masked, selected


def component_coverage(masked: np.ndarray, selected: np.ndarray,
                       assignment: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per plan of ``make_plans``, (coverage of its selected components, best coverage).

    The first is the minimum masked fraction over the selected components
    (NaN where a plan selected none); the second is the maximum masked
    fraction over all nonempty components, a comparable number for
    strategies that never select components.
    """
    masked = np.asarray(masked, dtype=bool)
    selected = np.asarray(selected, dtype=bool)
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.shape != masked.shape or selected.shape[:-1] != masked.shape[:-1]:
        raise InvalidArgument(f"assignment of shape {assignment.shape} and selection of shape "
                              f"{selected.shape} for masks of shape {masked.shape}")
    if assignment.size == 0:
        raise InvalidArgument(f"empty assignment of shape {assignment.shape}")
    width = selected.shape[-1]
    if assignment.min() < 0 or assignment.max() >= width:
        raise InvalidArgument(f"assignment ids outside [0, {width})")
    sizes = bincount_rows(assignment, width)
    absent = np.unique(np.nonzero(selected & (sizes == 0))[-1]).tolist()
    if absent:
        raise InvalidArgument(f"plans select components {absent} absent from the assignment")
    fractions = np.divide(bincount_rows(assignment, width, weights=masked), sizes,
                          where=sizes > 0, out=np.zeros(sizes.shape))
    covered = np.min(fractions, axis=-1, where=selected, initial=np.inf)
    return np.where(selected.any(axis=-1), covered, np.nan), fractions.max(axis=-1)
