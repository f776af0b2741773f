"""Token masking strategies: uniform random, spatial block, component-aware.

All three produce a ``MaskPlan`` over G tokens with exactly
round_half_up(ratio * G) masked entries, at least one token masked and at
least one visible.  The component-aware strategy masks a few whole components
and spreads the remaining budget across the other components in proportion to
their size, so every component is partially visible and partially hidden in a
controlled way.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument
from .geometry import sq_dists
from .shapes import apportion

log = logging.getLogger(__name__)

STRATEGIES = ("randm", "randbm", "csem")


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass
class MaskPlan:
    """Which tokens are hidden, plus the components a component-aware plan
    masked whole."""

    masked: np.ndarray                                   # (G,) bool
    fully_masked_components: tuple[int, ...] = ()

    def __post_init__(self):
        self.masked = np.asarray(self.masked, dtype=bool)
        g = self.masked.size
        n = int(self.masked.sum())
        if not (1 <= n <= g - 1):
            raise InvalidArgument(f"mask plan must hide between 1 and G-1 of {g} tokens, hides {n}")

    @property
    def g(self) -> int:
        return self.masked.size

    @property
    def n_masked(self) -> int:
        return int(self.masked.sum())

    def masked_indices(self) -> np.ndarray:
        return np.flatnonzero(self.masked)

    def visible_indices(self) -> np.ndarray:
        return np.flatnonzero(~self.masked)

    def bitstring(self) -> str:
        return "".join("1" if m else "0" for m in self.masked)

    @classmethod
    def from_bitstring(cls, bits: str) -> "MaskPlan":
        if not bits or set(bits) - {"0", "1"}:
            raise InvalidArgument(f"bad mask bitstring '{bits}'")
        return cls(masked=np.array([b == "1" for b in bits]))


def _target(g: int, ratio: float) -> int:
    if not 0.0 < ratio < 1.0:
        raise InvalidArgument(f"mask ratio must be in (0, 1), got {ratio}")
    n = round_half_up(ratio * g)
    if not 1 <= n <= g - 1:
        raise InvalidArgument(f"ratio {ratio} over {g} tokens masks {n}; need 1..{g - 1}")
    return n


def random_mask(g: int, ratio: float, rng: np.random.Generator) -> MaskPlan:
    """Uniform masking without replacement."""
    n = _target(g, ratio)
    masked = np.zeros(g, dtype=bool)
    masked[rng.choice(g, size=n, replace=False)] = True
    return MaskPlan(masked=masked)


def block_mask(centers: np.ndarray, ratio: float, rng: np.random.Generator) -> MaskPlan:
    """Mask a spatially contiguous block around a random anchor token."""
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
    return MaskPlan(masked=masked)


def csem_mask(assignment: np.ndarray, full_components: int, ratio: float,
              rng: np.random.Generator) -> MaskPlan:
    """Component-aware masking.

    Mask all tokens of ``full_components`` uniformly chosen nonempty
    components whose combined size fits the budget (rejection sampling with a
    retry cap, reducing the count when no combination fits), then distribute
    the remaining budget across the other nonempty components proportionally
    to their sizes by largest-remainder apportionment (remainder ties to the
    lowest component id) and mask uniformly inside each.

    If every token sits in one component, falls back to ``random_mask`` with a
    logged warning.  With two or more nonempty components the caller must
    leave at least one component unselected (``full_components`` < number of
    nonempty components).
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
        return random_mask(g, ratio, rng)
    if full_components >= q_ne:
        raise InvalidArgument(
            f"cannot fully mask {full_components} of {q_ne} nonempty components")

    size_of = {int(i): int(s) for i, s in zip(ids, sizes)}

    selected: list[int] = []
    m_c = full_components
    while m_c > 0:
        found = False
        for _ in range(q_ne * 10):
            pick = rng.choice(ids, size=m_c, replace=False)
            if sum(size_of[int(c)] for c in pick) <= target:
                selected = sorted(int(c) for c in pick)
                found = True
                break
        if found:
            break
        m_c -= 1

    masked = np.zeros(g, dtype=bool)
    for comp in selected:
        masked[assignment == comp] = True
    deficit = target - int(masked.sum())

    remaining = [int(c) for c in ids if int(c) not in selected]
    takes = apportion(deficit, [size_of[c] for c in remaining])
    for comp, take in zip(remaining, takes):  # ascending id: deterministic RNG consumption
        if take:
            tokens = np.flatnonzero(assignment == comp)
            masked[rng.choice(tokens, size=take, replace=False)] = True
    return MaskPlan(masked=masked, fully_masked_components=tuple(selected))


def make_plan(strategy: str, assignment: np.ndarray, centers: np.ndarray, ratio: float,
              full_components: int, rng: np.random.Generator) -> MaskPlan:
    """One cloud's plan under ``strategy``, one of ``STRATEGIES``.

    The strategy function is looked up in this module when called, so a
    wrapper set on ``masking.csem_mask`` (say) sees every plan.
    """
    if strategy == "randm":
        return random_mask(assignment.size, ratio, rng)
    if strategy == "randbm":
        return block_mask(centers, ratio, rng)
    if strategy == "csem":
        return csem_mask(assignment, full_components, ratio, rng)
    raise InvalidArgument(f"unknown mask strategy '{strategy}' (have {', '.join(STRATEGIES)})")


def component_coverage(plan: MaskPlan, assignment: np.ndarray) -> tuple[float | None, float]:
    """(coverage of the plan's selected components, best coverage overall).

    The first value is the minimum masked fraction over the components the
    plan claims to have fully masked (None when it selected none); the second
    is the maximum masked fraction over all nonempty components, a comparable
    number for strategies that never select components.
    """
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.shape != plan.masked.shape:
        raise InvalidArgument(f"assignment of shape {assignment.shape} for a plan over "
                              f"{plan.masked.shape[0]} tokens")
    ids = np.unique(assignment)
    fractions = {int(c): float(plan.masked[assignment == c].mean()) for c in ids}
    best = max(fractions.values())
    if plan.fully_masked_components:
        missing = set(plan.fully_masked_components) - fractions.keys()
        if missing:
            raise InvalidArgument(f"plan selects components {sorted(missing)} "
                                  f"absent from the assignment")
        sel = min(fractions[c] for c in plan.fully_masked_components)
        return sel, best
    return None, best
