"""Masking strategies: exact budgets, component coverage, determinism."""

import dataclasses
import logging

import numpy as np
import pytest

from protomae import masking, pipeline
from protomae.config import preset
from protomae.errors import InvalidArgument
from protomae.masking import (
    STRATEGIES,
    MaskPlan,
    block_mask,
    component_coverage,
    csem_mask,
    make_plan,
    random_mask,
    round_half_up,
)


def test_round_half_up():
    assert round_half_up(0.5) == 1
    assert round_half_up(1.49) == 1
    assert round_half_up(1.5) == 2
    assert round_half_up(2.5) == 3
    assert round_half_up(19.2) == 19
    assert round_half_up(38.4) == 38


def test_plan_rejects_degenerate_masks():
    with pytest.raises(InvalidArgument):
        MaskPlan(masked=np.ones(8, dtype=bool))
    with pytest.raises(InvalidArgument):
        MaskPlan(masked=np.zeros(8, dtype=bool))


def test_bitstring_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(50):
        plan = random_mask(17, 0.4, rng)
        again = MaskPlan.from_bitstring(plan.bitstring())
        assert np.array_equal(again.masked, plan.masked)


def test_bad_bitstrings_rejected():
    for bits in ("", "01x", "2"):
        with pytest.raises(InvalidArgument):
            MaskPlan.from_bitstring(bits)


def test_random_mask_exact_count_and_determinism():
    for seed in range(200):
        g = 4 + seed % 60
        ratio = (0.15, 0.5, 0.6, 0.85)[seed % 4]
        a = random_mask(g, ratio, np.random.default_rng(seed))
        b = random_mask(g, ratio, np.random.default_rng(seed))
        assert a.n_masked == round_half_up(ratio * g)
        assert np.array_equal(a.masked, b.masked)


def test_random_mask_touches_every_index():
    rng = np.random.default_rng(0)
    hits = np.zeros(10)
    for _ in range(2000):
        hits += random_mask(10, 0.5, rng).masked
    assert hits.min() > 0


def test_mask_ratio_bounds():
    rng = np.random.default_rng(0)
    for ratio in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(InvalidArgument):
            random_mask(16, ratio, rng)
    # a tiny ratio over few tokens rounds to zero masked
    with pytest.raises(InvalidArgument):
        random_mask(4, 0.05, rng)


def test_block_mask_is_a_nearest_neighbourhood():
    rng = np.random.default_rng(3)
    for trial in range(40):
        centers = np.random.default_rng(trial).normal(size=(24, 3))
        plan = block_mask(centers, 0.5, rng)
        n = plan.n_masked
        assert n == 12
        ok = False
        for anchor in plan.masked_indices():
            d = ((centers - centers[anchor]) ** 2).sum(axis=1)
            nearest = np.lexsort((np.arange(24), d))[:n]
            if np.array_equal(np.sort(nearest), plan.masked_indices()):
                ok = True
                break
        assert ok, "masked set is not any anchor's nearest neighbourhood"


def test_block_mask_bad_centers():
    with pytest.raises(InvalidArgument):
        block_mask(np.zeros((5, 2)), 0.5, np.random.default_rng(0))


def test_csem_four_equal_components():
    # 4 components x 16 tokens, ratio 0.6: budget 38 = one full component
    # (16) plus 22 spread as 8/7/7, the extra token on the lowest id.
    assignment = np.repeat([0, 1, 2, 3], 16)
    for seed in range(100):
        plan = csem_mask(assignment, 1, 0.6, np.random.default_rng(seed))
        assert plan.n_masked == 38
        assert len(plan.fully_masked_components) == 1
        sel = plan.fully_masked_components[0]
        assert plan.masked[assignment == sel].all()
        rest = sorted(c for c in range(4) if c != sel)
        got = [int(plan.masked[assignment == c].sum()) for c in rest]
        assert got == [8, 7, 7]
        assert plan.masked[assignment == sel].sum() == 16


def test_csem_selection_is_uniform():
    assignment = np.repeat([0, 1, 2, 3], 8)
    counts = np.zeros(4)
    for seed in range(10000):
        plan = csem_mask(assignment, 1, 0.6, np.random.default_rng(seed))
        counts[plan.fully_masked_components[0]] += 1
    # binomial(10000, 1/4): sd ~ 43.3, allow 3 sigma
    assert np.all(np.abs(counts - 2500) < 130), counts


def test_csem_invariants_random_instances():
    for seed in range(300):
        rng = np.random.default_rng(seed)
        g = int(rng.integers(8, 97))
        q = int(rng.integers(2, 7))
        assignment = rng.integers(0, q, size=g)
        ratio = float(rng.uniform(0.3, 0.8))
        target = round_half_up(ratio * g)
        if not 1 <= target <= g - 1:
            continue
        ids, sizes = np.unique(assignment, return_counts=True)
        if ids.size < 2:
            continue
        plan = csem_mask(assignment, 1, ratio, np.random.default_rng(seed + 1))
        again = csem_mask(assignment, 1, ratio, np.random.default_rng(seed + 1))
        assert np.array_equal(plan.masked, again.masked)
        assert plan.n_masked == target
        for comp in plan.fully_masked_components:
            assert plan.masked[assignment == comp].all()
        # within-component counts follow the proportional quota to < 1 token
        deficit = target - sum(int(sizes[list(ids).index(c)])
                               for c in plan.fully_masked_components)
        pool = sum(int(s) for i, s in zip(ids, sizes)
                   if int(i) not in plan.fully_masked_components)
        for i, s in zip(ids, sizes):
            c = int(i)
            if c in plan.fully_masked_components:
                continue
            quota = deficit * int(s) / pool
            assert abs(plan.masked[assignment == c].sum() - quota) < 1.0


def test_csem_single_component_falls_back(caplog):
    assignment = np.zeros(20, dtype=np.int64)
    with caplog.at_level(logging.WARNING, logger="protomae.masking"):
        plan = csem_mask(assignment, 1, 0.6, np.random.default_rng(4))
    assert plan.n_masked == 12
    assert plan.fully_masked_components == ()
    assert any("falling back" in r.message for r in caplog.records)


def test_csem_rejects_masking_every_component():
    assignment = np.repeat([0, 1], 10)
    with pytest.raises(InvalidArgument):
        csem_mask(assignment, 2, 0.6, np.random.default_rng(0))


def test_csem_noncontiguous_component_ids():
    assignment = np.repeat([2, 9, 40], 10)
    plan = csem_mask(assignment, 1, 0.5, np.random.default_rng(8))
    assert plan.n_masked == 15
    assert plan.fully_masked_components[0] in (2, 9, 40)
    assert set(assignment[plan.masked].tolist()) == {2, 9, 40}


def test_csem_zero_full_components_is_pure_stratification():
    assignment = np.repeat([0, 1, 2, 3], 16)
    plan = csem_mask(assignment, 0, 0.5, np.random.default_rng(2))
    assert plan.n_masked == 32
    assert plan.fully_masked_components == ()
    assert [int(plan.masked[assignment == c].sum()) for c in range(4)] == [8, 8, 8, 8]


def test_component_coverage_values():
    assignment = np.repeat([0, 1, 2, 3], 16)
    plan = csem_mask(assignment, 1, 0.6, np.random.default_rng(11))
    sel, best = component_coverage(plan, assignment)
    assert sel == 1.0 and best == 1.0
    rnd = random_mask(64, 0.6, np.random.default_rng(11))
    sel, best = component_coverage(rnd, assignment)
    assert sel is None
    assert 0.0 <= best <= 1.0


@pytest.mark.parametrize("size", [0, 63, 65])
def test_component_coverage_rejects_a_wrongly_sized_assignment(size):
    plan = random_mask(64, 0.6, np.random.default_rng(11))
    with pytest.raises(InvalidArgument, match=f"shape \\({size},\\) for a plan over 64"):
        component_coverage(plan, np.zeros(size, dtype=np.int64))


def test_component_coverage_rejects_selected_components_absent_from_the_assignment():
    plan = csem_mask(np.repeat([0, 1, 2, 3], 16), 1, 0.6, np.random.default_rng(11))
    with pytest.raises(InvalidArgument, match=r"components \[0\] absent"):
        component_coverage(plan, np.full(64, 5, dtype=np.int64))


def test_masked_and_visible_partition():
    rng = np.random.default_rng(9)
    for _ in range(50):
        plan = random_mask(33, 0.6, rng)
        both = np.concatenate([plan.masked_indices(), plan.visible_indices()])
        assert np.array_equal(np.sort(both), np.arange(33))


def test_make_plan_dispatches_every_strategy_and_rejects_unknown():
    assignment = np.array([0, 0, 0, 1, 1, 1, 2, 2])
    centers = np.random.default_rng(0).normal(size=(8, 3))
    for strategy in STRATEGIES:
        plan = make_plan(strategy, assignment, centers, 0.5, 1, np.random.default_rng(1))
        assert plan.n_masked == 4, strategy
    with pytest.raises(InvalidArgument, match="blockwise"):
        make_plan("blockwise", assignment, centers, 0.5, 1, np.random.default_rng(1))


def test_make_plan_resolves_strategies_at_call_time(monkeypatch):
    # a wrapper set on the module attribute (as a profiler would set it)
    # must see every plan a pretrain run draws
    calls = []

    def recording(*args, **kwargs):
        calls.append(args)
        return csem_mask(*args, **kwargs)

    monkeypatch.setattr(masking, "csem_mask", recording)
    cfg = dataclasses.replace(preset("toy"), mask_strategy="csem").validate()
    res = pipeline.pretrain(cfg)
    assert len(calls) == len(res.mask_log) > 0
