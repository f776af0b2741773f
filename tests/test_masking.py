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
    block_mask,
    component_coverage,
    csem_mask,
    make_plans,
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


def random_batch(seed, b=6, g=24, q=5):
    rng = np.random.default_rng(seed)
    return rng.integers(0, q, size=(b, g)), rng.normal(size=(b, g, 3))


def test_random_mask_exact_count_and_determinism():
    for seed in range(200):
        g = 4 + seed % 60
        ratio = (0.15, 0.5, 0.6, 0.85)[seed % 4]
        a = random_mask(g, ratio, np.random.default_rng(seed))
        b = random_mask(g, ratio, np.random.default_rng(seed))
        assert a.dtype == bool and a.shape == (g,)
        assert a.sum() == round_half_up(ratio * g)
        assert np.array_equal(a, b)


def test_random_mask_touches_every_index():
    rng = np.random.default_rng(0)
    hits = np.zeros(10)
    for _ in range(2000):
        hits += random_mask(10, 0.5, rng)
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
        masked = block_mask(centers, 0.5, rng)
        n = int(masked.sum())
        assert n == 12
        ok = False
        for anchor in np.flatnonzero(masked):
            d = ((centers - centers[anchor]) ** 2).sum(axis=1)
            nearest = np.lexsort((np.arange(24), d))[:n]
            if np.array_equal(np.sort(nearest), np.flatnonzero(masked)):
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
        masked, selected = csem_mask(assignment, 1, 0.6, np.random.default_rng(seed))
        assert masked.sum() == 38
        assert selected.shape == (1,)
        sel = int(selected[0])
        assert masked[assignment == sel].all()
        rest = sorted(c for c in range(4) if c != sel)
        got = [int(masked[assignment == c].sum()) for c in rest]
        assert got == [8, 7, 7]
        assert masked[assignment == sel].sum() == 16


def test_csem_selection_is_uniform():
    assignment = np.repeat([0, 1, 2, 3], 8)
    counts = np.zeros(4)
    for seed in range(10000):
        _, selected = csem_mask(assignment, 1, 0.6, np.random.default_rng(seed))
        counts[selected[0]] += 1
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
        masked, selected = csem_mask(assignment, 1, ratio, np.random.default_rng(seed + 1))
        again, again_selected = csem_mask(assignment, 1, ratio, np.random.default_rng(seed + 1))
        assert np.array_equal(masked, again)
        assert np.array_equal(selected, again_selected)
        assert masked.sum() == target
        for comp in selected:
            assert masked[assignment == comp].all()
        # within-component counts follow the proportional quota to < 1 token
        size_of = dict(zip(ids.tolist(), sizes.tolist()))
        deficit = target - sum(size_of[c] for c in selected.tolist())
        pool = sum(s for c, s in size_of.items() if c not in selected)
        for c, s in size_of.items():
            if c in selected:
                continue
            quota = deficit * s / pool
            assert abs(masked[assignment == c].sum() - quota) < 1.0


def test_csem_single_component_falls_back(caplog):
    assignment = np.zeros(20, dtype=np.int64)
    with caplog.at_level(logging.WARNING, logger="protomae.masking"):
        masked, selected = csem_mask(assignment, 1, 0.6, np.random.default_rng(4))
    assert masked.sum() == 12
    assert selected.size == 0
    assert any("falling back" in r.message for r in caplog.records)


@pytest.mark.parametrize("seed", range(20))
def test_csem_keeps_one_component_partly_visible(seed):
    # two nonempty components (ids 1 and 3 of 4) and three asked for: one is
    # masked whole, the other partly, and the budget holds exactly
    assignment = np.repeat([1, 3], [7, 9])
    target = round_half_up(0.6 * assignment.size)
    masked, selected = csem_mask(assignment, 3, 0.6, np.random.default_rng(seed))
    assert masked.sum() == target
    assert selected.size == 1 and int(selected[0]) in (1, 3)
    assert masked[assignment == selected[0]].all()
    other = assignment != selected[0]
    assert 0 < masked[other].sum() < other.sum()


def test_csem_noncontiguous_component_ids():
    assignment = np.repeat([2, 9, 40], 10)
    masked, selected = csem_mask(assignment, 1, 0.5, np.random.default_rng(8))
    assert masked.sum() == 15
    assert int(selected[0]) in (2, 9, 40)
    assert set(assignment[masked].tolist()) == {2, 9, 40}


def test_csem_zero_full_components_is_pure_stratification():
    assignment = np.repeat([0, 1, 2, 3], 16)
    masked, selected = csem_mask(assignment, 0, 0.5, np.random.default_rng(2))
    assert masked.sum() == 32
    assert selected.size == 0
    assert [int(masked[assignment == c].sum()) for c in range(4)] == [8, 8, 8, 8]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_make_plans_hide_the_exact_budget_in_every_row(strategy):
    for seed in range(30):
        assignment, centers = random_batch(seed)
        ratio = (0.3, 0.5, 0.6, 0.8)[seed % 4]
        target = round_half_up(ratio * assignment.shape[1])
        masked, selected = make_plans(strategy, assignment, centers, ratio, 1,
                                      np.random.default_rng(seed))
        assert masked.dtype == bool and masked.shape == assignment.shape
        assert selected.dtype == bool
        assert selected.shape == (len(assignment), assignment.max() + 1)
        assert np.all(masked.sum(axis=1) == target)
        assert 1 <= target <= assignment.shape[1] - 1
        if strategy != "csem":
            assert not selected.any()
        for row, chosen, groups in zip(masked, selected, assignment):
            assert row[np.isin(groups, np.flatnonzero(chosen))].all()
        again = make_plans(strategy, assignment, centers, ratio, 1, np.random.default_rng(seed))
        assert np.array_equal(again[0], masked) and np.array_equal(again[1], selected)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_make_plans_draw_cloud_by_cloud_in_batch_order(strategy):
    assignment, centers = random_batch(7)
    masked, selected = make_plans(strategy, assignment, centers, 0.6, 1,
                                  np.random.default_rng(11))
    rng = np.random.default_rng(11)
    for j in range(len(assignment)):
        if strategy == "randm":
            want, want_ids = random_mask(assignment.shape[1], 0.6, rng), []
        elif strategy == "randbm":
            want, want_ids = block_mask(centers[j], 0.6, rng), []
        else:
            want, want_ids = csem_mask(assignment[j], 1, 0.6, rng)
        assert np.array_equal(masked[j], want)
        assert np.flatnonzero(selected[j]).tolist() == list(want_ids)


def test_visible_and_masked_indices_partition_every_row():
    assignment, centers = random_batch(9, b=5, g=33)
    masked, _ = make_plans("randm", assignment, centers, 0.6, 1, np.random.default_rng(9))
    vis = np.nonzero(~masked)[1].reshape(5, -1)
    msk = np.nonzero(masked)[1].reshape(5, -1)
    assert vis.shape == (5, 13) and msk.shape == (5, 20)
    for j in range(5):
        assert np.array_equal(np.sort(np.concatenate([msk[j], vis[j]])), np.arange(33))
        assert np.array_equal(msk[j], np.flatnonzero(masked[j]))


def test_make_plans_rejects_an_unknown_strategy():
    assignment, centers = random_batch(0)
    with pytest.raises(InvalidArgument, match="blockwise"):
        make_plans("blockwise", assignment, centers, 0.5, 1, np.random.default_rng(1))


def test_component_coverage_values():
    assignment = np.repeat([0, 1, 2, 3], 16)[None]
    masked, selected = make_plans("csem", assignment, None, 0.6, 1, np.random.default_rng(11))
    sel, best = component_coverage(masked, selected, assignment)
    assert sel.tolist() == [1.0] and best.tolist() == [1.0]
    masked, selected = make_plans("randm", assignment, None, 0.6, 1, np.random.default_rng(11))
    sel, best = component_coverage(masked, selected, assignment)
    assert np.isnan(sel[0])
    assert 0.0 <= best[0] <= 1.0


def test_component_coverage_of_a_stack_equals_each_row():
    # the per-cloud formula the mask log used before batching, on stacks
    # with absent components and plans that select nothing
    for seed in range(20):
        rng = np.random.default_rng(seed)
        assignment = rng.integers(0, 3, size=(6, 20)) * 2 + 1  # ids 0, 2 and 4 never occur
        masked = rng.random((6, 20)) < 0.5
        selected = np.zeros((6, 6), dtype=bool)
        for j in range(1, 6):
            chosen = rng.choice(np.unique(assignment[j]), size=1 + j % 2, replace=False)
            masked[j, np.isin(assignment[j], chosen)] = True
            selected[j, chosen] = True
        sel, best = component_coverage(masked, selected, assignment)
        for j in range(6):
            fractions = {c: float(masked[j][assignment[j] == c].mean())
                         for c in np.unique(assignment[j]).tolist()}
            assert best[j] == max(fractions.values())
            chosen = np.flatnonzero(selected[j]).tolist()
            if chosen:
                assert sel[j] == min(fractions[c] for c in chosen) == 1.0
            else:
                assert np.isnan(sel[j])
            row_sel, row_best = component_coverage(masked[j], selected[j], assignment[j])
            assert row_best == best[j] and np.array_equal(row_sel, sel[j], equal_nan=True)
    partial = masked.copy()
    partial[1, np.flatnonzero(np.isin(assignment[1], np.flatnonzero(selected[1])))[0]] = False
    assert component_coverage(partial, selected, assignment)[0][1] < 1.0


@pytest.mark.parametrize("shape", [(2, 0), (2, 63), (2, 65), (3, 64)])
def test_component_coverage_rejects_a_wrongly_shaped_assignment(shape):
    masked = np.zeros((2, 64), dtype=bool)
    selected = np.zeros((2, 4), dtype=bool)
    with pytest.raises(InvalidArgument, match=f"assignment of shape \\({shape[0]}, {shape[1]}\\)"):
        component_coverage(masked, selected, np.zeros(shape, dtype=np.int64))


@pytest.mark.parametrize("masks, components", [((2, 0), 4), ((2, 0), 0), ((0, 64), 4)])
def test_component_coverage_rejects_an_empty_assignment(masks, components):
    # masks, selection and assignment agree in shape but hold no token
    masked = np.zeros(masks, dtype=bool)
    selected = np.zeros((masks[0], components), dtype=bool)
    with pytest.raises(InvalidArgument, match=f"empty assignment of shape \\({masks[0]}, {masks[1]}\\)"):
        component_coverage(masked, selected, np.zeros(masks, dtype=np.int64))


def test_component_coverage_rejects_selected_components_absent_from_the_assignment():
    assignment = np.array([[0, 0, 1, 1, 2, 2, 0, 1]])
    masked = np.repeat([[True, False]], 4, axis=1)
    selected = np.array([[False, True, False, True]])
    with pytest.raises(InvalidArgument, match=r"components \[3\] absent"):
        component_coverage(masked, selected, assignment)
    with pytest.raises(InvalidArgument, match=r"assignment ids outside \[0, 4\)"):
        component_coverage(masked, selected, assignment + 2)


def test_make_plans_resolves_strategies_at_call_time(monkeypatch):
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


def test_mask_log_rows_spell_out_the_step_arrays(monkeypatch):
    drawn = []

    def recording(*args, **kwargs):
        drawn.append(make_plans(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(masking, "make_plans", recording)
    cfg = dataclasses.replace(preset("toy"), mask_strategy="csem").validate()
    rows = pipeline.pretrain(cfg).mask_log
    masked = np.concatenate([m for m, _ in drawn])
    selected = [np.flatnonzero(row).tolist() for _, sel in drawn for row in sel]
    assert len(rows) == len(masked) == len(selected)
    for row, bits, ids in zip(rows, masked, selected):
        assert row["bits"] == "".join("1" if b else "0" for b in bits)
        assert row["selected"] == ids
        assert (row["coverage_selected"] == 1.0) if ids else row["coverage_selected"] is None


def test_a_plan_that_selects_nothing_logs_no_selected_coverage():
    cfg = dataclasses.replace(preset("toy"), full_mask_components=0).validate()
    rows = pipeline.pretrain(cfg).mask_log
    assert rows and all(r["selected"] == [] and r["coverage_selected"] is None for r in rows)
    assert all(0.0 < r["coverage_max"] <= 1.0 for r in rows)


def test_pretrain_with_more_whole_components_than_a_cloud_holds():
    # a toy cloud often groups into two or three nonempty components; three
    # whole components are then capped so one stays partly visible
    cfg = dataclasses.replace(preset("toy"), full_mask_components=3).validate()
    rows = pipeline.pretrain(cfg).mask_log
    target = round_half_up(cfg.mask_ratio * cfg.n_patches)
    assert all(r["bits"].count("1") == target for r in rows)
    assert all(r["coverage_selected"] == 1.0 for r in rows if r["selected"])
    assert any(r["selected"] for r in rows)
