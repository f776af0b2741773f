"""Clustering metrics against hand-computed values.

NMI and purity are simple enough to evaluate by hand on 2x2
contingency tables; those hand numbers are frozen here so the
vectorized implementations cannot drift silently.
"""

import math

import numpy as np
import pytest

from protomae import metrics
from protomae.errors import InvalidArgument


# ---------------------------------------------------------------- NMI

def test_nmi_identical_partitions_is_one():
    a = np.array([0, 0, 1, 1, 2, 2])
    assert metrics.nmi(a, a) == pytest.approx(1.0, abs=1e-12)


def test_nmi_invariant_to_relabeling():
    a = np.array([0, 0, 1, 1])
    b = np.array([5, 5, 3, 3])
    assert metrics.nmi(a, b) == pytest.approx(1.0, abs=1e-12)


def test_nmi_hand_computed_2x2():
    # contingency [[2, 1], [1, 2]]; n = 6
    a = np.array([0, 0, 0, 1, 1, 1])
    b = np.array([0, 0, 1, 0, 1, 1])
    n = 6.0
    mi = 0.0
    table = np.array([[2.0, 1.0], [1.0, 2.0]])
    pa = table.sum(axis=1) / n
    pb = table.sum(axis=0) / n
    for i in range(2):
        for j in range(2):
            pij = table[i, j] / n
            mi += pij * math.log(pij / (pa[i] * pb[j]))
    h = -sum(p * math.log(p) for p in pa)
    expected = 2.0 * mi / (h + h)
    assert metrics.nmi(a, b) == pytest.approx(expected, abs=1e-12)


def test_nmi_degenerate_partition_is_zero():
    a = np.zeros(8, dtype=int)
    b = np.array([0, 1] * 4)
    assert metrics.nmi(a, b) == 0.0
    assert metrics.nmi(b, a) == 0.0
    assert metrics.nmi(a, a) == 0.0


def test_nmi_rejects_length_mismatch():
    with pytest.raises(InvalidArgument):
        metrics.nmi(np.zeros(4, dtype=int), np.zeros(5, dtype=int))


def test_nmi_independent_blocks_below_identity():
    rng = np.random.default_rng(3)
    a = rng.integers(0, 4, size=400)
    b = rng.integers(0, 4, size=400)
    v = metrics.nmi(a, b)
    assert 0.0 <= v < 0.2


# ------------------------------------------------------------- purity

def test_purity_hand_computed():
    # groups {0: labels 0,0,1} {1: labels 1,1}; majority hits 2 + 2 = 4 of 5
    assign = np.array([0, 0, 0, 1, 1])
    labels = np.array([0, 0, 1, 1, 1])
    assert metrics.purity(assign, labels) == pytest.approx(4.0 / 5.0, abs=1e-15)


def test_purity_perfect_and_worst():
    assign = np.array([0, 0, 1, 1])
    assert metrics.purity(assign, np.array([3, 3, 7, 7])) == 1.0
    # every group sees each label once: best any majority can do is 1/2
    assign = np.array([0, 1, 0, 1])
    labels = np.array([0, 0, 1, 1])
    assert metrics.purity(assign, labels) == pytest.approx(0.5, abs=1e-15)


# ------------------------------------------------------------ entropy

def test_group_entropy_uniform_is_log_q():
    assign = np.array([0, 1, 2, 3] * 5)
    assert metrics.group_entropy(assign, 4) == pytest.approx(math.log(4.0), abs=1e-12)


def test_group_entropy_collapsed_is_zero():
    assert metrics.group_entropy(np.zeros(16, dtype=int), 4) == 0.0


def test_group_entropy_counts_absent_groups():
    # two of four groups used evenly: entropy log 2, not log 4
    assign = np.array([0, 2] * 8)
    assert metrics.group_entropy(assign, 4) == pytest.approx(math.log(2.0), abs=1e-12)


def test_group_entropy_rejects_out_of_range():
    with pytest.raises(InvalidArgument):
        metrics.group_entropy(np.array([0, 4]), 4)
    with pytest.raises(InvalidArgument):
        metrics.group_entropy(np.array([-1, 0]), 4)


# ------------------------------------------------------ batched rows

def stacked_assignments(seed, b=9, g=32, q=6):
    """(B, G) ids with a collapsed row and rows that leave some ids empty."""
    rng = np.random.default_rng(seed)
    pred = rng.integers(0, q, size=(b, g))
    pred[0] = 2
    pred[1] = rng.integers(0, 2, size=g) * 3
    truth = rng.integers(0, 4, size=(b, g)) * 5 - 3
    truth[2] = 7
    return pred, truth


def test_batched_group_entropy_equals_each_row_bit_for_bit():
    for seed in range(20):
        pred, _ = stacked_assignments(seed)
        got = metrics.group_entropy(pred, 6)
        assert got.shape == (len(pred),)
        for row, value in zip(pred, got):
            # the per-cloud formula the training loop used before batching
            p = np.bincount(row, minlength=6) / row.size
            assert value == float(-np.sum(p * np.log(p, where=p > 0, out=np.zeros_like(p))))
            assert value == metrics.group_entropy(row, 6)
        assert got[0] == 0.0


def test_batched_purity_equals_each_row_bit_for_bit():
    for seed in range(20):
        pred, truth = stacked_assignments(seed)
        got = metrics.purity(pred, truth)
        assert got.shape == (len(pred),)
        for row, labels, value in zip(pred, truth, got):
            table = metrics._contingency(row, labels)
            assert value == float(table.max(axis=1).sum() / table.sum())
            assert value == metrics.purity(row, labels)
        assert got[2] == 1.0


def test_batched_purity_does_not_rely_on_a_shaped_unique_inverse(monkeypatch):
    # NumPy < 2 returns np.unique's inverse flat for a (B, G) input
    pred, truth = stacked_assignments(0)
    expected = metrics.purity(pred, truth)
    unique = np.unique

    def flat_inverse(a, return_inverse=False):
        ids, inverse = unique(a, return_inverse=True)
        return (ids, inverse.ravel()) if return_inverse else ids

    monkeypatch.setattr(np, "unique", flat_inverse)
    assert np.array_equal(metrics.purity(pred, truth), expected)


def test_purity_rejects_mismatched_or_empty_assignments():
    with pytest.raises(InvalidArgument, match="equal nonempty shapes"):
        metrics.purity(np.zeros((2, 4), dtype=int), np.zeros((2, 5), dtype=int))
    with pytest.raises(InvalidArgument, match="empty"):
        metrics.purity(np.zeros((2, 0), dtype=int), np.zeros((2, 0), dtype=int))


def test_bincount_rows_counts_and_weighs_each_row():
    ids = np.array([[0, 2, 2, 1], [3, 3, 3, 3]])
    assert metrics.bincount_rows(ids, 4).tolist() == [[1, 1, 2, 0], [0, 0, 0, 4]]
    weights = np.array([[True, True, False, False], [True, False, True, False]])
    assert metrics.bincount_rows(ids, 4, weights).tolist() == [[1, 0, 1, 0], [0, 0, 0, 2]]


# ----------------------------------------------------------- baseline

def test_random_baseline_deterministic_and_bounded():
    labels = np.array([0, 0, 1, 1, 2, 2, 3, 3] * 4)
    a = metrics.random_nmi_baseline(labels, 4, draws=50, rng=np.random.default_rng(9))
    b = metrics.random_nmi_baseline(labels, 4, draws=50, rng=np.random.default_rng(9))
    assert a == b
    assert 0.0 <= a < 0.5


def test_random_baseline_far_below_true_grouping():
    labels = np.repeat(np.arange(4), 32)
    base = metrics.random_nmi_baseline(labels, 4, draws=100, rng=np.random.default_rng(0))
    assert base < metrics.nmi(labels, labels)


def random_baseline_cases():
    for seed in range(12):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, int(rng.integers(1, 6)), size=int(rng.integers(2, 90))) + 2
        yield labels, int(rng.integers(2, 9)), int(rng.integers(1, 40)), seed + 50
    # odd and even sizes, power-of-two and other group counts, and the
    # single group, which draws nothing
    for groups in (1, 2, 3, 4, 5, 8, 13, 16):
        for n in (1, 2, 7, 32, 69):
            yield np.arange(n) % 3, groups, 3, groups * 100 + n


def test_random_baseline_equals_mean_of_per_draw_nmi():
    # the one-call baseline consumes the generator exactly as a per-draw
    # loop would, and scores every draw like metrics.nmi
    for labels, groups, draws, seed in random_baseline_cases():
        one_call = np.random.default_rng(seed)
        got = metrics.random_nmi_baseline(labels, groups, draws, one_call)
        loop = np.random.default_rng(seed)
        expected = np.mean([metrics.nmi(loop.integers(0, groups, labels.size), labels)
                            for _ in range(draws)])
        assert abs(got - expected) <= 1e-12, seed
        assert one_call.bit_generator.state == loop.bit_generator.state, seed


def test_random_baseline_single_group_is_exactly_zero():
    # a one-group draw has zero entropy, so it scores exactly 0 as in nmi;
    # marginals summed from the rounded joint table miss that by ulps
    for seed in range(200):
        rng = np.random.default_rng(seed)
        truth = rng.choice(5, size=int(rng.integers(2, 200)), p=[0.6, 0.2, 0.1, 0.07, 0.03])
        assert metrics.random_nmi_baseline(truth, 1, 3, rng) == 0.0, seed


def test_random_baseline_rejects_degenerate_arguments():
    labels = np.array([0, 1, 0, 1])
    with pytest.raises(InvalidArgument, match="draws"):
        metrics.random_nmi_baseline(labels, 4, draws=0, rng=np.random.default_rng(0))
    with pytest.raises(InvalidArgument, match="n_groups"):
        metrics.random_nmi_baseline(labels, 0, draws=5, rng=np.random.default_rng(0))
    with pytest.raises(InvalidArgument, match="empty truth"):
        metrics.random_nmi_baseline(np.array([], dtype=np.int64), 4, draws=5,
                                    rng=np.random.default_rng(0))


def test_contingency_equals_add_at_table():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(1, 200))
        a = rng.integers(-3, int(rng.integers(-2, 12)), n)
        b = rng.choice([-7, 0, 2, 5, 40], n)
        ua, ia = np.unique(a, return_inverse=True)
        ub, ib = np.unique(b, return_inverse=True)
        expected = np.zeros((ua.size, ub.size))
        np.add.at(expected, (ia, ib), 1.0)
        got = metrics._contingency(a, b)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, expected)
