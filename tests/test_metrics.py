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


def add_at_table(a, b):
    """The contingency table of two id vectors, one ``np.add.at`` per element."""
    ua, ia = np.unique(a, return_inverse=True)
    ub, ib = np.unique(b, return_inverse=True)
    table = np.zeros((ua.size, ub.size))
    np.add.at(table, (ia, ib), 1.0)
    return table


def textbook_nmi(a, b):
    """2·MI/(H(a)+H(b)) of an ``add_at_table``, term by term; 0 for a degenerate side."""
    table = add_at_table(a, b)
    n = table.sum()
    pa, pb = table.sum(axis=1) / n, table.sum(axis=0) / n
    ha = -sum(p * math.log(p) for p in pa)
    hb = -sum(p * math.log(p) for p in pb)
    if ha == 0.0 or hb == 0.0:
        return 0.0
    mi = sum(table[i, j] / n * math.log(table[i, j] / n / (pa[i] * pb[j]))
             for i, j in zip(*np.nonzero(table)))
    return 2.0 * mi / (ha + hb)


def test_batched_nmi_rows_equal_each_row_scored_alone():
    # ids compacted over the whole stack leave empty rows and columns in a
    # row's table; they change the summation order only
    for seed in range(20):
        pred, truth = stacked_assignments(seed)
        got = metrics.nmi(pred, truth)
        assert got.shape == (len(pred),)
        for row, labels, value in zip(pred, truth, got):
            assert abs(value - metrics.nmi(row, labels)) <= 1e-15, seed
        assert got[0] == 0.0 and got[2] == 0.0
        # leading axes broadcast: two stacks of predictions against one of truths
        both = metrics.nmi(np.stack([pred, pred[::-1]]), truth)
        alone = [[metrics.nmi(row, labels) for row, labels in zip(stack, truth)]
                 for stack in (pred, pred[::-1])]
        assert both.shape == (2, len(pred))
        assert np.all(np.abs(both - alone) <= 1e-15), seed


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
            table = add_at_table(row, labels)
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


def test_stacked_random_baseline_equals_one_call_per_row():
    # one (B, draws, G) draw picks what B per-row calls pick, in row order
    for seed in range(12):
        _, truth = stacked_assignments(seed)
        groups, draws = (1, 2, 3, 4, 6, 8)[seed % 6], 1 + 3 * seed
        one_call = np.random.default_rng(seed)
        got = metrics.random_nmi_baseline(truth, groups, draws, one_call)
        assert got.shape == (len(truth),)
        per_row = np.random.default_rng(seed)
        for labels, value in zip(truth, got):
            assert abs(value - metrics.random_nmi_baseline(labels, groups, draws, per_row)) <= 1e-12
        assert one_call.bit_generator.state == per_row.bit_generator.state, seed


def test_metrics_reject_a_scalar_id():
    with pytest.raises(InvalidArgument, match="scalar"):
        metrics.random_nmi_baseline(np.int64(3), 4, draws=5, rng=np.random.default_rng(0))
    with pytest.raises(InvalidArgument, match=r"\(\) and \(4,\)"):
        metrics.nmi(0, np.zeros(4, dtype=int))


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


def test_nmi_of_negative_and_sparse_labels_equals_textbook_formula():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(1, 200))
        a = rng.integers(-3, int(rng.integers(-2, 12)), n)
        b = rng.choice([-7, 0, 2, 5, 40], n)
        assert abs(metrics.nmi(a, b) - textbook_nmi(a, b)) <= 1e-12
