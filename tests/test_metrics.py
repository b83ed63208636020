"""Clustering metrics against hand values and brute-force, scipy and
scikit-learn oracles."""

import itertools

import numpy as np
import pytest

from glc.errors import ShapeError
from glc.metrics import _max_assignment_total, accuracy, ari, nmi


def oracle_accuracy(pred, true):
    """Try every injective cluster-to-class mapping (small fixtures only)."""
    pred = np.asarray(pred)
    true = np.asarray(true)
    clusters = np.unique(pred)
    classes = np.unique(true)
    # pad the smaller side so permutations cover partial matchings
    size = max(clusters.size, classes.size)
    slots = list(classes) + [None] * (size - classes.size)
    best = 0
    for perm in itertools.permutations(slots, clusters.size):
        hits = 0
        for c, target in zip(clusters, perm):
            if target is not None:
                hits += np.sum((pred == c) & (true == target))
        best = max(best, hits)
    return best / pred.size


# ---------------------------------------------------------------------------
# hand fixtures
# ---------------------------------------------------------------------------

def test_perfect_prediction():
    y = np.array([0, 1, 2, 0, 1, 2])
    assert accuracy(y, y) == 1.0
    assert nmi(y, y) == 1.0
    assert ari(y, y) == 1.0


def test_relabeled_prediction_still_perfect():
    true = np.array([0, 1, 2, 0, 1, 2])
    pred = np.array([2, 0, 1, 2, 0, 1])
    assert accuracy(pred, true) == 1.0
    assert nmi(pred, true) == 1.0
    assert ari(pred, true) == 1.0


def test_partial_match_hand_value():
    pred = np.array([0, 0, 1, 1])
    true = np.array([1, 1, 0, 2])
    assert accuracy(pred, true) == 0.75
    assert oracle_accuracy(pred, true) == 0.75


def test_constant_prediction_balanced_classes():
    pred = np.zeros(8, dtype=int)
    true = np.array([0, 1] * 4)
    assert accuracy(pred, true) == 0.5
    assert nmi(pred, true) == 0.0
    assert ari(pred, true) == 0.0


def test_independent_partitions():
    pred = np.array([0, 0, 1, 1])
    true = np.array([0, 1, 0, 1])
    assert nmi(pred, true) == 0.0
    assert ari(pred, true) <= 0.0


def test_anticorrelated_ari_negative():
    pred = np.array([0, 1, 0, 1, 0, 1])
    true = np.array([0, 0, 1, 1, 2, 2])
    assert ari(pred, true) < 0.0


def test_constant_predictor_matches_max_class_frequency():
    rng = np.random.default_rng(0)
    for _ in range(10):
        true = rng.integers(0, 4, size=30)
        pred = np.zeros(30, dtype=int)
        freq = np.bincount(true).max() / 30
        np.testing.assert_allclose(accuracy(pred, true), freq)


def test_both_sides_single_cluster():
    y = np.zeros(5, dtype=int)
    assert accuracy(y, y) == 1.0
    assert nmi(y, y) == 1.0
    assert ari(y, y) == 1.0


def test_single_sample():
    assert accuracy([0], [3]) == 1.0
    assert ari([0], [3]) == 1.0


def test_length_mismatch_rejected():
    with pytest.raises(ShapeError):
        accuracy([0, 1], [0])
    with pytest.raises(ShapeError):
        nmi([], [])


def test_more_clusters_than_classes():
    pred = np.array([0, 1, 2, 3])
    true = np.array([0, 0, 1, 1])
    assert accuracy(pred, true) == 0.5
    assert oracle_accuracy(pred, true) == 0.5


def test_noninteger_labels_not_required_to_be_compact():
    pred = np.array([10, 10, 77, 77])
    true = np.array([3, 3, 9, 9])
    assert accuracy(pred, true) == 1.0
    assert nmi(pred, true) == 1.0


# ---------------------------------------------------------------------------
# invariance properties
# ---------------------------------------------------------------------------

def test_permutation_invariance_sweep():
    rng = np.random.default_rng(1)
    for seed in range(20):
        r = np.random.default_rng(100 + seed)
        pred = r.integers(0, 4, size=24)
        true = r.integers(0, 3, size=24)
        base = (accuracy(pred, true), nmi(pred, true), ari(pred, true))
        pperm = rng.permutation(4)
        tperm = rng.permutation(3)
        got = (accuracy(pperm[pred], tperm[true]),
               nmi(pperm[pred], tperm[true]),
               ari(pperm[pred], tperm[true]))
        np.testing.assert_allclose(got, base, rtol=1e-12)


def test_symmetry_of_nmi_and_ari():
    rng = np.random.default_rng(2)
    pred = rng.integers(0, 3, size=30)
    true = rng.integers(0, 4, size=30)
    np.testing.assert_allclose(nmi(pred, true), nmi(true, pred), rtol=1e-12)
    np.testing.assert_allclose(ari(pred, true), ari(true, pred), rtol=1e-12)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def test_accuracy_matches_brute_force_sweep():
    rng = np.random.default_rng(3)
    for _ in range(30):
        pred = rng.integers(0, 4, size=20)
        true = rng.integers(0, 4, size=20)
        np.testing.assert_allclose(accuracy(pred, true),
                                   oracle_accuracy(pred, true), rtol=1e-12)


def test_accuracy_matches_brute_force_on_rectangular_tables():
    rng = np.random.default_rng(6)
    for _ in range(60):
        n_pred, n_true = rng.integers(1, 6, size=2)
        size = int(rng.integers(1, 25))
        pred = rng.integers(0, n_pred, size=size)
        true = rng.integers(0, n_true, size=size)
        assert accuracy(pred, true) == oracle_accuracy(pred, true)


def _scipy_total(table):
    optimize = pytest.importorskip("scipy.optimize")
    rows, cols = optimize.linear_sum_assignment(table, maximize=True)
    return int(table[rows, cols].sum())


def _tables(rng):
    """Random integer tables: both rectangular ways, 1 x k, k x 1, zero
    rows and columns, heavy ties."""
    for _ in range(400):
        r, c = (int(x) for x in rng.integers(1, 12, size=2))
        yield rng.integers(0, int(rng.choice([2, 5, 50, 1000])), size=(r, c))
    for k in (1, 2, 7, 30):
        yield rng.integers(0, 9, size=(1, k))
        yield rng.integers(0, 9, size=(k, 1))
    for _ in range(40):
        table = rng.integers(0, 20, size=(6, 9))
        table[rng.random(6) < 0.4] = 0
        table[:, rng.random(9) < 0.4] = 0
        yield table
        yield table.T
    for k in (4, 9, 16):
        yield np.full((k, k), 3)
        yield np.tile(rng.integers(0, 4, size=k), (k, 1))
        yield np.zeros((k, k + 2), dtype=np.int64)


def test_assignment_total_matches_scipy():
    rng = np.random.default_rng(7)
    for table in _tables(rng):
        assert _max_assignment_total(table) == _scipy_total(table), table


def test_assignment_total_matches_scipy_at_k_200():
    rng = np.random.default_rng(8)
    table = rng.integers(0, 100, size=(200, 200))
    assert _max_assignment_total(table) == _scipy_total(table)


def test_nmi_matches_sklearn():
    sklearn = pytest.importorskip("sklearn.metrics")
    rng = np.random.default_rng(4)
    for _ in range(30):
        pred = rng.integers(0, 5, size=40)
        true = rng.integers(0, 3, size=40)
        want = sklearn.normalized_mutual_info_score(true, pred,
                                                    average_method="arithmetic")
        np.testing.assert_allclose(nmi(pred, true), want, atol=1e-10)


def test_ari_matches_sklearn():
    sklearn = pytest.importorskip("sklearn.metrics")
    rng = np.random.default_rng(5)
    for _ in range(30):
        pred = rng.integers(0, 5, size=40)
        true = rng.integers(0, 3, size=40)
        want = sklearn.adjusted_rand_score(true, pred)
        np.testing.assert_allclose(ari(pred, true), want, atol=1e-10)
