"""The benchmark's own checks against hand-computed fixtures."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import checks  # noqa: E402


def test_scores_on_hand_computed_fixture():
    # contingency rows (clusters) x columns (classes): [[2, 0], [1, 1], [0, 2]]
    pred = [0, 0, 1, 1, 2, 2]
    true = [0, 0, 0, 1, 1, 1]
    assert checks.accuracy_bruteforce(pred, true) == pytest.approx(4 / 6)
    # MI = (2/3) ln 2; entropies ln 3 and ln 2
    assert checks.nmi_reference(pred, true) == pytest.approx(
        4 * math.log(2) / (3 * math.log(6)))
    # sum C(n_ij, 2) = 2, rows 3, columns 6, C(6, 2) = 15: (2 - 1.2) / 3.3
    assert checks.ari_reference(pred, true) == pytest.approx(8 / 33)


def test_accuracy_needs_the_optimal_not_the_greedy_map():
    # contingency [[3, 2], [2, 0]]: greedy takes 3 + 0, the best map 2 + 2
    pred = [0, 0, 0, 0, 0, 1, 1]
    true = [0, 0, 0, 1, 1, 0, 0]
    assert checks.accuracy_bruteforce(pred, true) == pytest.approx(4 / 7)


def test_relabelled_partition_scores_one():
    pred = [2, 2, 0, 0, 1, 1]
    true = [0, 0, 1, 1, 2, 2]
    assert checks.accuracy_bruteforce(pred, true) == 1.0
    assert checks.nmi_reference(pred, true) == pytest.approx(1.0)
    assert checks.ari_reference(pred, true) == pytest.approx(1.0)


def test_single_cluster_conventions():
    assert checks.nmi_reference([0, 0, 0], [1, 1, 1]) == 1.0
    assert checks.ari_reference([0, 0, 0], [1, 1, 1]) == 1.0
    assert checks.nmi_reference([0, 0, 0, 0], [0, 0, 1, 1]) == 0.0


def test_reference_scores_agree_with_the_program():
    from glc.metrics import accuracy, ari, nmi
    rng = np.random.default_rng(0)
    for _ in range(20):
        pred = rng.integers(0, 4, size=40).tolist()
        true = rng.integers(0, 4, size=40).tolist()
        reported = {"acc": accuracy(pred, true), "nmi": nmi(pred, true),
                    "ari": ari(pred, true)}
        assert checks.score_problems(pred, true, reported) == []


def test_score_problems_names_a_wrong_report():
    pred, true = [0, 0, 1, 1], [0, 0, 1, 1]
    problems = checks.score_problems(pred, true,
                                     {"acc": 0.75, "nmi": 1.0, "ari": 1.0})
    assert len(problems) == 1 and problems[0].startswith("acc")


# a hand-built 5-node graph; row i lists anchor i's similarities
SIMS = np.array([
    [1.0, 0.9, 0.1, 0.5, -0.2],
    [0.9, 1.0, 0.3, 0.0, 0.4],
    [0.1, 0.3, 1.0, 0.8, 0.2],
    [0.5, 0.0, 0.8, 1.0, -0.1],
    [-0.2, 0.4, 0.2, -0.1, 1.0],
])
# 4 candidates: 25% gives 1 positive, 50% gives 2 negatives
POSITIVES = np.array([[1], [0], [3], [2], [1]])
NEGATIVES = np.array([[4, 2], [3, 2], [0, 4], [4, 1], [0, 3]])


def test_expected_counts():
    assert checks.expected_pair_counts(5, 25.0, 50.0) == (1, 2)
    # 632 candidates: ceil(6.32) = 7 positives, 316 negatives
    assert checks.expected_pair_counts(633, 1.0, 50.0) == (7, 316)
    # the negatives shrink to the candidates the positives leave
    assert checks.expected_pair_counts(3, 50.0, 50.0) == (1, 1)


def test_hand_built_selection_passes():
    assert checks.selection_problems(SIMS, POSITIVES, NEGATIVES,
                                     25.0, 50.0) == []


@pytest.mark.parametrize("row, pos, neg, expect", [
    (0, [3], [4, 1], "more similar"),     # 0.9 as a negative, 0.5 positive
    (1, [1], [3, 2], "own partner"),      # anchor 1 picks itself
    (2, [3], [3, 4], "chosen twice"),     # 3 is positive and negative
])
def test_broken_selection_is_named(row, pos, neg, expect):
    positives, negatives = POSITIVES.copy(), NEGATIVES.copy()
    positives[row], negatives[row] = pos, neg
    problems = checks.selection_problems(SIMS, positives, negatives,
                                         25.0, 50.0)
    assert any(expect in p for p in problems), problems


def test_wrong_counts_are_named():
    problems = checks.selection_problems(SIMS, POSITIVES, NEGATIVES[:, :1],
                                         25.0, 50.0)
    assert problems and "expected 1 positives and 2 negatives" in problems[0]


def test_program_selection_passes():
    from glc.graphs import build_global_graph, select_pairs
    rng = np.random.default_rng(3)
    graph = build_global_graph([rng.normal(size=(30, 4)),
                                rng.normal(size=(25, 4))])
    pairs = select_pairs(graph, 1.0, 50.0)
    assert checks.selection_problems(graph.sims.data, pairs.positives,
                                     pairs.negatives, 1.0, 50.0) == []


def test_ordering_of_ablation_rows():
    assert checks.ordering_problems(
        {"rec": 0.50, "rec+ggc": 0.49, "full": 0.56}) == []
    assert checks.ordering_problems(
        {"rec": 0.50, "rec+ggc": 0.47, "full": 0.60})
    assert checks.ordering_problems(
        {"rec": 0.50, "rec+ggc": 0.50, "full": 0.54})


def test_history_problems():
    good = [["pretrain", 0.1, 5.0, 0.0, 0.0, 5.0],
            ["train", 0.1, 4.0, 1.0, 2.0, 7.0],
            ["train", 0.1, 3.0, 1.0, 2.0, 6.0]]
    assert checks.history_problems(good) == []
    flat = [good[0], good[1], ["train", 0.1, 4.0, 1.0, 2.0, 7.0]]
    assert "did not fall" in checks.history_problems(flat)[0]
    bad = [good[0], ["train", 0.1, float("nan"), 1.0, 2.0, 7.0], good[2]]
    assert "not finite" in checks.history_problems(bad)[0]
