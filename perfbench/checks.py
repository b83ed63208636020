"""Output checks made apart from the program.

The clustering scores are recomputed here from the program's predictions
with code that shares nothing with ``glc.metrics``: accuracy by brute force
over every cluster-to-class permutation, NMI and ARI from plain counts.
Pair selection is checked against the properties the method must have,
with the per-anchor counts worked out in exact rational arithmetic.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np

SCORE_TOL = 1e-9
# ACC of the full objective must beat chance (1/k) by at least this much
CHANCE_MARGIN = 0.1


def accuracy_bruteforce(pred, true):
    """Best fraction matched over every one-to-one cluster-to-class map."""
    pred_ids = sorted(set(pred))
    true_ids = sorted(set(true))
    size = max(len(pred_ids), len(true_ids))
    p_index = {c: i for i, c in enumerate(pred_ids)}
    t_index = {c: i for i, c in enumerate(true_ids)}
    table = np.zeros((size, size), dtype=np.int64)
    for p, t in zip(pred, true):
        table[p_index[p], t_index[t]] += 1
    perms = np.array(list(itertools.permutations(range(size))), dtype=np.intp)
    matched = table[np.arange(size), perms].sum(axis=1)
    return int(matched.max()) / len(pred)


def nmi_reference(pred, true):
    """Mutual information over the arithmetic mean of the two entropies."""
    n = len(pred)
    joint = Counter(zip(pred, true))
    a = Counter(pred)
    b = Counter(true)

    def entropy(counts):
        return -sum(c / n * math.log(c / n) for c in counts.values())

    h_pred, h_true = entropy(a), entropy(b)
    if h_pred == 0.0 and h_true == 0.0:
        return 1.0
    mi = sum(c / n * math.log(c * n / (a[p] * b[t]))
             for (p, t), c in joint.items())
    return min(max(mi / (0.5 * (h_pred + h_true)), 0.0), 1.0)


def ari_reference(pred, true):
    """Adjusted Rand index from pair counts."""
    def pairs(c):
        return c * (c - 1) // 2

    n = len(pred)
    same_both = sum(pairs(c) for c in Counter(zip(pred, true)).values())
    same_pred = sum(pairs(c) for c in Counter(pred).values())
    same_true = sum(pairs(c) for c in Counter(true).values())
    total = pairs(n)
    if total == 0:
        return 1.0
    expected = same_pred * same_true / total
    top = 0.5 * (same_pred + same_true)
    if top == expected:
        return 1.0
    return (same_both - expected) / (top - expected)


def score_problems(pred, true, reported):
    """Differences between the reported scores and the recomputed ones."""
    problems = []
    for name, fn in (("acc", accuracy_bruteforce), ("nmi", nmi_reference),
                     ("ari", ari_reference)):
        mine = fn(pred, true)
        if not abs(mine - reported[name]) <= SCORE_TOL:
            problems.append(f"{name}: reported {reported[name]!r}, "
                            f"recomputed {mine!r}")
    return problems


def expected_pair_counts(stacked_rows, pos_percent, neg_percent):
    """Positives and negatives per anchor the method prescribes."""
    candidates = stacked_rows - 1
    n_pos = math.ceil(Fraction(pos_percent) * candidates / 100)
    n_neg = min(math.ceil(Fraction(neg_percent) * candidates / 100),
                candidates - n_pos)
    return n_pos, n_neg


def selection_problems(sims, positives, negatives, pos_percent, neg_percent):
    """Properties every pair selection must have, as a list of failures.

    Counts match the percentages, each anchor's positives and negatives
    are distinct, disjoint and exclude the anchor, and no negative is more
    similar to the anchor than any of its positives.
    """
    sims = np.asarray(sims)
    positives = np.asarray(positives)
    negatives = np.asarray(negatives)
    n = sims.shape[0]
    n_pos, n_neg = expected_pair_counts(n, pos_percent, neg_percent)
    if positives.shape != (n, n_pos) or negatives.shape != (n, n_neg):
        return [f"{n} rows: expected {n_pos} positives and {n_neg} negatives "
                f"per anchor, got {positives.shape} and {negatives.shape}"]
    problems = []
    anchors = np.arange(n)[:, None]
    if (positives == anchors).any() or (negatives == anchors).any():
        problems.append("an anchor is its own partner")
    chosen = np.concatenate([positives, negatives], axis=1)
    flat = (anchors * n + chosen).ravel()
    if np.bincount(flat, minlength=n * n).max() > 1:
        problems.append("a partner is chosen twice for one anchor "
                        "(sets overlap or repeat)")
    worst_pos = sims[anchors, positives].min(axis=1)
    best_neg = sims[anchors, negatives].max(axis=1)
    if (best_neg > worst_pos).any():
        problems.append(f"{int((best_neg > worst_pos).sum())} anchors have a "
                        "negative more similar than a positive")
    return problems


def ordering_problems(acc_by_row):
    """Gate 6's ordering of the ablation rows."""
    rec, ggc, full = (acc_by_row[row] for row in ("rec", "rec+ggc", "full"))
    if full >= ggc and ggc >= rec - 0.02 and full >= rec + 0.05:
        return []
    return [f"ablation order broken: rec {rec:.4f}, rec+ggc {ggc:.4f}, "
            f"full {full:.4f}"]


def history_problems(epochs):
    """Finite losses, and a joint phase that ends below where it started.

    ``epochs`` holds ``[phase, seconds, rec, ggc, lwc, total]`` rows.
    """
    problems = []
    if any(not math.isfinite(v) for e in epochs for v in e[2:]):
        problems.append("a loss is not finite")
    joint = [e[5] for e in epochs if e[0] == "train"]
    if not joint:
        problems.append("no joint-phase epoch")
    elif not joint[-1] < joint[0]:
        problems.append(f"joint objective did not fall: {joint[0]!r} -> "
                        f"{joint[-1]!r}")
    return problems
