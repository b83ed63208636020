"""Affinity graphs and graph-guided contrastive losses.

Two objectives drive training:

* a global cosine-similarity graph over the concatenated contrastive
  features of every view in the batch, from which the most-similar pairs
  per anchor become positives and the least-similar become negatives;
* per view pair, a cross-view InfoNCE loss over the co-available rows,
  whose positive for each anchor is the same sample in the other view.

The paper weights each cross-view pair by the diagonal of a propagated
local Gaussian-kernel graph.  That weighting is not part of the objective:
:func:`lwc_total` is plain cross-view InfoNCE.  The kernels, their
propagated diagonal and the weighted :func:`lwc_loss` remain as reference
functions; a weight that enters only as the constant ``-sum_i log w_i``
changes no gradient, so the weighted and the plain loss share one.  Pair
selection sorts each anchor's row of the graph once and reads both partner
sets off that order; a row with a tied, NaN or infinite similarity is
selected again by two stable sorts, so ties always go to the lower index.
Both terms are one tape node each, :func:`glc.nn.pair_contrast`, reading
their entries through flat offsets: the global term from the N x N graph
with the selected pair sets, the cross-view term from a view pair's
(n, 2n) block ``[s_uu | s_uv]`` with the same sample in the other view as
each anchor's positive.  Its closed-form VJP writes the gradients into one
buffer of the matrix's shape.
Gradients flow only through the similarity entries that the pair sets
select, never through set membership itself.
"""

import logging
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from . import nn
from .nn import Tensor

logger = logging.getLogger(__name__)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _normalize_rows(t):
    """Scale each row to unit Euclidean norm (differentiable)."""
    sq = nn.tsum(nn.mul(t, t), axis=1, keepdims=True)
    norms = nn.sqrt(sq)
    if np.any(norms.data == 0.0):
        raise NumericError("zero-norm feature row (degenerate embedding)")
    return nn.div(t, norms)


# ---------------------------------------------------------------------------
# global graph and pair selection
# ---------------------------------------------------------------------------

@dataclass
class GlobalAffinityGraph:
    """Cosine similarities over the stacked per-view features.

    ``owners[r]`` records which (view, batch position) produced stacked
    row r.  ``sims`` stays attached to the tape so the contrastive loss
    can differentiate through the selected entries.
    """

    sims: Tensor         # (N_c, N_c), diagonal pinned to 1
    owners: np.ndarray   # (N_c, 2) int: view id, batch position

    @property
    def size(self):
        return self.sims.data.shape[0]


def build_global_graph(view_features, positions=None):
    """Stack every view's features and compute their cosine graph.

    ``positions`` optionally gives, per view, the batch positions of each
    feature row (defaults to 0..rows-1); empty views are skipped.
    """
    parts, owner_rows = [], []
    for v, h in enumerate(view_features):
        h = _as_tensor(h)
        rows = h.data.shape[0]
        if rows == 0:
            continue
        pos = (np.arange(rows) if positions is None
               else np.asarray(positions[v], dtype=np.intp))
        if pos.shape[0] != rows:
            raise ShapeError("positions do not match the feature rows")
        parts.append(h)
        owner_rows.append(np.column_stack([np.full(rows, v, dtype=np.intp), pos]))
    if not parts:
        raise ShapeError("no features available in any view")
    stack = nn.concat_rows(parts) if len(parts) > 1 else parts[0]
    normalized = _normalize_rows(stack)
    sims = nn.matmul(normalized, nn.transpose(normalized))
    # self-similarity is 1 by definition; the entry never reaches a loss
    # (pair selection excludes the diagonal) so pinning it is gradient-safe
    np.fill_diagonal(sims.data, 1.0)
    return GlobalAffinityGraph(sims=sims,
                               owners=np.concatenate(owner_rows, axis=0))


@dataclass
class PairSets:
    """Per-anchor positive and negative partner indices.

    Both matrices have one row per anchor; entry counts are uniform
    because every anchor sees the same number of candidates.
    """

    positives: np.ndarray    # (N_c, n_pos)
    negatives: np.ndarray    # (N_c, n_neg)

    @property
    def anchor_count(self):
        return self.positives.shape[0]


def _stable_pairs(sims, selves, n_pos, n_neg):
    """Positives and negatives of some rows of a graph by two stable sorts.

    ``sims`` holds the rows and ``selves`` each row's own column.  This is
    the reference rule: the ``n_pos`` largest other similarities, then the
    ``n_neg`` smallest of what remains, ties broken by lower index and NaN
    last.  Self and positives are removed from the orders, not keyed past
    the candidates, so no NaN or infinite similarity can let them back in.
    """
    r, n = sims.shape
    rows = np.arange(r)[:, None]
    desc = np.argsort(-sims, axis=1, kind="stable")
    desc = desc[desc != selves[:, None]].reshape(r, n - 1)
    positives = desc[:, :n_pos]
    taken = np.zeros((r, n), dtype=bool)
    taken[rows, positives] = True
    taken[rows[:, 0], selves] = True
    asc = np.argsort(sims, axis=1, kind="stable")
    asc = asc[~np.take_along_axis(taken, asc, axis=1)].reshape(r, n - 1 - n_pos)
    return positives, asc[:, :n_neg]


def pair_counts(n, pos_percent, neg_percent):
    """Positives and negatives per anchor of an ``n``-row graph.

    Each anchor has ``N - 1`` candidates: ``n_pos = ceil(pos% * (N - 1))``
    and ``n_neg = min(ceil(neg% * (N - 1)), N - 1 - n_pos)``, so the two
    sets never overlap.  A percentage counts as the decimal it prints as,
    exactly: 4.4% of 750 is 33, not the 34 that float rounding gives.
    ``n_neg < 1`` means the graph is too small for the global term.
    """
    candidates = n - 1

    def share(percent):
        return math.ceil(Fraction(repr(float(percent))) * candidates / 100)

    n_pos = share(pos_percent)
    return n_pos, min(share(neg_percent), candidates - n_pos)


def select_pairs(graph, pos_percent, neg_percent):
    """Pick each anchor's most/least similar partners by percentage.

    Per anchor the self-index is excluded; :func:`pair_counts` gives how
    many of the largest remaining similarities become positives and how
    many of the smallest become negatives, ties broken by lower index.
    Positives are taken first and removed from the negative candidates,
    which keeps the sets disjoint; when the two rounded counts would
    overlap the negative count shrinks to the remaining candidates, and a
    graph that leaves no negative is a ConfigError.

    One row-wise sort serves both sets: with the diagonal keyed ``+inf``,
    the negatives are the first ``n_neg`` columns of the ascending order
    and the positives the ``n_pos`` columns just before the diagonal, read
    backwards.  On a row whose other similarities are finite and distinct
    every correct sort gives that one order, so the result does not depend
    on the sort algorithm.  A row with a tie, a NaN or an infinity is
    selected again, on its own, by two stable sorts.
    Selection is discrete: no gradient flows through it.
    """
    if not (0.0 < pos_percent and 0.0 < neg_percent):
        raise ConfigError("pos and neg percentages must be positive")
    if pos_percent + neg_percent > 100.0:
        raise ConfigError("pos + neg must not exceed 100")
    n = graph.size
    candidates = n - 1
    n_pos, n_neg = pair_counts(n, pos_percent, neg_percent)
    if n_neg < 1:
        raise ConfigError(
            f"no negative candidates remain ({candidates} candidates, "
            f"{n_pos} positives per anchor)")

    sims = graph.sims.data
    key = sims.copy()
    np.fill_diagonal(key, np.inf)               # self sorts after every candidate
    order = np.argsort(key, axis=1)
    # copies, so the N x N order is freed before the step's backward pass
    negatives = order[:, :n_neg].copy()
    positives = order[:, candidates - n_pos:candidates][:, ::-1].copy()
    # a row is settled when its N-1 smallest keys are finite and strictly
    # increasing; a NaN or inf candidate pushes the diagonal's inf into them
    key.sort(axis=1)
    vals = key[:, :candidates]
    settled = (vals[:, 1:] > vals[:, :-1]).all(axis=1)
    settled &= np.isfinite(vals[:, 0]) & np.isfinite(vals[:, -1])
    if not settled.all():
        redo = np.flatnonzero(~settled)
        positives[redo], negatives[redo] = _stable_pairs(sims[redo], redo,
                                                         n_pos, n_neg)
    return PairSets(positives=positives, negatives=negatives)


def ggc_loss(graph, pairs, temperature, include_positive_in_denominator=False):
    """Contrastive loss over the global graph's selected pairs.

    For every positive pair (i, j):
    ``-log( exp(G_ij / t) / sum_{k in neg(i)} exp(G_ik / t) )``.
    The denominator runs over the negatives only; the optional flag adds
    the pair's own positive term to it (the conventional variant).

    Both variants record one tape node, :func:`glc.nn.pair_contrast`, whose
    closed-form VJP writes the gradient of every selected entry into one
    N x N buffer for ``graph.sims``.  Pair sets with the wrong row count are
    a ShapeError.  The pair sets are constants: selection carries no
    gradient.
    """
    if temperature <= 0.0:
        raise ConfigError("temperature must be positive")
    if pairs.negatives.shape[1] < 1:
        raise ConfigError("anchors with positives need at least one negative")
    return nn.pair_contrast(graph.sims, pairs.positives, pairs.negatives,
                            1.0 / temperature, include_positive_in_denominator)


# ---------------------------------------------------------------------------
# local kernels
# ---------------------------------------------------------------------------

def _sqdist(a, b):
    """Exact pairwise squared distances (broadcasted; symmetric for a is b)."""
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def local_affinity(h_u, h_v, sigma):
    """Gaussian kernel exp(-||h_i - h_j||^2 / sigma) between feature sets."""
    if sigma <= 0.0:
        raise ConfigError("sigma must be positive")
    a = h_u.data if isinstance(h_u, Tensor) else np.asarray(h_u, dtype=np.float64)
    b = h_v.data if isinstance(h_v, Tensor) else np.asarray(h_v, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError("feature sets must be 2-D with equal widths")
    return np.exp(-_sqdist(a, b) / sigma)


def median_sigma(h_u, h_v):
    """Median of all squared cross-view distances; 1.0 if the median is 0."""
    a = h_u.data if isinstance(h_u, Tensor) else np.asarray(h_u, dtype=np.float64)
    b = h_v.data if isinstance(h_v, Tensor) else np.asarray(h_v, dtype=np.float64)
    med = float(np.median(_sqdist(a, b)))
    return med if med > 0.0 else 1.0


def high_order_graph(w_uv, w_vv):
    """Propagated affinities: cross kernel times the within-view kernel."""
    w_uv = np.asarray(w_uv, dtype=np.float64)
    w_vv = np.asarray(w_vv, dtype=np.float64)
    if w_uv.shape != w_vv.shape or w_uv.ndim != 2 or w_uv.shape[0] != w_uv.shape[1]:
        raise ShapeError("kernels must be square matrices of equal shape")
    return w_uv @ w_vv.T


def high_order_diag(w_uv, w_vv):
    """Diagonal of :func:`high_order_graph` without forming the product."""
    w_uv = np.asarray(w_uv, dtype=np.float64)
    w_vv = np.asarray(w_vv, dtype=np.float64)
    if w_uv.shape != w_vv.shape:
        raise ShapeError("kernels must have equal shapes")
    return np.einsum("ij,ij->i", w_uv, w_vv)


# ---------------------------------------------------------------------------
# pairwise / locally weighted contrastive losses
# ---------------------------------------------------------------------------

def pairwise_contrastive_loss(h_u, h_v, temperature):
    """Unweighted cross-view contrastive loss over same-index pairs.

    Anchors are view u's rows.  The positive of anchor i is view v's row i;
    the denominator sums over all other rows of both views (2(n-1) terms).
    The rows of both views are normalized once, as one stack [u; v], and
    one matmul of u's rows against it gives the (n, 2n) block
    ``[s_uu | s_uv]``: the loss is one :func:`glc.nn.pair_contrast` node on
    it, whose positive of anchor i is column n+i and whose negatives are
    every column but i and n+i.
    """
    if temperature <= 0.0:
        raise ConfigError("temperature must be positive")
    h_u, h_v = _as_tensor(h_u), _as_tensor(h_v)
    n = h_u.data.shape[0]
    if h_v.data.shape[0] != n:
        raise ShapeError("both views must provide the same co-available rows")
    if n < 2:
        logger.warning("cross-view contrast skipped: %d co-available rows", n)
        return Tensor(0.0)
    stack = _normalize_rows(nn.concat_rows([h_u, h_v]))    # (2n, d)
    idx = np.arange(n)
    sims = nn.matmul(nn.take_rows(stack, idx), nn.transpose(stack))
    keep = np.ones((n, 2 * n), dtype=bool)
    keep[idx, idx] = False                                # the anchor itself
    keep[idx, n + idx] = False                            # its positive
    negatives = np.broadcast_to(np.arange(2 * n), keep.shape)[keep]
    return nn.pair_contrast(sims, (idx + n)[:, None],
                            negatives.reshape(n, 2 * n - 2), 1.0 / temperature)


def lwc_loss(h_u, h_v, weights, temperature):
    """Cross-view contrastive loss weighted by propagated affinities.

    ``weights`` is the propagated-affinity matrix (its diagonal is used)
    or the diagonal itself; the weights are constants for gradients.
    """
    h_u, h_v = _as_tensor(h_u), _as_tensor(h_v)
    n = h_u.data.shape[0]
    if n < 2:
        logger.warning("lwc_loss skipped: %d co-available rows", n)
        return Tensor(0.0)
    w = np.asarray(weights, dtype=np.float64)
    diag = np.diagonal(w) if w.ndim == 2 else w
    if diag.shape[0] != n:
        raise ShapeError("weights do not match the co-available rows")
    if not np.all(diag > 0.0) or not np.isfinite(diag).all():
        raise NumericError("pair weights must be finite and positive "
                           "(kernel underflow or bad kernel width)")
    loss = pairwise_contrastive_loss(h_u, h_v, temperature)
    # the weighting term -sum(log w_i): a constant, so no gradient
    return nn.sub(loss, Tensor(float(np.sum(np.log(diag)))))


def lwc_total(h_list, co_available, temperature):
    """Sum the cross-view contrastive loss over all unordered view pairs.

    ``co_available`` maps (u, v) with u < v to the pair's local row
    indices; each pair adds :func:`pairwise_contrastive_loss` on those
    rows, one :func:`glc.nn.pair_contrast` node per pair.  No pair weights
    enter: this is plain cross-view InfoNCE.  Pairs with fewer than 2
    common samples are skipped with a warning.
    """
    total = Tensor(0.0)
    n_views = len(h_list)
    for u in range(n_views):
        for v in range(u + 1, n_views):
            rows_u, rows_v = co_available[(u, v)]
            if len(rows_u) != len(rows_v):
                raise ShapeError("co-availability index lengths differ")
            if len(rows_u) < 2:
                logger.warning("view pair (%d, %d) skipped: %d common samples",
                               u, v, len(rows_u))
                continue
            a = nn.take_rows(_as_tensor(h_list[u]), rows_u)
            b = nn.take_rows(_as_tensor(h_list[v]), rows_v)
            total = nn.add(total, pairwise_contrastive_loss(a, b, temperature))
    return total
