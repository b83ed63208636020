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
selection packs each entry's column index into the low mantissa bits of
its similarity, sorts each anchor's row of the graph once by value and
reads both partner sets off the packed bits; a row whose candidates are
not distinct and finite once those bits are cleared (a tie, a near-tie, a
NaN or an infinity) is selected again by two stable sorts, so ties always
go to the lower index.  Both terms read one graph: one
:func:`glc.nn.unit_rows` node stacks all views' rows and scales each to
unit norm, and one Gram product gives their N x N similarities.  The
global term is one :func:`glc.nn.gram_contrast` node on the selected
entries of that matrix, the cross-view term one such node per view pair on
the block ``[s_uu | s_uv]`` of the pair's co-available rows, with the same
sample in the other view as each anchor's positive and a boolean mask of
every other column as its negatives.  Gradients flow only through the
similarity entries that the terms read, never through set membership
itself.

What a joint step holds: the similarities are off the tape and each node
reads them in its forward pass only, so they are freed when the step
drops the graph, after both terms and before the backward pass.  The tape
keeps the unit rows, the stack their node saved and each node's softmax
over its negatives, which the sweep frees once it has passed the node.
"""

import logging
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from . import nn
from .nn import Tensor, _wrap

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# global graph and pair selection
# ---------------------------------------------------------------------------

@dataclass
class GlobalAffinityGraph:
    """Cosine similarities over the stacked per-view features.

    ``unit`` is the stack of unit-norm feature rows, one
    :func:`glc.nn.unit_rows` node on the tape that both contrastive terms
    differentiate through.  ``sims`` is ``unit @ unit.T`` with the diagonal
    pinned to 1, off the tape: pair selection and both terms read it in
    their forward passes, no node keeps it, so it is freed with the graph.
    ``owners[r]`` records which (view, batch position) produced stacked row
    r.  A graph given by its similarities alone (``unit`` None) can be
    selected from but feeds no term.
    """

    sims: Tensor         # (N_c, N_c), off the tape, diagonal pinned to 1
    owners: np.ndarray   # (N_c, 2) int: view id, batch position
    unit: Tensor = None  # (N_c, d) unit rows, on the tape

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
        h = _wrap(h)
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
    unit = nn.unit_rows(parts)
    sims = unit.data @ unit.data.T
    # self-similarity is 1 by definition; the entry never reaches a loss
    # (pair selection excludes the diagonal)
    np.fill_diagonal(sims, 1.0)
    return GlobalAffinityGraph(sims=Tensor(sims),
                               owners=np.concatenate(owner_rows, axis=0),
                               unit=unit)


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

    One value sort serves both sets.  The key is a copy of the graph,
    ``sims + 0.0`` (which also turns -0.0 into +0.0), with the diagonal set
    to ``+inf``; each entry's low ``b = (N - 1).bit_length()`` mantissa bits
    are cleared and its column index is written into them, and each row is
    sorted once by value.  The negatives are the columns in the low bits of
    the first ``n_neg`` sorted keys, the positives those of the ``n_pos``
    keys just before the diagonal, read backwards.  A row is settled when
    its N-1 smallest keys, low bits cleared again, strictly increase and
    the first and last are finite.  Clearing low bits is monotone and
    keeps every value's sign and exponent, so a settled row's candidates
    are distinct, finite and in the sort's order, the one order the stable
    rule also gives; the result does not depend on numpy's sort algorithm.
    Every other row (an exact tie, a -0.0 next to a +0.0, two values
    closer than ``2**(b - 52)`` relative, a NaN or an infinity) is selected
    again, on its own, by two stable sorts.
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
    key = sims + 0.0
    np.fill_diagonal(key, np.inf)               # self sorts after every candidate
    bits = key.view(np.int64)
    low = (1 << candidates.bit_length()) - 1
    bits &= ~low
    bits |= np.arange(n, dtype=np.int64)
    key.sort(axis=1)
    negatives = bits[:, :n_neg] & low
    positives = bits[:, candidates - n_pos:candidates][:, ::-1] & low
    # a row is settled when its N-1 smallest truncated keys are finite and
    # strictly increasing; a NaN or inf candidate pushes the diagonal into them
    bits &= ~low
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

    Both variants record one tape node on ``graph.unit``,
    :func:`glc.nn.gram_contrast`, which reads the selected entries of
    ``graph.sims`` and keeps none of it; its closed-form VJP writes the
    gradient of every selected entry into one N x N buffer and multiplies
    it by the unit rows.  Pair sets with the wrong row count are a
    ShapeError.  The pair sets are constants: selection carries no
    gradient.
    """
    if temperature <= 0.0:
        raise ConfigError("temperature must be positive")
    if pairs.negatives.shape[1] < 1:
        raise ConfigError("anchors with positives need at least one negative")
    return nn.gram_contrast(graph.unit, graph.sims.data, pairs.positives,
                            pairs.negatives, 1.0 / temperature,
                            include_positive_in_denominator)


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
    This is :func:`lwc_total` on the two views with every row co-available:
    one graph over [u; v] and one :func:`glc.nn.gram_contrast` node on it.
    """
    h_u, h_v = _wrap(h_u), _wrap(h_v)
    co = {(0, 1): (np.arange(h_u.data.shape[0]), np.arange(h_v.data.shape[0]))}
    return lwc_total([h_u, h_v], co, temperature)


def lwc_loss(h_u, h_v, weights, temperature):
    """Cross-view contrastive loss weighted by propagated affinities.

    ``weights`` is the propagated-affinity matrix (its diagonal is used)
    or the diagonal itself; the weights are constants for gradients.
    """
    h_u, h_v = _wrap(h_u), _wrap(h_v)
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
    return nn.sum_terms([loss, -float(np.sum(np.log(diag)))])


def lwc_total(h_list, co_available, temperature, graph=None):
    """Sum the cross-view contrastive loss over all unordered view pairs.

    ``co_available`` maps (u, v) with u < v to the pair's local row
    indices, ``graph`` is the global graph of ``h_list`` (built here when
    not given).  Each pair adds one :func:`glc.nn.gram_contrast` node on
    ``graph.unit`` over the block ``sims[gu, [gu; gv]]`` = ``[s_uu |
    s_uv]``, where ``gu`` and ``gv`` are the pair's rows in the stack:
    anchor i's positive is column n+i, its negatives every column but i and
    n+i, as a boolean mask read in column order; one
    :func:`glc.nn.sum_terms` node adds the pairs' nodes.  No pair weights
    enter: this is plain cross-view InfoNCE.  Pairs with fewer than 2
    common samples are skipped with a warning.
    """
    if temperature <= 0.0:
        raise ConfigError("temperature must be positive")
    sizes = [_wrap(h).data.shape[0] for h in h_list]
    starts = np.cumsum([0] + sizes)
    if graph is not None and graph.size != starts[-1]:
        raise ShapeError("the graph does not stack these views")
    terms = []
    for u in range(len(h_list)):
        for v in range(u + 1, len(h_list)):
            rows_u, rows_v = map(np.asarray, co_available[(u, v)])
            n = len(rows_u)
            if len(rows_v) != n:
                raise ShapeError("co-availability index lengths differ")
            if n < 2:
                logger.warning("view pair (%d, %d) skipped: %d common samples",
                               u, v, n)
                continue
            if min(rows_u.min(), rows_v.min()) < 0 or \
                    rows_u.max() >= sizes[u] or rows_v.max() >= sizes[v]:
                raise ShapeError("co-available rows outside their view")
            if graph is None:
                graph = build_global_graph(h_list)
            gu = starts[u] + rows_u
            cols = np.concatenate([gu, starts[v] + rows_v])
            keep = np.tile(~np.eye(n, dtype=bool), 2)     # all but i and n+i
            terms.append(nn.gram_contrast(
                graph.unit, graph.sims.data[np.ix_(gu, cols)],
                (np.arange(n) + n)[:, None], keep, 1.0 / temperature,
                block=(gu, cols)))
    return nn.sum_terms(terms)
