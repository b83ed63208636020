"""The contrastive terms as the chains of tape ops they once were.

``glc.nn.pair_contrast`` computes both contrastive terms as one tape node.
The ops here are the gathers and the masked log-sum-exp those terms were
built from before; the tests keep them, and the two chains built from
them, as references: the global term must match :func:`reference_ggc`
with either denominator, and the cross-view term
:func:`reference_pairwise`, within 1e-12 relative.  Each op records a node
on the tape like any ``glc.nn`` op.
"""

import numpy as np

from glc import nn
from glc.errors import ShapeError
from glc.graphs import _normalize_rows
from glc.nn import _attach, _nonneg, _scatter_add, _wrap


def concat_cols(parts):
    """Stack 2-D tensors along axis 1."""
    parts = tuple(_wrap(p) for p in parts)
    if not parts:
        raise ShapeError("concat_cols needs at least one part")
    widths = [p.data.shape[1] for p in parts]

    def vjp(g):
        outs, offset = [], 0
        for p, width in zip(parts, widths):
            outs.append(g[:, offset:offset + width] if p.requires_grad else None)
            offset += width
        return tuple(outs)

    return _attach(np.concatenate([p.data for p in parts], axis=1), parts, vjp)


def gather_pairs(a, rows, cols):
    """1-D gather of a[rows[k], cols[k]] from a 2-D tensor."""
    a = _wrap(a)
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)

    def vjp(g):
        if not a.requires_grad:
            return (None,)
        n_rows, n_cols = a.data.shape
        flat = _nonneg(rows, n_rows) * n_cols + _nonneg(cols, n_cols)
        return (_scatter_add(a.data.shape, flat, g),)

    return _attach(a.data[rows, cols], (a,), vjp)


def gather_cols(a, cols, rows=None):
    """2-D gather: out[r, c] = a[rows[r], cols[r, c]] (rows defaults to arange)."""
    a = _wrap(a)
    cols = np.asarray(cols, dtype=np.intp)
    if cols.ndim != 2:
        raise ShapeError("gather_cols expects a 2-D column index matrix")
    if rows is None:
        rows = np.arange(cols.shape[0], dtype=np.intp)
    else:
        rows = np.asarray(rows, dtype=np.intp)
    row_grid = np.broadcast_to(rows[:, None], cols.shape)

    def vjp(g):
        if not a.requires_grad:
            return (None,)
        n_rows, n_cols = a.data.shape
        flat = _nonneg(rows, n_rows)[:, None] * n_cols + _nonneg(cols, n_cols)
        return (_scatter_add(a.data.shape, flat, g),)

    return _attach(a.data[row_grid, cols], (a,), vjp)


def logsumexp_rows(a, mask=None):
    """Row-wise log(sum(exp(x))) over entries where ``mask`` is True.

    Uses max subtraction for stability.  Every row must keep at least one
    included entry.
    """
    a = _wrap(a)
    x = a.data
    if x.ndim != 2:
        raise ShapeError("logsumexp_rows expects a 2-D tensor")
    if mask is None:
        masked = x
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != x.shape:
            raise ShapeError("mask shape must match the tensor")
        if not mask.any(axis=1).all():
            raise ShapeError("logsumexp_rows: a row excludes every entry")
        masked = np.where(mask, x, -np.inf)
    m = masked.max(axis=1, keepdims=True)
    e = np.exp(masked - m)
    s = e.sum(axis=1, keepdims=True)
    out = (m + np.log(s)).reshape(-1)
    softmax = e / s

    def vjp(g):
        return (g[:, None] * softmax if a.requires_grad else None,)

    return _attach(out, (a,), vjp)


def positive_pairs(pairs):
    """Flattened (anchor, partner) index arrays of a ``PairSets``."""
    n, k = pairs.positives.shape
    return np.repeat(np.arange(n), k), pairs.positives.reshape(-1)


def reference_ggc(graph, pairs, temperature, include_positive):
    """The global term as the chain of gathers it once was on the tape."""
    inv_t = 1.0 / temperature
    anchors, partners = positive_pairs(pairs)
    pos_vals = gather_pairs(graph.sims, anchors, partners)
    if include_positive:
        cols = np.concatenate([pairs.negatives[anchors], partners[:, None]],
                              axis=1)
        per_pair_den = logsumexp_rows(nn.mul(
            gather_cols(graph.sims, cols, rows=anchors), inv_t))
    else:
        den = logsumexp_rows(nn.mul(
            gather_cols(graph.sims, pairs.negatives), inv_t))
        per_pair_den = nn.take_rows(den, anchors)
    return nn.sub(nn.tsum(per_pair_den), nn.tsum(nn.mul(pos_vals, inv_t)))


def reference_pairwise(h_u, h_v, temperature):
    """The cross-view term on n >= 2 rows as the chain it once was.

    Each view is normalized on its own and ``s_uu`` and ``s_uv`` come from
    two matmuls; their columns are joined and a masked log-sum-exp runs
    over every column but the anchor and its positive.
    """
    h_u, h_v = _wrap(h_u), _wrap(h_v)
    n = h_u.data.shape[0]
    inv_t = 1.0 / temperature
    un = _normalize_rows(h_u)
    vn = _normalize_rows(h_v)
    s_uu = nn.matmul(un, nn.transpose(un))
    s_uv = nn.matmul(un, nn.transpose(vn))
    sims = concat_cols([s_uu, s_uv])                      # (n, 2n)

    keep = np.ones((n, 2 * n), dtype=bool)
    idx = np.arange(n)
    keep[idx, idx] = False                                # the anchor itself
    keep[idx, n + idx] = False                            # its positive
    den = logsumexp_rows(nn.mul(sims, inv_t), keep)       # (n,)

    pos = gather_pairs(s_uv, idx, idx)
    return nn.sub(nn.tsum(den), nn.tsum(nn.mul(pos, inv_t)))
