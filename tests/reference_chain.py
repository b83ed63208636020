"""``glc.nn``'s nodes as the chains of elementary tape ops they match.

:func:`pair_contrast` runs ``glc.nn``'s contrastive kernel as one node on
a similarity matrix.  The ops here are the gathers and the masked
log-sum-exp that kernel was built from before; the tests keep them, and
the two chains built from them, as references: the global term must match
:func:`reference_ggc` with either denominator, and the cross-view term
:func:`reference_pairwise`, within 1e-12 relative, and byte for byte
:func:`offset_total`, the same nodes with their negatives as column
indices instead of a mask.  ``glc.nn.gram_contrast`` is the kernel on a
Gram block of a stack of unit rows, as one node on the stack; it must
match :func:`pair_contrast` on :func:`gram_chain`, the ``matmul`` and
``transpose`` (and, for a block of some rows, ``take_rows``) nodes that
formed the block on the tape, byte for byte.  ``glc.nn.dense`` is one node per
layer; it must match :func:`reference_dense`, the ``transpose``,
``matmul``, :func:`add` and :func:`relu` chain, byte for byte.
``glc.nn.unit_rows`` must match :func:`concat_rows` followed by
:func:`_normalize_rows`, the :func:`mul`, :func:`tsum`, :func:`sqrt` and
:func:`div` chain; ``glc.nn.sq_error`` the sum from 0.0, by :func:`add`,
of one :func:`sub`, :func:`mul`, :func:`tsum` chain per view; and
``glc.nn.sum_terms`` the :func:`add` and :func:`mul` chains the objective
was summed with; all byte for byte.  Each op records a node on the tape
like any ``glc.nn`` op.
"""

import numpy as np

from glc import nn
from glc.errors import NumericError, ShapeError
from glc.graphs import build_global_graph
from glc.nn import (_attach, _contrast, _nonneg, _scatter_add, _unbroadcast,
                    _wrap)


def add(a, b):
    a, b = _wrap(a), _wrap(b)

    def vjp(g):
        return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g, b.data.shape) if b.requires_grad else None)

    return _attach(a.data + b.data, (a, b), vjp)


def mul(a, b):
    a, b = _wrap(a), _wrap(b)

    def vjp(g):
        return (_unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None)

    return _attach(a.data * b.data, (a, b), vjp)


def concat_rows(parts):
    """Stack 2-D tensors along axis 0."""
    parts = tuple(_wrap(p) for p in parts)
    if not parts:
        raise ShapeError("concat_rows needs at least one part")
    sizes = [p.data.shape[0] for p in parts]

    def vjp(g):
        outs, offset = [], 0
        for p, size in zip(parts, sizes):
            outs.append(g[offset:offset + size] if p.requires_grad else None)
            offset += size
        return tuple(outs)

    return _attach(np.concatenate([p.data for p in parts], axis=0), parts, vjp)


def sub(a, b):
    a, b = _wrap(a), _wrap(b)

    def vjp(g):
        return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(-g, b.data.shape) if b.requires_grad else None)

    return _attach(a.data - b.data, (a, b), vjp)


def div(a, b):
    a, b = _wrap(a), _wrap(b)

    def vjp(g):
        ga = _unbroadcast(g / b.data, a.data.shape) if a.requires_grad else None
        gb = None
        if b.requires_grad:
            gb = _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)
        return ga, gb

    return _attach(a.data / b.data, (a, b), vjp)


def sqrt(a):
    a = _wrap(a)
    out = np.sqrt(a.data)

    def vjp(g):
        return (g * (0.5 / out) if a.requires_grad else None,)

    return _attach(out, (a,), vjp)


def tsum(a, axis=None, keepdims=False):
    """Sum over all entries (axis=None) or along one axis."""
    a = _wrap(a)
    shape = a.data.shape

    def vjp(g):
        if not a.requires_grad:
            return (None,)
        if axis is None:
            return (np.full(shape, float(g)),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, shape).copy(),)

    return _attach(np.sum(a.data, axis=axis, keepdims=keepdims), (a,), vjp)


def _normalize_rows(t):
    """Scale each row to unit Euclidean norm as the four nodes it once was."""
    sq = tsum(mul(t, t), axis=1, keepdims=True)
    norms = sqrt(sq)
    if np.any(norms.data == 0.0):
        raise NumericError("zero-norm feature row (degenerate embedding)")
    return div(t, norms)


def matmul(a, b):
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError("matmul expects 2-D operands")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"matmul shapes do not chain: {a.data.shape} @ {b.data.shape}")

    def vjp(g):
        return (g @ b.data.T if a.requires_grad else None,
                a.data.T @ g if b.requires_grad else None)

    return _attach(a.data @ b.data, (a, b), vjp)


def transpose(a):
    a = _wrap(a)

    def vjp(g):
        return (g.T if a.requires_grad else None,)

    return _attach(a.data.T, (a,), vjp)


def pair_contrast(a, positives, negatives, scale,
                  include_positive_in_denominator=False):
    """``glc.nn._contrast`` on the matrix ``a``, as one node whose parent
    is ``a``."""
    a = _wrap(a)
    out, grad = _contrast(a.data, positives, negatives, scale,
                          include_positive_in_denominator)

    def vjp(g):
        return (grad(g) if a.requires_grad else None,)

    return _attach(out, (a,), vjp)


def relu(a):
    """Elementwise max(x, 0); the subgradient at exactly 0 is 0."""
    a = _wrap(a)
    on = a.data > 0.0

    def vjp(g):
        return (g * on if a.requires_grad else None,)

    return _attach(np.where(on, a.data, 0.0), (a,), vjp)


def reference_dense(x, layer):
    """One dense layer as the four nodes it once was on the tape."""
    out = add(matmul(x, transpose(layer.weight)), layer.bias)
    return relu(out) if layer.activation == "relu" else out


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


def gram_chain(unit, block=None):
    """A Gram block of ``unit`` as the nodes that formed it on the tape:
    the global graph's square block ``unit @ unit.T`` from ``unit`` and its
    transpose, or given ``block = (rows, cols)``, ``unit[rows] @
    unit[cols].T`` from the rows two ``take_rows`` nodes gathered."""
    if block is None:
        return matmul(unit, transpose(unit))
    rows, cols = block
    return matmul(nn.take_rows(unit, rows),
                  transpose(nn.take_rows(unit, cols)))


def reference_ggc(sims, pairs, temperature, include_positive):
    """The global term on the similarity tensor ``sims`` as the chain of
    gathers it once was on the tape."""
    inv_t = 1.0 / temperature
    anchors, partners = positive_pairs(pairs)
    pos_vals = gather_pairs(sims, anchors, partners)
    if include_positive:
        cols = np.concatenate([pairs.negatives[anchors], partners[:, None]],
                              axis=1)
        per_pair_den = logsumexp_rows(mul(
            gather_cols(sims, cols, rows=anchors), inv_t))
    else:
        den = logsumexp_rows(mul(
            gather_cols(sims, pairs.negatives), inv_t))
        per_pair_den = nn.take_rows(den, anchors)
    return sub(tsum(per_pair_den), tsum(mul(pos_vals, inv_t)))


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
    s_uu = matmul(un, transpose(un))
    s_uv = matmul(un, transpose(vn))
    sims = concat_cols([s_uu, s_uv])                      # (n, 2n)

    keep = np.ones((n, 2 * n), dtype=bool)
    idx = np.arange(n)
    keep[idx, idx] = False                                # the anchor itself
    keep[idx, n + idx] = False                            # its positive
    den = logsumexp_rows(mul(sims, inv_t), keep)       # (n,)

    pos = gather_pairs(s_uv, idx, idx)
    return sub(tsum(den), tsum(mul(pos, inv_t)))


def offset_total(h_list, co_available, temperature):
    """The cross-view term over all view pairs with index negatives.

    One global graph of ``h_list`` and, per view pair with n >= 2 common
    rows, one :func:`glc.nn.gram_contrast` node on the block of the pair's
    stacked rows against [those rows; the other view's], as
    ``glc.graphs.lwc_total`` reads it, but each anchor's 2n - 2 negatives
    are given as column indices, listed in column order, rather than as a
    mask.
    """
    graph = build_global_graph(h_list)
    starts = np.cumsum([0] + [_wrap(h).data.shape[0] for h in h_list])
    total = nn.Tensor(0.0)
    for (u, v), (rows_u, rows_v) in sorted(co_available.items()):
        n = len(rows_u)
        if n < 2:
            continue
        rows = starts[u] + np.asarray(rows_u)
        cols = np.concatenate([rows, starts[v] + np.asarray(rows_v)])
        negatives = np.array([[j for j in range(2 * n) if j not in (i, n + i)]
                              for i in range(n)])
        term = nn.gram_contrast(graph.unit, graph.sims.data,
                                (np.arange(n) + n)[:, None], negatives,
                                1.0 / temperature, block=(rows, cols))
        total = add(total, term)
    return total
