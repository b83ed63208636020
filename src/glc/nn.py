"""Minimal dense-tensor numerical core.

Every value is a float64 numpy array (2-D matrices, 1-D vectors, 0-d
scalars).  ``Tensor`` wraps one array together with the bookkeeping for
reverse-mode differentiation: while a ``Tape`` is attached, each operation
appends a node, and ``backward`` replays the nodes in reverse order to
accumulate a gradient for every watched parameter.  The nodes are what the
objective needs, one per layer, loss term or sum: :func:`dense` (a layer,
``x @ W.T + b`` and an optional ReLU), :func:`sq_error` (every view's
reconstruction error), :func:`unit_rows` (parts stacked, each row scaled to
unit norm), :func:`gram_contrast` (InfoNCE over partner sets of a Gram
block of such a stack, for both contrastive terms), :func:`sum_terms` (a
weighted sum of scalars, also ``+``) and :func:`take_rows` (a row gather).
Each docstring states its node's contract: the chain of elementary ops,
kept as a reference in ``tests/reference_chain.py``, whose value and
gradients it matches, byte for byte unless it says otherwise.

A tape is meant for a single forward/backward cycle.  ``backward`` drops
each node's VJP closure as soon as the sweep has passed the node, so the
softmaxes, masks and offsets the nodes saved go during the sweep, while
the tape still lists its nodes.  It then detaches the watched parameters
and every recorded node from the tape, so reusing the same parameter
tensors on a fresh tape (the normal training-step pattern) never leaks
nodes, a step's activations are freed by reference counting as soon as the
step drops them, and forward passes without a tape record nothing.

A tape can hold segments (:func:`record_segments`): sub-computations that
share no parameter, each recorded on a tape of its own and appended in
order, so the tape reads as if they had run one after another.
``backward`` sweeps the nodes after them first, then each segment on its
own, so every gradient sum happens in the same order as one sweep would
make it.  Given a tape built on an executor (:func:`segment_pool`), the
segments' forward passes and sweeps run on its workers, one task per
segment; numpy's BLAS and elementwise loops release the GIL, so they
overlap.  ``segment_pool`` builds its executor only when some parameter
has more than ``_BLOCK`` (65,536) elements; smaller models start no
thread.  Results are bit-identical either way, on any number of cores.

Training hands each parameter to its optimizer during the sweep: with
``updates``, once a segment's sweep has passed the last of the segment's
nodes that consume a parameter (its earliest consumer on the tape),
``backward`` calls the segment's update with that parameter and its
gradient, in the segment's task, and drops the gradient.  A segment then
holds about one layer's weight gradient at a time.  An :class:`AdamState`
owns its parameters and updates one at a time (:meth:`AdamState.start`,
then :meth:`AdamState.update` with the tensor), the path :func:`adam_step`
runs too; an error there stops the sweep after the parameters handed off
before it were updated.

Matrix products go through numpy's BLAS.  Those kernels are deterministic
for a fixed environment and BLAS thread count; the thread count comes from
the BLAS library's own variables (``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS``, ...), exported before numpy is loaded; nothing here
sets it.  ``GLC_THREADS`` does not touch it either: it only sets how many
sweep cells the command line runs in parallel processes.  Training gives
each view a segment, so a run with a parameter over ``_BLOCK`` starts one
worker per view, and ``GLC_THREADS=N`` can keep up to N x views threads
busy, plus BLAS's own; with the views already running at once, setting
``OPENBLAS_NUM_THREADS`` above 1 oversubscribes the cores.
"""

import contextvars
import functools
import math
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeError


class Tensor:
    """A float64 array plus the bookkeeping reverse mode needs."""

    __slots__ = ("data", "requires_grad", "tape", "_parents", "_vjp")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.tape = None
        self._parents = ()
        self._vjp = None

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return sum_terms([self, other])

    __radd__ = __add__


class Tape:
    """Ordered record of the primitive operations of one forward pass;
    ``pool`` (from :func:`segment_pool`) runs its segments."""

    def __init__(self, pool=None):
        self._nodes = []
        self._watched = []
        self._segments = []
        self._pool = pool

    def watch(self, param):
        """Register ``param`` so ``backward`` reports its gradient."""
        if not isinstance(param, Tensor):
            raise TypeError("can only watch Tensor parameters")
        if param.tape is self:
            return
        param.tape = self
        param.requires_grad = True
        self._watched.append(param)


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad, shape):
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _attach(data, parents, vjp):
    """Build the result tensor and record it if a live tape is involved."""
    tape = None
    for p in parents:
        t = p.tape
        if t is not None:
            if tape is None:
                tape = t
            elif tape is not t:
                raise ValueError("operands were recorded on different tapes")
    out = Tensor(data)
    if tape is not None and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out.tape = tape
        out._parents = parents
        out._vjp = vjp
        tape._nodes.append(out)
    return out


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------

def sum_terms(terms, weights=None):
    """``w_0 * t_0 + w_1 * t_1 + ...`` over scalar tensors or numbers (all
    weights 1 by default), as one node; the VJP gives each term ``g * w``.

    A term of weight 0 is left out, and with no term left the sum is a
    constant 0.0; it folds left from the first term kept.  Value and
    gradients are byte-equal to ``add(add(mul(w_0, t_0), mul(w_1, t_1)),
    ...)`` (``1.0 * t`` is ``t`` exactly), and with unit weights to the sum
    from 0.0, ``add(add(0.0, t_0), t_1)...``, unless ``t_0`` is -0.0.
    """
    terms = [_wrap(t) for t in terms]
    weights = [1.0] * len(terms) if weights is None else list(map(float, weights))
    if len(weights) != len(terms) or any(t.data.ndim for t in terms):
        raise ShapeError("sum_terms needs one weight per scalar term")
    kept = [(t, w) for t, w in zip(terms, weights) if w != 0.0]
    if not kept:
        return Tensor(0.0)

    def vjp(g):
        return tuple(g * w if t.requires_grad else None for t, w in kept)

    return _attach(functools.reduce(np.add, [w * t.data for t, w in kept]),
                   tuple(t for t, _ in kept), vjp)


def unit_rows(parts):
    """2-D tensors stacked along axis 0, each row scaled to unit norm, as one
    node; a row of norm 0 raises ``NumericError``.

    Each part's gradient is its slice of the stack's, which adds the
    ``div`` part first, then the ``mul`` ones, as the sweep of the
    ``concat_rows``, ``mul``, ``tsum``, ``sqrt``, ``div`` chain did: value
    and gradients are byte-equal to it while no later node reads a part.
    """
    parts = tuple(_wrap(p) for p in parts)
    if not parts:
        raise ShapeError("unit_rows needs at least one part")
    x = np.concatenate([p.data for p in parts], axis=0)
    norms = np.sqrt(np.sum(x * x, axis=1, keepdims=True))
    if np.any(norms == 0.0):
        raise NumericError("zero-norm feature row (degenerate embedding)")
    ends = np.cumsum([len(p.data) for p in parts])

    def vjp(g):
        gb = _unbroadcast(-g * x / (norms * norms), norms.shape)
        gm = (gb * (0.5 / norms)) * x
        grads = np.split((g / norms + gm) + gm, ends[:-1])
        return tuple(pg if p.requires_grad else None
                     for p, pg in zip(parts, grads))

    return _attach(x / norms, parts, vjp)


def sq_error(preds, xs):
    """``sum((pred - x) ** 2)`` summed over the pairs of ``preds`` and the
    constants ``xs``, as one node.

    The pairs' sums add in order from the first.  Each pred's gradient is
    ``g * (pred - x)`` added to itself: value and gradients are byte-equal
    to ``0.0`` plus one ``sub``, ``mul``, ``tsum`` chain per pair.
    """
    preds, xs = tuple(_wrap(p) for p in preds), list(xs)
    if not preds or len(xs) != len(preds):
        raise ShapeError("sq_error needs one target per prediction")
    diffs = [p.data - np.asarray(x, dtype=np.float64)
             for p, x in zip(preds, xs)]

    def vjp(g):
        gds = [float(g) * d for d in diffs]
        return tuple(gd + gd if p.requires_grad else None
                     for p, gd in zip(preds, gds))

    return _attach(functools.reduce(np.add, [np.sum(d * d) for d in diffs]),
                   preds, vjp)


def _scatter_add(shape, flat, g):
    """Sum ``g`` into float64 zeros of ``shape`` at C-order offsets ``flat``.

    ``bincount`` adds in input order starting from 0.0, as ``np.add.at``
    does, so the result is byte-equal to ``np.add.at`` on the same entries.
    """
    if flat.size == 0:
        return np.zeros(shape)
    return np.bincount(flat.reshape(-1), weights=g.reshape(-1),
                       minlength=math.prod(shape)).reshape(shape)


def _nonneg(idx, size):
    """Indices with negative entries wrapped the way indexing wraps them."""
    return np.where(idx < 0, idx + size, idx) if (idx < 0).any() else idx


def take_rows(a, idx):
    """Select rows (or 1-D entries) by index; repeats accumulate in index order."""
    a = _wrap(a)
    idx = np.asarray(idx, dtype=np.intp)

    def vjp(g):
        if not a.requires_grad:
            return (None,)
        shape = a.data.shape
        inner = math.prod(shape[1:])
        flat = _nonneg(idx, shape[0])[..., None] * inner + np.arange(inner)
        return (_scatter_add(shape, flat, g),)

    return _attach(a.data[idx], (a,), vjp)


def _contrast(x, positives, negatives, scale, include):
    """InfoNCE over per-row partner sets of an (n, c) array ``x``: its
    value, and the function that maps an upstream gradient to its gradient
    buffer, of ``x``'s shape.

    Rows of ``x`` are anchors.  Row i of ``positives`` (n, k) holds column
    indices of ``x``; every positive pair (i, j) adds
    ``log(sum_{l in neg(i)} exp(scale * x[i, l])) - scale * x[i, j]``, and
    the value is the sum over all pairs.  With ``include`` the pair's own
    positive entry joins its denominator.  A row's positives and negatives
    must be distinct columns.

    ``negatives`` comes in two forms, read in different orders.  As indices
    (n, m), each row's entries are read in the order given: the global term
    passes its pair sets, so its sums follow similarity order.  As an (n, c)
    boolean mask with the same count m in every row (unequal counts are a
    ShapeError), each row's entries are read in column order with one
    boolean gather, ``x[mask]``, and written back with one boolean scatter:
    the cross-view term keeps every column but two per row, and as flat
    offsets those would take n (2n - 2) int64 to build, gather and
    scatter.  Given the same entries in the same order, the two forms are
    byte-equal in value and gradient.

    Each anchor's log-sum-exp over its negatives, ``den_i``, is computed
    once, with the row maximum subtracted before exponentiating so large
    similarity/temperature ratios cannot overflow.  A pair's denominator
    term ``t_ij`` is ``den_i``, or with the positive in the denominator
    ``logaddexp(den_i, scale * x[i, j])``; that choice is the only branch.
    The gradient is one for both: with ``q_ij = exp(den_i - t_ij)``
    (exactly 1 by default) the anchor's negative softmax is scaled, in
    place, by ``g * sum_j q_ij`` and then by ``scale``, and each positive
    gets ``-g * scale * q_ij``, all written into one zeroed buffer.  The
    gradient function keeps the softmax and the offsets it read, not ``x``,
    and runs once: a tape is swept once, so nothing reads the softmax
    afterwards.  Value and gradient equal the chain ``gather_pairs``,
    ``gather_cols``, ``mul``, ``logsumexp_rows``, ``take_rows``, ``tsum``,
    ``sub`` (kept in ``tests/reference_chain.py``) within rounding.
    """
    positives = np.asarray(positives, dtype=np.intp)
    negatives = np.asarray(negatives)
    if x.ndim != 2:
        raise ShapeError("a contrastive term needs a 2-D matrix")
    n, c = shape = x.shape
    if positives.ndim != 2 or negatives.ndim != 2 or \
            positives.shape[0] != n or negatives.shape[0] != n:
        raise ShapeError("partner sets need one row per matrix row")
    # C-order offsets of the entries read, so each set is one flat take
    base = np.arange(n, dtype=np.intp)[:, None] * c
    pos_flat = base + positives
    if negatives.dtype == bool:
        if negatives.shape != shape:
            raise ShapeError("a negative mask needs the matrix's shape")
        counts = np.count_nonzero(negatives, axis=1)
        width = counts.max(initial=0)
        if (counts != width).any():
            raise ShapeError("a negative mask needs the same count per row")
        neg_at = negatives.reshape(-1)      # row by row, columns in order
    else:
        width = negatives.shape[1]
        neg_at = (base + negatives).reshape(-1)
    softmax = x.reshape(-1)[neg_at].reshape(n, width)
    # a masked log-sum-exp's operations, each in place on one array
    softmax *= scale
    m = softmax.max(axis=1, keepdims=True)
    softmax -= m
    np.exp(softmax, out=softmax)
    s = softmax.sum(axis=1, keepdims=True)
    den = m + np.log(s)
    softmax /= s
    pos = np.take(x, pos_flat) * scale
    if include:
        per_pair = np.logaddexp(den, pos)
    else:
        per_pair = np.broadcast_to(den, pos.shape)
    out = np.sum(per_pair) - np.sum(pos)

    def grad(g):
        g = float(g)
        q = np.exp(den - per_pair)      # d term/d den_i; d term/d pos: -q
        np.multiply(softmax, g * q.sum(axis=1, keepdims=True), out=softmax)
        np.multiply(softmax, scale, out=softmax)
        buf = np.zeros(shape)
        flat = buf.reshape(-1)
        flat[neg_at] = softmax.reshape(-1)
        flat[pos_flat] = ((-g) * scale) * q
        return buf

    return out, grad


def gram_contrast(unit, sims, positives, negatives, scale, include=False,
                  block=None):
    """InfoNCE over per-row partner sets of a Gram block of an (N, d)
    matrix U = ``unit``, as one tape node whose parent is U.

    ``sims`` is ``U @ U.T``, (N, N), formed by the caller (the global
    graph's similarities; no pair set reads the diagonal).  Given ``block =
    (rows, cols)`` of distinct row indices the node gathers and reads
    ``sims[rows][:, cols]`` (a view pair's ``[s_uu | s_uv]``), else all of
    it.  :func:`_contrast` defines the value, the two forms of
    ``negatives`` and the gradient buffer G; only its saved softmax
    outlives the forward pass, until :func:`backward` sweeps the node.
    The VJP adds ``(U[rows].T @ G).T`` into rows ``cols`` of zeros, then
    ``G @ U[cols]`` into rows ``rows`` (every row without a block): the
    sums of the ``take_rows``, ``transpose`` and ``matmul`` nodes that once
    formed the block, so value and gradient are byte-equal to that chain
    (``tests/reference_chain.py``), on all of ``sims`` up to the sign of
    an exact zero.
    """
    unit = _wrap(unit)
    u = unit.data
    sims = np.asarray(sims)
    if u.ndim != 2:
        raise ShapeError("a contrastive term needs a 2-D matrix")
    if sims.shape != (len(u),) * 2:
        raise ShapeError("the similarities need the Gram matrix's shape")
    x = sims if block is None else sims[np.ix_(*block)]
    out, grad = _contrast(x, positives, negatives, scale, include)

    def vjp(g):
        if not unit.requires_grad:
            return (None,)
        buf = grad(g)
        rows, cols = (slice(None),) * 2 if block is None else block
        g_u = np.zeros(u.shape)
        g_u[cols] += (u[rows].T @ buf).T
        g_u[rows] += buf @ u[cols]
        return (g_u,)

    return _attach(out, (unit,), vjp)


# ---------------------------------------------------------------------------
# segments and backward
# ---------------------------------------------------------------------------

def _each(pool, fn, args):
    """``[fn(*a) for a in args]``, each call a task on ``pool`` if given.

    ``args`` is drawn on the calling thread.  A task runs in a copy of the
    caller's context, so ``np.errstate`` holds there too, and every task
    ends before the first error among them is raised.
    """
    if pool is None:
        return [fn(*a) for a in args]
    futures = [pool.submit(contextvars.copy_context().run, fn, *a)
               for a in args]
    wait(futures)
    return [future.result() for future in futures]


def record_segments(tape, fn, args):
    """``[fn(*a, segment_tape) for a in args]``, each call a segment.

    Without a tape each call gets ``None``.  With one, each call records on
    a fresh tape, as a task on the tape's pool if it has one, and the
    segments' nodes and watched parameters are then appended to ``tape``
    in order, as if recorded there one after another.  Segments come
    before any other node and share no parameter, so :func:`backward` can
    sweep each on its own; a parameter watched earlier moves to its
    segment.  ``tape._segments`` holds their slices of ``_nodes`` and
    ``_watched``.
    """
    if tape is None:
        return [fn(*a, None) for a in args]
    if tape._nodes or tape._segments:
        raise ValueError("segments must come before any other node")
    args = list(args)
    subs = [Tape() for _ in args]
    results = _each(tape._pool, lambda a, sub: fn(*a, sub), zip(args, subs))
    earlier, tape._watched = tape._watched, []
    for sub in subs:
        nodes, watched = len(tape._nodes), len(tape._watched)
        for t in sub._nodes + sub._watched:
            t.tape = tape
        tape._nodes += sub._nodes
        tape._watched += sub._watched
        tape._segments.append((slice(nodes, len(tape._nodes)),
                               slice(watched, len(tape._watched))))
    owned = set(map(id, tape._watched))
    if len(owned) != len(tape._watched):
        raise ValueError("segments share a parameter")
    tape._watched += [p for p in earlier if id(p) not in owned]
    return results


def _sweep(nodes, grads, due=None, update=None):
    """Pull ``grads`` (keyed by tensor id) back through ``nodes``.

    ``due`` maps a node's id to the parameters whose gradients are final
    once that node is done, also when it got no gradient; each goes to
    ``update(param, grad)`` then, and its gradient is dropped.
    """
    for node in reversed(nodes):
        g = grads.pop(id(node), None)
        if g is not None:
            for parent, pg in zip(node._parents, node._vjp(g)):
                if pg is None:
                    continue
                held = grads.get(id(parent))
                grads[id(parent)] = pg if held is None else held + pg
        node._vjp = None            # what it saved goes now, not with the tape
        if due:
            for param in due.get(id(node), ()):
                update(param, _take(grads, param))


def _take(grads, param):
    """Pop ``param``'s gradient from ``grads``; zeros if it got none."""
    g = grads.pop(id(param), None)
    return np.zeros_like(param.data) if g is None else np.asarray(g)


def _sweep_handing_off(nodes, params, grads, update):
    """:func:`_sweep` ``nodes``, giving each of ``params`` to ``update``
    as soon as its gradient is final.

    The sweep runs in reverse tape order, so a parameter's gradient is
    final once the sweep has passed its earliest consumer among ``nodes``,
    the last of them it reaches.  A parameter no node consumes is handed
    off at the end, with whatever ``grads`` holds for it or zeros.
    """
    pending = {id(p): p for p in params}
    due = {}
    for node in nodes:
        for parent in node._parents:
            if id(parent) in pending:
                due.setdefault(id(node), []).append(pending.pop(id(parent)))
    _sweep(nodes, grads, due, update)
    for param in pending.values():
        update(param, _take(grads, param))


def backward(tape, loss, updates=None):
    """Accumulate d(loss)/d(param) for every watched parameter.

    Returns a dict keyed by the parameter tensors; parameters that do not
    influence the loss get zero gradients.  The tape's watched parameters
    and recorded nodes are released afterwards, so subsequent tape-less
    forward passes record nothing.

    The nodes after the tape's segments are swept first, on the calling
    thread; the gradients they pass into a segment are then final.  Each
    segment is then swept in its own reverse order, as a task on the tape's
    pool if it has one, so every sum happens in the order of one sweep
    over the whole tape.

    A segment's sweep hands off each of its parameters once, in the
    segment's task, as soon as it has passed the last of the segment's
    nodes that consume it (one none consumes goes at the end, with zeros or
    what the nodes above passed it), then drops its gradient: to the
    result, or with ``updates`` to ``updates[k](param, grad)`` for segment
    k.  An error in an update ends that segment's sweep, but parameters
    handed off before it stay updated.
    """
    if not isinstance(loss, Tensor) or loss.tape is not tape:
        raise ValueError("loss was not computed on this tape")
    if loss.data.size != 1:
        raise ShapeError("loss must be a scalar")

    nodes, watched, segments = tape._nodes, tape._watched, tape._segments
    top = segments[-1] if segments else (slice(0), slice(0))
    grads = {id(loss): np.ones_like(loss.data)}
    _sweep(nodes[top[0].stop:], grads)

    def shares():
        # each segment's part of what the top sweep left; a task owns its
        # part, and it is dropped when the task ends
        for k, (node_slice, param_slice) in enumerate(segments):
            keys = map(id, nodes[node_slice] + watched[param_slice])
            yield k, {key: grads.pop(key) for key in keys if key in grads}

    def sweep_segment(k, own):
        node_slice, param_slice = segments[k]
        params = watched[param_slice]
        got = {} if updates is not None else dict.fromkeys(params)
        _sweep_handing_off(nodes[node_slice], params, own,
                           got.__setitem__ if updates is None else updates[k])
        return got

    result = {}
    for got in _each(tape._pool, sweep_segment, shares()):
        result.update(got)
    for param in watched[top[1].stop:]:
        result[param] = _take(grads, param)
    for param in watched:
        param.tape = None
    # nodes point back at the tape that lists them; cutting that link lets
    # reference counting free the step, without waiting for the cyclic GC
    for node in nodes:
        node.tape = None
    return result


# ---------------------------------------------------------------------------
# MLP layers
# ---------------------------------------------------------------------------

@dataclass
class Layer:
    weight: Tensor          # (out, in)
    bias: Tensor            # (out,)
    activation: str = "identity"   # "relu" | "identity"

    def __post_init__(self):
        w, b = self.weight.data, self.bias.data
        if w.ndim != 2 or b.ndim != 1 or b.shape[0] != w.shape[0]:
            raise ShapeError(f"layer shapes inconsistent: W{w.shape} b{b.shape}")
        if self.activation not in ("relu", "identity"):
            raise ValueError(f"unknown activation {self.activation!r}")


class Mlp:
    """Fully connected stack: hidden layers ReLU, final layer identity."""

    def __init__(self, layers):
        if not layers:
            raise ShapeError("an MLP needs at least one layer")
        for a, b in zip(layers, layers[1:]):
            if b.weight.data.shape[1] != a.weight.data.shape[0]:
                raise ShapeError("layer widths do not chain")
        if layers[-1].activation != "identity":
            raise ShapeError("the final layer must use the identity activation")
        self.layers = list(layers)

    @classmethod
    def create(cls, sizes, rng):
        """Initialize from layer widths with fan-in-scaled uniform noise."""
        if len(sizes) < 2:
            raise ShapeError("need an input and an output width")
        layers = []
        for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
            limit = 1.0 / math.sqrt(fan_in)
            weight = Tensor(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
            bias = Tensor(rng.uniform(-limit, limit, size=fan_out))
            act = "identity" if i == len(sizes) - 2 else "relu"
            layers.append(Layer(weight, bias, act))
        return cls(layers)

    @property
    def in_dim(self):
        return self.layers[0].weight.data.shape[1]

    @property
    def out_dim(self):
        return self.layers[-1].weight.data.shape[0]

    def parameters(self):
        params = []
        for layer in self.layers:
            params.append(layer.weight)
            params.append(layer.bias)
        return params


def dense(x, layer):
    """``x @ W.T + b``, then ReLU on a ``"relu"`` layer, as one node.

    The ReLU maps every entry that is not ``> 0`` (``-0.0`` and NaN too)
    to ``+0.0``, and its subgradient at exactly 0 is 0.  The output is the
    layer's only activation-sized array.  The VJP masks a copy of ``g``,
    never ``g`` itself, which may be a view of another node's gradient, and
    forms the weight gradient as ``(x.T @ g).T``, the form the four-node
    chain it replaces used (``tests/reference_chain.py``): value and
    gradients are byte-equal to it.
    """
    x = _wrap(x)
    w, b = layer.weight, layer.bias
    y = x.data @ w.data.T
    y += b.data
    relu = layer.activation == "relu"
    if relu:
        on = y > 0.0
        np.copyto(y, 0.0, where=~on)

    def vjp(g):
        if relu:
            g = g * on
        return (g @ w.data if x.requires_grad else None,
                (x.data.T @ g).T if w.requires_grad else None,
                g.sum(axis=0) if b.requires_grad else None)

    return _attach(y, (x, w, b), vjp)


def mlp_forward(net, x, tape=None):
    """Run ``net`` on a (batch, in_dim) matrix.

    With a tape, all layer parameters are watched and the pass is
    differentiable; without one it is a plain forward computation.
    """
    if tape is not None:
        for p in net.parameters():
            tape.watch(p)
    t = _wrap(x)
    if t.data.ndim != 2:
        raise ShapeError("mlp_forward expects a 2-D input")
    if t.data.shape[1] != net.in_dim:
        raise ShapeError(
            f"input width {t.data.shape[1]} != expected {net.in_dim}")
    for layer in net.layers:
        t = dense(t, layer)
    return t


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

# A parameter larger than this many elements is updated in blocks of whole
# rows of about this size, so a block's gradient copy and temporaries stay in
# cache between the update's passes.  Over the paper profile's parameters on
# a 2-vCPU Xeon VM, one thread ran 16K to 64K equally fast, 4K 30% and 256K
# 10% slower; three views' updates on their workers at once, with fewer
# numpy calls contending for the GIL, ran in 98 ms at 64K, 136 ms at 16K.
_BLOCK = 65536

# Adam's decay rates and denominator guard; no run sets them otherwise
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _block_plan(shapes):
    """Per parameter shape, ``(index, t, u)`` for each block to update.

    A parameter of at most ``_BLOCK`` elements is one block, indexed by
    ``...``; a larger one is cut into blocks of whole rows of at most
    ``_BLOCK`` elements, or of one row where a row is wider.  ``t`` and
    ``u`` are views, in block shape, of one scratch buffer sized for the
    largest block; blocks of one shape share them.
    """
    cuts = []
    for shape in shapes:
        if math.prod(shape) <= _BLOCK:
            cuts.append([(..., shape)])
            continue
        rows = max(1, _BLOCK // math.prod(shape[1:]))
        cuts.append([(slice(i, i + rows),
                      (min(rows, shape[0] - i),) + shape[1:])
                     for i in range(0, shape[0], rows)])
    block_shapes = {b for blocks in cuts for _, b in blocks}
    t, u = np.empty((2, max(map(math.prod, block_shapes), default=0)))
    views = {b: (t[:math.prod(b)].reshape(b), u[:math.prod(b)].reshape(b))
             for b in block_shapes}
    return [[(i, *views[b]) for i, b in blocks] for blocks in cuts]


class AdamState:
    """One optimizer over ``params``: their first/second moment buffers,
    the shared step count and, per parameter, the blocks an update walks
    and their views of one block-sized scratch buffer.

    A step is :meth:`start`, then :meth:`update` once per parameter, in any
    order; :func:`adam_step` does both.  States that update at the same
    time need a scratch buffer each, so each needs a state of its own.
    The first step plans the blocks, so the scratch buffer lands above its
    temporaries on the heap and keeps glibc from trimming pages that each
    later step faults in again (a desk warm-up: 30 times the faults).
    """

    def __init__(self, params, learning_rate=1e-3):
        self.params = list(params)
        self.learning_rate = learning_rate
        self.step = 0
        self.first_moment = [np.zeros_like(p.data) for p in self.params]
        self.second_moment = [np.zeros_like(p.data) for p in self.params]
        self._index = {p: i for i, p in enumerate(self.params)}
        self._blocks = self._bias = None

    def _find(self, param, grad):
        """``param``'s index; ShapeError if foreign or ``grad`` misfits."""
        i = self._index.get(param)
        if i is None:
            raise ShapeError("the optimizer state does not hold this tensor")
        if grad.shape != param.data.shape:
            raise ShapeError(f"gradient shape {grad.shape} != parameter "
                             f"shape {param.data.shape}")
        return i

    def start(self):
        """Begin a step: count it and fix its bias corrections (and, on the
        first step, plan the parameters' blocks)."""
        if self._blocks is None:
            self._blocks = _block_plan([p.data.shape for p in self.params])
        self.step += 1
        self._bias = (1.0 - ADAM_BETA1 ** self.step,
                      1.0 - ADAM_BETA2 ** self.step)

    def update(self, param, grad):
        """Update ``param`` and its moments with ``grad`` in the step
        :meth:`start` began.  A tensor this state does not hold or a bad
        shape raises ``ShapeError`` before anything changes."""
        grad = np.asarray(grad, dtype=np.float64)
        i = self._find(param, grad)
        _update_param(self, *self._bias, param.data, self.first_moment[i],
                      self.second_moment[i], grad, self._blocks[i])


def _adam_update(state, bias1, bias2, p, m, v, g, t, u):
    """Update ``p``, ``m`` and ``v`` in place; ``t`` and ``u`` are scratch.

    ``g`` may be ``u`` itself: it is last read before ``u`` is written.
    """
    np.multiply(g, 1.0 - ADAM_BETA1, out=t)
    m *= ADAM_BETA1
    m += t
    np.multiply(g, g, out=t)
    t *= 1.0 - ADAM_BETA2
    v *= ADAM_BETA2
    v += t
    np.divide(m, bias1, out=t)
    t *= state.learning_rate
    np.divide(v, bias2, out=u)
    np.sqrt(u, out=u)
    u += ADAM_EPS
    t /= u
    p -= t


def _update_param(state, bias1, bias2, p, m, v, g, blocks):
    """Walk one parameter's ``blocks`` (from :func:`_block_plan`) through
    :func:`_adam_update`.

    A gradient block that is not C-contiguous (``backward`` gives weight
    gradients as transposed views) is first copied into the block's
    scratch: it is then read once, and no pass mixes layouts, which runs
    at about half speed.
    """
    for i, t, u in blocks:
        gb = g[i]
        if not gb.flags.c_contiguous:
            np.copyto(u, gb)
            gb = u
        _adam_update(state, bias1, bias2, p[i], m[i], v[i], gb, t, u)


def adam_step(state, grads):
    """One Adam update of ``state.params`` with bias correction, in place.

    ``grads`` is either the mapping returned by :func:`backward` or a
    sequence aligned with ``state.params``.  Every length and shape is
    checked before anything changes, so a bad gradient raises
    ``ShapeError`` and leaves parameters, moments and ``state.step`` as
    they were.  It then runs :meth:`AdamState.start` and
    :meth:`AdamState.update` for each parameter, the path a ``backward``
    hand-off takes one parameter at a time; there a bad gradient raises
    before its own parameter changes, but parameters handed off earlier in
    the step are already updated.

    Each element goes through the same operations in the same order as the
    whole-array formula::

        m = b1*m + (1-b1)*g
        v = b2*v + (1-b2)*(g*g)
        p -= (lr * (m/bias1)) / (sqrt(v/bias2) + eps)

    so the results are bit-identical to it, but every operation writes into
    scratch owned by ``state`` and no parameter-sized temporary is
    allocated.  A parameter of more than ``_BLOCK`` elements is walked in
    blocks of whole rows (:func:`_block_plan`), so every pass over a block
    runs in cache.
    """
    params = state.params
    if isinstance(grads, dict):
        grads = [grads[p] for p in params]
    grads = [np.asarray(g, dtype=np.float64) for g in grads]
    if len(grads) != len(params):
        raise ShapeError("gradient list does not match the parameter list")
    for p, g in zip(params, grads):
        state._find(p, g)
    state.start()
    for p, g in zip(params, grads):
        state.update(p, g)


def segment_pool(params, workers):
    """A ``workers``-thread executor for tape segments, used in ``with``, or
    a context giving ``None`` if no parameter exceeds ``_BLOCK`` elements.
    """
    if all(p.data.size <= _BLOCK for p in params):
        return nullcontext()
    return ThreadPoolExecutor(max_workers=workers,
                              thread_name_prefix="glc-segment")


# ---------------------------------------------------------------------------
# finite-difference checking
# ---------------------------------------------------------------------------

def grad_check(loss_fn, params, eps=1e-6):
    """Compare tape gradients of ``loss_fn`` against central differences.

    ``loss_fn(tape)`` must rebuild the loss from scratch each call, routing
    every operation through the given tape (or running plain forward when
    the tape is None).  Returns the maximum relative error
    ``|analytic - fd| / max(1, |fd|)`` over all parameter entries.
    """
    tape = Tape()
    for p in params:
        tape.watch(p)
    loss = loss_fn(tape)
    if not np.isfinite(loss.data):
        raise NumericError("loss is not finite at the evaluation point")
    analytic = backward(tape, loss)

    worst = 0.0
    for p in params:
        a = analytic[p].reshape(-1)
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + eps
            up = float(loss_fn(None).data)
            flat[i] = saved - eps
            down = float(loss_fn(None).data)
            flat[i] = saved
            fd = (up - down) / (2.0 * eps)
            err = abs(a[i] - fd) / max(1.0, abs(fd))
            if err > worst:
                worst = err
    return worst
