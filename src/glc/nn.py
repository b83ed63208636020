"""Minimal dense-tensor numerical core.

Every value is a float64 numpy array (2-D matrices, 1-D vectors, 0-d
scalars).  ``Tensor`` wraps one array together with the bookkeeping for
reverse-mode differentiation: while a ``Tape`` is attached, each operation
appends a node, and ``backward`` replays the nodes in reverse order to
accumulate a gradient for every watched parameter.  The op set is exactly
what dense MLPs, affinity graphs and InfoNCE need.  :func:`dense` records
a whole layer (product, bias and optional ReLU) as one node with one
activation-sized output; it replaced the four nodes ``transpose``,
``matmul``, ``add`` and ``relu`` per layer (that chain is kept in
``tests/reference_chain.py``) and is byte-equal to them.  ``take_rows``' VJP
scatters with ``np.bincount``: repeated indices add in index order from
0.0, byte-equal to ``np.add.at``.  :func:`pair_contrast` is the one contrastive
kernel, for the global graph's term and the cross-view term alike: it reads
each anchor row's positive and negative entries through flat offsets,
subtracts the row maximum before exponentiating so large
similarity/temperature ratios cannot overflow, and its VJP writes into one
buffer of the matrix's shape.  It equals the chain of gathers it replaced
(kept in ``tests/reference_chain.py``) within rounding, for both
denominators.

A tape is meant for a single forward/backward cycle.  ``backward`` detaches
the watched parameters and every recorded node from the tape afterwards,
so reusing the same parameter tensors on a fresh tape (the normal
training-step pattern) never leaks nodes, a step's activations are freed by
reference counting as soon as the step drops them, and forward passes
without a tape record nothing.

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
holds about one layer's weight gradient at a time.  :class:`AdamState`
updates one parameter at a time (:meth:`AdamState.start`, then
:meth:`AdamState.update`), the same path :func:`adam_step` runs; an error
there stops the sweep after the parameters handed off before it were
updated.

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
import math
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import nullcontext
from dataclasses import dataclass, field

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
        return add(self, other)

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

def add(a, b):
    a, b = _wrap(a), _wrap(b)

    def vjp(g):
        return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g, b.data.shape) if b.requires_grad else None)

    return _attach(a.data + b.data, (a, b), vjp)


def sub(a, b):
    a, b = _wrap(a), _wrap(b)

    def vjp(g):
        return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(-g, b.data.shape) if b.requires_grad else None)

    return _attach(a.data - b.data, (a, b), vjp)


def mul(a, b):
    a, b = _wrap(a), _wrap(b)

    def vjp(g):
        return (_unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None)

    return _attach(a.data * b.data, (a, b), vjp)


def div(a, b):
    a, b = _wrap(a), _wrap(b)

    def vjp(g):
        ga = _unbroadcast(g / b.data, a.data.shape) if a.requires_grad else None
        gb = None
        if b.requires_grad:
            gb = _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)
        return ga, gb

    return _attach(a.data / b.data, (a, b), vjp)


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


def pair_contrast(a, positives, negatives, scale,
                  include_positive_in_denominator=False):
    """InfoNCE over per-row partner sets of an (n, c) matrix, as one node.

    Rows of ``a`` are anchors.  Row i of ``positives`` (n, k) and
    ``negatives`` (n, m) holds column indices of ``a``; every positive pair
    (i, j) adds
    ``log(sum_{l in neg(i)} exp(scale * a[i, l])) - scale * a[i, j]``, and
    the result is the sum over all pairs.  With
    ``include_positive_in_denominator`` the pair's own positive entry joins
    its denominator.  A row's positives and negatives must be distinct
    columns.  Both contrastive terms run through it: the global graph's
    N x N similarities, and a view pair's (n, 2n) block ``[s_uu | s_uv]``.

    Each anchor's log-sum-exp over its negatives, ``den_i``, is computed
    once.  A pair's denominator term ``t_ij`` is ``den_i``, or with the
    positive in the denominator ``logaddexp(den_i, scale * a[i, j])``; that
    choice is the only branch.  The VJP is one for both: with
    ``q_ij = exp(den_i - t_ij)`` (exactly 1 by default) the anchor's
    negative softmax is scaled by ``g * sum_j q_ij`` and each positive gets
    ``-g * scale * q_ij``.  Value and gradient equal the chain
    ``gather_pairs``, ``gather_cols``, ``mul``, ``logsumexp_rows``,
    ``take_rows``, ``tsum``, ``sub`` (kept in ``tests/reference_chain.py``)
    within rounding.
    """
    a = _wrap(a)
    x = a.data
    positives = np.asarray(positives, dtype=np.intp)
    negatives = np.asarray(negatives, dtype=np.intp)
    if x.ndim != 2:
        raise ShapeError("pair_contrast expects a 2-D matrix")
    n, c = x.shape
    if positives.ndim != 2 or negatives.ndim != 2 or \
            positives.shape[0] != n or negatives.shape[0] != n:
        raise ShapeError("partner sets need one row per matrix row")
    # C-order offsets of the entries read, so each set is one flat take
    base = np.arange(n, dtype=np.intp)[:, None] * c
    pos_flat = base + positives
    neg_flat = base + negatives
    # a masked log-sum-exp's operations, each in place on one array
    softmax = np.take(x, neg_flat)
    softmax *= scale
    m = softmax.max(axis=1, keepdims=True)
    softmax -= m
    np.exp(softmax, out=softmax)
    s = softmax.sum(axis=1, keepdims=True)
    den = m + np.log(s)
    softmax /= s
    pos = np.take(x, pos_flat) * scale
    if include_positive_in_denominator:
        per_pair = np.logaddexp(den, pos)
    else:
        per_pair = np.broadcast_to(den, pos.shape)
    out = np.sum(per_pair) - np.sum(pos)

    def vjp(g):
        if not a.requires_grad:
            return (None,)
        g = float(g)
        q = np.exp(den - per_pair)      # d term/d den_i; d term/d pos: -q
        neg_grad = (g * q.sum(axis=1, keepdims=True)) * softmax
        neg_grad *= scale
        grad = np.zeros(x.shape)
        flat = grad.reshape(-1)
        flat[neg_flat] = neg_grad
        flat[pos_flat] = ((-g) * scale) * q
        return (grad,)

    return _attach(out, (a,), vjp)


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

    With ``updates``, segment k's parameters go to ``updates[k](param,
    grad)`` one at a time, in the segment's task, each as soon as the
    sweep has passed the last of the segment's nodes that consume it (a
    parameter none consumes goes at the end, with zeros or what the nodes
    above passed it).  Each is handed off once, and its gradient is then
    dropped; the result leaves them out.  An error in an update ends that
    segment's sweep, but parameters handed off before it stay updated.
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
        if updates is not None:
            _sweep_handing_off(nodes[node_slice], watched[param_slice], own,
                               updates[k])
            return {}
        _sweep(nodes[node_slice], own)
        return {param: _take(own, param) for param in watched[param_slice]}

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


def _check_shapes(param, m, v, grad):
    if grad.shape != param.data.shape:
        raise ShapeError(
            f"gradient shape {grad.shape} != parameter shape {param.data.shape}")
    if m.shape != param.data.shape or v.shape != param.data.shape:
        raise ShapeError("optimizer state does not match the parameter list")


@dataclass
class AdamState:
    """Per-parameter first/second moment buffers plus the shared step count.

    A step is :meth:`start`, then :meth:`update` once per parameter, in any
    order; :func:`adam_step` does both.  ``_blocks`` holds, per parameter,
    the blocks an update walks and their views of one block-sized scratch
    buffer; the first step builds it and every later step reuses it.
    States that update at the same time need a scratch buffer each, so each
    needs a state of its own.
    """

    learning_rate: float = 1e-3
    step: int = 0
    first_moment: list = field(default_factory=list)
    second_moment: list = field(default_factory=list)
    _blocks: list = field(default=None, init=False, repr=False, compare=False)
    _bias: tuple = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def for_params(cls, params, learning_rate=1e-3):
        state = cls(learning_rate=learning_rate)
        state.first_moment = [np.zeros_like(p.data) for p in params]
        state.second_moment = [np.zeros_like(p.data) for p in params]
        return state

    def start(self):
        """Begin a step: count it and fix its bias corrections (and, on the
        first step, plan the parameters' blocks)."""
        if self._blocks is None:
            self._blocks = _block_plan([m.shape for m in self.first_moment])
        self.step += 1
        self._bias = (1.0 - ADAM_BETA1 ** self.step,
                      1.0 - ADAM_BETA2 ** self.step)

    def update(self, i, param, grad):
        """Update ``param``, the ``i``-th parameter, and its moments with
        ``grad`` in the step :meth:`start` began.  A bad shape raises
        ``ShapeError`` before anything of this parameter changes."""
        grad = np.asarray(grad, dtype=np.float64)
        m, v = self.first_moment[i], self.second_moment[i]
        _check_shapes(param, m, v, grad)
        _update_param(self, *self._bias, param.data, m, v, grad,
                      self._blocks[i])

    def by_param(self, params):
        """:meth:`update` keyed by the tensors ``params`` lists, in the form
        :func:`backward` hands gradients to."""
        index = {p: i for i, p in enumerate(params)}
        return lambda param, grad: self.update(index[param], param, grad)


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


def adam_step(state, params, grads):
    """One Adam update with bias correction, applied in place.

    ``grads`` is either the mapping returned by :func:`backward` or a
    sequence aligned with ``params``.  Every length and shape is checked
    before anything changes, so a bad gradient raises ``ShapeError`` and
    leaves parameters, moments and ``state.step`` as they were.  It then
    runs :meth:`AdamState.start` and :meth:`AdamState.update` for each
    parameter, the path a ``backward`` hand-off takes one parameter at a
    time; there a bad gradient raises before its own parameter changes,
    but parameters handed off earlier in the step are already updated.

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
    moments = state.first_moment, state.second_moment
    if any(len(ms) != len(params) for ms in moments):
        raise ShapeError("optimizer state does not match the parameter list")
    if isinstance(grads, dict):
        grad_list = [grads[p] for p in params]
    else:
        grad_list = list(grads)
        if len(grad_list) != len(params):
            raise ShapeError("gradient list does not match the parameter list")
    grad_list = [np.asarray(g, dtype=np.float64) for g in grad_list]
    for p, m, v, g in zip(params, *moments, grad_list):
        _check_shapes(p, m, v, g)
    state.start()
    for i, (p, g) in enumerate(zip(params, grad_list)):
        state.update(i, p, g)
    return params, state


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
