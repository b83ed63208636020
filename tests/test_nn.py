"""Tensor/tape core: op gradients, MLP forward, Adam, grad_check."""

import gc
import math
import sys
import threading
import time
import tracemalloc
import weakref
from functools import partial

import numpy as np
import pytest

from glc import nn
from glc.errors import NumericError, ShapeError
from glc.nn import (_BLOCK, ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState,
                    Layer, Mlp, Tape, Tensor, adam_step, backward, dense,
                    grad_check, mlp_forward, record_segments, segment_pool,
                    sq_error, sum_terms, take_rows, unit_rows)
from reference_chain import (_normalize_rows, add, concat_cols, concat_rows,
                             div, gather_cols, gather_pairs, gram_chain,
                             logsumexp_rows, matmul, mul, pair_contrast,
                             reference_dense, relu, sqrt, sub, transpose,
                             tsum)


def _identity_layer(n, activation="identity"):
    return Layer(Tensor(np.eye(n)), Tensor(np.zeros(n)), activation)


# ---------------------------------------------------------------------------
# forward fixtures
# ---------------------------------------------------------------------------

def test_identity_layer_passthrough():
    net = Mlp([_identity_layer(2)])
    out = mlp_forward(net, np.array([[1.0, 2.0]]))
    np.testing.assert_array_equal(out.data, [[1.0, 2.0]])


def test_relu_layer_clamps_negatives():
    net = Mlp([_identity_layer(2, "relu"), _identity_layer(2)])
    out = mlp_forward(net, np.array([[-3.0, 5.0]]))
    np.testing.assert_array_equal(out.data, [[0.0, 5.0]])


def test_two_layer_hand_example():
    # 2 * max(0, 1 + 2) + 1 = 7
    l1 = Layer(Tensor(np.array([[1.0, 1.0]])), Tensor(np.zeros(1)), "relu")
    l2 = Layer(Tensor(np.array([[2.0]])), Tensor(np.array([1.0])))
    out = mlp_forward(Mlp([l1, l2]), np.array([[1.0, 2.0]]))
    np.testing.assert_array_equal(out.data, [[7.0]])


def test_mlp_forward_deterministic():
    rng = np.random.default_rng(0)
    net = Mlp.create([5, 8, 3], rng)
    x = np.random.default_rng(1).normal(size=(4, 5))
    a = mlp_forward(net, x).data
    b = mlp_forward(net, x).data
    np.testing.assert_array_equal(a, b)


def test_mlp_create_same_seed_identical():
    p1 = Mlp.create([3, 4, 2], np.random.default_rng(7)).parameters()
    p2 = Mlp.create([3, 4, 2], np.random.default_rng(7)).parameters()
    for a, b in zip(p1, p2):
        np.testing.assert_array_equal(a.data, b.data)


def test_mlp_shape_validation():
    with pytest.raises(ShapeError):
        Mlp([_identity_layer(2, "relu")])      # final layer must be identity
    with pytest.raises(ShapeError):
        Mlp([_identity_layer(2), _identity_layer(3)])
    net = Mlp([_identity_layer(2)])
    with pytest.raises(ShapeError):
        mlp_forward(net, np.zeros((1, 3)))


# ---------------------------------------------------------------------------
# backward on simple losses
# ---------------------------------------------------------------------------

def test_gradient_of_sum_is_ones():
    tape = Tape()
    p = Tensor(np.arange(6.0).reshape(2, 3))
    tape.watch(p)
    grads = backward(tape, tsum(p))
    np.testing.assert_array_equal(grads[p], np.ones((2, 3)))


def test_gradient_of_squared_norm():
    tape = Tape()
    x = Tensor(np.array([1.0, 2.0]))
    tape.watch(x)
    grads = backward(tape, tsum(mul(x, x)))
    np.testing.assert_array_equal(grads[x], [2.0, 4.0])


def test_unused_parameter_gets_zero_gradient():
    tape = Tape()
    x = Tensor(np.array([1.0]))
    y = Tensor(np.array([3.0, 4.0]))
    tape.watch(x)
    tape.watch(y)
    grads = backward(tape, tsum(mul(x, x)))
    np.testing.assert_array_equal(grads[y], [0.0, 0.0])


def test_backward_requires_scalar_loss():
    tape = Tape()
    x = Tensor(np.array([1.0, 2.0]))
    tape.watch(x)
    with pytest.raises(ShapeError):
        backward(tape, mul(x, x))


def test_backward_releases_watched_params():
    tape = Tape()
    x = Tensor(np.array([2.0]))
    tape.watch(x)
    backward(tape, tsum(mul(x, x)))
    assert x.tape is None
    # a fresh forward pass without a tape must not record anything
    out = mul(x, x)
    assert out.tape is None


def test_backward_frees_the_step_without_the_cyclic_collector():
    # after backward no recorded node points back at its tape, so reference
    # counting frees a step's activations as soon as the step drops them
    x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))

    def step():
        tape = Tape()
        tape.watch(x)
        hidden = relu(matmul(x, x))
        backward(tape, tsum(mul(hidden, hidden)))
        return weakref.ref(hidden.data)

    enabled = gc.isenabled()
    gc.disable()
    try:
        probe = step()
        assert probe() is None
    finally:
        if enabled:
            gc.enable()


def test_broadcast_add_gradient_unbroadcasts():
    tape = Tape()
    b = Tensor(np.array([1.0, -1.0]))
    tape.watch(b)
    x = Tensor(np.ones((3, 2)))
    grads = backward(tape, tsum(add(x, b)))
    np.testing.assert_array_equal(grads[b], [3.0, 3.0])


def test_two_tapes_cannot_mix():
    t1, t2 = Tape(), Tape()
    a = Tensor(np.array([1.0]))
    b = Tensor(np.array([2.0]))
    t1.watch(a)
    t2.watch(b)
    with pytest.raises(ValueError):
        add(a, b)


# ---------------------------------------------------------------------------
# op-level gradient checks against central differences
# ---------------------------------------------------------------------------

def test_grad_check_quadratic():
    p = Tensor(np.array([0.5, -1.5, 2.0]))

    def loss(tape):
        if tape is not None:
            tape.watch(p)
        return tsum(mul(p, p))

    assert grad_check(loss, [p]) < 1e-8


def _rand(rng, *shape):
    return Tensor(rng.normal(size=shape))


def test_grad_check_elementwise_ops():
    rng = np.random.default_rng(11)
    p = _rand(rng, 3, 4)
    q = Tensor(rng.uniform(0.5, 2.0, size=(3, 4)))

    def loss(tape):
        if tape is not None:
            tape.watch(p)
            tape.watch(q)
        a = add(mul(p, q), sub(p, div(p, q)))
        d = sqrt(add(mul(q, q), 0.1))
        return tsum(add(a, d))

    assert grad_check(loss, [p, q]) < 1e-7


def test_grad_check_matmul_transpose():
    rng = np.random.default_rng(12)
    a = _rand(rng, 4, 3)
    b = _rand(rng, 5, 3)

    def loss(tape):
        if tape is not None:
            tape.watch(a)
            tape.watch(b)
        prod = matmul(a, transpose(b))
        return tsum(mul(prod, prod))

    assert grad_check(loss, [a, b]) < 1e-7


def test_grad_check_relu_away_from_kink():
    rng = np.random.default_rng(13)
    raw = rng.normal(size=(4, 4))
    raw[np.abs(raw) < 0.1] = 0.5   # keep fixtures away from the kink
    p = Tensor(raw)

    def loss(tape):
        if tape is not None:
            tape.watch(p)
        return tsum(mul(relu(p), relu(p)))

    assert grad_check(loss, [p]) < 1e-7


def test_grad_check_sum_axes_and_concat():
    rng = np.random.default_rng(14)
    p = _rand(rng, 3, 4)
    q = _rand(rng, 2, 4)

    def loss(tape):
        if tape is not None:
            tape.watch(p)
            tape.watch(q)
        stacked = concat_rows([p, q])
        side = concat_cols([p, p])
        return add(tsum(mul(stacked, stacked)),
                   tsum(tsum(side, axis=1, keepdims=True)))

    assert grad_check(loss, [p, q]) < 1e-7


def test_grad_check_gather_ops():
    rng = np.random.default_rng(15)
    p = _rand(rng, 5, 5)
    rows = np.array([0, 2, 2, 4])
    cols = np.array([1, 3, 0, 4])

    def loss(tape):
        if tape is not None:
            tape.watch(p)
        a = take_rows(p, rows)
        b = gather_pairs(p, rows, cols)
        c = gather_cols(p, np.array([[0, 1], [2, 3], [1, 1], [4, 0], [3, 2]]))
        return add(tsum(mul(a, a)), add(tsum(mul(b, b)), tsum(mul(c, c))))

    assert grad_check(loss, [p]) < 1e-7


_DUP = np.array([2, 0, 2, -1, 4, 2, -5])     # repeats, negatives
_NONE = np.array([], dtype=np.intp)
_COLS = np.array([[1, 1, -1], [0, 5, 5], [2, -6, 2]])

_GATHER_CASES = {
    "take_rows_1d": ((5,), lambda t: take_rows(t, _DUP), (_DUP,)),
    "take_rows_1d_empty": ((5,), lambda t: take_rows(t, _NONE), (_NONE,)),
    "take_rows_2d": ((5, 3), lambda t: take_rows(t, _DUP), (_DUP,)),
    "take_rows_2d_empty": ((5, 3), lambda t: take_rows(t, _NONE), (_NONE,)),
    "gather_pairs": ((5, 4), lambda t: gather_pairs(t, _DUP, _DUP % 3 - 1),
                     (_DUP, _DUP % 3 - 1)),
    "gather_pairs_empty": ((5, 4), lambda t: gather_pairs(t, _NONE, _NONE),
                           (_NONE, _NONE)),
    "gather_cols": ((5, 6), lambda t: gather_cols(t, _COLS),
                    (np.arange(3)[:, None], _COLS)),
    "gather_cols_rows": ((5, 6),
                         lambda t: gather_cols(t, _COLS, rows=[4, -1, 4]),
                         (np.array([[4], [-1], [4]]), _COLS)),
    "gather_cols_empty": ((5, 6),
                          lambda t: gather_cols(t, _NONE.reshape(0, 3)),
                          (_NONE[:, None], _NONE.reshape(0, 3))),
}


@pytest.mark.parametrize("case", sorted(_GATHER_CASES))
def test_gather_vjps_are_byte_equal_to_add_at(case):
    # the scatter must add duplicates in index order starting from +0.0,
    # as np.add.at does: sums of +-1e16 and 1.0 depend on that order, and
    # a -0.0 that lands alone on an entry must come out as +0.0
    shape, gather, where = _GATHER_CASES[case]
    rng = np.random.default_rng(17)
    p = Tensor(rng.normal(size=shape))
    Tape().watch(p)
    out = gather(p)
    g = rng.choice([1e16, -1e16, 1.0, -0.0], size=out.data.shape)
    (got,) = out._vjp(g)
    want = np.zeros(shape)
    np.add.at(want, where, g)
    assert got.dtype == np.float64 and got.shape == shape
    assert got.tobytes() == want.tobytes()


def test_grad_check_logsumexp_masked():
    rng = np.random.default_rng(16)
    p = _rand(rng, 4, 6)
    mask = np.ones((4, 6), dtype=bool)
    mask[0, 0] = mask[1, 3] = mask[2, 2] = False

    def loss(tape):
        if tape is not None:
            tape.watch(p)
        return tsum(logsumexp_rows(p, mask=mask))

    assert grad_check(loss, [p]) < 1e-7


def test_logsumexp_matches_scipy():
    from scipy.special import logsumexp as scipy_lse
    rng = np.random.default_rng(17)
    x = rng.normal(size=(5, 7)) * 10
    got = logsumexp_rows(Tensor(x)).data
    np.testing.assert_allclose(got, scipy_lse(x, axis=1), rtol=1e-12)
    mask = rng.uniform(size=(5, 7)) > 0.3
    mask[:, 0] = True
    got = logsumexp_rows(Tensor(x), mask=mask).data
    want = scipy_lse(np.where(mask, x, -np.inf), axis=1)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_logsumexp_rejects_fully_masked_row():
    x = Tensor(np.zeros((2, 3)))
    mask = np.array([[True, True, True], [False, False, False]])
    with pytest.raises(ShapeError):
        logsumexp_rows(x, mask=mask)


def test_pair_contrast_rejects_mismatched_shapes():
    sets = np.array([[1], [0], [0]]), np.array([[2], [2], [1]])
    # a (3, 4) matrix is read like the first 3 rows of a (4, 4) one
    x = np.random.default_rng(19).normal(size=(4, 4))
    last = np.array([[0]]), np.array([[1]])
    results = []
    for rows, pos, neg in ((x[:3], *sets), (x[3:], *last),
                           (x, *map(np.vstack, zip(sets, last)))):
        t = Tensor(rows.copy())
        tape = Tape()
        tape.watch(t)
        loss = pair_contrast(t, pos, neg, 2.0)
        results.append((loss.item(), backward(tape, loss)[t]))
    (wide, g_wide), (row, g_row), (square, g_square) = results
    np.testing.assert_allclose(wide + row, square, rtol=1e-15)
    assert g_square.tobytes() == np.vstack([g_wide, g_row]).tobytes()
    with pytest.raises(ShapeError):
        pair_contrast(Tensor(np.zeros((2, 2))), *sets, 1.0)
    with pytest.raises(ShapeError):
        pair_contrast(Tensor(np.zeros((3, 3))), sets[0].reshape(-1),
                      sets[1], 1.0)


def _cross_view_mask(n):
    keep = np.ones((n, 2 * n), dtype=bool)
    keep[np.arange(n), np.arange(n)] = False
    keep[np.arange(n), n + np.arange(n)] = False
    return np.arange(n)[:, None] + n, keep


def _random_mask(n):
    # 5 of 9 columns per row, in no pattern; positives among the rest
    rng = np.random.default_rng(23)
    order = np.argsort(rng.random((n, 9)), axis=1)
    mask = np.zeros((n, 9), dtype=bool)
    np.put_along_axis(mask, order[:, :5], True, axis=1)
    return order[:, 5:7], mask


@pytest.mark.parametrize("include", [False, True])
@pytest.mark.parametrize("scale", [2.0, 1000.0])
@pytest.mark.parametrize("sets", [_cross_view_mask, _random_mask])
def test_pair_contrast_mask_is_byte_equal_to_its_indices(sets, scale,
                                                         include):
    # the mask reads each row's entries in column order, so index
    # negatives listed in that order give the same sums; at scale 1000
    # some softmax entries underflow to 0
    n = 6
    positives, mask = sets(n)
    indices = np.nonzero(mask)[1].reshape(n, -1)
    x = np.random.default_rng(24).uniform(-1.0, 1.0, size=mask.shape)
    results = []
    for negatives in (mask, indices):
        t = Tensor(x.copy())
        tape = Tape()
        tape.watch(t)
        loss = mul(pair_contrast(t, positives, negatives, scale,
                                    include), -0.3)
        results.append((loss.data.tobytes(), backward(tape, loss)[t]))
    (value, grad), (want, want_grad) = results
    assert value == want
    assert grad.tobytes() == want_grad.tobytes()
    if scale == 1000.0:
        rows = np.arange(n)[:, None]
        assert (grad[rows, indices] == 0.0).any()


def test_pair_contrast_rejects_a_mask_with_unequal_counts():
    positives, mask = _cross_view_mask(4)
    x = Tensor(np.zeros(mask.shape))
    pair_contrast(x, positives, mask, 1.0)
    mask[2, 2] = True                  # row 2 reads one entry more
    with pytest.raises(ShapeError):
        pair_contrast(x, positives, mask, 1.0)
    with pytest.raises(ShapeError):
        pair_contrast(x, positives, mask[:, :-1], 1.0)


def _square_sets(n, rng):
    # per row, 2 positives and 5 index negatives among the other columns
    order = np.argsort(rng.random((n, n)) + 2.0 * np.eye(n), axis=1)
    return order[:, :2], order[:, 2:7]


def _gram_case(form, n, rng):
    """Unit rows, their partner sets, the n x n similarities the node is
    given and the block it reads: all of them with the diagonal pinned to
    1, the block of the first n/2 rows against all, or a view pair's block
    of three scattered rows against [those rows; three others].  Outside a
    block the similarities are NaN, so reading there would show."""
    x = rng.normal(size=(n, 4))
    unit = x / np.linalg.norm(x, axis=1, keepdims=True)
    if form == "square":
        sims = unit @ unit.T
        np.fill_diagonal(sims, 1.0)
        return unit, *_square_sets(n, rng), sims, None
    if form == "prefix":
        rows, cols = np.arange(n // 2), np.arange(n)
    else:
        rows = np.array([7, 2, 9])
        cols = np.concatenate([rows, [0, 11, 4]])
    sims = np.full((n, n), np.nan)
    # the block as the chain forms it, from the gathered rows
    sims[np.ix_(rows, cols)] = unit[rows] @ unit[cols].T
    return unit, *_cross_view_mask(len(rows)), sims, (rows, cols)


@pytest.mark.parametrize("include", [False, True])
@pytest.mark.parametrize("scale", [2.0, 1000.0])
@pytest.mark.parametrize("upstream", [-0.3, -0.0])
@pytest.mark.parametrize("form", ["square", "prefix", "block"])
def test_gram_contrast_is_byte_equal_to_the_matmul_chain(form, upstream,
                                                         scale, include):
    # the chain formed the block on the tape (matmul of the rows and their
    # transpose, a block's rows and columns gathered by take_rows, the
    # square block's diagonal pinned in place) and ran pair_contrast on
    # it; at scale 1000 some softmax entries underflow to 0
    unit, positives, negatives, sims, block = _gram_case(
        form, 12, np.random.default_rng(30))
    results = []
    for kernel in (True, False):
        t = Tensor(unit.copy())
        tape = Tape()
        tape.watch(t)
        if kernel:
            node = nn.gram_contrast(t, sims, positives, negatives, scale,
                                    include, block=block)
            assert len(tape._nodes) == 1 and node._parents == (t,)
        else:
            chain = gram_chain(t, block)
            if block is None:
                np.fill_diagonal(chain.data, 1.0)
            node = pair_contrast(chain, positives, negatives, scale,
                                 include)
        loss = mul(node, upstream)
        results.append((loss.data.tobytes(), backward(tape, loss)[t]))
    (value, grad), (want, want_grad) = results
    assert value == want
    assert grad.tobytes() == want_grad.tobytes()
    if upstream != 0.0:
        # every row the block reads gets a gradient, and only those
        read = np.zeros(12, dtype=bool)
        read[np.arange(12) if block is None else block[1]] = True
        assert ((np.abs(grad).sum(axis=1) > 0.0) == read).all()


def test_gram_contrast_checks_the_block_shape():
    # the node takes the whole Gram matrix and gathers a block itself
    unit = Tensor(np.eye(4))
    positives, negatives = _cross_view_mask(2)
    block = (np.array([0, 1]), np.arange(4))
    nn.gram_contrast(unit, np.eye(4), positives, negatives, 1.0, block=block)
    # a pre-gathered block, a matrix of another size or a non-square one
    for sims in (np.eye(2, 4), np.eye(5), np.eye(4, 5)):
        with pytest.raises(ShapeError):
            nn.gram_contrast(unit, sims, positives, negatives, 1.0,
                             block=block)
    with pytest.raises(ShapeError):         # no block: the sets need 4 rows
        nn.gram_contrast(unit, np.eye(4), positives, negatives, 1.0)
    with pytest.raises(ShapeError):
        nn.gram_contrast(Tensor(np.ones(4)), np.eye(4), positives,
                         negatives, 1.0, block=block)


@pytest.mark.parametrize("blocked", [False, True])
def test_gram_contrast_keeps_neither_the_similarities_nor_the_block(
        monkeypatch, blocked):
    rng = np.random.default_rng(32)
    t = Tensor(rng.normal(size=(8, 3)))
    tape = Tape()
    tape.watch(t)
    sims = t.data @ t.data.T
    if blocked:
        positives, negatives = _cross_view_mask(4)
        block = (np.arange(4), np.arange(8))
    else:
        (positives, negatives), block = _square_sets(8, rng), None
    read = []
    contrast = nn._contrast

    def spy(x, *args):
        # x is what the node reads: the gathered block, or sims itself
        read.append(weakref.ref(x))
        return contrast(x, *args)

    monkeypatch.setattr(nn, "_contrast", spy)
    node = nn.gram_contrast(t, sims, positives, negatives, 2.0, block=block)
    probes = [weakref.ref(sims), *read]
    assert len(probes) == 2 and (probes[0]() is probes[1]()) != blocked
    del sims
    assert [probe() for probe in probes] == [None, None]
    assert backward(tape, mul(node, 0.5))[t].shape == (8, 3)


def _saved_arrays(fn):
    """The arrays a closure keeps, also through the functions it keeps."""
    found = []
    for cell in fn.__closure__ or ():
        value = cell.cell_contents
        if isinstance(value, np.ndarray):
            found.append(value)
        elif callable(value) and getattr(value, "__closure__", None):
            found += _saved_arrays(value)
    return found


def test_backward_frees_what_a_node_saved_once_it_is_swept():
    # the tape keeps listing its nodes (a benchmark counts them after
    # backward) but no longer their VJP closures: the saved softmax goes
    # as the sweep passes its node, not with the tape
    rng = np.random.default_rng(31)
    t = Tensor(rng.normal(size=(8, 3)))
    tape = Tape()
    tape.watch(t)
    positives, mask = _cross_view_mask(4)
    block = (np.arange(4), np.arange(8))
    node = nn.gram_contrast(t, t.data @ t.data.T, positives, mask, 2.0,
                            block=block)
    loss = mul(node, 0.5)
    (softmax,) = [a for a in _saved_arrays(node._vjp) if a.shape == (4, 6)]
    probe = weakref.ref(softmax)
    del softmax
    nodes = list(tape._nodes)
    backward(tape, loss)
    assert probe() is None
    assert tape._nodes == nodes and len(nodes) == 2
    assert all(n._vjp is None for n in nodes)


def _byte_run(node_fn, xs, weights):
    """Value and gradients, as bytes, of ``sum(node_fn(ts) * weights)`` on
    watched leaves ``ts`` holding the arrays ``xs``; the weights reach the
    node through ``mul``."""
    ts = [Tensor(x.copy()) for x in xs]
    tape = Tape()
    for t in ts:
        tape.watch(t)
    out = node_fn(ts)
    loss = tsum(mul(out, weights))
    grads = backward(tape, loss)
    return out.data.tobytes(), loss.data.tobytes(), \
        [grads[t].tobytes() for t in ts]


@pytest.mark.parametrize("upstream", [-0.0, 1e-300, 1e300])
@pytest.mark.parametrize("shape", [(6, 4), (1, 4), (6, 1)])
def test_unit_rows_is_byte_equal_to_the_four_node_chain(shape, upstream):
    # the stack of parts, empty ones too, against concat_rows and the
    # mul, tsum, sqrt, div chain; one row or one column: one of
    # _unbroadcast's sums has nothing to add
    rng = np.random.default_rng(32)
    x = rng.normal(size=shape)
    if shape[1] > 1:
        x[:, 1] = -0.0                  # every row holds a -0.0
    weights = upstream * rng.choice([1.0, -1.0, 3.0], size=shape)
    half = shape[0] // 2
    for parts in ([x], np.split(x, [half, half])):
        got = _byte_run(unit_rows, parts, weights)
        assert got == _byte_run(lambda ts: _normalize_rows(concat_rows(ts)),
                                parts, weights)


@pytest.mark.parametrize("upstream", [-0.0, 1e-300, 1e300, -0.3])
def test_sq_error_is_byte_equal_to_sub_mul_tsum(upstream):
    # every view's error in one node against the sum from 0.0 of one sub,
    # mul, tsum chain per view, an empty view among them
    rng = np.random.default_rng(33)
    preds = [rng.normal(size=(5, 3)), np.zeros((0, 3)), rng.normal(size=(4, 2))]
    xs = [rng.normal(size=p.shape) for p in preds]
    preds[0][0], xs[0][0] = -0.0, 0.0   # differences of -0.0
    xs[0][1] = preds[0][1]              # and of +0.0

    def chain(ts):
        total = Tensor(0.0)
        for t, x in zip(ts, xs):
            diff = sub(t, Tensor(x))
            total = add(total, tsum(mul(diff, diff)))
        return total

    for k in (1, 3):
        got = _byte_run(lambda ts: sq_error(ts, xs[:k]), preds[:k], upstream)
        assert got == _byte_run(chain, preds[:k], upstream)


def test_unit_rows_rejects_a_zero_norm_row():
    for requires_grad in (True, False):
        t = Tensor(np.array([[1.0, 2.0], [0.0, -0.0]]))
        if requires_grad:
            Tape().watch(t)
        with pytest.raises(NumericError):
            unit_rows([Tensor(np.ones((2, 2))), t])


def test_nodes_on_a_constant_input_record_nothing():
    tape = Tape()
    tape.watch(Tensor(np.ones(2)))
    x = Tensor(np.array([[3.0, 4.0], [1.0, 0.0]]))
    for out in (unit_rows([x, x]), sq_error([x, x], [np.zeros((2, 2))] * 2),
                sum_terms([Tensor(2.0), 3.0], [0.5, 1.0])):
        assert out.tape is None and not out.requires_grad
    assert tape._nodes == []


def _sum_run(fn, values, upstream):
    """Value and gradients, as bytes, of ``fn(ts) * upstream`` on watched
    scalar leaves ``ts`` holding ``values``; a constant result has none."""
    ts = [Tensor(v) for v in values]
    tape = Tape()
    for t in ts:
        tape.watch(t)
    out = fn(ts)
    if out.tape is None:
        return out.data.tobytes(), out.requires_grad
    loss = mul(out, upstream)
    grads = backward(tape, loss)
    return out.data.tobytes(), loss.data.tobytes(), \
        [grads[t].tobytes() for t in ts]


@pytest.mark.parametrize("upstream", [-0.0, 1e-300, 1e300, -0.3])
@pytest.mark.parametrize("pick", [(), (0,), (0, 1, 2, 3), (2, None, 1)],
                         ids=["empty", "one", "four", "constant"])
def test_sum_terms_is_byte_equal_to_the_add_chain(pick, upstream):
    # unit weights against the running sum from Tensor(0.0); None picks a
    # constant term, which takes no gradient, and no term records nothing
    values = [0.7, -2.25, 3e7, 5e-324]

    def terms(ts):
        return [Tensor(4.5) if i is None else ts[i] for i in pick]

    def running(ts):
        total = Tensor(0.0)
        for t in terms(ts):
            total = add(total, t)
        return total

    assert _sum_run(lambda ts: sum_terms(terms(ts)), values, upstream) == \
        _sum_run(running, values, upstream)


@pytest.mark.parametrize("upstream", [-0.0, 1e-300, 1e300, -0.3])
@pytest.mark.parametrize("weights", [(1.0, 0.1, 1.0), (1.0, 0.0, 2.5),
                                     (1.0, 0.0, 0.0), (1.0, -3.0, 1e-300)])
def test_sum_terms_is_byte_equal_to_the_weighted_chain(weights, upstream):
    # the objective's sum: the first term as it is, then add(mul(w, t)) for
    # each later term of nonzero weight; a weight of 0 leaves its term out,
    # constant or not, and with it its gradient
    values = [-0.0, 2.75, -1.5]
    for constant in (False, True):
        def chain(ts):
            terms = ts[:2] + [4.5] if constant else ts
            out = terms[0]
            for t, w in zip(terms[1:], weights[1:]):
                if w != 0.0:
                    out = add(out, mul(w, t))
            return out

        def node(ts):
            return sum_terms(ts[:2] + [4.5] if constant else ts, weights)

        assert _sum_run(node, values, upstream) == \
            _sum_run(chain, values, upstream)


def test_sum_terms_checks_its_terms():
    with pytest.raises(ShapeError):
        sum_terms([Tensor(1.0), Tensor(2.0)], [1.0])
    with pytest.raises(ShapeError):
        sum_terms([Tensor(np.ones(2))])


def _dense_fixture():
    # small integers keep every product exact, so pre-activations can be
    # exactly +0.0: a product the bias cancels, and zero inputs plus a
    # -0.0 bias (BLAS sums products from +0.0)
    rng = np.random.default_rng(21)
    x = rng.integers(-3, 4, size=(6, 4)).astype(float)
    w = rng.integers(-2, 3, size=(5, 4)).astype(float)
    b = rng.integers(-2, 3, size=5).astype(float)
    x[0], x[1] = 0.0, -0.0
    b[0] = -0.0
    b[1] = -(x[2] @ w[1])
    # upstream gradient: a transposed view, with signed zeros; the ReLU
    # mask turns its negative entries into -0.0
    g = rng.choice([1.5, -2.0, 0.0, -0.0], size=(5, 6)).T
    return x, w, b, g


@pytest.mark.parametrize("activation", ["relu", "identity"])
@pytest.mark.parametrize("watch_input", [True, False])
def test_dense_is_byte_equal_to_the_four_node_chain(activation, watch_input):
    x, w, b, g = _dense_fixture()
    g_before = g.copy()
    got = []
    for forward in (dense, reference_dense):
        layer = Layer(Tensor(w.copy()), Tensor(b.copy()), activation)
        tape = Tape()
        tape.watch(layer.weight)
        tape.watch(layer.bias)
        xt = Tensor(x.copy())
        if watch_input:
            tape.watch(xt)
        out = forward(xt, layer)
        grads = {id(out): g}
        nn._sweep(tape._nodes, grads)
        got.append([out.data] + [grads.get(id(t))
                                 for t in (xt, layer.weight, layer.bias)])
    pre = x @ w.T + b
    assert pre[0, 0] == pre[1, 0] == pre[2, 1] == 0.0
    assert (id(xt) in grads) == watch_input
    for mine, chain in zip(*got):
        if mine is None:
            assert chain is None and not watch_input
            continue
        assert mine.shape == chain.shape
        assert mine.tobytes() == chain.tobytes()
    # the gradient it was handed is left as it was
    assert g.tobytes() == g_before.tobytes()


def test_a_recorded_mlp_forward_holds_one_activation_per_layer():
    rng = np.random.default_rng(20)
    net = Mlp.create([32, 256, 256, 256, 8], rng)
    x = rng.normal(size=(512, 32))
    tape = Tape()
    tracemalloc.start()
    try:
        out = mlp_forward(net, x, tape)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.data.shape == (512, 8) and len(tape._nodes) == 4
    outputs = x.shape[0] * (3 * 256 + 8) * 8
    # a ReLU layer also keeps its mask, an eighth of its output
    assert held < 1.25 * outputs


def test_grad_check_mlp_loss():
    rng = np.random.default_rng(18)
    net = Mlp.create([3, 6, 2], rng)
    x = rng.normal(size=(4, 3))
    target = rng.normal(size=(4, 2))

    def loss(tape):
        out = mlp_forward(net, x, tape=tape)
        err = sub(out, target)
        return tsum(mul(err, err))

    assert grad_check(loss, net.parameters()) < 1e-6


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_zero_gradient_is_noop():
    p = Tensor(np.array([1.0, -2.0, 3.0]))
    before = p.data.copy()
    state = AdamState([p])
    adam_step(state, [np.zeros(3)])
    np.testing.assert_array_equal(p.data, before)


def test_adam_first_step_magnitude():
    # bias correction makes the very first update exactly lr * sign(grad)
    # up to the epsilon term
    p = Tensor(np.array([1.0]))
    state = AdamState([p], learning_rate=1e-3)
    adam_step(state, [np.array([1.0])])
    np.testing.assert_allclose(p.data, [0.999], atol=1e-8)


def test_adam_repeated_steps_decrease_parameter():
    p = Tensor(np.array([1.0]))
    state = AdamState([p], learning_rate=1e-3)
    values = [float(p.data[0])]
    for _ in range(5):
        adam_step(state, [np.array([1.0])])
        values.append(float(p.data[0]))
    assert all(b < a for a, b in zip(values, values[1:]))


def test_adam_accepts_backward_dict():
    p = Tensor(np.array([2.0]))
    state = AdamState([p], learning_rate=0.1)
    tape = Tape()
    tape.watch(p)
    grads = backward(tape, tsum(mul(p, p)))
    adam_step(state, grads)
    assert p.data[0] < 2.0


def test_adam_shape_mismatch_rejected():
    # a bad gradient after a good one changes nothing: no parameter, moment
    # or step count is touched before every shape has been checked
    a = Tensor(np.zeros(2))
    b = Tensor(np.zeros(3))
    state = AdamState([a, b])
    with pytest.raises(ShapeError):
        adam_step(state, [np.ones(2), np.ones(4)])
    assert state.step == 0
    for arr in [a.data, b.data, *state.first_moment, *state.second_moment]:
        np.testing.assert_array_equal(arr, 0.0)


def test_adam_update_refuses_a_tensor_it_does_not_hold():
    # a tensor the state does not hold is refused before anything changes,
    # even one of a held parameter's shape, or one wrapping its very array
    rng = np.random.default_rng(33)
    a, b = Tensor(rng.normal(size=(3, 2))), Tensor(rng.normal(size=4))
    state = AdamState([a, b])
    adam_step(state, [np.ones((3, 2)), np.ones(4)])
    arrays = [a.data, b.data, *state.first_moment, *state.second_moment]
    before = [arr.tobytes() for arr in arrays]
    state.start()
    for foreign in (Tensor(a.data.copy()), Tensor(a.data)):
        with pytest.raises(ShapeError, match="does not hold"):
            state.update(foreign, np.ones((3, 2)))
    with pytest.raises(ShapeError):         # one gradient for two parameters
        adam_step(state, [np.ones((3, 2))])
    assert state.step == 2
    assert [arr.tobytes() for arr in arrays] == before


def _oracle_adam_step(state, grads):
    """The whole-array Adam update ``adam_step`` must match bit for bit."""
    state.step += 1
    bias1 = 1.0 - ADAM_BETA1 ** state.step
    bias2 = 1.0 - ADAM_BETA2 ** state.step
    for p, m, v, g in zip(state.params, state.first_moment,
                          state.second_moment, grads):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        m_hat = m / bias1
        v_hat = v / bias2
        p.data -= state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def _assert_same_adam(state, ref_state, part=slice(None)):
    """``state`` equals the parameters and moments ``part`` of
    ``ref_state``, and its step count."""
    assert state.step == ref_state.step
    assert len(state.params) == len(ref_state.params[part])
    pairs = [(p.data, q.data)
             for p, q in zip(state.params, ref_state.params[part])]
    pairs += list(zip(state.first_moment, ref_state.first_moment[part]))
    pairs += list(zip(state.second_moment, ref_state.second_moment[part]))
    for got, want in pairs:
        assert np.array_equal(got, want)


def test_adam_is_bit_identical_to_the_whole_array_formula():
    rng = np.random.default_rng(7)
    shapes = [(), (5,), (_BLOCK + 5,), (7, 9), (3, _BLOCK + 11), (4000, 37),
              (37, 4000)]
    params = [Tensor(rng.normal(size=s)) for s in shapes]
    ref_params = [Tensor(p.data.copy()) for p in params]
    state = AdamState(params, learning_rate=1e-2)
    ref_state = AdamState(ref_params, learning_rate=1e-2)
    for step in range(4):
        grads = []
        for s in shapes:
            if len(s) == 2 and step % 2:
                # the layout backward gives weight gradients: a transposed view
                grads.append(rng.normal(size=s[::-1]).T)
            else:
                grads.append(rng.normal(size=s) * 10.0 ** step)
        adam_step(state, grads)
        _oracle_adam_step(ref_state, grads)
        _assert_same_adam(state, ref_state)


def test_adam_backward_dict_is_bit_identical_to_the_whole_array_formula():
    rng = np.random.default_rng(8)
    # the 2000 x 40 weight is walked in blocks, its gradient a transposed view
    net = Mlp.create([40, 2000, 3], rng)
    ref_params = [Tensor(p.data.copy()) for p in net.parameters()]
    state = AdamState(net.parameters())
    ref_state = AdamState(ref_params)
    for _ in range(3):
        tape = Tape()
        out = mlp_forward(net, rng.normal(size=(16, 40)), tape=tape)
        grads = backward(tape, tsum(mul(out, out)))
        _oracle_adam_step(ref_state, [grads[p] for p in net.parameters()])
        adam_step(state, grads)
        _assert_same_adam(state, ref_state)


def test_adam_allocates_no_parameter_sized_temporary():
    rng = np.random.default_rng(9)
    p = Tensor(rng.normal(size=(2000, 1000)))
    state = AdamState([p])
    grad = rng.normal(size=(1000, 2000)).T
    tracemalloc.start()
    try:
        adam_step(state, [grad])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < p.data.nbytes / 8


def test_adam_converges_on_quadratic():
    # sanity: minimizing (x - 3)^2 walks x to 3
    p = Tensor(np.array([0.0]))
    state = AdamState([p], learning_rate=0.05)
    for _ in range(500):
        tape = Tape()
        tape.watch(p)
        err = sub(p, 3.0)
        grads = backward(tape, tsum(mul(err, err)))
        adam_step(state, grads)
    np.testing.assert_allclose(p.data, [3.0], atol=1e-3)


# ---------------------------------------------------------------------------
# tape segments: sweeps and Adam updates on a segment pool's workers
# ---------------------------------------------------------------------------

# a square side whose matrix has more than _BLOCK elements
_BIG = math.isqrt(_BLOCK) + 2


def _glc_threads():
    return [t for t in threading.enumerate() if t.name.startswith("glc")]


def _copy_mlp(net):
    return Mlp([Layer(Tensor(layer.weight.data.copy()),
                      Tensor(layer.bias.data.copy()), layer.activation)
                for layer in net.layers])


def _joined_loss(nets, xs, tape, segmented):
    """Each net's forward pass, on a segment of its own or in line."""
    pairs = list(zip(nets, xs))
    outs = (record_segments(tape, mlp_forward, pairs) if segmented
            else [mlp_forward(net, x, tape) for net, x in pairs])
    both = concat_rows(outs)
    # each output feeds three nodes above the segments, so the order of the
    # sums into its gradient shows
    return add(add(tsum(mul(both, both)), tsum(mul(outs[0], outs[1]))),
               tsum(relu(take_rows(outs[1], [0, 0, 3]))))


def _watched_square(p, tape):
    tape.watch(p)
    return tsum(mul(p, p))


def _logging_updates(handed, segments):
    """One update per segment that logs ``(segment, param, grad)``."""
    return [lambda param, grad, k=k: handed.append((k, param, grad))
            for k in range(segments)]


def _adam_updates(groups, **kwargs):
    """An Adam state per parameter group and its one-parameter update."""
    states = [AdamState(ps, **kwargs) for ps in groups]
    return states, [st.update for st in states]


def test_segments_on_a_pool_are_bit_identical_to_one_plain_tape():
    rng = np.random.default_rng(10)
    # only the _BIG x _BIG weights have more than _BLOCK elements
    nets = [Mlp.create([20, _BIG, _BIG, 4], rng) for _ in range(2)]
    refs = [_copy_mlp(net) for net in nets]
    groups = [net.parameters() for net in nets]
    ref_params = [p for ref in refs for p in ref.parameters()]
    states, updates = _adam_updates(groups, learning_rate=1e-2)
    ref_state = AdamState(ref_params, learning_rate=1e-2)
    # switch threads as often as possible, so a race would show
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with segment_pool(groups[0] + groups[1], 2) as pool:
            assert pool is not None
            for _ in range(4):
                xs = [rng.normal(size=(16, 20)) for _ in nets]
                tape = Tape(pool)
                loss = _joined_loss(nets, xs, tape, segmented=True)
                assert len(tape._segments) == 2
                for state in states:
                    state.start()
                # each segment's gradients went to its update, not here
                assert backward(tape, loss, updates) == {}
                tape = Tape()
                loss = _joined_loss(refs, xs, tape, segmented=False)
                adam_step(ref_state, backward(tape, loss))
    finally:
        sys.setswitchinterval(interval)
    assert not _glc_threads()
    sizes = [0, len(groups[0]), len(ref_params)]
    for state, lo, hi in zip(states, sizes, sizes[1:]):
        _assert_same_adam(state, ref_state, slice(lo, hi))


def test_segments_record_like_one_tape_in_call_order():
    rng = np.random.default_rng(15)
    nets = [Mlp.create([3, 4, 2], rng) for _ in range(3)]
    xs = [rng.normal(size=(5, 3)) for _ in nets]
    tape = Tape()
    outs = record_segments(tape, mlp_forward, zip(nets, xs))
    assert tape._watched == [p for net in nets for p in net.parameters()]
    # two nodes per net (one per dense layer), in call order
    assert [(n.start, n.stop, w.start, w.stop)
            for n, w in tape._segments] == [(0, 2, 0, 4), (2, 4, 4, 8),
                                            (4, 6, 8, 12)]
    assert tape._nodes[1::2] == outs
    assert all(t.tape is tape for t in tape._nodes + tape._watched)
    fresh = Mlp.create([3, 2], rng)
    out, = record_segments(None, mlp_forward, [(fresh, xs[0])])
    assert out.tape is None


def test_record_segments_refuses_a_shared_parameter_and_a_used_tape():
    p = Tensor(np.ones(3))
    with pytest.raises(ValueError, match="share"):
        record_segments(Tape(), _watched_square, [(p,), (p,)])
    tape = Tape()
    record_segments(tape, _watched_square, [(p,)])
    with pytest.raises(ValueError, match="before any other node"):
        record_segments(tape, _watched_square, [(Tensor(np.ones(2)),)])


def test_a_parameter_watched_before_moves_to_its_segment():
    early, late, idle = (Tensor(np.full(2, x)) for x in (1.0, 2.0, 3.0))
    tape = Tape()
    tape.watch(idle)
    tape.watch(early)
    outs = record_segments(tape, _watched_square, [(early,), (late,)])
    assert tape._watched == [early, late, idle]
    handed = []
    grads = backward(tape, add(*outs), _logging_updates(handed, 2))
    assert [(k, p) for k, p, _ in handed] == [(0, early), (1, late)]
    np.testing.assert_array_equal(handed[1][2], 4.0)
    assert list(grads) == [idle]
    np.testing.assert_array_equal(grads[idle], 0.0)


def test_backward_hands_off_unused_parameters_with_zero_gradients():
    used, unused = Tensor(np.ones(3)), Tensor(np.ones(2))

    def segment(tape):
        tape.watch(used)
        tape.watch(unused)
        return mul(used, used)

    tape = Tape()
    out, = record_segments(tape, segment, [()])
    handed = []
    assert backward(tape, tsum(out), _logging_updates(handed, 1)) == {}
    assert [p for _, p, _ in handed] == [used, unused]
    np.testing.assert_array_equal(handed[0][2], 2.0)
    np.testing.assert_array_equal(handed[1][2], 0.0)


def test_backward_hands_off_a_reused_parameter_after_its_first_use():
    rng = np.random.default_rng(13)
    w = Tensor(rng.normal(size=(3, 3)))
    x = rng.normal(size=(2, 3))

    def segment(tape):
        tape.watch(w)
        return relu(matmul(matmul(x, w), w))    # w is consumed twice here

    def loss(h):
        return tsum(mul(matmul(h, w), h))       # and once above the segment

    tape = Tape()
    plain = backward(tape, loss(segment(tape)))[w]
    handed = []
    tape = Tape()
    h, = record_segments(tape, segment, [()])
    backward(tape, loss(h), _logging_updates(handed, 1))
    # the segment's two terms join the one from above in one sweep's order
    assert [p for _, p, _ in handed] == [w]
    assert np.array_equal(handed[0][2], plain)


def test_adam_step_keeps_its_contract_inside_the_helper():
    # the helper is a segment pool's worker: a bad gradient there still
    # raises before anything changes
    a = Tensor(np.zeros((_BIG, _BIG)))
    b = Tensor(np.zeros(3))
    state = AdamState([a, b])

    def bad_update(param, grad):
        # on the first hand-off: a's gradient is good, b's has a wrong shape
        adam_step(state, [np.ones(a.shape), np.ones(4)])

    with segment_pool([a, b], 1) as pool:
        tape = Tape(pool)
        out, = record_segments(tape, lambda t: add(_watched_square(a, t),
                                                   _watched_square(b, t)), [()])
        with pytest.raises(ShapeError):
            backward(tape, out, [bad_update])
    assert state.step == 0
    for arr in [a.data, b.data, *state.first_moment, *state.second_moment]:
        np.testing.assert_array_equal(arr, 0.0)


def test_a_worker_error_surfaces_on_the_calling_thread():
    rng = np.random.default_rng(11)
    params = [Tensor(rng.normal(size=(_BIG, _BIG))), Tensor(np.ones(3))]
    states, updates = _adam_updates([[p] for p in params])

    def fail_off_the_main_thread(p, tape):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("worker failed")
        return _watched_square(p, tape)

    def step(square):
        tape = Tape(pool)
        outs = record_segments(tape, square, [(p,) for p in params])
        for state in states:
            state.start()
        backward(tape, add(*outs), updates)

    with segment_pool(params, 2) as pool:
        with pytest.raises(RuntimeError, match="worker failed"):
            step(fail_off_the_main_thread)
        before = params[0].data.copy()
        step(_watched_square)
        assert not np.array_equal(params[0].data, before)
        assert [st.step for st in states] == [1, 1]
    assert not _glc_threads()


def test_adam_step_raises_only_after_every_handed_off_update_is_done(
        monkeypatch):
    rng = np.random.default_rng(14)
    first, second = (Tensor(rng.normal(size=(_BIG, _BIG))) for _ in range(2))
    update = nn._update_param
    done = []

    def first_fails_second_is_slow(state, bias1, bias2, p, *args):
        if p is first.data:
            raise RuntimeError("first update failed")
        time.sleep(0.2)
        update(state, bias1, bias2, p, *args)
        done.append(p)

    monkeypatch.setattr(nn, "_update_param", first_fails_second_is_slow)
    before = second.data.copy()
    states, updates = _adam_updates([[first], [second]])
    with segment_pool([first, second], 2) as pool:
        tape = Tape(pool)
        outs = record_segments(tape, _watched_square, [(first,), (second,)])
        for state in states:
            state.start()
        with pytest.raises(RuntimeError, match="first update failed"):
            backward(tape, add(*outs), updates)
        # the second update had finished when the first one's error surfaced
        assert len(done) == 1 and done[0] is second.data
        assert not np.array_equal(second.data, before)


def test_backward_hands_off_each_parameter_once_after_its_last_consumer():
    rng = np.random.default_rng(16)
    w, b, q, idle = (Tensor(rng.normal(size=s))
                     for s in ((3, 3), (3,), (2,), (4,)))
    names = {w: "w", b: "b", q: "q", idle: "idle"}
    x = rng.normal(size=(2, 3))

    def segment(tape):
        for p in names:
            tape.watch(p)
        mul(q, q)                       # node 0: no gradient reaches it
        h = add(matmul(x, w), b)        # nodes 1 and 2
        return matmul(h, w)             # node 3, w's second consumer

    def logged(i, vjp, g):
        log.append(f"vjp {i}")
        return vjp(g)

    tape = Tape()
    plain = backward(tape, tsum(segment(tape)))
    tape = Tape()
    out, = record_segments(tape, segment, [()])
    loss = tsum(out)                    # node 4, above the segment
    log, handed = [], {}
    for i, node in enumerate(tape._nodes):
        node._vjp = partial(logged, i, node._vjp)

    def update(param, grad):
        log.append(names[param])
        handed[param] = grad

    assert backward(tape, loss, [update]) == {}
    # each right after the last node that consumes it, an idle one at the end
    assert log == ["vjp 4", "vjp 3", "vjp 2", "b", "vjp 1", "w", "q", "idle"]
    for p in names:
        assert np.array_equal(handed[p], plain[p])


def test_a_bad_hand_off_raises_after_earlier_parameters_were_updated():
    a = Tensor(np.zeros(2))
    b = Tensor(np.zeros(3))
    state = AdamState([a, b])
    update = state.update

    def wrong_for_a(param, grad):
        update(param, np.ones(4) if param is a else grad)

    tape = Tape()
    out, = record_segments(tape, lambda t: add(_watched_square(a, t),
                                               _watched_square(b, t)), [()])
    state.start()
    with pytest.raises(ShapeError):
        backward(tape, out, [wrong_for_a])
    # b was handed off first and is updated; a and its moments are not
    assert state.step == 1
    assert not np.array_equal(b.data, 0.0)
    for arr in [a.data, state.first_moment[0], state.second_moment[0]]:
        np.testing.assert_array_equal(arr, 0.0)


def test_handing_off_keeps_backward_under_one_views_parameter_bytes():
    rng = np.random.default_rng(17)
    # five _BIG x _BIG weights per net; three segments sweep at once
    nets = [Mlp.create([8] + [_BIG] * 6 + [4], rng) for _ in range(3)]
    groups = [net.parameters() for net in nets]
    view_bytes = sum(p.data.nbytes for p in groups[0])
    states, updates = _adam_updates(groups)
    with segment_pool([p for ps in groups for p in ps], 3) as pool:
        tape = Tape(pool)
        outs = record_segments(tape, mlp_forward,
                               [(net, rng.normal(size=(16, 8)))
                                for net in nets])
        both = concat_rows(outs)
        loss = tsum(mul(both, both))
        for state in states:
            state.start()
        tracemalloc.start()
        try:
            backward(tape, loss, updates)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < view_bytes


def test_segment_pool_starts_no_thread_for_small_parameters():
    net = Mlp.create([20, 64, 64, 4], np.random.default_rng(12))
    threads = threading.enumerate()
    with segment_pool(net.parameters(), 3) as pool:
        assert pool is None
        tape = Tape(pool)
        out, = record_segments(tape, mlp_forward, [(net, np.ones((2, 20)))])
        backward(tape, tsum(out))
        assert threading.enumerate() == threads


def test_segment_pool_threads_are_joined_when_the_block_raises():
    p = Tensor(np.zeros((_BIG, _BIG)))
    threads = threading.enumerate()
    with pytest.raises(KeyError):
        with segment_pool([p], 2) as pool:
            record_segments(Tape(pool), _watched_square, [(p,)])
            assert _glc_threads()
            raise KeyError("stop")
    assert threading.enumerate() == threads


# ---------------------------------------------------------------------------
# property sweep: random op pipelines vs finite differences
# ---------------------------------------------------------------------------

def test_grad_check_random_mlps_sweep():
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        sizes = [int(rng.integers(2, 6)) for _ in range(3)]
        net = Mlp.create(sizes, rng)
        x = rng.normal(size=(3, sizes[0]))

        def loss(tape):
            out = mlp_forward(net, x, tape=tape)
            return tsum(mul(out, out))

        assert grad_check(loss, net.parameters()) < 1e-6, f"seed {seed}"
