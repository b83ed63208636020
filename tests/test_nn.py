"""Tensor/tape core: op gradients, MLP forward, Adam, grad_check."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from glc.errors import ShapeError
from glc.nn import (_BLOCK, AdamState, Layer, Mlp, Tape, Tensor, adam_step,
                    add, backward, concat_cols, concat_rows, div, exp,
                    gather_cols, gather_pairs, grad_check, log,
                    logsumexp_rows, matmul, mlp_forward, mul, relu, sqrt,
                    sub, take_rows, transpose, tsum)


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
        b = exp(mul(0.3, p))
        c = log(add(mul(p, p), 1.0))
        d = sqrt(add(mul(q, q), 0.1))
        return tsum(add(add(a, b), add(c, d)))

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
    state = AdamState.for_params([p])
    adam_step(state, [p], [np.zeros(3)])
    np.testing.assert_array_equal(p.data, before)


def test_adam_first_step_magnitude():
    # bias correction makes the very first update exactly lr * sign(grad)
    # up to the epsilon term
    p = Tensor(np.array([1.0]))
    state = AdamState.for_params([p], learning_rate=1e-3)
    adam_step(state, [p], [np.array([1.0])])
    np.testing.assert_allclose(p.data, [0.999], atol=1e-8)


def test_adam_repeated_steps_decrease_parameter():
    p = Tensor(np.array([1.0]))
    state = AdamState.for_params([p], learning_rate=1e-3)
    values = [float(p.data[0])]
    for _ in range(5):
        adam_step(state, [p], [np.array([1.0])])
        values.append(float(p.data[0]))
    assert all(b < a for a, b in zip(values, values[1:]))


def test_adam_accepts_backward_dict():
    p = Tensor(np.array([2.0]))
    state = AdamState.for_params([p], learning_rate=0.1)
    tape = Tape()
    tape.watch(p)
    grads = backward(tape, tsum(mul(p, p)))
    adam_step(state, [p], grads)
    assert p.data[0] < 2.0


def test_adam_shape_mismatch_rejected():
    # a bad gradient after a good one changes nothing: no parameter, moment
    # or step count is touched before every shape has been checked
    a = Tensor(np.zeros(2))
    b = Tensor(np.zeros(3))
    state = AdamState.for_params([a, b])
    with pytest.raises(ShapeError):
        adam_step(state, [a, b], [np.ones(2), np.ones(4)])
    assert state.step == 0
    for arr in [a.data, b.data, *state.first_moment, *state.second_moment]:
        np.testing.assert_array_equal(arr, 0.0)


def _oracle_adam_step(state, params, grads):
    """The whole-array Adam update ``adam_step`` must match bit for bit."""
    state.step += 1
    bias1 = 1.0 - state.beta1 ** state.step
    bias2 = 1.0 - state.beta2 ** state.step
    for p, m, v, g in zip(params, state.first_moment, state.second_moment,
                          grads):
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        m_hat = m / bias1
        v_hat = v / bias2
        p.data -= state.learning_rate * m_hat / (np.sqrt(v_hat) + state.eps)


def _assert_same_adam(state, params, ref_state, ref_params):
    assert state.step == ref_state.step
    pairs = [(p.data, q.data) for p, q in zip(params, ref_params)]
    pairs += list(zip(state.first_moment, ref_state.first_moment))
    pairs += list(zip(state.second_moment, ref_state.second_moment))
    for got, want in pairs:
        assert np.array_equal(got, want)


def test_adam_is_bit_identical_to_the_whole_array_formula():
    rng = np.random.default_rng(7)
    shapes = [(), (5,), (_BLOCK + 5,), (7, 9), (3, _BLOCK + 11), (1000, 37),
              (37, 1000)]
    params = [Tensor(rng.normal(size=s)) for s in shapes]
    ref_params = [Tensor(p.data.copy()) for p in params]
    state = AdamState.for_params(params, learning_rate=1e-2)
    ref_state = AdamState.for_params(ref_params, learning_rate=1e-2)
    for step in range(4):
        grads = []
        for s in shapes:
            if len(s) == 2 and step % 2:
                # the layout backward gives weight gradients: a transposed view
                grads.append(rng.normal(size=s[::-1]).T)
            else:
                grads.append(rng.normal(size=s) * 10.0 ** step)
        adam_step(state, params, grads)
        _oracle_adam_step(ref_state, ref_params, grads)
        _assert_same_adam(state, params, ref_state, ref_params)


def test_adam_backward_dict_is_bit_identical_to_the_whole_array_formula():
    rng = np.random.default_rng(8)
    # the 500 x 40 weight is walked in blocks, its gradient a transposed view
    net = Mlp.create([40, 500, 3], rng)
    ref_params = [Tensor(p.data.copy()) for p in net.parameters()]
    state = AdamState.for_params(net.parameters())
    ref_state = AdamState.for_params(ref_params)
    for _ in range(3):
        tape = Tape()
        out = mlp_forward(net, rng.normal(size=(16, 40)), tape=tape)
        grads = backward(tape, tsum(mul(out, out)))
        _oracle_adam_step(ref_state, ref_params,
                          [grads[p] for p in net.parameters()])
        adam_step(state, net.parameters(), grads)
        _assert_same_adam(state, net.parameters(), ref_state, ref_params)


def test_adam_allocates_no_parameter_sized_temporary():
    rng = np.random.default_rng(9)
    p = Tensor(rng.normal(size=(1000, 1000)))
    state = AdamState.for_params([p])
    grad = rng.normal(size=(1000, 1000)).T
    tracemalloc.start()
    try:
        adam_step(state, [p], [grad])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < p.data.nbytes / 8


def test_adam_converges_on_quadratic():
    # sanity: minimizing (x - 3)^2 walks x to 3
    p = Tensor(np.array([0.0]))
    state = AdamState.for_params([p], learning_rate=0.05)
    for _ in range(500):
        tape = Tape()
        tape.watch(p)
        err = sub(p, 3.0)
        grads = backward(tape, tsum(mul(err, err)))
        adam_step(state, [p], grads)
    np.testing.assert_allclose(p.data, [3.0], atol=1e-3)


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
