"""Tensor/tape core: op gradients, MLP forward, Adam, grad_check."""

import gc
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from glc import nn
from glc.errors import ShapeError
from glc.nn import (_BLOCK, AdamState, Layer, Mlp, Tape, Tensor, adam_helper,
                    adam_step,
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
# Adam updates on the helper thread
# ---------------------------------------------------------------------------

def _helper_threads():
    return [t for t in threading.enumerate() if t.name == "glc-adam"]


def _copy_mlp(net):
    return Mlp([Layer(Tensor(layer.weight.data.copy()),
                      Tensor(layer.bias.data.copy()), layer.activation)
                for layer in net.layers])


def test_adam_helper_is_bit_identical_to_the_sequential_step():
    rng = np.random.default_rng(10)
    # only the two 130 x 130 weights have more than _BLOCK elements
    net = Mlp.create([20, 130, 130, 130, 4], rng)
    ref = _copy_mlp(net)
    params, ref_params = net.parameters(), ref.parameters()
    assert [p.data.size > _BLOCK for p in params] == [
        False, False, True, False, True, False, False, False]
    state = AdamState.for_params(params, learning_rate=1e-2)
    ref_state = AdamState.for_params(ref_params, learning_rate=1e-2)
    xs = [rng.normal(size=(16, 20)) for _ in range(6)]
    # switch threads as often as possible, so a race would show
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with adam_helper(state, params) as hand_off:
            assert hand_off is not None and len(_helper_threads()) == 1
            for x in xs:
                handed = []

                def record(param, grad):
                    handed.append(param)
                    hand_off(param, grad)

                tape = Tape()
                out = mlp_forward(net, x, tape=tape)
                grads = backward(tape, tsum(mul(out, out)), record)
                # each parameter once, right after its earliest consumer
                assert handed == params[::-1]
                adam_step(state, params, grads)
    finally:
        sys.setswitchinterval(interval)
    assert not _helper_threads()
    for x in xs:
        tape = Tape()
        out = mlp_forward(ref, x, tape=tape)
        adam_step(ref_state, ref_params, backward(tape, tsum(mul(out, out))))
    _assert_same_adam(state, params, ref_state, ref_params)


def test_backward_hands_off_unused_parameters_with_zero_gradients():
    used, unused = Tensor(np.ones(3)), Tensor(np.ones(2))
    tape = Tape()
    tape.watch(used)
    tape.watch(unused)
    handed = {}
    grads = backward(tape, tsum(mul(used, used)),
                     lambda p, g: handed.setdefault(p, g))
    assert list(handed) == [used, unused]
    assert all(handed[p] is grads[p] for p in handed)
    np.testing.assert_array_equal(handed[unused], 0.0)


def test_backward_hands_off_a_reused_parameter_after_its_first_use():
    rng = np.random.default_rng(13)
    w = Tensor(rng.normal(size=(3, 3)))
    x = rng.normal(size=(2, 3))

    def loss(tape):
        tape.watch(w)
        h = relu(matmul(matmul(x, w), w))      # w is consumed twice
        return tsum(mul(h, h))

    tape = Tape()
    plain = backward(tape, loss(tape))[w]
    handed = {}
    tape = Tape()
    grads = backward(tape, loss(tape),
                     lambda p, g: handed.setdefault(p, g.copy()))
    # the copy taken at the hand-off already holds both uses' terms
    assert np.array_equal(handed[w], plain)
    assert np.array_equal(grads[w], plain)


def test_adam_helper_checks_each_gradient_at_its_hand_off():
    p = Tensor(np.zeros((130, 130)))
    state = AdamState.for_params([p])
    with adam_helper(state, [p]) as hand_off:
        with pytest.raises(ShapeError):
            hand_off(p, np.ones((130, 131)))
        np.testing.assert_array_equal(p.data, 0.0)
        hand_off(p, np.ones((130, 130)))
        with pytest.raises(ValueError):
            hand_off(p, np.ones((130, 130)))
        adam_step(state, [p], [np.ones((130, 130))])
    assert state.step == 1
    np.testing.assert_allclose(p.data, -1e-3)


def test_adam_step_keeps_its_contract_inside_the_helper():
    # nothing handed off: the whole step runs inline, checked up front
    a = Tensor(np.zeros((130, 130)))
    b = Tensor(np.zeros(3))
    state = AdamState.for_params([a, b])
    with adam_helper(state, [a, b]):
        with pytest.raises(ShapeError):
            adam_step(state, [a, b], [np.ones((130, 130)), np.ones(4)])
    assert state.step == 0
    for arr in [a.data, b.data, *state.first_moment, *state.second_moment]:
        np.testing.assert_array_equal(arr, 0.0)


def test_adam_helper_error_surfaces_from_that_steps_adam_step(monkeypatch):
    rng = np.random.default_rng(11)
    big, small = Tensor(rng.normal(size=(130, 130))), Tensor(np.ones(3))
    params = [big, small]
    state = AdamState.for_params(params)
    update = nn._adam_update

    def fail_off_the_main_thread(*args):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("helper failed")
        update(*args)

    def step(hand_off):
        tape = Tape()
        tape.watch(big)
        tape.watch(small)
        loss = add(tsum(mul(big, big)), tsum(small))
        return adam_step(state, params, backward(tape, loss, hand_off))

    with adam_helper(state, params) as hand_off:
        monkeypatch.setattr(nn, "_adam_update", fail_off_the_main_thread)
        with pytest.raises(RuntimeError, match="helper failed"):
            step(hand_off)
        monkeypatch.undo()
        before = big.data.copy()
        step(hand_off)
        assert not np.array_equal(big.data, before)
    assert not _helper_threads()


def test_adam_helper_starts_no_thread_for_small_parameters():
    net = Mlp.create([20, 64, 64, 4], np.random.default_rng(12))
    state = AdamState.for_params(net.parameters())
    threads = threading.enumerate()
    with adam_helper(state, net.parameters()) as hand_off:
        assert hand_off is None
        assert threading.enumerate() == threads


def test_adam_helper_thread_is_joined_when_the_block_raises():
    p = Tensor(np.zeros((130, 130)))
    threads = threading.enumerate()
    with pytest.raises(KeyError):
        with adam_helper(AdamState.for_params([p]), [p]) as hand_off:
            hand_off(p, np.ones((130, 130)))
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
