"""Graph construction, pair selection and the contrastive losses.

Every vectorized loss here is checked against an independent brute-force
loop oracle written directly from the definitions; fixtures stay small so
the oracles can afford naive exponentials.
"""

import math
import tracemalloc

import numpy as np
import pytest

from glc import graphs, nn
from glc.errors import ConfigError, NumericError, ShapeError
from glc.graphs import (GlobalAffinityGraph, PairSets, build_global_graph,
                        ggc_loss, high_order_diag, high_order_graph,
                        local_affinity, lwc_loss, lwc_total, median_sigma,
                        pair_counts, pairwise_contrastive_loss, select_pairs)
from glc.nn import Tape, Tensor, backward, grad_check, take_rows
from reference_chain import reference_ggc as _reference_ggc
from reference_chain import reference_pairwise


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------

def oracle_select(sims, pos_pct, neg_pct):
    """Full-sort pair selection, one anchor at a time."""
    n = sims.shape[0]
    cand = n - 1
    n_pos = math.ceil(pos_pct * cand / 100.0)
    n_neg = min(math.ceil(neg_pct * cand / 100.0), cand - n_pos)
    poss, negs = [], []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        best_first = sorted(others, key=lambda j: (-sims[i, j], j))
        pos = best_first[:n_pos]
        rest = [j for j in others if j not in pos]
        worst_first = sorted(rest, key=lambda j: (sims[i, j], j))
        poss.append(pos)
        negs.append(worst_first[:n_neg])
    return np.array(poss), np.array(negs)


def oracle_ggc(sims, positives, negatives, tau, include_positive=False):
    total = 0.0
    for i in range(positives.shape[0]):
        for j in positives[i]:
            den = sum(math.exp(sims[i, k] / tau) for k in negatives[i])
            if include_positive:
                den += math.exp(sims[i, j] / tau)
            total += -(sims[i, j] / tau - math.log(den))
    return total


def oracle_cross_view(h_u, h_v, tau, weights=None):
    un = h_u / np.linalg.norm(h_u, axis=1, keepdims=True)
    vn = h_v / np.linalg.norm(h_v, axis=1, keepdims=True)
    n = h_u.shape[0]
    total = 0.0
    for i in range(n):
        den = 0.0
        for j in range(n):
            if j == i:
                continue
            den += math.exp(np.dot(un[i], un[j]) / tau)
            den += math.exp(np.dot(un[i], vn[j]) / tau)
        total += math.log(den) - np.dot(un[i], vn[i]) / tau
        if weights is not None:
            total -= math.log(weights[i])
    return total


def oracle_high_order(w_uv, w_vv):
    n = w_uv.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i, j] += w_uv[i, k] * w_vv[j, k]
    return out


def _graph_from_features(x):
    return build_global_graph([Tensor(np.asarray(x, dtype=np.float64))])


def _manual_graph(sims):
    sims = np.asarray(sims, dtype=np.float64)
    n = sims.shape[0]
    owners = np.column_stack([np.zeros(n, dtype=np.intp), np.arange(n)])
    return GlobalAffinityGraph(sims=Tensor(sims), owners=owners)


# ---------------------------------------------------------------------------
# global graph construction
# ---------------------------------------------------------------------------

def test_graph_identical_vectors():
    g = build_global_graph([Tensor(np.array([[1.0, 0.0]])),
                            Tensor(np.array([[1.0, 0.0]]))])
    np.testing.assert_allclose(g.sims.data, np.ones((2, 2)), atol=1e-15)


def test_graph_orthogonal_vectors():
    g = _graph_from_features([[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(g.sims.data, np.eye(2), atol=1e-15)


def test_graph_known_angle():
    g = _graph_from_features([[1.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(g.sims.data[0, 1], 1.0 / math.sqrt(2),
                               rtol=1e-12)
    np.testing.assert_allclose(g.sims.data[1, 0], 1.0 / math.sqrt(2),
                               rtol=1e-12)


def test_graph_owners_and_empty_views():
    h0 = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
    h1 = Tensor(np.zeros((0, 4)))
    h2 = Tensor(np.random.default_rng(1).normal(size=(2, 4)))
    g = build_global_graph([h0, h1, h2], positions=[np.arange(3), np.arange(0),
                                                    np.array([5, 7])])
    assert g.size == 5
    np.testing.assert_array_equal(g.owners[:, 0], [0, 0, 0, 2, 2])
    np.testing.assert_array_equal(g.owners[3:, 1], [5, 7])


def test_graph_unit_diagonal_exact():
    rng = np.random.default_rng(2)
    g = _graph_from_features(rng.normal(size=(6, 3)))
    np.testing.assert_array_equal(np.diag(g.sims.data), np.ones(6))


def test_graph_rejects_zero_rows():
    with pytest.raises(NumericError):
        _graph_from_features([[0.0, 0.0], [1.0, 0.0]])


# ---------------------------------------------------------------------------
# pair selection
# ---------------------------------------------------------------------------

def test_select_three_node_example():
    g = _manual_graph([[1.0, 0.9, -0.5], [0.9, 1.0, 0.2], [-0.5, 0.2, 1.0]])
    pairs = select_pairs(g, 50.0, 50.0)
    np.testing.assert_array_equal(pairs.positives[0], [1])
    np.testing.assert_array_equal(pairs.negatives[0], [2])


def test_select_tie_rule_lowest_index_prefix():
    g = _manual_graph(np.full((5, 5), 0.3) + np.eye(5) * 0.7)
    pairs = select_pairs(g, 50.0, 50.0)
    # anchor 0's candidates are all equal: positives take the lowest
    # indices, negatives the next lowest
    np.testing.assert_array_equal(pairs.positives[0], [1, 2])
    np.testing.assert_array_equal(pairs.negatives[0], [3, 4])
    np.testing.assert_array_equal(pairs.positives[2], [0, 1])
    np.testing.assert_array_equal(pairs.negatives[2], [3, 4])


def test_select_ceil_counts_at_scale():
    rng = np.random.default_rng(3)
    g = _graph_from_features(rng.normal(size=(512, 4)))
    pairs = select_pairs(g, 1.0, 50.0)
    assert pairs.positives.shape == (512, 6)      # ceil(0.01 * 511)
    assert pairs.negatives.shape == (512, 256)    # ceil(0.5 * 511)


def test_select_disjoint_and_self_free():
    rng = np.random.default_rng(4)
    g = _graph_from_features(rng.normal(size=(10, 3)))
    pairs = select_pairs(g, 30.0, 50.0)
    for i in range(10):
        pos = set(pairs.positives[i])
        neg = set(pairs.negatives[i])
        assert i not in pos and i not in neg
        assert not pos & neg


def test_select_matches_oracle_sweep():
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        g = _graph_from_features(rng.normal(size=(20, 5)))
        pos_pct = float(rng.uniform(1, 45))
        neg_pct = float(rng.uniform(1, 50))
        pairs = select_pairs(g, pos_pct, neg_pct)
        want_pos, want_neg = oracle_select(g.sims.data, pos_pct, neg_pct)
        np.testing.assert_array_equal(pairs.positives, want_pos, f"seed {seed}")
        np.testing.assert_array_equal(pairs.negatives, want_neg, f"seed {seed}")


def test_select_matches_oracle_on_a_large_graph_with_ties():
    # about 300 rows: duplicated rows and a block of identical rows put
    # exact ties both inside the selected sets and at their edges
    rng = np.random.default_rng(20)
    x = rng.normal(size=(300, 5))
    x[10:40] = x[0:30]
    x[200:230] = x[200]
    g = _graph_from_features(x)
    for pos_pct, neg_pct in ((1.0, 50.0), (12.5, 60.0)):
        pairs = select_pairs(g, pos_pct, neg_pct)
        want_pos, want_neg = oracle_select(g.sims.data, pos_pct, neg_pct)
        np.testing.assert_array_equal(pairs.positives, want_pos)
        np.testing.assert_array_equal(pairs.negatives, want_neg)

        # the fixture does what it is for: some anchor's first unselected
        # candidate ties the last selected one, for both sets
        rows = np.arange(300)
        sims = g.sims.data
        n_pos = want_pos.shape[1]
        desc = np.sort(np.where(np.eye(300, dtype=bool), -np.inf, sims),
                       axis=1)[:, ::-1]
        assert (desc[:, n_pos - 1] == desc[:, n_pos]).any()
        rest = sims.copy()
        rest[rows[:, None], want_pos] = np.inf
        np.fill_diagonal(rest, np.inf)
        asc = np.sort(rest, axis=1)
        n_neg = want_neg.shape[1]
        assert (asc[:, n_neg - 1] == asc[:, n_neg]).any()


def test_select_matches_oracle_on_a_large_tie_free_graph():
    # every row's candidates are distinct and finite, so every row takes
    # the one-sort path
    rng = np.random.default_rng(21)
    g = _graph_from_features(rng.normal(size=(700, 8)))
    key = g.sims.data.copy()
    np.fill_diagonal(key, np.inf)
    cands = np.sort(key, axis=1)[:, :-1]
    assert (np.diff(cands, axis=1) > 0.0).all() and np.isfinite(cands).all()
    pairs = select_pairs(g, 1.0, 50.0)
    want_pos, want_neg = oracle_select(g.sims.data, 1.0, 50.0)
    np.testing.assert_array_equal(pairs.positives, want_pos)
    np.testing.assert_array_equal(pairs.negatives, want_neg)


def test_select_matches_oracle_with_a_nan_similarity():
    # the NaN sits in the last column, where the oracle's sorted() keeps it
    # last in both orders, as a stable numpy sort does; on the one-sort
    # path it would sort past the diagonal and end up among the positives
    rng = np.random.default_rng(22)
    g = _graph_from_features(rng.normal(size=(20, 5)))
    g.sims.data[7, 19] = np.nan
    for pos_pct, neg_pct in ((10.0, 40.0), (25.0, 75.0)):
        pairs = select_pairs(g, pos_pct, neg_pct)
        want_pos, want_neg = oracle_select(g.sims.data, pos_pct, neg_pct)
        np.testing.assert_array_equal(pairs.positives, want_pos)
        np.testing.assert_array_equal(pairs.negatives, want_neg)
    assert pairs.negatives[7, -1] == 19


def test_select_matches_oracle_with_ties_at_the_full_boundary():
    # pos + neg = 100 selects every candidate; similarities on a coarse
    # grid tie across the positive/negative boundary
    rng = np.random.default_rng(23)
    sims = np.round(rng.uniform(-1.0, 1.0, size=(21, 21)), 1)
    sims = np.triu(sims, 1) + np.triu(sims, 1).T + np.eye(21)
    g = _manual_graph(sims)
    pairs = select_pairs(g, 30.0, 70.0)
    want_pos, want_neg = oracle_select(sims, 30.0, 70.0)
    np.testing.assert_array_equal(pairs.positives, want_pos)
    np.testing.assert_array_equal(pairs.negatives, want_neg)
    n_pos = want_pos.shape[1]
    desc = np.sort(np.where(np.eye(21, dtype=bool), -np.inf, sims),
                   axis=1)[:, ::-1]
    assert (desc[:, n_pos - 1] == desc[:, n_pos]).any()


def test_select_scale_invariance_exact():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(12, 4))
    scales = 2.0 ** rng.integers(-3, 4, size=12)   # exact in binary floats
    g1 = _graph_from_features(x)
    g2 = _graph_from_features(x * scales[:, None])
    np.testing.assert_array_equal(g1.sims.data, g2.sims.data)
    p1 = select_pairs(g1, 20.0, 40.0)
    p2 = select_pairs(g2, 20.0, 40.0)
    np.testing.assert_array_equal(p1.positives, p2.positives)
    np.testing.assert_array_equal(p1.negatives, p2.negatives)


def test_select_validates_percentages():
    g = _manual_graph(np.eye(4))
    with pytest.raises(ConfigError):
        select_pairs(g, 0.0, 50.0)
    with pytest.raises(ConfigError):
        select_pairs(g, 60.0, 50.0)


@pytest.mark.parametrize("pos_pct, neg_pct",
                         [(1, 50), (50, 50), (60, 40), (99, 1)])
def test_pair_counts_match_selection_and_its_failures(pos_pct, neg_pct):
    # the training step skips the global term by this rule, so it must
    # name exactly the graphs on which selection raises
    rng = np.random.default_rng(3)
    for n in range(1, 41):
        n_pos, n_neg = pair_counts(n, pos_pct, neg_pct)
        g = _graph_from_features(rng.normal(size=(n, 3)))
        if n_neg < 1:
            with pytest.raises(ConfigError, match="no negative candidates"):
                select_pairs(g, pos_pct, neg_pct)
            continue
        pairs = select_pairs(g, pos_pct, neg_pct)
        assert pairs.positives.shape == (n, n_pos), n
        assert pairs.negatives.shape == (n, n_neg), n


def test_pair_counts_follow_the_decimal_percentage():
    # in floats 4.4 * 750 / 100 is 33.000000000000004, which rounds up to 34
    assert pair_counts(751, 4.4, 50.0) == (33, 375)
    assert pair_counts(1001, 0.1, 50.0) == (1, 500)


def test_pair_counts_of_whole_percentages_are_the_float_rule():
    for n in range(1, 1501):
        c = n - 1
        for p in range(1, 100):
            n_pos = math.ceil(p * c / 100.0)
            n_neg = min(math.ceil((100 - p) * c / 100.0), c - n_pos)
            assert pair_counts(n, float(p), float(100 - p)) == (n_pos, n_neg)


# ---------------------------------------------------------------------------
# global contrastive loss
# ---------------------------------------------------------------------------

def test_ggc_hand_value():
    # duplicated orthogonal directions: every anchor has one positive with
    # similarity 1 and two negatives with similarity 0, so each of the four
    # pair terms contributes ln 2 - 2
    x = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                  [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    g = _graph_from_features(x)
    pairs = select_pairs(g, 30.0, 60.0)   # 1 positive, 2 negatives per anchor
    assert pairs.positives.shape == (4, 1)
    assert pairs.negatives.shape == (4, 2)
    loss = float(ggc_loss(g, pairs, 0.5).data)
    np.testing.assert_allclose(loss, 4 * (math.log(2.0) - 2.0), rtol=1e-12)


def test_ggc_equal_similarities_any_temperature():
    # with all similarities equal the positive term cancels against its
    # copy inside the denominator exponentials, leaving pos_count * log(neg
    # count) per anchor at every temperature
    x = np.tile(np.array([[3.0, 4.0]]), (6, 1))
    g = _graph_from_features(x)
    pairs = select_pairs(g, 25.0, 50.0)   # 2 positives, 3 negatives
    for tau in (0.5, 1.0, 1e9):
        loss = float(ggc_loss(g, pairs, tau).data)
        np.testing.assert_allclose(loss, 6 * 2 * math.log(3.0), rtol=1e-9)


def test_ggc_matches_oracle_sweep():
    for seed in range(50):
        rng = np.random.default_rng(2000 + seed)
        n = int(rng.integers(4, 13))
        g = _graph_from_features(rng.normal(size=(n, 4)))
        pairs = select_pairs(g, 30.0, 40.0)
        tau = float(rng.uniform(0.2, 2.0))
        got = float(ggc_loss(g, pairs, tau).data)
        want = oracle_ggc(g.sims.data, pairs.positives, pairs.negatives, tau)
        np.testing.assert_allclose(got, want, atol=1e-9, rtol=1e-9)


def test_ggc_include_positive_variant():
    for seed in range(10):
        rng = np.random.default_rng(3000 + seed)
        g = _graph_from_features(rng.normal(size=(8, 3)))
        pairs = select_pairs(g, 20.0, 40.0)
        got = float(ggc_loss(g, pairs, 0.5,
                             include_positive_in_denominator=True).data)
        want = oracle_ggc(g.sims.data, pairs.positives, pairs.negatives, 0.5,
                          include_positive=True)
        np.testing.assert_allclose(got, want, atol=1e-9, rtol=1e-9)
        # the larger denominator strictly increases the loss
        base = float(ggc_loss(g, pairs, 0.5).data)
        assert got > base


def test_ggc_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    h = Tensor(rng.normal(size=(6, 4)))

    def loss(tape):
        if tape is not None:
            tape.watch(h)
        g = build_global_graph([h])
        pairs = select_pairs(g, 25.0, 50.0)
        return ggc_loss(g, pairs, 0.5)

    assert grad_check(loss, [h]) < 1e-6


def test_ggc_include_positive_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    h = Tensor(rng.normal(size=(6, 4)))

    def loss(tape):
        if tape is not None:
            tape.watch(h)
        g = build_global_graph([h])
        pairs = select_pairs(g, 25.0, 50.0)
        return ggc_loss(g, pairs, 0.5, include_positive_in_denominator=True)

    assert grad_check(loss, [h]) < 1e-6


@pytest.mark.parametrize("include", [False, True])
def test_ggc_records_one_tape_node(include):
    h = Tensor(np.random.default_rng(9).normal(size=(12, 3)))
    tape = Tape()
    tape.watch(h)
    g = build_global_graph([h])
    pairs = select_pairs(g, 20.0, 50.0)
    before = len(tape._nodes)
    loss = ggc_loss(g, pairs, 0.5, include_positive_in_denominator=include)
    assert len(tape._nodes) == before + 1
    assert tape._nodes[-1] is loss and loss._parents == (g.sims,)


def _ggc_values(loss_fn, views, tau, include, upstream):
    """Loss and feature gradients, and the gradient of ``sims`` itself.

    The similarity matrix is differentiated as a watched leaf of its own,
    so its gradient is compared before the graph's matmul mixes it.
    """
    tape = Tape()
    feats = [Tensor(x.copy()) for x in views]
    for t in feats:
        tape.watch(t)
    g = build_global_graph(feats)
    pairs = select_pairs(g, 3.0, 50.0)
    loss = nn.mul(loss_fn(g, pairs, tau, include), upstream)
    grads = backward(tape, loss)
    out = [loss.data] + [grads[t] for t in feats]

    leaf = _manual_graph(g.sims.data.copy())
    tape = Tape()
    tape.watch(leaf.sims)
    sims_grad = backward(tape, nn.mul(loss_fn(leaf, pairs, tau, include),
                                      upstream))[leaf.sims]
    return out, sims_grad, pairs


@pytest.mark.parametrize("include", [False, True])
def test_ggc_matches_the_gather_chain(include, monkeypatch):
    # the kernel takes each anchor's negative log-sum-exp once and adds a
    # positive to it with logaddexp; the chain runs a log-sum-exp per pair,
    # so the two agree within rounding.  9 or 10 positives per anchor: the
    # chain adds an upstream 0.1 k times from 0.0, the kernel takes
    # k * 0.1; at tau = 0.001 some softmax entries underflow to 0
    rng = np.random.default_rng(40)
    plain = [rng.normal(size=(110, 6)) for _ in range(3)]
    tied = rng.normal(size=(300, 5))
    tied[10:40] = tied[0:30]
    tied[200:230] = tied[200]
    stable = []
    real = graphs._stable_pairs
    monkeypatch.setattr(graphs, "_stable_pairs",
                        lambda *a: stable.append(1) or real(*a))
    underflow = False
    for views in (plain, [tied]):
        for tau in (0.5, 0.001):
            for upstream in (0.1, -0.1):
                got, got_sims, _ = _ggc_values(ggc_loss, views, tau, include,
                                               upstream)
                want, want_sims, pairs = _ggc_values(_reference_ggc, views,
                                                     tau, include, upstream)
                assert pairs.positives.shape[1] >= 6
                atol = 1e-12 * abs(upstream) / tau
                for g, w in zip(got, want):
                    np.testing.assert_allclose(g, w, rtol=1e-12, atol=atol)
                np.testing.assert_allclose(got_sims, want_sims,
                                           rtol=1e-12, atol=atol)
                rows = np.arange(pairs.anchor_count)[:, None]
                underflow |= bool((want_sims[rows, pairs.negatives]
                                   == 0.0).any())
    assert stable, "the tied graph never took the stable-sort path"
    assert underflow, "no softmax entry underflowed"


def test_ggc_include_positive_allocates_as_the_default():
    # the variant reuses each anchor's negative log-sum-exp, so it builds
    # nothing of N * k rows: a 657-row graph at (1%, 50%), k = 7, m = 328
    rng = np.random.default_rng(11)
    g = build_global_graph([Tensor(rng.normal(size=(219, 16)))
                            for _ in range(3)])
    pairs = select_pairs(g, 1.0, 50.0)
    assert pairs.positives.shape == (657, 7)
    leaf = _manual_graph(g.sims.data)

    def peak(include):
        tape = Tape()
        tape.watch(leaf.sims)
        tracemalloc.start()
        try:
            backward(tape, ggc_loss(leaf, pairs, 0.5, include))
            _, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return top

    assert peak(True) <= 1.1 * peak(False)


def test_ggc_rejects_pair_sets_of_another_graph():
    rng = np.random.default_rng(12)
    g = _graph_from_features(rng.normal(size=(6, 3)))
    pairs = select_pairs(_graph_from_features(rng.normal(size=(5, 3))),
                         25.0, 50.0)
    with pytest.raises(ShapeError, match="one row per matrix row"):
        ggc_loss(g, pairs, 0.5)


def test_ggc_validates_temperature():
    g = _graph_from_features(np.random.default_rng(7).normal(size=(4, 2)))
    pairs = select_pairs(g, 30.0, 30.0)
    with pytest.raises(ConfigError):
        ggc_loss(g, pairs, 0.0)


# ---------------------------------------------------------------------------
# local kernels
# ---------------------------------------------------------------------------

def test_local_affinity_values():
    h_u = np.array([[0.0, 0.0]])
    h_v = np.array([[0.0, 0.0], [1.0, 0.0]])
    w = local_affinity(h_u, h_v, 1.0)
    np.testing.assert_allclose(w, [[1.0, math.exp(-1.0)]], rtol=1e-12)


def test_local_affinity_unit_diagonal():
    x = np.random.default_rng(8).normal(size=(5, 3))
    w = local_affinity(x, x, 0.7)
    np.testing.assert_array_equal(np.diag(w), np.ones(5))
    np.testing.assert_allclose(w, w.T, rtol=1e-15)


def test_local_affinity_distance_equals_sigma():
    h_u = np.array([[0.0]])
    h_v = np.array([[2.0]])   # squared distance 4
    w = local_affinity(h_u, h_v, 4.0)
    np.testing.assert_allclose(w, [[math.exp(-1.0)]], rtol=1e-12)


def test_median_sigma_hand_value():
    x = np.array([[0.0], [1.0]])
    assert median_sigma(x, x) == 0.5


def test_median_sigma_degenerate_fallback():
    x = np.ones((4, 2))
    assert median_sigma(x, x) == 1.0


def test_median_sigma_scales_quadratically():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(6, 3))
    y = rng.normal(size=(6, 3))
    base = median_sigma(x, y)
    np.testing.assert_allclose(median_sigma(3.0 * x, 3.0 * y), 9.0 * base,
                               rtol=1e-12)


def test_high_order_identities():
    np.testing.assert_array_equal(high_order_graph(np.eye(3), np.eye(3)),
                                  np.eye(3))
    w = np.array([[1.0, 0.5], [0.5, 1.0]])
    np.testing.assert_array_equal(high_order_graph(w, np.eye(2)), w)


def test_high_order_matches_triple_loop():
    for seed in range(50):
        rng = np.random.default_rng(4000 + seed)
        w_uv = rng.uniform(0.01, 1.0, size=(3, 3))
        w_vv = rng.uniform(0.01, 1.0, size=(3, 3))
        got = high_order_graph(w_uv, w_vv)
        np.testing.assert_allclose(got, oracle_high_order(w_uv, w_vv),
                                   atol=1e-12)
        np.testing.assert_allclose(high_order_diag(w_uv, w_vv), np.diag(got),
                                   atol=1e-12)


# ---------------------------------------------------------------------------
# cross-view contrastive losses
# ---------------------------------------------------------------------------

def test_pairwise_orthonormal_rows():
    n = 4
    h = np.eye(n)
    got = float(pairwise_contrastive_loss(h, h, 0.5).data)
    want = n * (math.log(2.0 * (n - 1)) - 2.0)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_pairwise_matches_oracle_sweep():
    for seed in range(50):
        rng = np.random.default_rng(5000 + seed)
        n = int(rng.integers(2, 8))
        h_u = rng.normal(size=(n, 4))
        h_v = rng.normal(size=(n, 4))
        tau = float(rng.uniform(0.2, 2.0))
        got = float(pairwise_contrastive_loss(h_u, h_v, tau).data)
        want = oracle_cross_view(h_u, h_v, tau)
        np.testing.assert_allclose(got, want, atol=1e-9, rtol=1e-9)


def _cross_view_value_and_grads(total_fn, views, co, tau):
    tape = Tape()
    feats = [Tensor(x.copy()) for x in views]
    for t in feats:
        tape.watch(t)
    loss = total_fn(feats, co, tau)
    grads = backward(tape, loss)
    return loss.item(), [grads[t] for t in feats]


def _reference_total(feats, co, tau):
    total = Tensor(0.0)
    for (u, v), (ru, rv) in co.items():
        total = nn.add(total, reference_pairwise(
            take_rows(feats[u], ru), take_rows(feats[v], rv), tau))
    return total


@pytest.mark.parametrize("tau", [0.5, 0.001])
def test_pairwise_matches_the_old_chain(tau):
    # views of different lengths whose pairs share different rows at
    # different local positions; one pair has only n = 2 common rows
    rng = np.random.default_rng(41)
    views = [rng.normal(size=(rows, 5)) for rows in (9, 7, 8)]
    co = {(0, 1): (np.array([0, 1, 2, 4, 5, 6, 8]), np.arange(7)),
          (0, 2): (np.array([3, 7]), np.array([1, 6])),
          (1, 2): (np.array([0, 2, 3, 6]), np.array([0, 3, 4, 7]))}
    got, got_grads = _cross_view_value_and_grads(lwc_total, views, co, tau)
    want, want_grads = _cross_view_value_and_grads(_reference_total, views,
                                                   co, tau)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    for g, w in zip(got_grads, want_grads):
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()
    if tau == 0.001:
        # some denominator term underflows exp() to 0 at this temperature
        u, v = (x[co[(0, 1)][i]] for i, x in enumerate(views[:2]))
        u = u / np.linalg.norm(u, axis=1, keepdims=True)
        v = v / np.linalg.norm(v, axis=1, keepdims=True)
        scaled = np.hstack([u @ u.T, u @ v.T]) / tau
        assert (scaled.max(axis=1, keepdims=True) - scaled > 746.0).any()


def test_lwc_total_records_one_pair_contrast_node_per_pair(monkeypatch):
    rng = np.random.default_rng(42)
    h = [Tensor(rng.normal(size=(6, 3))) for _ in range(3)]
    co = {(0, 1): (np.arange(6), np.arange(6)),
          (0, 2): (np.array([2]), np.array([2])),      # skipped: 1 row
          (1, 2): (np.array([1, 4, 5]), np.array([1, 4, 5]))}
    calls = []
    real = nn.pair_contrast

    def spy(a, *args, **kwargs):
        out = real(a, *args, **kwargs)
        calls.append((a, out))
        return out

    monkeypatch.setattr(nn, "pair_contrast", spy)
    tape = Tape()
    for t in h:
        tape.watch(t)
    lwc_total(h, co, 0.5)
    assert [a.shape for a, _ in calls] == [(6, 12), (3, 6)]
    for sims, out in calls:
        assert out in tape._nodes and out._parents == (sims,)


def test_lwc_all_ones_weights_equal_unweighted():
    rng = np.random.default_rng(10)
    h_u = rng.normal(size=(5, 3))
    h_v = rng.normal(size=(5, 3))
    weighted = float(lwc_loss(h_u, h_v, np.ones(5), 0.5).data)
    plain = float(pairwise_contrastive_loss(h_u, h_v, 0.5).data)
    np.testing.assert_allclose(weighted, plain, rtol=1e-12)


def test_lwc_doubling_weights_shifts_by_n_log2():
    rng = np.random.default_rng(11)
    n = 6
    h_u = rng.normal(size=(n, 3))
    h_v = rng.normal(size=(n, 3))
    w = rng.uniform(0.2, 1.0, size=n)
    base = float(lwc_loss(h_u, h_v, w, 0.5).data)
    doubled = float(lwc_loss(h_u, h_v, 2.0 * w, 0.5).data)
    np.testing.assert_allclose(base - doubled, n * math.log(2.0), rtol=1e-10)


def test_lwc_matches_oracle_sweep():
    for seed in range(50):
        rng = np.random.default_rng(6000 + seed)
        n = 4
        h_u = rng.normal(size=(n, 3))
        h_v = rng.normal(size=(n, 3))
        w = rng.uniform(0.1, 1.0, size=(n, n))
        got = float(lwc_loss(h_u, h_v, w, 0.5).data)
        want = oracle_cross_view(h_u, h_v, 0.5, weights=np.diag(w))
        np.testing.assert_allclose(got, want, atol=1e-9, rtol=1e-9)


def test_lwc_accepts_matrix_or_diagonal():
    rng = np.random.default_rng(12)
    h_u = rng.normal(size=(4, 3))
    h_v = rng.normal(size=(4, 3))
    w = rng.uniform(0.1, 1.0, size=(4, 4))
    a = float(lwc_loss(h_u, h_v, w, 0.5).data)
    b = float(lwc_loss(h_u, h_v, np.diagonal(w), 0.5).data)
    assert a == b


def test_lwc_rejects_nonpositive_weights():
    h = np.random.default_rng(13).normal(size=(3, 2))
    with pytest.raises(NumericError):
        lwc_loss(h, h, np.array([1.0, 0.0, 1.0]), 0.5)


def test_lwc_gradient_ignores_weight_path():
    # weights are constants: gradients flow through the features only and
    # must match finite differences that also hold the weights fixed
    rng = np.random.default_rng(14)
    h_u = Tensor(rng.normal(size=(4, 3)))
    h_v = Tensor(rng.normal(size=(4, 3)))
    w = rng.uniform(0.5, 1.5, size=4)

    def loss(tape):
        if tape is not None:
            tape.watch(h_u)
            tape.watch(h_v)
        return lwc_loss(h_u, h_v, w, 0.5)

    assert grad_check(loss, [h_u, h_v]) < 1e-6


def test_single_row_contrast_is_skipped():
    h = np.array([[1.0, 2.0]])
    assert float(pairwise_contrastive_loss(h, h, 0.5).data) == 0.0


# ---------------------------------------------------------------------------
# multi-view total
# ---------------------------------------------------------------------------

def _pair_index(h_list):
    n = h_list[0].shape[0]
    idx = np.arange(n)
    return {(u, v): (idx, idx) for u in range(len(h_list))
            for v in range(u + 1, len(h_list))}


def test_lwc_total_two_views_single_term():
    rng = np.random.default_rng(15)
    h = [rng.normal(size=(5, 3)) for _ in range(2)]
    co = _pair_index(h)
    total = float(lwc_total(h, co, 0.5).data)
    single = float(pairwise_contrastive_loss(h[0], h[1], 0.5).data)
    np.testing.assert_allclose(total, single, rtol=1e-12)


def test_lwc_total_three_views_term_count():
    rng = np.random.default_rng(16)
    h = [rng.normal(size=(4, 3)) for _ in range(3)]
    co = _pair_index(h)
    total3 = float(lwc_total(h, co, 0.5).data)
    acc = 0.0
    for u in range(3):
        for v in range(u + 1, 3):
            acc += float(pairwise_contrastive_loss(h[u], h[v], 0.5).data)
    np.testing.assert_allclose(total3, acc, rtol=1e-12)


def test_lwc_total_disjoint_availability_is_zero():
    rng = np.random.default_rng(17)
    h = [rng.normal(size=(4, 3)) for _ in range(2)]
    co = {(0, 1): (np.array([], dtype=int), np.array([], dtype=int))}
    assert float(lwc_total(h, co, 0.5).data) == 0.0


def test_lwc_total_weights_change_no_gradient():
    # lwc_total is the unweighted cross-view loss summed over each pair's
    # co-available rows: the same value and the same gradient
    rng = np.random.default_rng(22)
    h = [Tensor(rng.normal(size=(7, 3))) for _ in range(3)]
    co = {(0, 1): (np.array([0, 2, 3, 5]), np.array([0, 2, 3, 5])),
          (0, 2): (np.arange(7), np.arange(7)),
          (1, 2): (np.array([1, 4, 6]), np.array([1, 4, 6]))}

    def grads(build):
        tape = Tape()
        for t in h:
            tape.watch(t)
        return backward(tape, build())

    def unweighted():
        total = Tensor(0.0)
        for (u, v), (ru, rv) in co.items():
            total = total + pairwise_contrastive_loss(
                take_rows(h[u], ru), take_rows(h[v], rv), 0.5)
        return total

    np.testing.assert_allclose(float(lwc_total(h, co, 0.5).data),
                               float(unweighted().data), rtol=1e-12)
    want = grads(unweighted)
    got = grads(lambda: lwc_total(h, co, 0.5))
    for t in h:
        np.testing.assert_allclose(got[t], want[t], rtol=1e-12, atol=1e-12)


def test_lwc_total_gradient_stops_at_weights():
    # the kernels are constants for the gradient: finite differences must
    # freeze the weights at the base point (perturbing through them would
    # measure a different derivative than the loss defines)
    rng = np.random.default_rng(19)
    h = [Tensor(rng.normal(size=(4, 3))) for _ in range(3)]
    co = _pair_index([t.data for t in h])

    frozen = {}
    for u in range(3):
        for v in range(u + 1, 3):
            s = median_sigma(h[u].data, h[v].data)
            frozen[(u, v)] = high_order_diag(
                local_affinity(h[u].data, h[v].data, s),
                local_affinity(h[v].data, h[v].data, s))

    def frozen_loss(tape):
        if tape is not None:
            for t in h:
                tape.watch(t)
        total = Tensor(0.0)
        for (u, v), w in frozen.items():
            total = total + lwc_loss(h[u], h[v], w, 0.5)
        return total

    assert grad_check(frozen_loss, h) < 1e-6

    # lwc_total's own gradient equals the frozen-weight gradient at the
    # base point: nothing leaks through the kernel path
    tape = Tape()
    for t in h:
        tape.watch(t)
    full = backward(tape, lwc_total(h, co, 0.5))
    tape = Tape()
    froze = backward(tape, frozen_loss(tape))
    for t in h:
        np.testing.assert_allclose(full[t], froze[t], rtol=1e-12, atol=1e-12)


def test_selection_carries_no_gradient():
    # moving a feature changes the loss only through similarity values, not
    # through which pairs are selected; verify the backward pass runs on a
    # graph whose selection includes ties
    h = Tensor(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]))
    tape = Tape()
    tape.watch(h)
    g = build_global_graph([h])
    pairs = select_pairs(g, 30.0, 60.0)
    grads = backward(tape, ggc_loss(g, pairs, 0.5))
    assert np.isfinite(grads[h]).all()
