"""Release gates for the library.

One test per gate, each printing a single PASS/FAIL line so a verbose run
(``pytest tests/test_acceptance.py -v -s``) reads as a checklist:

1. analytic gradients match central finite differences for every loss;
2. vectorized losses equal brute-force loop oracles;
3. pair selection equals a full-sort oracle and is cosine scale invariant;
4. corruption protocol: exact missing-row counts, calibrated noise moments;
5. clustering metrics match hand-computed contingency values;
6. ablation ordering on a synthetic fixture (full >= rec+ggc >= rec);
7. joint training lowers the objective without degrading accuracy;
8. the command-line pipeline is bit-for-bit reproducible;
9. epoch cost grows linearly with the sample size.

Gates 1-5 are exact property checks on tiny inputs.  Gates 6-9 train real
models under the desk profile on fixed synthetic fixtures; everything is
seeded, so outcomes are deterministic on a given platform.  The whole
module runs in a few minutes of CPU time.
"""

import dataclasses
import json
import math
import time

import numpy as np

from glc.cli import DEFAULTS, corrupt_dataset, main, resolve_dataset, run_cell
from glc.config import Config
from glc.data import (MultiViewDataset, derive_seed, generate_missing_mask,
                      inject_noise, make_synthetic, sample_batch)
from glc.graphs import (build_global_graph, ggc_loss, high_order_diag,
                        high_order_graph, local_affinity, lwc_loss, lwc_total,
                        median_sigma, pairwise_contrastive_loss, select_pairs)
from glc.metrics import accuracy, ari, nmi
from glc.model import (forward_views, init_model, model_parameters,
                       reconstruction_loss)
from glc.nn import Tape, Tensor, backward, grad_check, take_rows
from glc.pipeline import TrainHistory, build_model, pretrain, total_loss, train

# the trend fixture: three moderately separated clusters seen through three
# 20-d views.  Separation 1.0 keeps single-view reconstruction far from
# solving the task, which is the regime the contrastive terms are for.
FIXTURE = "synthetic:n=300,v=3,k=3,dims=20|20|20,sep=1.0"
MASTER_SEED = 4
RATE = 0.3


def _gate(number, label, ok, detail=""):
    tail = f"  ({detail})" if detail else ""
    print(f"[gate {number}/9] {label}: {'PASS' if ok else 'FAIL'}{tail}",
          flush=True)
    assert ok, f"gate {number} ({label}) failed{tail}"


# ---------------------------------------------------------------------------
# gate 1: finite-difference gradient suite
# ---------------------------------------------------------------------------

def _tiny_batch(rng, n=5, dims=(4, 3)):
    mask = np.ones((n, len(dims)), dtype=np.uint8)
    mask[-1, 1] = 0        # one partial row keeps the masked paths alive
    views = [rng.normal(size=(n, d)) for d in dims]
    ds = MultiViewDataset(views, mask)
    return sample_batch(ds, n, np.random.default_rng(0))


def _recon_grad_error(seed):
    rng = np.random.default_rng(seed)
    batch = _tiny_batch(rng)
    model = init_model([4, 3], latent_dim=3, head_dim=2, hidden=(5,),
                       seed=seed)

    def loss(tape):
        return reconstruction_loss(forward_views(model, batch, tape), batch)

    return grad_check(loss, model_parameters(model))


def _pairwise_grad_error(seed):
    rng = np.random.default_rng(seed)
    feats = [Tensor(rng.normal(size=(6, 4))) for _ in range(2)]

    def loss(tape):
        return pairwise_contrastive_loss(feats[0], feats[1], 0.5)

    return grad_check(loss, feats)


def _ggc_grad_error(seed):
    rng = np.random.default_rng(seed)
    parts = [Tensor(rng.normal(size=(3, 4))) for _ in range(2)]

    def loss(tape):
        graph = build_global_graph(parts)
        pairs = select_pairs(graph, 25.0, 50.0)
        return ggc_loss(graph, pairs, 0.5)

    return grad_check(loss, parts)


def _lwc_grad_error(seed):
    # kernel weights are constants for the gradient, so the finite
    # differences run against a composition frozen at the base point;
    # the hot path (weights recomputed, then detached) must then produce
    # the identical gradient there.
    rng = np.random.default_rng(seed)
    h = [Tensor(rng.normal(size=(5, 3))) for _ in range(3)]
    idx = np.arange(5)
    co = {(u, v): (idx, idx) for u in range(3) for v in range(u + 1, 3)}
    frozen = {}
    for u, v in co:
        s = median_sigma(h[u].data, h[v].data)
        frozen[(u, v)] = high_order_diag(
            local_affinity(h[u].data, h[v].data, s),
            local_affinity(h[v].data, h[v].data, s))

    def frozen_loss(tape):
        total = Tensor(0.0)
        for (u, v), w in frozen.items():
            total = total + lwc_loss(h[u], h[v], w, 0.5)
        return total

    err = grad_check(frozen_loss, h)

    tape = Tape()
    for t in h:
        tape.watch(t)
    live = backward(tape, lwc_total(h, co, 0.5))
    tape = Tape()
    for t in h:
        tape.watch(t)
    froze = backward(tape, frozen_loss(tape))
    for t in h:
        np.testing.assert_allclose(live[t], froze[t], rtol=1e-10, atol=1e-10)
    return err


def _total_grad_error(seed):
    rng = np.random.default_rng(seed + 400)
    batch = _tiny_batch(rng)
    model = init_model([4, 3], latent_dim=3, head_dim=2, hidden=(5,),
                       seed=seed)
    params = model_parameters(model)
    co = {(0, 1): batch.co_available(0, 1)}

    base = [f.contrast for f in forward_views(model, batch, None)]
    frozen = {}
    for (u, v), (ru, rv) in co.items():
        a, b = base[u].data[ru], base[v].data[rv]
        s = median_sigma(a, b)
        frozen[(u, v)] = high_order_diag(local_affinity(a, b, s),
                                         local_affinity(b, b, s))

    def compose(tape, live_weights):
        feats = forward_views(model, batch, tape)
        rec = reconstruction_loss(feats, batch)
        hs = [f.contrast for f in feats]
        graph = build_global_graph(hs, positions=batch.view_positions)
        pairs = select_pairs(graph, 25.0, 50.0)
        g = ggc_loss(graph, pairs, 0.5)
        if live_weights:
            l = lwc_total(hs, co, 0.5)
        else:
            l = Tensor(0.0)
            for (u, v), w in frozen.items():
                l = l + lwc_loss(take_rows(hs[u], co[(u, v)][0]),
                                 take_rows(hs[v], co[(u, v)][1]), w, 0.5)
        return total_loss(rec, g, l, 0.1, 1.0)

    err = grad_check(lambda tape: compose(tape, False), params)

    tape = Tape()
    for p in params:
        tape.watch(p)
    live = backward(tape, compose(tape, True))
    tape = Tape()
    for p in params:
        tape.watch(p)
    froze = backward(tape, compose(tape, False))
    for p in params:
        np.testing.assert_allclose(live[p], froze[p], rtol=1e-10, atol=1e-10)
    return err


def test_gate_1_gradient_suite():
    suites = {
        "rec": _recon_grad_error,
        "pairwise": _pairwise_grad_error,
        "ggc": _ggc_grad_error,
        "lwc": _lwc_grad_error,
        "total": _total_grad_error,
    }
    worst = {name: max(fn(seed) for seed in range(20))
             for name, fn in suites.items()}
    detail = " ".join(f"{k}={v:.2e}" for k, v in worst.items())
    _gate(1, "gradient suite vs central differences",
          all(v <= 1e-5 for v in worst.values()), detail)


# ---------------------------------------------------------------------------
# gate 2: brute-force loop oracles
# ---------------------------------------------------------------------------

def _oracle_ggc(sims, pairs, tau, include_positive):
    total = 0.0
    for i in range(pairs.positives.shape[0]):
        for j in pairs.positives[i]:
            den = sum(math.exp(sims[i, k] / tau) for k in pairs.negatives[i])
            if include_positive:
                den += math.exp(sims[i, j] / tau)
            total += math.log(den) - sims[i, j] / tau
    return total


def _oracle_cross_view(h_u, h_v, tau, weights=None):
    un = h_u / np.linalg.norm(h_u, axis=1, keepdims=True)
    vn = h_v / np.linalg.norm(h_v, axis=1, keepdims=True)
    n = un.shape[0]
    total = 0.0
    for i in range(n):
        den = 0.0
        for j in range(n):
            if j == i:
                continue
            den += math.exp(float(un[i] @ un[j]) / tau)
            den += math.exp(float(un[i] @ vn[j]) / tau)
        total += math.log(den) - float(un[i] @ vn[i]) / tau
        if weights is not None:
            total -= math.log(weights[i])
    return total


def _oracle_high_order(w_uv, w_vv):
    n, k = w_uv.shape
    m = w_vv.shape[0]
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            for t in range(k):
                out[i, j] += w_uv[i, t] * w_vv[j, t]
    return out


def test_gate_2_loop_oracles():
    worst = 0.0
    for s in range(50):
        rng = np.random.default_rng(2000 + s)
        tau = float(rng.choice([0.3, 0.5, 1.0]))

        n = int(rng.integers(4, 13))
        split = int(rng.integers(1, n))
        d = int(rng.integers(2, 6))
        x = rng.normal(size=(n, d))
        graph = build_global_graph([x[:split], x[split:]])
        pairs = select_pairs(graph, 20.0, 40.0)
        for flag in (False, True):
            got = float(ggc_loss(graph, pairs, tau, flag).data)
            want = _oracle_ggc(graph.sims.data, pairs, tau, flag)
            worst = max(worst, abs(got - want))

        m = int(rng.integers(2, 7))
        h_u = rng.normal(size=(m, d))
        h_v = rng.normal(size=(m, d))
        got = float(pairwise_contrastive_loss(h_u, h_v, tau).data)
        worst = max(worst, abs(got - _oracle_cross_view(h_u, h_v, tau)))

        w = rng.uniform(0.1, 2.0, size=m)
        got = float(lwc_loss(h_u, h_v, w, tau).data)
        worst = max(worst, abs(got - _oracle_cross_view(h_u, h_v, tau, w)))

        w_uv = rng.uniform(size=(m, m))
        w_vv = rng.uniform(size=(m, m))
        diff = np.abs(high_order_graph(w_uv, w_vv)
                      - _oracle_high_order(w_uv, w_vv))
        worst = max(worst, float(diff.max()))

    _gate(2, "vectorized losses vs loop oracles", worst <= 1e-9,
          f"max |diff|={worst:.2e} over 50 seeds")


# ---------------------------------------------------------------------------
# gate 3: pair selection and scale invariance
# ---------------------------------------------------------------------------

def _oracle_select(sims, pos_pct, neg_pct):
    n = sims.shape[0]
    cand = n - 1
    n_pos = math.ceil(pos_pct * cand / 100.0)
    n_neg = min(math.ceil(neg_pct * cand / 100.0), cand - n_pos)
    positives = np.empty((n, n_pos), dtype=np.intp)
    negatives = np.empty((n, n_neg), dtype=np.intp)
    for i in range(n):
        others = [j for j in range(n) if j != i]
        best = sorted(others, key=lambda j: (-sims[i, j], j))[:n_pos]
        rest = sorted((j for j in others if j not in best),
                      key=lambda j: (sims[i, j], j))
        positives[i] = best
        negatives[i] = rest[:n_neg]
    return positives, negatives


def test_gate_3_pair_selection():
    ok = True
    for s in range(50):
        rng = np.random.default_rng(3000 + s)
        x = rng.normal(size=(20, 5))
        x[7] = x[2]          # a duplicated row forces exact similarity ties
        graph = build_global_graph([x])
        for pos_pct, neg_pct in ((1.0, 50.0), (5.0, 30.0), (12.5, 60.0)):
            pairs = select_pairs(graph, pos_pct, neg_pct)
            want_p, want_n = _oracle_select(graph.sims.data, pos_pct, neg_pct)
            ok = ok and np.array_equal(pairs.positives, want_p)
            ok = ok and np.array_equal(pairs.negatives, want_n)

        # positive per-row power-of-two rescaling leaves cosine similarities
        # bit-identical, hence the exact same selections
        scales = 2.0 ** rng.integers(-3, 4, size=(20, 1))
        scaled = build_global_graph([x * scales])
        ok = ok and np.array_equal(graph.sims.data, scaled.sims.data)
        base = select_pairs(graph, 5.0, 50.0)
        after = select_pairs(scaled, 5.0, 50.0)
        ok = ok and np.array_equal(base.positives, after.positives)
        ok = ok and np.array_equal(base.negatives, after.negatives)

    _gate(3, "pair selection vs full-sort oracle + scale invariance", ok,
          "50 seeds, 20x20 graphs, ties via duplicated rows")


# ---------------------------------------------------------------------------
# gate 4: corruption protocol
# ---------------------------------------------------------------------------

def test_gate_4_corruption_protocol():
    n = 50
    ok = True
    for rate in (0.0, 0.1, 0.3, 0.5, 0.7, 1.0):
        for n_views in (2, 3, 4, 12):
            for seed in range(100):
                m = generate_missing_mask(n, n_views, rate, seed)
                incomplete = int((m.sum(axis=1) < n_views).sum())
                ok = ok and incomplete == round(rate * n)
                ok = ok and (m.sum(axis=1) >= 1).all()

    rows, d = 2000, 50
    ds = MultiViewDataset([np.zeros((rows, d)), np.zeros((rows, d))],
                          np.ones((rows, 2), dtype=np.uint8))
    out = inject_noise(ds, 1.0, 0.4, 8)
    eps = np.concatenate([out.views[v][out.noise_flags[:, v]].ravel()
                          for v in range(2)])
    moments_ok = (eps.size >= 10 ** 5
                  and -0.01 <= eps.mean() <= 0.01
                  and 0.39 <= eps.std() <= 0.41)
    _gate(4, "exact mask counts + noise moments", ok and moments_ok,
          f"2400 masks exact; {eps.size} draws, mean={eps.mean():.4f}, "
          f"std={eps.std():.4f}")


# ---------------------------------------------------------------------------
# gate 5: metric fixtures
# ---------------------------------------------------------------------------

def test_gate_5_metric_fixtures():
    ok = True

    true = np.array([0, 1, 2, 0, 1, 2])
    ok = ok and accuracy(true, true) == 1.0
    ok = ok and nmi(true, true) == 1.0 and ari(true, true) == 1.0

    relabeled = np.array([2, 0, 1, 2, 0, 1])     # same partition, new names
    ok = ok and accuracy(relabeled, true) == 1.0
    ok = ok and nmi(relabeled, true) == 1.0 and ari(relabeled, true) == 1.0

    # best assignment maps prediction 0 -> class 1 and 1 -> class 0 (or 2),
    # matching three of the four samples
    ok = ok and accuracy(np.array([0, 0, 1, 1]),
                         np.array([1, 1, 0, 2])) == 0.75

    # a constant prediction on a balanced two-class problem carries no
    # information: half right under the best map, zero shared information
    pred = np.zeros(4, dtype=int)
    bal = np.array([0, 0, 1, 1])
    ok = ok and accuracy(pred, bal) == 0.5
    ok = ok and abs(nmi(pred, bal)) <= 1e-12
    ok = ok and abs(ari(pred, bal)) <= 1e-12

    # independent partitions: no information, chance-level pairs
    ok = ok and abs(nmi(np.array([0, 0, 1, 1]),
                        np.array([0, 1, 0, 1]))) <= 1e-12
    ok = ok and ari(np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])) <= 0.0

    # 2-1-1 contingency blocks: four of six samples survive the best map
    ok = ok and abs(accuracy(np.array([0, 0, 0, 1, 1, 2]),
                             np.array([0, 0, 1, 1, 2, 2])) - 4 / 6) <= 1e-12

    for s in range(20):
        rng = np.random.default_rng(5000 + s)
        pred = rng.integers(0, 4, size=40)
        true = rng.integers(0, 3, size=40)
        perm_p = rng.permutation(4)[pred]
        perm_t = rng.permutation(3)[true]
        ok = ok and abs(accuracy(pred, true)
                        - accuracy(perm_p, perm_t)) <= 1e-12
        ok = ok and abs(nmi(pred, true) - nmi(perm_p, perm_t)) <= 1e-12
        ok = ok and abs(ari(pred, true) - ari(perm_p, perm_t)) <= 1e-12

    _gate(5, "metric hand values + permutation invariance", ok,
          "7 fixtures, 20 relabeling seeds")


# ---------------------------------------------------------------------------
# gate 6: ablation ordering on the trend fixture
# ---------------------------------------------------------------------------

def test_gate_6_ablation_ordering():
    cfg = dict(DEFAULTS)
    cfg.update(dataset=FIXTURE, seed=MASTER_SEED, profile="desk", batch=256)
    table = {}
    for setting in ("incomplete", "noise", "combined"):
        for ablation in ("rec", "rec+ggc", "full"):
            res = run_cell(cfg, setting, RATE, ablation)
            table[(setting, ablation)] = res["results"]["acc_mean"]

    ok = True
    parts = []
    for setting in ("incomplete", "noise", "combined"):
        rec, ggc, full = (table[(setting, a)]
                          for a in ("rec", "rec+ggc", "full"))
        ok = ok and full >= ggc and ggc >= rec - 0.02 and full >= rec + 0.05
        parts.append(f"{setting}: {rec:.3f}/{ggc:.3f}/{full:.3f}")
    _gate(6, "ablation ordering full >= rec+ggc >= rec", ok,
          "; ".join(parts))


# ---------------------------------------------------------------------------
# gate 7: training stability on the trend fixture
# ---------------------------------------------------------------------------

def test_gate_7_training_stability():
    cfg = Config(dataset=FIXTURE, seed=MASTER_SEED, profile="desk", batch=256)
    dataset, _ = resolve_dataset(cfg, cfg.seed)
    corrupted = corrupt_dataset(dataset, "incomplete", RATE, cfg.noise_std,
                                cfg.seed)
    # the "full" row's trainer config, as glc.cli.run_cell derives it
    tcfg = dataclasses.replace(
        cfg, eval_every=10,
        seed=derive_seed(MASTER_SEED, "trainer", "incomplete", f"{RATE:.6f}"))

    model = build_model(corrupted, tcfg)
    history = TrainHistory()
    pretrain(model, corrupted, tcfg, history=history)
    train(model, corrupted, tcfg, history=history)

    recs = history.train_records()
    marks = [r for r in recs if r.acc is not None]
    loss_down = recs[-1].total < recs[0].total
    acc_up = marks[-1].acc >= marks[0].acc
    _gate(7, "objective decreases, accuracy does not degrade",
          loss_down and acc_up,
          f"L {recs[0].total:.1f}->{recs[-1].total:.1f}, "
          f"ACC {marks[0].acc:.3f}->{marks[-1].acc:.3f} "
          f"over {len(marks)} checkpoints")


# ---------------------------------------------------------------------------
# gate 8: end-to-end reproducibility
# ---------------------------------------------------------------------------

def test_gate_8_reproducibility(tmp_path):
    spec = "synthetic:n=48,v=2,k=3,dims=6|6,sep=2.0,seed=3"
    cfg_file = tmp_path / "fast.json"
    cfg_file.write_text(json.dumps({
        "pretrain_epochs": 5, "epochs": 10,
        "kmeans_restarts": 3, "batch": 32,
    }))
    prep = tmp_path / "prep"
    out = tmp_path / "out"

    def run_once():
        code = main(["prepare", "--dataset", spec, "--setting", "incomplete",
                     "--rate", "0.3", "--seed", "7", "--out", str(prep)])
        code |= main(["train", "--dataset", str(prep), "--profile", "desk",
                      "--seed", "7", "--config", str(cfg_file),
                      "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        del report["wall_time_s"]
        prepared = {p.name: p.read_bytes() for p in sorted(prep.iterdir())}
        return code, (out / "history.csv").read_bytes(), report, prepared

    code_a, hist_a, report_a, prep_a = run_once()
    code_b, hist_b, report_b, prep_b = run_once()

    ok = (code_a == 0 and code_b == 0 and hist_a == hist_b
          and report_a == report_b and prep_a == prep_b)
    _gate(8, "two identical pipeline runs match bit for bit", ok,
          f"{len(hist_a)} history bytes, {len(prep_a)} prepared files")


# ---------------------------------------------------------------------------
# gate 9: linear scaling in the sample count
# ---------------------------------------------------------------------------

def test_gate_9_linear_scaling():
    def epoch_seconds(n, epochs=7):
        ds = make_synthetic(n, 3, 4, dims=20, separation=1.0, seed=11)
        tcfg = Config(profile="desk", batch=256, seed=0, pretrain_epochs=0,
                      epochs=epochs)
        model = init_model([v.shape[1] for v in ds.views], latent_dim=32,
                           head_dim=16, hidden=(64, 64), seed=0)
        _, history = train(model, ds, tcfg)
        # the fastest epoch is the steady-state cost; the others absorb
        # allocator warm-up and whatever else the machine was doing
        return min(r.seconds for r in history.train_records())

    epoch_seconds(1000, epochs=2)             # warm-up, not measured
    t_small = epoch_seconds(1000)
    t_large = epoch_seconds(2000)
    ratio = t_large / t_small
    _gate(9, "doubling N at fixed batch size stays near 2x", ratio <= 2.3,
          f"{t_small * 1e3:.0f} ms -> {t_large * 1e3:.0f} ms, "
          f"ratio={ratio:.2f}")
