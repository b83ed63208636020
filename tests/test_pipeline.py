"""Training schedule, fusion, k-means and evaluation."""

import gc
import math
import sys
import threading
import weakref

import numpy as np
import pytest

from glc import model as model_module
from glc import nn, pipeline
from glc.config import PROFILES, Config
from glc.data import MultiViewDataset, generate_missing_mask, make_synthetic
from glc.errors import ConfigError, ShapeError, TrainingAborted
from glc.model import model_parameters, save_checkpoint
from glc.pipeline import (ClusterReport, TrainHistory, build_model, evaluate,
                          fuse_features, fuse_mean, infer_features, kmeans,
                          pretrain, total_loss, train)


def _desk_config(**kw):
    base = dict(profile="desk", batch=16, pretrain_epochs=2, epochs=3,
                eval_seeds=2, kmeans_restarts=2, seed=0)
    base.update(kw)
    return Config(**base)


def _tiny_dataset(seed=0, n=24, v=2, k=3):
    return make_synthetic(n, v, k, dims=5, separation=4.0, seed=seed)


def _params_snapshot(model):
    return [p.data.copy() for p in model_parameters(model)]


def _assert_params_equal(a, b):
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------

def test_profiles_fill_architecture():
    cfg = Config(profile="paper").resolved()
    assert cfg.hidden == (500, 500, 2000)
    assert cfg.latent_dim == 512 and cfg.head_dim == 128
    desk = Config(profile="desk").resolved()
    assert desk.hidden == PROFILES["desk"]["hidden"]
    assert desk.epochs == 100 and desk.pretrain_epochs == 50


def test_explicit_fields_override_profile():
    cfg = Config(profile="paper", hidden=(8,), latent_dim=4,
                 epochs=7).resolved()
    assert cfg.hidden == (8,) and cfg.latent_dim == 4 and cfg.epochs == 7
    assert cfg.head_dim == 128     # untouched fields still come from the profile


def test_config_validation():
    with pytest.raises(ConfigError):
        Config(alpha=-0.1)
    with pytest.raises(ConfigError):
        Config(tau=0.0)
    with pytest.raises(ConfigError):
        Config(pos=60.0, neg=50.0)
    with pytest.raises(ConfigError):
        Config.from_dict({"sigma": "median"})
    with pytest.raises(ConfigError):
        Config(batch=1)
    with pytest.raises(ConfigError):
        Config(profile="gpu")
    with pytest.raises(ConfigError):
        Config(fuse_space="pixel")
    # bool is not a number, integer keys take integers only, numbers are
    # finite, and the synthetic spec object is checked key by key
    for bad in ({"batch": True}, {"alpha": False}, {"seed": 1.5},
                {"lr": float("nan")}, {"hidden": (8, 0)},
                {"synthetic": {"n": 30}}, {"synthetic": {"dims": "4"}}):
        with pytest.raises(ConfigError):
            Config(**bad)


# ---------------------------------------------------------------------------
# total loss
# ---------------------------------------------------------------------------

def test_total_loss_reduces_to_rec():
    assert total_loss(2.5, 7.0, -3.0, 0.0, 0.0) == 2.5


def test_total_loss_hand_value():
    np.testing.assert_allclose(total_loss(2.0, -1.0, 3.0, 0.1, 1.0), 4.9)


def test_total_loss_linear_in_alpha():
    a = total_loss(1.0, 3.0, 0.5, 0.1, 1.0)
    b = total_loss(1.0, 3.0, 0.5, 0.2, 1.0)
    np.testing.assert_allclose(b - a, 0.1 * 3.0)


# ---------------------------------------------------------------------------
# pretraining
# ---------------------------------------------------------------------------

def test_pretrain_zero_epochs_is_noop():
    ds = _tiny_dataset()
    cfg = _desk_config(pretrain_epochs=0)
    model = build_model(ds, cfg)
    before = _params_snapshot(model)
    pretrain(model, ds, cfg)
    _assert_params_equal(before, _params_snapshot(model))


def test_pretrain_reduces_reconstruction_loss():
    ds = _tiny_dataset(seed=1)
    cfg = _desk_config(pretrain_epochs=30, epochs=1)
    model = build_model(ds, cfg)
    history = TrainHistory()
    pretrain(model, ds, cfg, history=history)
    recs = [r.rec for r in history.records]
    assert recs[-1] < recs[0]
    assert all(r.ggc == 0.0 and r.lwc == 0.0 for r in history.records)


def test_pretrain_deterministic():
    ds = _tiny_dataset(seed=2)
    cfg = _desk_config(pretrain_epochs=3)
    m1 = pretrain(build_model(ds, cfg), ds, cfg)
    m2 = pretrain(build_model(ds, cfg), ds, cfg)
    _assert_params_equal(_params_snapshot(m1), _params_snapshot(m2))


# ---------------------------------------------------------------------------
# joint training
# ---------------------------------------------------------------------------

def test_train_records_and_continuous_epochs():
    ds = _tiny_dataset(seed=3)
    cfg = _desk_config(pretrain_epochs=2, epochs=3)
    model = build_model(ds, cfg)
    history = TrainHistory()
    pretrain(model, ds, cfg, history=history)
    model, history = train(model, ds, cfg, history=history)
    assert [r.epoch for r in history.records] == [1, 2, 3, 4, 5]
    assert [r.phase for r in history.records] == ["pretrain"] * 2 + ["train"] * 3
    assert len(history.train_records()) == 3


def test_train_rec_only_reduces_to_reconstruction():
    ds = _tiny_dataset(seed=4)
    cfg = _desk_config(alpha=0.0, beta=0.0, epochs=4)
    model = build_model(ds, cfg)
    model, history = train(model, ds, cfg)
    for r in history.records:
        assert r.ggc == 0.0 and r.lwc == 0.0
        assert r.total == r.rec


def test_train_rec_only_matches_zero_weight_contrast_path():
    # the contrastive machinery must not perturb optimization when its
    # weights are zero: parameters evolve exactly as in a rec-only run
    ds = _tiny_dataset(seed=5)
    cfg_a = _desk_config(alpha=0.0, beta=0.0, epochs=3)
    cfg_b = _desk_config(alpha=0.0, beta=0.0, epochs=3, eval_every=1)
    m1, _ = train(build_model(ds, cfg_a), ds, cfg_a)
    m2, _ = train(build_model(ds, cfg_b), ds, cfg_b)
    _assert_params_equal(_params_snapshot(m1), _params_snapshot(m2))


def test_train_full_objective_decreases():
    ds = _tiny_dataset(seed=6, n=30)
    cfg = _desk_config(pretrain_epochs=5, epochs=25, batch=15)
    model = build_model(ds, cfg)
    pretrain(model, ds, cfg)
    model, history = train(model, ds, cfg)
    totals = [r.total for r in history.train_records()]
    assert totals[-1] < totals[0]


def test_train_deterministic_across_runs():
    ds = _tiny_dataset(seed=7)
    cfg = _desk_config()
    runs = []
    for _ in range(2):
        model = build_model(ds, cfg)
        history = TrainHistory()
        pretrain(model, ds, cfg, history=history)
        model, history = train(model, ds, cfg, history=history)
        runs.append((
            _params_snapshot(model),
            [(r.rec, r.ggc, r.lwc, r.total) for r in history.records],
        ))
    _assert_params_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]


def test_train_metric_checkpoints():
    ds = _tiny_dataset(seed=8)
    cfg = _desk_config(epochs=5, eval_every=2)
    model, history = train(build_model(ds, cfg), ds, cfg)
    evaluated = [r.epoch for r in history.records if r.acc is not None]
    # first, every 2nd and final joint epoch
    assert evaluated == [1, 2, 4, 5]
    for r in history.records:
        if r.acc is not None:
            assert 0.0 <= r.acc <= 1.0 and 0.0 <= r.nmi <= 1.0


def test_train_aborts_on_divergence():
    # a step size this large overflows the forward pass within a few
    # epochs; the trainer must stop with diagnostics, not emit NaN rows
    ds = _tiny_dataset(seed=9)
    cfg = _desk_config(lr=1e100, epochs=10, alpha=0.0, beta=0.0)
    model = build_model(ds, cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingAborted) as err:
            train(model, ds, cfg)
    assert err.value.epoch >= 1


# a square side whose matrix has more than glc.nn._BLOCK elements
_BIG = math.isqrt(nn._BLOCK) + 2


def _large_config(**kw):
    # the encoder's and head's square weights exceed glc.nn._BLOCK, so each
    # view runs on a worker of its own
    return _desk_config(hidden=(_BIG,), latent_dim=_BIG, **kw)


def _fit(ds, cfg):
    model = build_model(ds, cfg)
    history = TrainHistory()
    pretrain(model, ds, cfg, history=history)
    model, history = train(model, ds, cfg, history=history)
    return (_params_snapshot(model),
            [(r.rec, r.ggc, r.lwc, r.total) for r in history.records])


def _glc_threads():
    return [t for t in threading.enumerate() if t.name.startswith("glc")]


def test_view_workers_train_bit_identically_to_the_plain_loop(
        monkeypatch, tmp_path):
    ds = make_synthetic(60, 3, 3, dims=[6, 5, 7], separation=4.0, seed=11)
    ds = MultiViewDataset(ds.views, generate_missing_mask(60, 3, 0.3, 11),
                          ds.labels, None, ds.n_classes)
    cfg = _desk_config(hidden=(_BIG, _BIG), pretrain_epochs=1, epochs=1,
                       batch=32)
    pools = []
    make_pool = nn.ThreadPoolExecutor

    def spy(max_workers, **kwargs):
        pools.append(max_workers)
        return make_pool(max_workers, **kwargs)

    def fit(out):
        model = build_model(ds, cfg)
        history = TrainHistory()
        pretrain(model, ds, cfg, history=history)
        train(model, ds, cfg, history=history)
        out.mkdir()
        save_checkpoint(model, out / "checkpoint.npz")
        history.write_csv(out / "history.csv")
        return [(out / f).read_bytes()
                for f in ("checkpoint.npz", "history.csv")]

    monkeypatch.setattr(nn, "ThreadPoolExecutor", spy)
    threads = threading.enumerate()
    # switch threads as often as possible, so a race would show
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        on_workers = fit(tmp_path / "workers")
    finally:
        sys.setswitchinterval(interval)
    assert pools == [3, 3]          # one worker per view, per phase
    assert threading.enumerate() == threads
    # with every parameter under the gate the same calls run in a loop
    monkeypatch.setattr(nn, "_BLOCK", 10 ** 9)
    assert fit(tmp_path / "loop") == on_workers
    assert pools == [3, 3]


def test_train_joins_the_view_workers_when_it_aborts():
    ds = _tiny_dataset(seed=9)
    cfg = _large_config(lr=1e100, epochs=10, alpha=0.0, beta=0.0)
    threads = threading.enumerate()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingAborted):
            train(build_model(ds, cfg), ds, cfg)
    assert threading.enumerate() == threads


def test_a_view_error_on_its_worker_surfaces_and_no_thread_remains(
        monkeypatch):
    ds = _tiny_dataset(seed=14)
    cfg = _large_config(pretrain_epochs=1, epochs=1)
    forward_view = model_module._forward_view
    calls = []

    def fail_on_a_worker(view, x, tape):
        calls.append(threading.current_thread().name)
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("view forward failed")
        return forward_view(view, x, tape)

    monkeypatch.setattr(model_module, "_forward_view", fail_on_a_worker)
    threads = threading.enumerate()
    with pytest.raises(RuntimeError, match="view forward failed"):
        _fit(ds, cfg)
    assert calls and all(name.startswith("glc") for name in calls)
    assert threading.enumerate() == threads


def test_desk_training_starts_no_thread(monkeypatch):
    ds = _tiny_dataset(seed=12)
    cfg = _desk_config(pretrain_epochs=1, epochs=1)
    threads = threading.enumerate()
    seen = []
    for name in ("forward_views", "backward"):
        inner = getattr(pipeline, name)

        def watch(*args, inner=inner):
            seen.append(threading.enumerate())
            out = inner(*args)
            seen.append(threading.enumerate())
            return out

        monkeypatch.setattr(pipeline, name, watch)
    _fit(ds, cfg)
    assert len(seen) > 8 and all(t == threads for t in seen)
    assert threading.enumerate() == threads


def _assert_each_step_is_freed(monkeypatch, cfg):
    ds = _tiny_dataset(seed=13)
    forward = pipeline.forward_views
    earlier, alive = [], []

    def watch(model, batch, tape=None):
        # reference counting alone must free the previous step
        alive.append(sum(ref() is not None for ref in earlier))
        feats = forward(model, batch, tape)
        earlier.extend(weakref.ref(f) for f in feats)
        return feats

    monkeypatch.setattr(pipeline, "forward_views", watch)
    gc.collect()
    gc.disable()
    try:
        _fit(ds, cfg)
    finally:
        gc.enable()
    assert len(alive) > 2 and not any(alive)


def test_a_step_is_freed_before_the_next_forward_pass(monkeypatch):
    _assert_each_step_is_freed(monkeypatch,
                               _desk_config(pretrain_epochs=1, epochs=1))


def test_a_step_on_view_workers_is_freed_before_the_next_forward_pass(
        monkeypatch):
    # no future or worker keeps the previous step alive
    _assert_each_step_is_freed(monkeypatch,
                               _large_config(pretrain_epochs=1, epochs=1))


def test_history_csv_layout(tmp_path):
    ds = _tiny_dataset(seed=10)
    cfg = _desk_config(pretrain_epochs=1, epochs=2, eval_every=1)
    model = build_model(ds, cfg)
    history = TrainHistory()
    pretrain(model, ds, cfg, history=history)
    train(model, ds, cfg, history=history)
    path = tmp_path / "history.csv"
    history.write_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "epoch,L_rec,L_ggc,L_lwc,L_total,acc,nmi,ari"
    assert len(lines) == 1 + 3
    first = lines[1].split(",")
    assert first[0] == "1" and first[5] == ""    # pretrain rows carry no metrics


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------

def test_fuse_mean_single_available_view():
    feats = [np.array([[1.0, 0.0], [5.0, 5.0]]), np.array([[9.0, 9.0]])]
    mask = np.array([[1, 0], [1, 1]])
    fused = fuse_mean(feats, mask)
    np.testing.assert_array_equal(fused[0], [1.0, 0.0])
    np.testing.assert_array_equal(fused[1], [7.0, 7.0])


def test_fuse_mean_all_available():
    feats = [np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])]
    fused = fuse_mean(feats, np.ones((1, 2)))
    np.testing.assert_array_equal(fused, [[0.5, 0.5]])


def test_fuse_mean_three_views_partial():
    feats = [np.array([[3.0]]), np.array([[5.0]]), np.zeros((0, 1))]
    mask = np.array([[1, 1, 0]])
    np.testing.assert_array_equal(fuse_mean(feats, mask), [[4.0]])


def test_fuse_mean_validates_row_counts():
    feats = [np.zeros((2, 2)), np.zeros((2, 2))]
    mask = np.array([[1, 0], [1, 1]])
    with pytest.raises(ShapeError):
        fuse_mean(feats, mask)


def test_fuse_features_respects_mask():
    ds = _tiny_dataset(seed=11)
    ds.mask = generate_missing_mask(ds.n_samples, ds.n_views, 0.5, 1)
    ds = MultiViewDataset(ds.views, ds.mask, ds.labels, None, ds.n_classes)
    cfg = _desk_config()
    model = build_model(ds, cfg)
    fused = fuse_features(model, ds)
    assert fused.shape == (ds.n_samples, cfg.resolved().head_dim)
    feats = infer_features(model, ds)
    # a sample observed only in view v equals exactly its view-v feature
    only_v0 = np.flatnonzero((ds.mask[:, 0] == 1) & (ds.mask[:, 1] == 0))
    if only_v0.size:
        rows_v0 = np.flatnonzero(ds.mask[:, 0] == 1)
        pos = np.searchsorted(rows_v0, only_v0[0])
        np.testing.assert_array_equal(fused[only_v0[0]], feats[0][pos])


def test_infer_features_latent_space():
    ds = _tiny_dataset(seed=12)
    cfg = _desk_config()
    model = build_model(ds, cfg)
    latent = infer_features(model, ds, space="latent")
    assert latent[0].shape == (ds.n_samples, cfg.resolved().latent_dim)
    with pytest.raises(ConfigError):
        infer_features(model, ds, space="pixels")


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------

def test_kmeans_k_equals_n():
    x = np.arange(10.0)[:, None] * 3.0
    labels = kmeans(x, 10, runs=3, seed=0)
    assert np.unique(labels).size == 10


def test_kmeans_separated_blobs():
    rng = np.random.default_rng(13)
    centers = np.array([[0.0, 0.0], [20.0, 0.0], [0.0, 20.0]])
    truth = np.repeat(np.arange(3), 40)
    x = centers[truth] + rng.normal(scale=1.0, size=(120, 2))
    labels = kmeans(x, 3, runs=5, seed=1)
    from glc.metrics import accuracy
    assert accuracy(labels, truth) == 1.0


def test_kmeans_deterministic():
    x = np.random.default_rng(14).normal(size=(40, 3))
    a = kmeans(x, 4, runs=5, seed=2)
    b = kmeans(x, 4, runs=5, seed=2)
    np.testing.assert_array_equal(a, b)


def test_kmeans_duplicate_points():
    # more clusters than distinct points still terminates and uses k labels
    x = np.array([[0.0], [0.0], [0.0], [9.0], [9.0]])
    labels = kmeans(x, 2, runs=3, seed=3)
    assert set(labels) == {0, 1}
    assert labels[0] == labels[1] == labels[2]
    assert labels[3] == labels[4]


def test_kmeans_validates_k():
    x = np.zeros((5, 2))
    with pytest.raises(ConfigError):
        kmeans(x, 1, runs=1, seed=0)
    with pytest.raises(ConfigError):
        kmeans(x, 6, runs=1, seed=0)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_cluster_report_statistics():
    report = ClusterReport(seeds=[1, 2, 3], accs=[0.5, 0.7, 0.6],
                           nmis=[0.1, 0.2, 0.3], aris=[0.0, 0.0, 0.0])
    mean, std = report.acc
    np.testing.assert_allclose(mean, 0.6)
    np.testing.assert_allclose(std, np.std([0.5, 0.7, 0.6]))
    d = report.to_dict()
    assert len(d["runs"]) == 3
    assert d["ari_std"] == 0.0


def test_evaluate_single_seed_zero_std():
    ds = _tiny_dataset(seed=15)
    cfg = _desk_config(eval_seeds=1)
    model = build_model(ds, cfg)
    report = evaluate(model, ds, cfg)
    assert len(report.accs) == 1
    assert report.acc[1] == 0.0


def test_evaluate_mean_is_arithmetic_mean():
    ds = _tiny_dataset(seed=16)
    cfg = _desk_config(eval_seeds=4)
    model = build_model(ds, cfg)
    report = evaluate(model, ds, cfg)
    np.testing.assert_allclose(report.acc[0], np.mean(report.accs))
    assert len(report.seeds) == 4


def test_evaluate_requires_labels():
    ds = _tiny_dataset(seed=17)
    unlabeled = MultiViewDataset([v.copy() for v in ds.views], ds.mask.copy())
    cfg = _desk_config()
    model = build_model(ds, cfg)
    with pytest.raises(ConfigError):
        evaluate(model, unlabeled, cfg)


def test_evaluate_deterministic():
    ds = _tiny_dataset(seed=18)
    cfg = _desk_config()
    model = build_model(ds, cfg)
    a = evaluate(model, ds, cfg).to_dict()
    b = evaluate(model, ds, cfg).to_dict()
    assert a == b


def test_perfect_features_scores_one():
    # bypass training: hand the evaluator one-hot features by class
    labels = np.repeat(np.arange(3), 5)
    one_hot = np.eye(3)[labels]
    for seed in range(5):
        pred = kmeans(one_hot, 3, runs=2, seed=seed)
        from glc.metrics import accuracy, nmi
        assert accuracy(pred, labels) == 1.0
        assert nmi(pred, labels) == 1.0
