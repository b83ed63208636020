"""Dataset I/O, corruption protocols, batching and the synthetic generator."""

import json
from dataclasses import replace

import numpy as np
import pytest

from glc.cli import corrupt_dataset
from glc.config import SETTINGS
from glc.data import (MultiViewDataset, apply_combined, derive_seed,
                      generate_missing_mask, inject_noise, iter_epoch,
                      load_dataset, make_synthetic, sample_batch,
                      save_dataset, standardize_views, write_matrix)
from glc.errors import ConfigError, DataFormatError
from glc.metrics import accuracy
from glc.pipeline import kmeans


def _write_csv(path, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")


def _toy_dataset(n=6, v=2, d=3, seed=0):
    rng = np.random.default_rng(seed)
    views = [rng.normal(size=(n, d)) for _ in range(v)]
    labels = np.arange(n) % 2
    return MultiViewDataset(views, np.ones((n, v), dtype=np.uint8), labels)


# ---------------------------------------------------------------------------
# derive_seed
# ---------------------------------------------------------------------------

def test_derive_seed_stable_and_tag_sensitive():
    a = derive_seed(7, "train")
    assert a == derive_seed(7, "train")
    assert a != derive_seed(7, "pretrain")
    assert a != derive_seed(8, "train")
    assert derive_seed(7, "curve", 3) != derive_seed(7, "curve", 4)
    assert 0 <= a < 2 ** 63


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def test_load_default_complete_mask(tmp_path):
    _write_csv(tmp_path / "a.csv", np.zeros((4, 3)))
    _write_csv(tmp_path / "b.csv", np.ones((4, 2)))
    (tmp_path / "manifest.json").write_text(json.dumps({
        "n_views": 2, "n_samples": 4, "views": ["a.csv", "b.csv"],
    }))
    ds = load_dataset(tmp_path)
    assert ds.mask.shape == (4, 2)
    assert (ds.mask == 1).all()
    assert ds.labels is None


def test_load_row_count_mismatch(tmp_path):
    _write_csv(tmp_path / "a.csv", np.zeros((4, 3)))
    _write_csv(tmp_path / "b.csv", np.ones((5, 2)))
    (tmp_path / "manifest.json").write_text(json.dumps({
        "n_views": 2, "n_samples": 4, "views": ["a.csv", "b.csv"],
    }))
    with pytest.raises(DataFormatError):
        load_dataset(tmp_path)


def test_load_labels_and_declared_classes(tmp_path):
    rng = np.random.default_rng(0)
    _write_csv(tmp_path / "x.csv", rng.normal(size=(9, 2)))
    labels = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2])
    _write_csv(tmp_path / "y.csv", labels[:, None])
    (tmp_path / "manifest.json").write_text(json.dumps({
        "n_views": 1, "n_samples": 9, "views": ["x.csv"],
        "labels": "y.csv", "K": 3,
    }))
    ds = load_dataset(tmp_path)
    assert ds.n_classes == 3
    counts = np.bincount(ds.labels)
    np.testing.assert_array_equal(counts, [3, 3, 3])


def test_load_missing_manifest(tmp_path):
    with pytest.raises(DataFormatError):
        load_dataset(tmp_path / "nowhere")


def test_load_non_numeric_cell(tmp_path):
    (tmp_path / "a.csv").write_text("1.0,frog\n2.0,3.0\n")
    (tmp_path / "manifest.json").write_text(json.dumps({
        "n_views": 1, "n_samples": 2, "views": ["a.csv"],
    }))
    with pytest.raises(DataFormatError):
        load_dataset(tmp_path)


def test_save_load_round_trip_bit_exact(tmp_path):
    ds = _toy_dataset(seed=3)
    ds = inject_noise(ds, 0.5, 0.4, 11)
    ds.mask = generate_missing_mask(ds.n_samples, ds.n_views, 0.5, 12)
    ds = MultiViewDataset(ds.views, ds.mask, ds.labels, ds.noise_flags,
                          ds.n_classes)
    save_dataset(ds, tmp_path / "out")
    back = load_dataset(tmp_path / "out")
    for a, b in zip(ds.views, back.views):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(ds.mask, back.mask)
    np.testing.assert_array_equal(ds.labels, back.labels)
    np.testing.assert_array_equal(ds.noise_flags, back.noise_flags)
    assert back.n_classes == ds.n_classes


def test_write_matrix_round_trips_floats(tmp_path):
    x = np.random.default_rng(5).normal(size=(3, 4))
    write_matrix(tmp_path / "m.csv", x)
    back = np.loadtxt(tmp_path / "m.csv", delimiter=",", ndmin=2)
    np.testing.assert_array_equal(x, back)


# ---------------------------------------------------------------------------
# dataset validation
# ---------------------------------------------------------------------------

def test_dataset_rejects_all_zero_mask_row():
    views = [np.zeros((3, 2)), np.zeros((3, 2))]
    mask = np.array([[1, 1], [0, 0], [1, 0]])
    with pytest.raises(DataFormatError):
        MultiViewDataset(views, mask)


def test_standardize_uses_available_rows_only():
    x = np.array([[0.0], [2.0], [100.0]])
    mask = np.array([[1, 1], [1, 1], [0, 1]])
    ds = MultiViewDataset([x, x.copy()], mask)
    out = standardize_views(ds)
    # view 0 statistics come from rows 0 and 1 alone: mean 1, std 1
    np.testing.assert_allclose(out.views[0][:2, 0], [-1.0, 1.0])
    # view 1 sees all three rows
    mu = x.mean()
    sd = x.std()
    np.testing.assert_allclose(out.views[1][:, 0], (x[:, 0] - mu) / sd)


# ---------------------------------------------------------------------------
# missing masks
# ---------------------------------------------------------------------------

def test_mask_rate_zero_all_ones():
    mask = generate_missing_mask(10, 3, 0.0, 1)
    assert (mask == 1).all()


def test_mask_rate_one_two_views_singletons():
    mask = generate_missing_mask(10, 2, 1.0, 2)
    np.testing.assert_array_equal(mask.sum(axis=1), np.ones(10))


def test_mask_exact_count_and_no_empty_rows():
    mask = generate_missing_mask(100, 3, 0.5, 3)
    incomplete = (mask == 0).any(axis=1).sum()
    assert incomplete == 50
    assert (mask.sum(axis=1) >= 1).all()
    np.testing.assert_array_equal(mask, generate_missing_mask(100, 3, 0.5, 3))


def test_mask_rejects_bad_rate():
    with pytest.raises(ConfigError):
        generate_missing_mask(10, 2, 1.5, 0)
    with pytest.raises(ConfigError):
        generate_missing_mask(10, 2, -0.1, 0)


def test_mask_count_sweep():
    for rate in (0.0, 0.1, 0.3, 0.5, 0.7, 1.0):
        for n_views in (2, 3, 4, 12):
            for seed in range(10):
                mask = generate_missing_mask(40, n_views, rate, seed)
                assert (mask == 0).any(axis=1).sum() == round(rate * 40)
                assert (mask.sum(axis=1) >= 1).all()


# ---------------------------------------------------------------------------
# noise injection
# ---------------------------------------------------------------------------

def test_noise_rate_zero_identity():
    ds = _toy_dataset()
    out = inject_noise(ds, 0.0, 0.4, 5)
    for a, b in zip(ds.views, out.views):
        np.testing.assert_array_equal(a, b)
    assert not out.noise_flags.any()


def test_noise_rate_one_every_row_mixed():
    ds = _toy_dataset(n=20, v=3)
    out = inject_noise(ds, 1.0, 0.4, 6)
    flags = out.noise_flags
    assert (flags.sum(axis=1) >= 1).all()
    assert (flags.sum(axis=1) <= ds.n_views - 1).all()
    np.testing.assert_array_equal(out.mask, ds.mask)


def test_noise_untouched_entries_bit_identical():
    ds = _toy_dataset(n=30, v=2, seed=9)
    out = inject_noise(ds, 0.5, 0.4, 7)
    for v in range(2):
        clean = ~out.noise_flags[:, v]
        np.testing.assert_array_equal(ds.views[v][clean], out.views[v][clean])
        noisy = out.noise_flags[:, v]
        assert (ds.views[v][noisy] != out.views[v][noisy]).all()


def test_noise_monte_carlo_moments():
    # enough slots for a 1e5-scale draw of the injected perturbation
    n, d = 2000, 50
    ds = MultiViewDataset([np.zeros((n, d)), np.zeros((n, d))],
                          np.ones((n, 2), dtype=np.uint8))
    out = inject_noise(ds, 1.0, 0.4, 8)
    eps = np.concatenate([out.views[v][out.noise_flags[:, v]].ravel()
                          for v in range(2)])
    assert eps.size >= 10 ** 5
    assert -0.01 <= eps.mean() <= 0.01
    assert 0.39 <= eps.std() <= 0.41


def test_noise_requires_positive_std():
    with pytest.raises(ConfigError):
        inject_noise(_toy_dataset(), 0.5, 0.0, 0)


# ---------------------------------------------------------------------------
# combined protocol
# ---------------------------------------------------------------------------

def test_combined_rate_zero_identity():
    ds = _toy_dataset()
    out = apply_combined(ds, 0.0, 0.4, 10)
    for a, b in zip(ds.views, out.views):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(out.mask, ds.mask)


def test_combined_counts_and_independence():
    ds = _toy_dataset(n=100, v=2, seed=2)
    out = apply_combined(ds, 0.3, 0.4, 11)
    assert (out.mask == 0).any(axis=1).sum() == round(0.3 * 100)
    assert out.noise_flags.any(axis=1).sum() == round(0.3 * 100)
    # the two hit patterns come from independent streams
    assert not np.array_equal((out.mask == 0), out.noise_flags)


def test_combined_matches_noise_only_values():
    ds = _toy_dataset(n=50, v=2, seed=4)
    combined = apply_combined(ds, 0.3, 0.4, 13)
    noise_ss, _ = np.random.SeedSequence(13).spawn(2)
    noisy = inject_noise(ds, 0.3, 0.4, noise_ss)
    for a, b in zip(combined.views, noisy.views):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(combined.noise_flags, noisy.noise_flags)


def test_corruption_purity():
    ds = _toy_dataset(n=40, v=3, seed=6)
    for seed in range(20):
        a = apply_combined(ds, 0.5, 0.4, seed)
        b = apply_combined(ds, 0.5, 0.4, seed)
        for x, y in zip(a.views, b.views):
            np.testing.assert_array_equal(x, y)
        np.testing.assert_array_equal(a.mask, b.mask)
        np.testing.assert_array_equal(a.noise_flags, b.noise_flags)


def test_protocols_leave_their_input_unchanged():
    # derived datasets share the arrays they do not write with their input,
    # so a protocol writing one in place would show here
    ds = inject_noise(_toy_dataset(n=40, v=3, seed=7), 0.5, 0.4, 3)
    ds = replace(ds, mask=generate_missing_mask(40, 3, 0.2, 4))

    def arrays(d):
        return [a.tobytes() for a in (*d.views, d.mask, d.labels,
                                      d.noise_flags)]

    before = arrays(ds)
    derived = {"standardize": standardize_views(ds),
               "noise": inject_noise(ds, 0.5, 0.4, 5),
               "combined": apply_combined(ds, 0.5, 0.4, 6)}
    derived.update({f"cli {setting}": corrupt_dataset(ds, setting, 0.5, 0.4, 8)
                    for setting in SETTINGS})
    assert arrays(ds) == before
    for name, out in derived.items():
        assert np.shares_memory(out.labels, ds.labels), name
        assert (arrays(out) == before) == (name == "cli clean"), name


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

def test_batch_covers_everything_when_large():
    ds = _toy_dataset(n=5)
    batch = sample_batch(ds, 10, np.random.default_rng(0))
    np.testing.assert_array_equal(np.sort(batch.indices), np.arange(5))


def test_batch_respects_mask():
    views = [np.arange(6.0).reshape(3, 2), np.arange(6.0).reshape(3, 2) + 10]
    mask = np.array([[1, 0], [1, 1], [1, 1]])
    ds = MultiViewDataset(views, mask)
    batch = sample_batch(ds, 3, np.random.default_rng(1))
    pos0 = batch.indices[batch.view_positions[0]]
    pos1 = batch.indices[batch.view_positions[1]]
    assert 0 in pos0 and 0 not in pos1
    row = np.flatnonzero(batch.indices == 1)[0]
    assert row in batch.view_positions[1]


def test_epoch_batch_sizes_and_coverage():
    ds = _toy_dataset(n=10)
    batches = list(iter_epoch(ds, 4, np.random.default_rng(2)))
    assert [b.size for b in batches] == [4, 4, 2]
    seen = np.concatenate([b.indices for b in batches])
    np.testing.assert_array_equal(np.sort(seen), np.arange(10))


def test_epoch_restriction_lossless():
    ds = _toy_dataset(n=12, v=2, seed=8)
    ds.mask = generate_missing_mask(12, 2, 0.5, 3)
    ds = MultiViewDataset(ds.views, ds.mask, ds.labels)
    for v in range(2):
        rows = []
        for batch in iter_epoch(ds, 5, np.random.default_rng(4)):
            rows.append(batch.view_data[v])
        got = np.concatenate(rows)
        want = ds.views[v][ds.mask[:, v] == 1]
        np.testing.assert_array_equal(
            got[np.lexsort(got.T)], want[np.lexsort(want.T)])


def test_co_available_rows_align():
    views = [np.arange(8.0).reshape(4, 2), np.arange(8.0).reshape(4, 2) + 1]
    mask = np.array([[1, 1], [1, 0], [0, 1], [1, 1]])
    ds = MultiViewDataset(views, mask)
    batch = sample_batch(ds, 4, np.random.default_rng(5))
    rows_u, rows_v = batch.co_available(0, 1)
    idx_u = batch.indices[batch.view_positions[0][rows_u]]
    idx_v = batch.indices[batch.view_positions[1][rows_v]]
    np.testing.assert_array_equal(idx_u, idx_v)
    np.testing.assert_array_equal(np.sort(idx_u), [0, 3])


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------

def test_synthetic_deterministic():
    a = make_synthetic(30, 2, 3, dims=4, seed=9)
    b = make_synthetic(30, 2, 3, dims=4, seed=9)
    for x, y in zip(a.views, b.views):
        np.testing.assert_array_equal(x, y)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_synthetic_zero_separation_no_signal():
    ds = make_synthetic(90, 1, 3, dims=6, separation=0.0, seed=10)
    pred = kmeans(ds.views[0], 3, runs=5, seed=0)
    acc = accuracy(pred, ds.labels)
    assert abs(acc - 1.0 / 3.0) <= 0.15


def test_synthetic_large_separation_single_view():
    ds = make_synthetic(90, 2, 3, dims=6, separation=10.0, seed=11)
    for v in range(2):
        pred = kmeans(ds.views[v], 3, runs=5, seed=1)
        assert accuracy(pred, ds.labels) >= 0.95


def test_synthetic_balanced_labels():
    ds = make_synthetic(30, 2, 3, dims=4, seed=12)
    np.testing.assert_array_equal(np.bincount(ds.labels), [10, 10, 10])
    assert ds.n_classes == 3


def test_synthetic_per_view_dims():
    ds = make_synthetic(12, 3, 2, dims=[5, 7, 4], seed=13)
    assert [v.shape[1] for v in ds.views] == [5, 7, 4]
    with pytest.raises(ConfigError):
        make_synthetic(12, 2, 2, dims=[5], seed=0)
    with pytest.raises(ConfigError):
        make_synthetic(13, 2, 3, seed=0)
