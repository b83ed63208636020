"""View autoencoders: init, masked forward, reconstruction loss, checkpoints."""

import json
import re

import numpy as np
import pytest

from glc.data import MultiViewDataset, sample_batch
from glc.errors import DataFormatError, ShapeError
from glc.model import (ViewAutoencoder, forward_views, init_model,
                       load_checkpoint, model_parameters, reconstruction_loss,
                       save_checkpoint)
from glc.nn import Layer, Mlp, Tensor


def _full_batch(views, mask=None):
    n = views[0].shape[0]
    mask = np.ones((n, len(views)), dtype=np.uint8) if mask is None else mask
    ds = MultiViewDataset(views, mask)
    return sample_batch(ds, n, np.random.default_rng(0))


def _identity_autoencoder(d):
    def identity_net(width):
        return Mlp([Layer(Tensor(np.eye(width)), Tensor(np.zeros(width)))])

    return ViewAutoencoder(identity_net(d), identity_net(d), identity_net(d))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_init_model_default_widths():
    model = init_model([10])
    enc = model[0].encoder
    widths = [l.weight.data.shape for l in enc.layers]
    assert widths == [(500, 10), (500, 500), (2000, 500), (512, 2000)]
    dec = model[0].decoder
    assert [l.weight.data.shape for l in dec.layers] == [
        (2000, 512), (500, 2000), (500, 500), (10, 500)]
    head = model[0].head
    assert [l.weight.data.shape for l in head.layers] == [(512, 512), (128, 512)]


def test_init_model_tiny_override():
    model = init_model([6, 9], latent_dim=4, head_dim=2, hidden=(8, 8), seed=1)
    assert len(model) == 2
    assert model[0].input_dim == 6 and model[1].input_dim == 9
    assert model[0].latent_dim == 4 and model[0].head_dim == 2


def test_init_model_seed_determinism():
    a = init_model([5, 7], latent_dim=3, head_dim=2, hidden=(4,), seed=42)
    b = init_model([5, 7], latent_dim=3, head_dim=2, hidden=(4,), seed=42)
    for pa, pb in zip(model_parameters(a), model_parameters(b)):
        np.testing.assert_array_equal(pa.data, pb.data)


def test_init_model_prefix_stable_when_views_added():
    two = init_model([5, 7], latent_dim=3, head_dim=2, hidden=(4,), seed=42)
    three = init_model([5, 7, 6], latent_dim=3, head_dim=2, hidden=(4,), seed=42)
    for pa, pb in zip(model_parameters(two[:2]), model_parameters(three[:2])):
        np.testing.assert_array_equal(pa.data, pb.data)


def test_autoencoder_shape_validation():
    enc = Mlp([Layer(Tensor(np.zeros((4, 6))), Tensor(np.zeros(4)))])
    dec_bad = Mlp([Layer(Tensor(np.zeros((6, 3))), Tensor(np.zeros(6)))])
    head = Mlp([Layer(Tensor(np.zeros((2, 4))), Tensor(np.zeros(2)))])
    with pytest.raises(ShapeError):
        ViewAutoencoder(enc, dec_bad, head)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def test_forward_identity_model_reconstructs():
    model = [_identity_autoencoder(3)]
    x = np.random.default_rng(1).normal(size=(4, 3))
    batch = _full_batch([x])
    feats = forward_views(model, batch)
    np.testing.assert_array_equal(feats[0].latent.data, batch.view_data[0])
    np.testing.assert_array_equal(feats[0].recon.data, batch.view_data[0])
    np.testing.assert_array_equal(feats[0].contrast.data, batch.view_data[0])


def test_forward_respects_mask_row_counts():
    rng = np.random.default_rng(2)
    views = [rng.normal(size=(5, 3)), rng.normal(size=(5, 2))]
    mask = np.array([[1, 1], [1, 0], [0, 1], [1, 1], [1, 0]])
    model = init_model([3, 2], latent_dim=3, head_dim=2, hidden=(4,), seed=3)
    batch = _full_batch(views, mask)
    feats = forward_views(model, batch)
    assert feats[0].latent.data.shape[0] == 4
    assert feats[1].latent.data.shape[0] == 3
    assert feats[0].recon.data.shape == (4, 3)
    assert feats[1].contrast.data.shape == (3, 2)


def test_forward_empty_view_is_vacuous():
    rng = np.random.default_rng(3)
    views = [rng.normal(size=(3, 2)), rng.normal(size=(3, 2))]
    mask = np.array([[1, 0], [1, 0], [1, 0]])
    model = init_model([2, 2], latent_dim=3, head_dim=2, hidden=(4,), seed=4)
    feats = forward_views(model, _full_batch(views, mask))
    assert feats[1].latent.data.shape[0] == 0
    assert feats[1].recon.data.shape[0] == 0


def test_forward_view_count_mismatch():
    model = init_model([2], latent_dim=3, head_dim=2, hidden=(4,), seed=5)
    views = [np.zeros((3, 2)), np.zeros((3, 2))]
    with pytest.raises(ShapeError):
        forward_views(model, _full_batch(views))


# ---------------------------------------------------------------------------
# reconstruction loss
# ---------------------------------------------------------------------------

def test_reconstruction_perfect_is_zero():
    model = [_identity_autoencoder(2)]
    batch = _full_batch([np.random.default_rng(4).normal(size=(3, 2))])
    feats = forward_views(model, batch)
    assert reconstruction_loss(feats, batch).data == 0.0


def test_reconstruction_single_entry():
    model = [_identity_autoencoder(2)]
    batch = _full_batch([np.array([[1.0, 0.0]])])
    feats = forward_views(model, batch)
    feats[0].recon.data[:] = 0.0
    assert float(reconstruction_loss(feats, batch).data) == 1.0


def test_reconstruction_matches_loop_oracle():
    rng = np.random.default_rng(6)
    views = [rng.normal(size=(4, 3)), rng.normal(size=(4, 2))]
    mask = np.array([[1, 1], [1, 0], [0, 1], [1, 1]])
    model = init_model([3, 2], latent_dim=3, head_dim=2, hidden=(5,), seed=7)
    batch = _full_batch(views, mask)
    feats = forward_views(model, batch)
    want = 0.0
    for feat, x in zip(feats, batch.view_data):
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                want += (feat.recon.data[i, j] - x[i, j]) ** 2
    got = float(reconstruction_loss(feats, batch).data)
    np.testing.assert_allclose(got, want, rtol=1e-12)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_bit_exact(tmp_path):
    model = init_model([4, 6], latent_dim=3, head_dim=2, hidden=(5, 5), seed=8)
    path = tmp_path / "model.npz"
    save_checkpoint(model, path)
    back = load_checkpoint(path)
    assert len(back) == 2
    for pa, pb in zip(model_parameters(model), model_parameters(back)):
        np.testing.assert_array_equal(pa.data, pb.data)


def _drop_array(arrays, meta):
    del arrays["view1_head_w0"]


def _tanh_activation(arrays, meta):
    meta["views"][0]["encoder"]["activations"][0] = "tanh"


def _no_views(arrays, meta):
    del meta["views"]


_GARBAGE = {"no_meta": None, "missing_array": _drop_array,
            "unknown_activation": _tanh_activation, "no_views": _no_views,
            "text_file": None}


@pytest.mark.parametrize("case", list(_GARBAGE))
def test_checkpoint_rejects_garbage(tmp_path, case):
    path = tmp_path / "bad.npz"
    if case == "no_meta":
        np.savez(path, stuff=np.zeros(3))
    elif case == "text_file":
        path.write_text("not a checkpoint\n")
    else:
        model = init_model([4, 6], latent_dim=3, head_dim=2, hidden=(5,),
                           seed=8)
        save_checkpoint(model, path)
        with np.load(path) as blob:
            arrays = dict(blob)
        meta = json.loads(str(arrays["meta"]))
        _GARBAGE[case](arrays, meta)
        arrays["meta"] = np.array(json.dumps(meta))
        np.savez(path, **arrays)
    with pytest.raises(DataFormatError, match=re.escape(str(path))):
        load_checkpoint(path)
