"""Per-view autoencoders with projection heads.

Each view owns an encoder (input -> hidden widths -> latent), a mirrored
decoder, and a two-layer projection head (latent -> latent -> contrast
width) whose outputs feed the contrastive objectives.  Hidden layers use
ReLU, every final layer is linear.  The default widths follow the paper
profile (hidden 500/500/2000, latent 512, contrast 128); tests and quick
runs use the smaller desk profile, defined next to it in
``glc.config.PROFILES``.  The reconstruction term,
:func:`reconstruction_loss`, is one :func:`glc.nn.sq_error` node over all
views.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, ShapeError
from .nn import Layer, Mlp, Tensor, mlp_forward, record_segments, sq_error

CHECKPOINT_VERSION = 1


@dataclass
class ViewAutoencoder:
    encoder: Mlp
    decoder: Mlp
    head: Mlp

    def __post_init__(self):
        if self.decoder.in_dim != self.encoder.out_dim:
            raise ShapeError("decoder input must match the latent width")
        if self.decoder.out_dim != self.encoder.in_dim:
            raise ShapeError("decoder output must match the view width")
        if self.head.in_dim != self.encoder.out_dim:
            raise ShapeError("head input must match the latent width")

    @property
    def input_dim(self):
        return self.encoder.in_dim

    @property
    def latent_dim(self):
        return self.encoder.out_dim

    @property
    def head_dim(self):
        return self.head.out_dim

    def parameters(self):
        return (self.encoder.parameters() + self.decoder.parameters()
                + self.head.parameters())


@dataclass
class ViewFeatures:
    """Forward results for one view's available batch rows; ``contrast``
    is None when the pass skipped the projection head."""

    latent: Tensor      # (rows, latent_dim)
    contrast: Tensor    # (rows, head_dim), or None
    recon: Tensor       # (rows, input_dim)


def init_model(dims, latent_dim=512, head_dim=128, hidden=(500, 500, 2000),
               seed=0):
    """Create one autoencoder per view with fan-in-scaled uniform init.

    The decoder mirrors the encoder's hidden widths in reverse.  Seeding:
    view v spawns child streams (encoder, decoder, head) from child v of
    the master seed, so adding views never reshuffles earlier ones.
    """
    dims = [int(d) for d in dims]
    if not dims:
        raise ShapeError("need at least one view dimension")
    hidden = tuple(int(h) for h in hidden)
    children = np.random.SeedSequence(int(seed)).spawn(len(dims))
    model = []
    for d, child in zip(dims, children):
        enc_ss, dec_ss, head_ss = child.spawn(3)
        encoder = Mlp.create([d, *hidden, latent_dim],
                             np.random.default_rng(enc_ss))
        decoder = Mlp.create([latent_dim, *reversed(hidden), d],
                             np.random.default_rng(dec_ss))
        head = Mlp.create([latent_dim, latent_dim, head_dim],
                          np.random.default_rng(head_ss))
        model.append(ViewAutoencoder(encoder, decoder, head))
    return model


def model_parameters(model):
    params = []
    for view in model:
        params.extend(view.parameters())
    return params


def forward_views(model, batch, tape=None, contrast=True):
    """Encode, project and reconstruct each view's available rows.

    Each view records on a tape segment of its own, so on a tape with a
    pool the views run at once.  Views with no available samples yield
    empty (0-row) feature blocks and contribute nothing downstream.  With
    ``contrast`` false the projection heads do not run: no head node is
    recorded and no head parameter is watched, so a step whose objective
    reads no contrastive feature hands the heads nothing to update.
    """
    if len(model) != len(batch.view_data):
        raise ShapeError("model and batch disagree on the number of views")
    return record_segments(tape, _forward_view,
                           [(view, x, contrast)
                            for view, x in zip(model, batch.view_data)])


def _forward_view(view, x, contrast, tape):
    z = mlp_forward(view.encoder, x, tape)
    h = mlp_forward(view.head, z, tape) if contrast else None
    x_hat = mlp_forward(view.decoder, z, tape)
    return ViewFeatures(latent=z, contrast=h, recon=x_hat)


def reconstruction_loss(features, batch):
    """Sum of squared reconstruction errors over all available entries: one
    :func:`glc.nn.sq_error` node over every view, on the calling thread (a
    view's arrays, about 224 x 240 at the ``paper`` profile, gain nothing on
    its worker)."""
    return sq_error([f.recon for f in features], batch.view_data)


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

def save_checkpoint(model, path):
    """Write all weights to an ``.npz`` container (float64, bit-exact)."""
    arrays = {}
    meta = {"version": CHECKPOINT_VERSION, "views": []}
    for vi, view in enumerate(model):
        nets = {"encoder": view.encoder, "decoder": view.decoder,
                "head": view.head}
        view_meta = {}
        for name, net in nets.items():
            view_meta[name] = {
                "sizes": [net.in_dim] + [l.weight.data.shape[0] for l in net.layers],
                "activations": [l.activation for l in net.layers],
            }
            for li, layer in enumerate(net.layers):
                arrays[f"view{vi}_{name}_w{li}"] = layer.weight.data
                arrays[f"view{vi}_{name}_b{li}"] = layer.bias.data
        meta["views"].append(view_meta)
    arrays["meta"] = np.array(json.dumps(meta, sort_keys=True))
    np.savez(path, **arrays)


def load_checkpoint(path):
    """Rebuild the model saved by :func:`save_checkpoint`; any other file
    raises ``DataFormatError`` naming ``path``."""
    try:
        with np.load(path, allow_pickle=False) as blob:
            meta = json.loads(str(blob["meta"]))
            if meta.get("version") != CHECKPOINT_VERSION:
                raise ValueError(f"version {meta.get('version')} is not "
                                 f"{CHECKPOINT_VERSION}")
            model = []
            for vi, view_meta in enumerate(meta["views"]):
                nets = {}
                for name in ("encoder", "decoder", "head"):
                    layers = []
                    for li, act in enumerate(view_meta[name]["activations"]):
                        weight = Tensor(blob[f"view{vi}_{name}_w{li}"].copy())
                        bias = Tensor(blob[f"view{vi}_{name}_b{li}"].copy())
                        layers.append(Layer(weight, bias, act))
                    nets[name] = Mlp(layers)
                model.append(ViewAutoencoder(nets["encoder"], nets["decoder"],
                                             nets["head"]))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: not a model checkpoint: {exc}") from exc
    return model
