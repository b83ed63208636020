"""Graph-guided contrastive clustering for incomplete, noisy multi-view data.

The package trains one autoencoder per view, ties the views together with
two contrastive objectives (pairs picked from a global affinity graph over
all view features, and an unweighted cross-view InfoNCE term over each view
pair's co-available samples), mean-fuses the learned features over each
sample's available views and clusters them with k-means.
"""

from .config import Config
from .data import (MultiViewDataset, apply_combined, derive_seed,
                   generate_missing_mask, inject_noise, iter_epoch,
                   load_dataset, make_synthetic, sample_batch, save_dataset,
                   standardize_views)
from .errors import (ConfigError, DataFormatError, GlcError, NumericError,
                     ShapeError, TrainingAborted)
from .graphs import (build_global_graph, ggc_loss, high_order_diag,
                     high_order_graph, local_affinity, lwc_loss, lwc_total,
                     median_sigma, pairwise_contrastive_loss, select_pairs)
from .metrics import accuracy, ari, nmi
from .model import (forward_views, init_model, load_checkpoint,
                    model_parameters, reconstruction_loss, save_checkpoint)
from .nn import (AdamState, Mlp, Tape, Tensor, adam_step, backward,
                 grad_check, mlp_forward)
from .pipeline import (ClusterReport, TrainHistory, build_model,
                       evaluate, fuse_features, infer_features, kmeans,
                       pretrain, total_loss, train)

__version__ = "0.1.0"

__all__ = [
    "MultiViewDataset", "apply_combined", "derive_seed",
    "generate_missing_mask", "inject_noise", "iter_epoch", "load_dataset",
    "make_synthetic", "sample_batch", "save_dataset", "standardize_views",
    "ConfigError", "DataFormatError", "GlcError", "NumericError",
    "ShapeError", "TrainingAborted",
    "build_global_graph", "ggc_loss", "high_order_diag", "high_order_graph",
    "local_affinity", "lwc_loss", "lwc_total", "median_sigma",
    "pairwise_contrastive_loss", "select_pairs",
    "accuracy", "ari", "nmi",
    "forward_views", "init_model", "load_checkpoint", "model_parameters",
    "reconstruction_loss", "save_checkpoint",
    "AdamState", "Mlp", "Tape", "Tensor", "adam_step", "backward",
    "grad_check", "mlp_forward",
    "ClusterReport", "Config", "TrainHistory", "build_model", "evaluate",
    "fuse_features", "infer_features", "kmeans", "pretrain", "total_loss",
    "train",
]
