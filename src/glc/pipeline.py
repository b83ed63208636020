"""Training, fusion, clustering and evaluation.

Training follows a two-phase schedule: a reconstruction-only warm-up, then
joint optimization of reconstruction plus the two contrastive terms,

    total = rec + alpha * global_graph_term + beta * cross_view_term,

one :func:`glc.nn.sum_terms` node on the tape, rebuilding the global graph
from the current features on every mini-batch (a batch whose stacked rows
leave no negative under :func:`glc.graphs.pair_counts` skips the global
term with a warning); the cross-view term is plain InfoNCE over each view
pair's co-available samples, read off the same graph (the paper's local
pair weights are not part of it).
Evaluation mean-fuses the contrastive features of each sample's available
views and clusters them with k-means; reported numbers are the mean and
population std over several k-means seeds on the frozen features (a full
retrain per seed sits behind ``eval_protocol="retrain"`` at the CLI level).
:func:`evaluate` is the one place that fuses, clusters and scores: the
final report, each retrain and each mid-training metric checkpoint call it.

Seeding is derived, never shared: with master seed s, model init uses
derive_seed(s, "init"), the warm-up batch order derive_seed(s, "pretrain"),
the joint-phase batch order derive_seed(s, "train"), mid-training metric
checkpoints derive_seed(s, "curve", epoch) and evaluation seeds
derive_seed(s, "eval", i).  Two runs with equal configs are bit-identical.

``pretrain`` and ``train`` run one phase driver, tagged with the phase's
name.  Each step is one function call, so its tape, features, graph and
gradients are freed before the next batch's forward pass.  Each phase
opens one :func:`glc.nn.segment_pool` of one worker per view: when a
parameter has more than 65,536 elements (most ``paper``-profile weights)
each view's forward pass and reverse sweep run on its worker, calling
``glc.nn`` only, while losses and graph stay on the calling thread;
otherwise the same calls run in a loop, bit-identically (:mod:`glc.nn`
has the note on threads and BLAS).  Each view has an Adam state that owns
its parameters, and the sweep hands it each parameter as soon as that
parameter's gradient is final (:func:`glc.nn.backward`), so a view holds
about one layer's weight gradient at a time.  A bad gradient shape raises
there, after the parameters handed off before it were updated; the run
then stops.
"""

import logging
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .data import derive_seed, iter_epoch
from .errors import ConfigError, ShapeError, TrainingAborted
from .graphs import (build_global_graph, ggc_loss, lwc_total, pair_counts,
                     select_pairs)
from .metrics import accuracy, ari, nmi
from .model import (forward_views, init_model, model_parameters,
                    reconstruction_loss)
# adam_step is imported for perfbench/tracing.py, which wraps this name
from .nn import (AdamState, Tape, adam_step, backward, mlp_forward,
                 segment_pool, sum_terms)

logger = logging.getLogger(__name__)


@dataclass
class EpochRecord:
    epoch: int
    phase: str                  # "pretrain" | "train"
    rec: float
    ggc: float
    lwc: float
    total: float
    acc: float = None
    nmi: float = None
    ari: float = None
    seconds: float = 0.0        # wall time of the epoch, evaluation included
    eval_seconds: float = 0.0   # the checkpoint's fuse, k-means and scoring


@dataclass
class TrainHistory:
    records: list = field(default_factory=list)

    CSV_HEADER = "epoch,L_rec,L_ggc,L_lwc,L_total,acc,nmi,ari"

    def train_records(self):
        return [r for r in self.records if r.phase == "train"]

    def next_epoch(self):
        return len(self.records) + 1

    def write_csv(self, path):
        def cell(x):
            return "" if x is None else repr(float(x))

        lines = [self.CSV_HEADER]
        for r in self.records:
            lines.append(",".join([str(r.epoch), cell(r.rec), cell(r.ggc),
                                   cell(r.lwc), cell(r.total), cell(r.acc),
                                   cell(r.nmi), cell(r.ari)]))
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")


def total_loss(rec, ggc, lwc, alpha, beta):
    """The objective ``rec + alpha * ggc + beta * lwc`` as one
    :func:`glc.nn.sum_terms` node; a term of weight 0 is left out."""
    return sum_terms([rec, ggc, lwc], [1.0, alpha, beta])


def build_model(dataset, config):
    """Model init for a resolved config; seeded from the run's master seed."""
    cfg = config.resolved()
    dims = [v.shape[1] for v in dataset.views]
    return init_model(dims, latent_dim=cfg.latent_dim, head_dim=cfg.head_dim,
                      hidden=cfg.hidden, seed=derive_seed(cfg.seed, "init"))


def _abort_diagnostics(feats, batch, rec, ggc, lwc):
    """Identify the first offending component/view of a non-finite loss."""
    for v, (feat, x) in enumerate(zip(feats, batch.view_data)):
        err = feat.recon.data - x
        if not np.isfinite(err).all() or not np.isfinite((err * err).sum()):
            return "rec", v
    for name, val in (("ggc", ggc), ("lwc", lwc)):
        if val is not None and not np.isfinite(val.data):
            return name, None
    if not np.isfinite(rec.data):
        return "rec", None
    return "total", None


def _step(model, batch, config, pool, states, epoch, bi):
    """One update on ``batch``; returns its loss components as floats.

    ``states`` are the views' Adam states, whose one-parameter updates
    ``backward`` calls during its sweep.  ``config`` alone sets the
    objective: the warm-up is the step at ``alpha`` = ``beta`` = 0.

    The step's tape, features and gradients are locals, so they are freed
    when it returns, before the next batch's forward pass.  The projection
    heads run only when the objective has a contrastive term.
    Also returns whether some view pair had 2+ common samples.
    """
    tape = Tape(pool)
    contrast = config.alpha > 0 or config.beta > 0
    feats = forward_views(model, batch, tape, contrast)
    rec = reconstruction_loss(feats, batch)
    ggc = lwc = None
    paired = False
    if contrast:
        hs = [f.contrast for f in feats]
        graph = build_global_graph(hs, positions=batch.view_positions)
        if config.alpha > 0:
            if pair_counts(graph.size, config.pos, config.neg)[1] >= 1:
                pairs = select_pairs(graph, config.pos, config.neg)
                ggc = ggc_loss(graph, pairs, config.tau,
                               config.include_positive_in_denominator)
                del pairs
            else:
                logger.warning("epoch %d batch %d: %d stacked features leave "
                               "no negative, global term skipped", epoch, bi,
                               graph.size)
        if config.beta > 0:
            co = {(u, v): batch.co_available(u, v)
                  for u in range(len(hs)) for v in range(u + 1, len(hs))}
            paired = any(len(rows_u) >= 2 for rows_u, _ in co.values())
            lwc = lwc_total(hs, co, config.tau, graph)
        # the nodes keep the unit rows, not the N x N similarities both
        # terms read: dropping the graph frees them before backward
        del graph
    loss = total_loss(rec, ggc if ggc is not None else 0.0,
                      lwc if lwc is not None else 0.0,
                      config.alpha, config.beta)
    value = float(loss.data)
    if not math.isfinite(value):
        comp, view = _abort_diagnostics(feats, batch, rec, ggc, lwc)
        raise TrainingAborted(
            f"non-finite {comp} loss at epoch {epoch}, batch {bi}"
            + (f", view {view}" if view is not None else ""),
            epoch=epoch, batch=bi, view=view)
    for state in states:
        state.start()
    backward(tape, loss, [state.update for state in states])
    return {"rec": float(rec.data),
            "ggc": float(ggc.data) if ggc is not None else 0.0,
            "lwc": float(lwc.data) if lwc is not None else 0.0,
            "total": value}, paired


def _run_phase(model, dataset, config, history, phase):
    """Run the epochs of one phase, ``"pretrain"`` or ``"train"``.

    ``phase`` is both the batch-order rng's tag and the records' phase;
    the warm-up steps at ``alpha`` = ``beta`` = 0, and only ``"train"``
    runs metric checkpoints.  One :func:`glc.nn.segment_pool` spans the
    phase, so its threads are shut down before this returns or raises.
    """
    cfg = config.resolved()
    joint = phase == "train"
    if not joint:
        cfg = replace(cfg, alpha=0.0, beta=0.0)
    states = [AdamState(view.parameters(), cfg.lr) for view in model]
    rng = np.random.default_rng(derive_seed(cfg.seed, phase))
    with segment_pool(model_parameters(model), len(model)) as pool:
        for e in range(1, (cfg.epochs if joint else cfg.pretrain_epochs) + 1):
            start = time.perf_counter()
            epoch = history.next_epoch() if history is not None else 0
            sums = dict.fromkeys(("rec", "ggc", "lwc", "total"), 0.0)
            paired = False
            for bi, batch in enumerate(iter_epoch(dataset, cfg.batch, rng)):
                losses, batch_paired = _step(model, batch, cfg, pool, states,
                                             e, bi)
                for key, value in losses.items():
                    sums[key] += value
                paired = paired or batch_paired
            if cfg.beta > 0 and not paired:
                logger.warning("epoch %d: no view pair had 2+ common samples; "
                               "the cross-view term was inert", e)
            record = EpochRecord(epoch=epoch, phase=phase, **sums)
            checkpoint = joint and cfg.eval_every > 0 and (
                e == 1 or e == cfg.epochs or e % cfg.eval_every == 0)
            if checkpoint and dataset.labels is not None:
                eval_start = time.perf_counter()
                report = evaluate(model, dataset, cfg,
                                  seeds=[derive_seed(cfg.seed, "curve", e)])
                record.acc, record.nmi, record.ari = (
                    report.accs[0], report.nmis[0], report.aris[0])
                record.eval_seconds = time.perf_counter() - eval_start
            record.seconds = time.perf_counter() - start
            if history is not None:
                history.records.append(record)


def pretrain(model, dataset, config, history=None):
    """Reconstruction-only warm-up; appends per-epoch records to history."""
    _run_phase(model, dataset, config, history, "pretrain")
    return model


def train(model, dataset, config, history=None):
    """Joint optimization of the full objective.

    Returns ``(model, history)``.  When ``eval_every`` is set (and the
    dataset is labeled), :func:`evaluate` scores the model with one
    k-means seed at the first, every k-th, and the final joint epoch.
    """
    history = history if history is not None else TrainHistory()
    _run_phase(model, dataset, config, history, "train")
    return model, history


# ---------------------------------------------------------------------------
# inference and fusion
# ---------------------------------------------------------------------------

def infer_features(model, dataset, space="contrast", chunk=2048):
    """Per-view features of every available row, without gradient tracking."""
    if space not in ("contrast", "latent"):
        raise ConfigError("space must be 'contrast' or 'latent'")
    out = []
    for v, view in enumerate(model):
        rows = np.flatnonzero(dataset.mask[:, v] == 1)
        blocks = []
        for start in range(0, rows.size, chunk):
            x = dataset.views[v][rows[start:start + chunk]]
            z = mlp_forward(view.encoder, x)
            if space == "contrast":
                z = mlp_forward(view.head, z)
            blocks.append(z.data)
        width = view.head_dim if space == "contrast" else view.latent_dim
        out.append(np.concatenate(blocks, axis=0) if blocks
                   else np.zeros((0, width)))
    return out


def fuse_mean(view_features, mask):
    """Average each sample's features over its available views."""
    mask = np.asarray(mask)
    n, n_views = mask.shape
    if len(view_features) != n_views:
        raise ShapeError("feature list does not match the mask's view count")
    width = view_features[0].shape[1]
    acc = np.zeros((n, width))
    count = np.zeros(n)
    for v in range(n_views):
        rows = np.flatnonzero(mask[:, v] == 1)
        feats = np.asarray(view_features[v])
        if feats.shape[0] != rows.size:
            raise ShapeError(f"view {v}: {feats.shape[0]} feature rows for "
                             f"{rows.size} available samples")
        acc[rows] += feats
        count[rows] += 1
    if (count == 0).any():
        raise ShapeError("a sample has no available view")
    return acc / count[:, None]


def fuse_features(model, dataset, space="contrast"):
    return fuse_mean(infer_features(model, dataset, space=space), dataset.mask)


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------

def _plusplus_init(x, k, rng):
    """Standard distance-squared seeding."""
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0.0:
            centers[j] = x[rng.choice(n, p=d2 / total)]
        else:
            centers[j] = x[rng.integers(n)]
        d2 = np.minimum(d2, ((x - centers[j]) ** 2).sum(axis=1))
    return centers


def _center_distances(x, centers):
    d2 = ((x * x).sum(axis=1)[:, None] + (centers * centers).sum(axis=1)[None, :]
          - 2.0 * (x @ centers.T))
    return np.maximum(d2, 0.0)


def _lloyd(x, k, rng, max_iter):
    centers = _plusplus_init(x, k, rng)
    labels = None
    for _ in range(max_iter):
        d2 = _center_distances(x, centers)
        new_labels = d2.argmin(axis=1)
        assigned = d2[np.arange(x.shape[0]), new_labels]
        for empty in np.flatnonzero(np.bincount(new_labels, minlength=k) == 0):
            # documented rule: an empty cluster restarts at the point
            # farthest from its current centroid
            far = int(assigned.argmax())
            centers[empty] = x[far]
            new_labels[far] = empty
            assigned[far] = 0.0
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            members = x[labels == j]
            if members.shape[0]:
                centers[j] = members.mean(axis=0)
    d2 = _center_distances(x, centers)
    labels = d2.argmin(axis=1)
    inertia = float(d2[np.arange(x.shape[0]), labels].sum())
    return labels, inertia


def kmeans(features, n_clusters, runs=10, seed=0, max_iter=300):
    """Lloyd's algorithm with ++ seeding; best inertia over ``runs`` restarts.

    Deterministic for a given seed: restart r draws from child stream r of
    the seed, and ties in inertia keep the earlier restart.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError("features must be a matrix")
    n = x.shape[0]
    if not (2 <= n_clusters <= n):
        raise ConfigError(f"need 2 <= k <= n, got k={n_clusters}, n={n}")
    if runs < 1:
        raise ConfigError("runs must be positive")
    best_labels, best_inertia = None, np.inf
    for child in np.random.SeedSequence(int(seed)).spawn(runs):
        labels, inertia = _lloyd(x, n_clusters, np.random.default_rng(child),
                                 max_iter)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return best_labels


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@dataclass
class ClusterReport:
    """Clustering quality over several k-means seeds on frozen features."""

    seeds: list
    accs: list
    nmis: list
    aris: list

    def extend(self, other):
        """Append the runs of ``other``, another report, after these."""
        self.seeds += other.seeds
        self.accs += other.accs
        self.nmis += other.nmis
        self.aris += other.aris

    def _stat(self, values):
        arr = np.asarray(values, dtype=np.float64)
        return float(arr.mean()), float(arr.std())

    @property
    def acc(self):
        return self._stat(self.accs)

    @property
    def nmi(self):
        return self._stat(self.nmis)

    @property
    def ari(self):
        return self._stat(self.aris)

    def to_dict(self):
        acc, nmi_, ari_ = self.acc, self.nmi, self.ari
        return {
            "acc_mean": acc[0], "acc_std": acc[1],
            "nmi_mean": nmi_[0], "nmi_std": nmi_[1],
            "ari_mean": ari_[0], "ari_std": ari_[1],
            "runs": [{"seed": int(s), "acc": a, "nmi": m, "ari": r}
                     for s, a, m, r in zip(self.seeds, self.accs, self.nmis,
                                           self.aris)],
        }


def evaluate(model, dataset, config, seeds=None):
    """Fuse, cluster and score against the dataset labels."""
    cfg = config.resolved()
    if dataset.labels is None:
        raise ConfigError("evaluation requires a labeled dataset")
    k = dataset.n_classes
    if k is None or k < 2:
        raise ConfigError("dataset does not declare a usable class count")
    fused = fuse_features(model, dataset, space=cfg.fuse_space)
    if seeds is None:
        seeds = [derive_seed(cfg.seed, "eval", i) for i in range(cfg.eval_seeds)]
    report = ClusterReport(seeds=list(map(int, seeds)), accs=[], nmis=[],
                           aris=[])
    for s in seeds:
        pred = kmeans(fused, k, runs=cfg.kmeans_restarts, seed=s)
        report.accs.append(accuracy(pred, dataset.labels))
        report.nmis.append(nmi(pred, dataset.labels))
        report.aris.append(ari(pred, dataset.labels))
    return report
