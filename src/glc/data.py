"""Multi-view datasets: on-disk format, corruption protocols, batching.

A dataset directory holds ``manifest.json`` plus headerless CSV files
(UTF-8, LF): one ``view_<v>.csv`` per view (one sample per row), optional
``labels.csv`` (one integer per line), optional ``mask.csv`` (N x V of
0/1), optional ``noise_flags.csv`` sidecar.  Manifest fields: ``n_views``,
``n_samples``, ``views`` (file list), optional ``n_classes`` (alias ``K``),
``labels``, ``mask``, ``noise_flags``, and ``standardize`` (default true:
z-score each view's features at load time using available rows only).

The corruption protocols (view removal, additive Gaussian noise, their
combination) are pure functions of (input, parameters, seed).  Randomness
comes from numpy's PCG64 seeded through ``SeedSequence``; each protocol
step draws from its own child stream, documented per function, so results
are reproducible across platforms and independent of evaluation order.
"""

import hashlib
import json
import logging
import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataFormatError, ShapeError

logger = logging.getLogger(__name__)

MANIFEST_NAME = "manifest.json"


def derive_seed(master, *tags):
    """Stable 63-bit seed for the sub-stream of ``master`` named by ``tags``.

    SHA-256 over the decimal master seed joined with the tag strings; the
    same (master, tags) pair maps to the same seed on every platform.
    """
    text = "|".join([str(int(master))] + [str(t) for t in tags])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _seedseq(seed):
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(int(seed))


# ---------------------------------------------------------------------------
# dataset container
# ---------------------------------------------------------------------------

@dataclass
class MultiViewDataset:
    """Feature matrices for each view plus availability bookkeeping.

    ``mask[i, v] == 1`` means sample i is observed in view v; every sample
    stays observed in at least one view.  ``noise_flags`` marks the entries
    that received injected noise; it is diagnostic metadata and must never
    reach the model.
    """

    views: list
    mask: np.ndarray
    labels: np.ndarray = None
    noise_flags: np.ndarray = None
    n_classes: int = None

    def __post_init__(self):
        self.views = [np.ascontiguousarray(v, dtype=np.float64) for v in self.views]
        if not self.views:
            raise ShapeError("a dataset needs at least one view")
        n = self.views[0].shape[0]
        for i, v in enumerate(self.views):
            if v.ndim != 2:
                raise ShapeError(f"view {i} is not a matrix")
            if v.shape[0] != n:
                raise ShapeError(
                    f"view {i} has {v.shape[0]} rows, expected {n}")
            if not np.isfinite(v).all():
                raise DataFormatError(f"view {i} contains non-finite values")
        self.mask = np.asarray(self.mask, dtype=np.uint8)
        if self.mask.shape != (n, len(self.views)):
            raise ShapeError(
                f"mask shape {self.mask.shape} != ({n}, {len(self.views)})")
        if not np.isin(self.mask, (0, 1)).all():
            raise DataFormatError("mask entries must be 0 or 1")
        if (self.mask.sum(axis=1) == 0).any():
            raise DataFormatError("every sample must keep at least one view")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)
            if self.labels.shape[0] != n:
                raise ShapeError("labels length does not match sample count")
            if self.labels.min() < 0:
                raise DataFormatError("labels must be non-negative integers")
            distinct = np.unique(self.labels).size
            if distinct < 2:
                raise DataFormatError("labels must cover at least 2 classes")
            if self.n_classes is None:
                self.n_classes = distinct
            elif self.labels.max() >= self.n_classes:
                raise DataFormatError("label value exceeds declared class count")
        if self.noise_flags is not None:
            self.noise_flags = np.asarray(self.noise_flags, dtype=bool)
            if self.noise_flags.shape != self.mask.shape:
                raise ShapeError("noise_flags shape must match the mask")

    @property
    def n_samples(self):
        return self.views[0].shape[0]

    @property
    def n_views(self):
        return len(self.views)


def standardize_views(dataset):
    """Z-score each view's features using only its available rows.

    Constant features are centered and left at scale 1.  All rows are
    transformed (unavailable entries are never read downstream).  The
    result shares every other array with ``dataset``, like each protocol's.
    """
    views = []
    for v, x in enumerate(dataset.views):
        avail = dataset.mask[:, v] == 1
        if not avail.any():
            views.append(x)
            continue
        mu = x[avail].mean(axis=0)
        sd = x[avail].std(axis=0)
        sd = np.where(sd > 0.0, sd, 1.0)
        views.append((x - mu) / sd)
    return replace(dataset, views=views)


# ---------------------------------------------------------------------------
# on-disk format
# ---------------------------------------------------------------------------

def _read_matrix(path, dtype=np.float64):
    # loadtxt only warns on a file with no data; here that is an error
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        try:
            arr = np.loadtxt(path, delimiter=",", dtype=dtype, ndmin=2)
        except UserWarning as err:
            raise DataFormatError(f"{path}: no data") from err
        except ValueError as err:
            raise DataFormatError(f"{path}: {err}") from err
    if dtype == np.float64 and not np.isfinite(arr).all():
        raise DataFormatError(f"{path}: non-finite value")
    return arr


def write_matrix(path, arr):
    """Write a matrix as headerless CSV: integer and boolean cells as
    integers, any other with round-trip float precision."""
    arr = np.asarray(arr)
    cell = int if arr.dtype.kind in "biu" else float
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in arr:
            fh.write(",".join(repr(cell(x)) for x in row))
            fh.write("\n")


def read_manifest(root):
    """The parsed ``manifest.json`` of a dataset directory, or DataFormatError."""
    manifest_path = Path(root) / MANIFEST_NAME
    if not manifest_path.is_file():
        raise DataFormatError(f"missing {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError as err:
        raise DataFormatError(f"{manifest_path}: {err}") from err
    if not isinstance(manifest, dict):
        raise DataFormatError(f"{manifest_path}: not a JSON object")
    for key in ("n_views", "n_samples", "views"):
        if key not in manifest:
            raise DataFormatError(f"manifest is missing {key!r}")
    counts = ["n_views", "n_samples"] + [
        key for key in ("n_classes", "K") if manifest.get(key) is not None]
    for key in counts:
        if type(manifest[key]) is not int:      # not float, str or bool
            raise DataFormatError(
                f"manifest {key!r} must be an integer, got {manifest[key]!r}")
    views = manifest["views"]
    if not isinstance(views, list) or \
            not all(isinstance(name, str) for name in views):
        raise DataFormatError(
            f"manifest 'views' must be a list of file names, got {views!r}")
    for key in ("labels", "mask", "noise_flags"):
        if not isinstance(manifest.get(key, ""), (str, type(None))):
            raise DataFormatError(
                f"manifest {key!r} must be a file name, got {manifest[key]!r}")
    if not isinstance(manifest.get("standardize", True), bool):
        raise DataFormatError("manifest 'standardize' must be true or false, "
                              f"got {manifest['standardize']!r}")
    return manifest


def load_dataset(path):
    """Load a dataset directory, standardized unless its manifest says
    ``standardize: false``."""
    root = Path(path)
    manifest = read_manifest(root)
    n_views = manifest["n_views"]
    n_samples = manifest["n_samples"]
    names = manifest["views"]
    if len(names) != n_views:
        raise DataFormatError("manifest view list does not match n_views")

    views = []
    for name in names:
        x = _read_matrix(root / name)
        if x.shape[0] != n_samples:
            raise DataFormatError(
                f"{name}: {x.shape[0]} rows, manifest says {n_samples}")
        views.append(x)

    labels = None
    if manifest.get("labels"):
        raw = _read_matrix(root / manifest["labels"])
        labels = raw.reshape(-1).astype(np.int64)
        if not np.array_equal(raw.reshape(-1), labels):
            raise DataFormatError("labels must be integers")
        if labels.shape[0] != n_samples:
            raise DataFormatError("label count does not match n_samples")

    if manifest.get("mask"):
        mask = _read_matrix(root / manifest["mask"], dtype=np.int64)
        if mask.shape != (n_samples, n_views):
            raise DataFormatError("mask shape does not match the manifest")
    else:
        mask = np.ones((n_samples, n_views), dtype=np.uint8)

    noise_flags = None
    if manifest.get("noise_flags"):
        noise_flags = _read_matrix(root / manifest["noise_flags"],
                                   dtype=np.int64).astype(bool)
        if noise_flags.shape != (n_samples, n_views):
            raise DataFormatError(
                "noise_flags shape does not match the manifest")

    n_classes = manifest.get("n_classes", manifest.get("K"))
    dataset = MultiViewDataset(views, mask, labels, noise_flags, n_classes)
    if manifest.get("standardize", True):
        dataset = standardize_views(dataset)
    return dataset


def save_dataset(dataset, path):
    """Materialize a dataset directory.

    The written manifest sets ``standardize`` to false: values on disk are
    final and must not be rescaled again at load time (that would distort
    any injected corruption).
    """
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format_version": 1,
        "n_views": dataset.n_views,
        "n_samples": dataset.n_samples,
        "views": [f"view_{v}.csv" for v in range(dataset.n_views)],
        "mask": "mask.csv",
        "standardize": False,
    }
    for v, x in enumerate(dataset.views):
        write_matrix(root / f"view_{v}.csv", x)
    write_matrix(root / "mask.csv", dataset.mask)
    if dataset.labels is not None:
        write_matrix(root / "labels.csv", dataset.labels[:, None])
        manifest["labels"] = "labels.csv"
    if dataset.noise_flags is not None:
        write_matrix(root / "noise_flags.csv", dataset.noise_flags)
        manifest["noise_flags"] = "noise_flags.csv"
    if dataset.n_classes is not None:
        manifest["n_classes"] = int(dataset.n_classes)
    (root / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return root


# ---------------------------------------------------------------------------
# corruption protocols
# ---------------------------------------------------------------------------

def _draw_corruption(n_samples, n_views, rate, seed):
    """Boolean hit pattern shared by the removal and noise protocols.

    Exactly ``round(rate * n_samples)`` rows are hit; each hit row draws a
    uniformly random nonempty proper subset of its views (so it always
    keeps at least one untouched view).  Child streams: 0 selects the rows,
    1 selects the subsets.
    """
    if not 0.0 <= rate <= 1.0:
        raise ConfigError(f"rate must lie in [0, 1], got {rate}")
    pattern = np.zeros((n_samples, n_views), dtype=bool)
    n_hit = int(round(rate * n_samples))
    if n_hit == 0:
        return pattern
    if n_views < 2:
        raise ConfigError("corruption needs at least 2 views")
    row_ss, subset_ss = _seedseq(seed).spawn(2)
    rows = np.sort(np.random.default_rng(row_ss).choice(
        n_samples, size=n_hit, replace=False))
    # codes run over [1, 2^V - 2]: every nonempty proper subset, uniformly
    codes = np.random.default_rng(subset_ss).integers(
        1, 2 ** n_views - 1, size=n_hit)
    for v in range(n_views):
        pattern[rows, v] = (codes >> v) & 1
    return pattern


def generate_missing_mask(n_samples, n_views, rate, seed):
    """Availability mask with exactly round(rate * N) incomplete rows."""
    pattern = _draw_corruption(n_samples, n_views, rate, seed)
    mask = np.ones((n_samples, n_views), dtype=np.uint8)
    mask[pattern] = 0
    return mask


def inject_noise(dataset, rate, std, seed):
    """Add N(0, std^2) noise to a random subset of (sample, view) slots.

    The slots follow the same subset protocol as ``generate_missing_mask``
    at the given rate; the availability mask is left untouched and the hit
    pattern is returned in ``noise_flags`` (evaluation metadata only).
    Child streams: 0 draws the pattern, 1..V draw the per-view noise.
    """
    if std <= 0.0:
        raise ConfigError(f"noise std must be positive, got {std}")
    children = _seedseq(seed).spawn(dataset.n_views + 1)
    pattern = _draw_corruption(dataset.n_samples, dataset.n_views, rate,
                               children[0])
    views = list(dataset.views)     # a hit view is copied before it is written
    for v in range(dataset.n_views):
        rows = np.flatnonzero(pattern[:, v])
        if rows.size == 0:
            continue
        rng = np.random.default_rng(children[v + 1])
        views[v] = views[v].copy()
        views[v][rows] += rng.normal(0.0, std, size=(rows.size, views[v].shape[1]))
    return replace(dataset, views=views, noise_flags=pattern)


def apply_combined(dataset, rate, std, seed):
    """Noise first, then view removal, with independent derived streams.

    Child streams of ``seed``: 0 drives :func:`inject_noise`, 1 drives
    :func:`generate_missing_mask`; both protocols run at the same rate.
    """
    noise_ss, mask_ss = _seedseq(seed).spawn(2)
    noisy = inject_noise(dataset, rate, std, noise_ss)
    return replace(noisy, mask=generate_missing_mask(
        dataset.n_samples, dataset.n_views, rate, mask_ss))


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

@dataclass
class Batch:
    """A mini-batch restricted per view to its available samples.

    ``view_positions[v]`` maps the rows of ``view_data[v]`` back to
    positions within ``indices`` (always sorted ascending).
    """

    indices: np.ndarray
    view_data: list
    view_positions: list

    @property
    def size(self):
        return self.indices.shape[0]

    def co_available(self, u, v):
        """Local row indices of the samples present in both views."""
        common = np.intersect1d(self.view_positions[u], self.view_positions[v])
        rows_u = np.searchsorted(self.view_positions[u], common)
        rows_v = np.searchsorted(self.view_positions[v], common)
        return rows_u, rows_v


def _make_batch(dataset, indices):
    indices = np.asarray(indices, dtype=np.intp)
    view_data, view_positions = [], []
    for v in range(dataset.n_views):
        positions = np.flatnonzero(dataset.mask[indices, v] == 1)
        view_positions.append(positions)
        view_data.append(dataset.views[v][indices[positions]])
    return Batch(indices, view_data, view_positions)


def sample_batch(dataset, batch_size, rng):
    """One uniform batch without replacement (whole dataset if it is small)."""
    if batch_size < 1:
        raise ConfigError("batch_size must be positive")
    n = dataset.n_samples
    if batch_size >= n:
        idx = rng.permutation(n)
    else:
        idx = rng.choice(n, size=batch_size, replace=False)
    return _make_batch(dataset, idx)


def iter_epoch(dataset, batch_size, rng):
    """Yield batches covering every index exactly once, in shuffled order."""
    if batch_size < 1:
        raise ConfigError("batch_size must be positive")
    perm = rng.permutation(dataset.n_samples)
    for start in range(0, perm.size, batch_size):
        yield _make_batch(dataset, perm[start:start + batch_size])


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

def make_synthetic(n_samples, n_views, n_classes, dims=8, separation=5.0,
                   seed=0, view_noise=1.0, standardize=True):
    """Gaussian clusters observed through independent random linear maps.

    Cluster centers live in a shared latent space with typical pairwise
    distance ``separation * sqrt(2)``; each view applies its own random
    map to the center of the sample's cluster and adds N(0, view_noise^2)
    observation noise, so ``separation`` is expressed in units of the
    within-cluster standard deviation.  ``separation=0`` leaves no class
    signal in any view.  Classes are balanced; sample order is shuffled.

    Child streams: 0 centers, 1 label shuffle, 2+v per-view map and noise.
    """
    if n_classes < 2:
        raise ConfigError("need at least 2 classes")
    if n_samples % n_classes != 0:
        raise ConfigError("n_samples must be divisible by n_classes")
    if np.isscalar(dims):
        dims = [int(dims)] * n_views
    dims = [int(d) for d in dims]
    if len(dims) != n_views:
        raise ConfigError("dims must give one width per view")
    if separation < 0 or view_noise <= 0:
        raise ConfigError("separation must be >= 0 and view_noise > 0")

    children = _seedseq(seed).spawn(2 + n_views)
    latent_dim = max(4, n_classes)
    centers = np.random.default_rng(children[0]).normal(
        size=(n_classes, latent_dim)) * (separation / math.sqrt(latent_dim))
    labels = np.repeat(np.arange(n_classes), n_samples // n_classes)
    labels = labels[np.random.default_rng(children[1]).permutation(n_samples)]

    views = []
    for v in range(n_views):
        rng = np.random.default_rng(children[2 + v])
        mapping = rng.normal(size=(dims[v], latent_dim)) / math.sqrt(latent_dim)
        x = centers[labels] @ mapping.T
        x += rng.normal(0.0, view_noise, size=(n_samples, dims[v]))
        views.append(x)

    dataset = MultiViewDataset(views, np.ones((n_samples, n_views), dtype=np.uint8),
                               labels, None, n_classes)
    if standardize:
        dataset = standardize_views(dataset)
    return dataset
