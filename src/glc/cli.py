"""Experiment command line.

Subcommands:

* ``prepare``  corrupt a dataset once and materialize it to disk;
* ``train``    pretrain + train + evaluate a single configuration;
* ``sweep``    Cartesian product of settings x rates (x ablations);
* ``ablate``   the three objective variants on identical data and seeds.

Configuration comes from built-in defaults, overlaid by a JSON config file
(``--config``, flat keys), overlaid by explicit flags, and is checked once,
as a :class:`glc.config.Config`, before any cell runs.  The fully resolved
configuration is echoed into every report.  Per-cell seeds derive from
SHA-256 of (master seed, setting, rate), so adding cells never reshuffles
existing ones and any cell can be reproduced in isolation.

``GLC_THREADS`` caps how many sweep cells run in parallel processes (a
positive integer; default 1, serial); a model with a parameter over 65,536
elements trains on one thread per view, so N cells keep up to N x views
threads busy, plus BLAS's own (``OPENBLAS_NUM_THREADS`` above 1
oversubscribes the cores).  Exit codes, the same for a whole run and for
each sweep cell (:func:`exit_code`): 0 success, 1 configuration error, 2
I/O or data-format error, 3 numerical abort during training.
"""

import argparse
import hashlib
import json
import logging
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, replace
from pathlib import Path

from .config import (ABLATIONS, PROFILES, SETTINGS, Config,
                     parse_synthetic_spec)
from .data import (MultiViewDataset, apply_combined, derive_seed,
                   generate_missing_mask, inject_noise, load_dataset,
                   make_synthetic, save_dataset)
from .errors import ConfigError, DataFormatError, GlcError, NumericError
from .model import save_checkpoint
from .pipeline import (ClusterReport, TrainHistory, evaluate, build_model,
                       pretrain, train)

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 3

# every config key with its default, as a plain dict
DEFAULTS = asdict(Config())


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad usage as a configuration error (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


def build_parser():
    parser = _Parser(prog="glc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file with flat keys")
        p.add_argument("--dataset", help="dataset directory or synthetic:k=v,... spec")
        p.add_argument("--setting", choices=SETTINGS)
        p.add_argument("--rate", type=float)
        p.add_argument("--noise-std", dest="noise_std", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--out")

    def training(p):
        p.add_argument("--alpha", type=float)
        p.add_argument("--beta", type=float)
        p.add_argument("--tau", type=float)
        p.add_argument("--pos", type=float)
        p.add_argument("--neg", type=float)
        p.add_argument("--batch", type=int)
        p.add_argument("--profile", choices=sorted(PROFILES))

    p = sub.add_parser("prepare", help="materialize a corrupted dataset")
    common(p)

    p = sub.add_parser("train", help="train and evaluate one configuration")
    common(p)
    training(p)

    p = sub.add_parser("sweep", help="grid of settings x rates")
    common(p)
    training(p)
    p.add_argument("--rates", help="comma-separated rate list")

    p = sub.add_parser("ablate", help="objective ablation rows")
    common(p)
    training(p)
    return parser


def load_config(args):
    """defaults <- config file <- explicit flags, checked once as a Config."""
    values = {}
    path = getattr(args, "config", None)
    if path:
        try:
            values = json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as err:
            raise ConfigError(f"{path}: {err}") from err
        if not isinstance(values, dict):
            raise ConfigError(f"{path}: the top level must be a JSON object")
    # every parsed flag named after a config key overrides it
    flags = {key: getattr(args, key, None) for key in DEFAULTS}
    values.update({k: v for k, v in flags.items() if v is not None})
    rates = flags["rates"]
    if rates is not None:
        try:
            values["rates"] = [float(r) for r in str(rates).split(",") if r != ""]
        except ValueError as err:
            raise ConfigError(f"bad --rates list {rates!r}: {err}") from err
    cfg = Config.from_dict(values)
    if cfg.dataset is None and cfg.synthetic is None:
        raise ConfigError("a dataset (path or synthetic spec) is required")
    return cfg


# ---------------------------------------------------------------------------
# dataset resolution
# ---------------------------------------------------------------------------

def resolve_dataset(cfg, master_seed):
    """Load a dataset directory or generate the configured synthetic one."""
    source = cfg.dataset
    if source is not None and not source.startswith("synthetic:"):
        return load_dataset(source), source
    spec = dict(cfg.synthetic or {})
    if source is not None:
        spec.update(parse_synthetic_spec(source))
    spec.setdefault("seed", derive_seed(master_seed, "synthetic"))
    dataset = make_synthetic(**spec)
    label = "synthetic:" + ",".join(f"{k}={spec[k]}" for k in sorted(spec))
    return dataset, label


def corrupt_dataset(dataset, setting, rate, noise_std, seed):
    """Apply one evaluation protocol; ``clean`` (or rate 0) is the identity."""
    if setting == "clean" or rate == 0.0:
        return dataset
    protocol_seed = derive_seed(seed, "protocol", setting, f"{rate:.6f}")
    if setting == "incomplete":
        mask = generate_missing_mask(dataset.n_samples, dataset.n_views, rate,
                                     protocol_seed)
        return MultiViewDataset([v.copy() for v in dataset.views], mask,
                                dataset.labels, dataset.noise_flags,
                                dataset.n_classes)
    if setting == "noise":
        return inject_noise(dataset, rate, noise_std, protocol_seed)
    if setting == "combined":
        return apply_combined(dataset, rate, noise_std, protocol_seed)
    raise ConfigError(f"unknown setting {setting!r}")


# ---------------------------------------------------------------------------
# single run
# ---------------------------------------------------------------------------

def resolved_cell_config(cfg, setting, rate, ablation):
    """The config a cell runs: ``cfg`` resolved at one cell, minus the grids."""
    cell = asdict(replace(cfg.resolved(), setting=setting, rate=rate,
                          ablation=ablation))
    for key in ("rates", "settings", "ablations"):
        del cell[key]
    return cell


def config_hash(cell_cfg):
    """Short reproducibility key over everything that shapes the results.

    The output directory is excluded on purpose: re-running a cell into a
    different location must yield the same hash (and the same numbers).
    """
    hashed = {k: v for k, v in cell_cfg.items() if k != "out"}
    text = json.dumps(hashed, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def run_cell(cfg, setting, rate, ablation, out_dir=None):
    """Prepare data in memory, train, evaluate; optionally write artifacts.

    ``cfg`` is a :class:`Config` or a dict of config keys, checked here.
    """
    started = time.perf_counter()
    if not isinstance(cfg, Config):
        cfg = Config.from_dict(cfg)
    cell_cfg = resolved_cell_config(cfg, setting, rate, ablation)
    base, source = resolve_dataset(cfg, cfg.seed)
    dataset = corrupt_dataset(base, setting, rate, cfg.noise_std, cfg.seed)
    # the trainer seed is shared across ablation rows so they see identical
    # batches; it still separates settings and rates
    tcfg = replace(cfg, alpha=cfg.alpha if ablation != "rec" else 0.0,
                   beta=cfg.beta if ablation == "full" else 0.0,
                   seed=derive_seed(cfg.seed, "trainer", setting, f"{rate:.6f}"))
    out = None if out_dir is None else Path(out_dir)
    if out is not None:     # an unwritable one fails now, not after training
        out.mkdir(parents=True, exist_ok=True)

    if cfg.eval_protocol == "retrain":
        report = ClusterReport(seeds=[], accs=[], nmis=[], aris=[])
        for i in range(cfg.eval_seeds):
            run_cfg = replace(tcfg, seed=derive_seed(tcfg.seed, "retrain", i))
            model, history = _fit(run_cfg, dataset)
            report.extend(evaluate(model, dataset, run_cfg,
                                   seeds=[derive_seed(run_cfg.seed, "eval", 0)]))
    else:
        model, history = _fit(tcfg, dataset)
        report = evaluate(model, dataset, tcfg)

    train_recs = history.train_records()
    result = {
        "schema_version": SCHEMA_VERSION,
        "config": cell_cfg,
        "config_hash": config_hash(cell_cfg),
        "dataset": {"source": source, "n_samples": dataset.n_samples,
                    "n_views": dataset.n_views,
                    "n_classes": dataset.n_classes},
        "results": report.to_dict(),
        "final_loss": {
            "rec": train_recs[-1].rec if train_recs else None,
            "ggc": train_recs[-1].ggc if train_recs else None,
            "lwc": train_recs[-1].lwc if train_recs else None,
            "total": train_recs[-1].total if train_recs else None,
        },
        "wall_time_s": time.perf_counter() - started,
    }
    if out is not None:
        history.write_csv(out / "history.csv")
        # wall times vary run to run, so they stay out of the reproducible
        # history.csv and report.json
        _write_json(out / "timings.json",
                    [{"epoch": r.epoch, "phase": r.phase, "seconds": r.seconds,
                      "eval_seconds": r.eval_seconds}
                     for r in history.records])
        save_checkpoint(model, out / "checkpoint.npz")
        result["artifacts"] = {"history_csv": "history.csv",
                               "checkpoint": "checkpoint.npz"}
        _write_json(out / "report.json", result)
    return result


def _fit(tcfg, dataset):
    model = build_model(dataset, tcfg)
    history = TrainHistory()
    pretrain(model, dataset, tcfg, history=history)
    model, history = train(model, dataset, tcfg, history=history)
    return model, history


def _write_json(path, obj):
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_prepare(cfg):
    """Write to disk exactly the dataset ``train`` would train on."""
    base, _ = resolve_dataset(cfg, cfg.seed)
    dataset = corrupt_dataset(base, cfg.setting, cfg.rate, cfg.noise_std,
                              cfg.seed)
    save_dataset(dataset, cfg.out)
    print(f"prepared setting={cfg.setting} rate={cfg.rate} at {cfg.out}")
    return 0


def cmd_train(cfg):
    result = run_cell(cfg, cfg.setting, cfg.rate, cfg.ablation,
                      out_dir=Path(cfg.out))
    res = result["results"]
    print(json.dumps(result["config"], sort_keys=True))
    print(f"ACC {res['acc_mean']:.4f}+-{res['acc_std']:.4f}  "
          f"NMI {res['nmi_mean']:.4f}+-{res['nmi_std']:.4f}  "
          f"ARI {res['ari_mean']:.4f}+-{res['ari_std']:.4f}")
    return 0


def exit_code(err):
    """The documented exit code for ``err``, a ``GlcError`` or ``OSError``.

    2 for I/O and data-format errors, 3 for a numerical abort, and 1 for a
    configuration or any other library error.
    """
    if isinstance(err, (OSError, DataFormatError)):
        return 2
    if isinstance(err, NumericError):
        return 3
    return 1


def _cell_worker(payload):
    """Run one cell; failures are recorded, not raised (other cells go on)."""
    cfg, setting, rate, ablation, out_dir = payload
    try:
        return run_cell(cfg, setting, rate, ablation, out_dir=out_dir)
    except (GlcError, OSError) as err:
        logger.error("cell (%s, %s, %s) failed: %s", setting, rate, ablation, err)
        return {"schema_version": SCHEMA_VERSION,
                "config": resolved_cell_config(cfg, setting, rate, ablation),
                "error": {"type": type(err).__name__, "message": str(err),
                          "exit_code": exit_code(err)}}


def _cell_workers():
    """How many cells run in parallel processes, from ``GLC_THREADS``."""
    text = os.environ.get("GLC_THREADS", "1")
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"GLC_THREADS must be a positive integer, got {text!r}")
    return workers


def _run_cells(cfg, cells, out_root):
    """Run (setting, rate, ablation) cells, honoring GLC_THREADS.

    Returns the per-cell result dicts plus the overall exit code (0 when
    every cell succeeded, otherwise the largest per-cell code).  Cells that
    would share a directory (names print rates to 6 significant digits) or
    their seeds (seeds take rates to 6 decimals) are a ConfigError, raised
    before any cell starts.
    """
    workers = _cell_workers()
    jobs, taken = [], set()
    for setting, rate, ablation in cells:
        name = f"{setting}_{rate:g}_{ablation}"
        key = (setting, f"{rate:.6f}", ablation)    # what the seeds read
        if name in taken or key in taken:
            raise ConfigError(f"two cells would share the directory or the "
                              f"seeds of cells/{name}")
        taken |= {name, key}
        jobs.append((cfg, setting, rate, ablation,
                     str(out_root / "cells" / name)))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            results = list(pool.map(_cell_worker, jobs))
    else:
        results = [_cell_worker(job) for job in jobs]
    code = max((r["error"]["exit_code"] for r in results if "error" in r),
               default=0)
    return results, code


def cmd_sweep(cfg):
    out = Path(cfg.out)
    cells = [(s, r, a) for s in cfg.settings or [cfg.setting]
             for r in cfg.rates or [cfg.rate]
             for a in cfg.ablations or [cfg.ablation]]
    results, code = _run_cells(cfg, cells, out)

    rows = []
    for (setting, rate, ablation), result in zip(cells, results):
        row = {"setting": setting, "rate": rate, "ablation": ablation,
               "config_hash": result.get("config_hash", "")}
        if "error" in result:
            row.update({k: "" for k in ("acc_mean", "acc_std", "nmi_mean",
                                        "nmi_std", "ari_mean", "ari_std")})
            row["error"] = result["error"]["type"]
        else:
            res = result["results"]
            row.update({k: res[k] for k in ("acc_mean", "acc_std", "nmi_mean",
                                            "nmi_std", "ari_mean", "ari_std")})
            row["error"] = ""
        rows.append(row)
    rows.sort(key=lambda r: (r["setting"], r["rate"], r["ablation"]))
    out.mkdir(parents=True, exist_ok=True)
    header = ["setting", "rate", "ablation", "acc_mean", "acc_std",
              "nmi_mean", "nmi_std", "ari_mean", "ari_std", "config_hash",
              "error"]
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(row[k]) for k in header))
    (out / "sweep.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_json(out / "sweep.json", {
        "schema_version": SCHEMA_VERSION,
        "master_seed": cfg.seed,
        "cells": results,
    })
    for row in rows:
        if row["error"]:
            print(f"{row['setting']:>10} rate={row['rate']:<4g} "
                  f"{row['ablation']:<7} ERROR {row['error']}")
        else:
            print(f"{row['setting']:>10} rate={row['rate']:<4g} "
                  f"{row['ablation']:<7} ACC {row['acc_mean']:.4f}  "
                  f"NMI {row['nmi_mean']:.4f}")
    return code


def cmd_ablate(cfg):
    for key in ("rates", "ablations"):
        if getattr(cfg, key) is not None:
            raise ConfigError(f"ablate runs every ablation row at one rate "
                              f"and does not read {key!r}; use sweep")
    out = Path(cfg.out)
    settings = cfg.settings or ["incomplete", "noise", "combined"]
    cells = [(s, cfg.rate, a) for s in settings for a in ABLATIONS]
    results, code = _run_cells(cfg, cells, out)
    by_key = {(s, a): r for (s, _, a), r in zip(cells, results)}

    out.mkdir(parents=True, exist_ok=True)
    header = ["ablation"]
    for s in settings:
        header += [f"acc_{s}", f"nmi_{s}"]
    lines = [",".join(header)]
    for a in ABLATIONS:
        row = [a]
        for s in settings:
            result = by_key[(s, a)]
            if "error" in result:
                row += ["", ""]
            else:
                res = result["results"]
                row += [str(res["acc_mean"]), str(res["nmi_mean"])]
        lines.append(",".join(row))
    (out / "ablate.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_json(out / "ablate.json", {
        "schema_version": SCHEMA_VERSION,
        "master_seed": cfg.seed,
        "rate": cfg.rate,
        "cells": results,
    })
    print("\n".join(lines))
    return code


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------

def main(argv=None):
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args)
        command = {"prepare": cmd_prepare, "train": cmd_train,
                   "sweep": cmd_sweep, "ablate": cmd_ablate}[args.command]
        return command(cfg)
    except (GlcError, OSError) as err:
        code = exit_code(err)
        label = {2: "i/o error", 3: "numerical abort"}.get(
            code, "config error" if isinstance(err, ConfigError) else "error")
        print(f"{label}: {err}", file=sys.stderr)
        return code
    except KeyboardInterrupt:
        # a phase's view workers are joined by its segment_pool on the way
        print("interrupted", file=sys.stderr)
        return 130


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
