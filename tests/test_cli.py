"""Command line: config resolution, artifacts, determinism and exit codes."""

import argparse
import json
import logging
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import glc
from glc import cli
from glc.cli import (DEFAULTS, config_hash, exit_code, load_config, main,
                     parse_synthetic_spec, resolved_cell_config, run_cell)
from glc.config import Config
from glc.data import load_dataset, make_synthetic, save_dataset
from glc.errors import (ConfigError, DataFormatError, NumericError,
                        ShapeError, TrainingAborted)

SPEC = "synthetic:n=24,v=2,k=3,dims=4|4,sep=6.0"


@pytest.fixture
def fast_cfg(tmp_path):
    path = tmp_path / "fast.json"
    path.write_text(json.dumps({
        "pretrain_epochs": 1, "epochs": 2, "eval_seeds": 1,
        "kmeans_restarts": 2, "batch": 8,
    }))
    return str(path)


def _train_args(out, fast_cfg, *extra):
    return ["train", "--dataset", SPEC, "--profile", "desk", "--seed", "5",
            "--config", fast_cfg, "--out", str(out), *extra]


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def test_flag_overrides_config_file(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"alpha": 0.5, "tau": 0.7,
                                    "dataset": SPEC}))

    class Args:
        config = str(cfg_path)
        alpha = 0.9
        tau = None

    cfg = load_config(Args())
    assert cfg.alpha == 0.9             # flag wins
    assert cfg.tau == 0.7               # file wins over default
    assert cfg.beta == 1.0              # default preserved


# a distinct, valid, non-default value for every flag named after a config
# key; a new flag needs an entry here
_FLAG_VALUES = {"dataset": SPEC, "setting": "noise", "rate": 0.25,
                "noise_std": 0.7, "seed": 9, "out": "elsewhere",
                "alpha": 0.3, "beta": 0.6, "tau": 0.9, "pos": 2.0,
                "neg": 40.0, "batch": 32, "profile": "desk",
                "rates": "0.1,0.2"}


@pytest.mark.parametrize("command", ["train", "sweep", "ablate"])
def test_every_flag_reaches_the_config(command):
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)]
    argv = [command]
    flags = {}
    for action in subparsers.choices[command]._actions:
        if action.dest in ("help", "config"):
            continue
        assert action.dest in DEFAULTS and action.dest in _FLAG_VALUES
        flags[action.dest] = _FLAG_VALUES[action.dest]
        argv += [action.option_strings[0], str(flags[action.dest])]
    assert {"dataset", "seed", "alpha", "profile"} <= set(flags)
    cfg = load_config(parser.parse_args(argv))
    for key, value in flags.items():
        want = [0.1, 0.2] if key == "rates" else value
        assert getattr(cfg, key) == want != DEFAULTS[key], key


def test_unknown_config_key_rejected(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"learning": 1.0}))

    class Args:
        config = str(cfg_path)

    with pytest.raises(ConfigError):
        load_config(Args())


def test_parse_synthetic_spec():
    spec = parse_synthetic_spec("synthetic:n=60,v=3,k=4,dims=5|6|7,sep=2.5")
    assert spec == {"n_samples": 60, "n_views": 3, "n_classes": 4,
                    "dims": [5, 6, 7], "separation": 2.5}
    assert parse_synthetic_spec("synthetic:v=3,dims=4")["dims"] == [4, 4, 4]
    with pytest.raises(ConfigError):
        parse_synthetic_spec("synthetic:n=60,volume=3")
    with pytest.raises(ConfigError):
        parse_synthetic_spec("synthetic:n=sixty")


def test_config_hash_ignores_key_order():
    a = {"alpha": 0.1, "beta": 1.0}
    b = {"beta": 1.0, "alpha": 0.1}
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({"alpha": 0.2, "beta": 1.0})
    assert len(config_hash(a)) == 16


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_exit_code_config_error(tmp_path):
    assert main(["train", "--dataset", SPEC, "--tau", "-1",
                 "--out", str(tmp_path)]) == 1
    assert main(["train", "--out", str(tmp_path)]) == 1
    assert main(["train", "--dataset", SPEC, "--rate", "1.5",
                 "--out", str(tmp_path)]) == 1
    assert main(["train", "--dataset", SPEC, "--setting", "wrong"]) == 1


def test_exit_code_io_error(tmp_path):
    assert main(["train", "--dataset", str(tmp_path / "missing"),
                 "--out", str(tmp_path / "o")]) == 2


def test_unwritable_out_exits_2_before_training(tmp_path, fast_cfg,
                                                monkeypatch):
    def refuse(*args):
        raise AssertionError("trained before the output directory existed")

    monkeypatch.setattr(cli, "_fit", refuse)
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    assert main(_train_args(blocker / "run", fast_cfg)) == 2
    # a sweep cell: its directory would go under a file, the sweep's does not
    out = tmp_path / "sweep"
    out.mkdir()
    (out / "cells").write_text("not a directory")
    assert main(["sweep", "--dataset", SPEC, "--profile", "desk",
                 "--config", fast_cfg, "--rates", "0.3",
                 "--out", str(out)]) == 2
    cell, = json.loads((out / "sweep.json").read_text())["cells"]
    assert cell["error"]["exit_code"] == 2


def test_exit_code_numeric_abort(tmp_path, fast_cfg):
    cfg = json.loads(Path(fast_cfg).read_text())
    cfg["lr"] = 1e100
    bad = tmp_path / "diverge.json"
    bad.write_text(json.dumps(cfg))
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["train", "--dataset", SPEC, "--profile", "desk",
                     "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 3


def test_exit_code_bad_rates_list(tmp_path):
    assert main(["sweep", "--dataset", SPEC, "--rates", "0.1,abc",
                 "--out", str(tmp_path)]) == 1


def test_exit_code_bad_glc_threads(tmp_path, fast_cfg, monkeypatch):
    monkeypatch.setenv("GLC_THREADS", "x")
    assert main(["sweep", "--dataset", SPEC, "--profile", "desk",
                 "--config", fast_cfg, "--rates", "0.3",
                 "--out", str(tmp_path / "s")]) == 1
    assert not (tmp_path / "s" / "cells").exists()


def test_an_interrupt_exits_130_with_one_line(tmp_path, fast_cfg,
                                              monkeypatch, capsys):
    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_fit", interrupt)
    assert main(_train_args(tmp_path / "run", fast_cfg)) == 130
    err = capsys.readouterr().err
    assert err == "interrupted\n"


def test_exit_code_success(tmp_path, fast_cfg):
    assert main(_train_args(tmp_path / "run", fast_cfg)) == 0


_WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None          # any scipy import now fails
import glc.cli
code = glc.cli.main(json.loads(sys.argv[1]))
loaded = sorted(name for name, module in sys.modules.items()
                if module is not None
                and (name == "scipy" or name.startswith("scipy.")))
print(json.dumps({"code": code, "scipy": loaded}))
"""


def test_a_train_cell_runs_without_scipy(tmp_path, fast_cfg):
    # run as a process, so the blocked import cannot leak into other tests
    src = str(Path(glc.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = _train_args(tmp_path / "run", fast_cfg)
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, json.dumps(argv)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"code": 0,
                                                         "scipy": []}
    assert (tmp_path / "run" / "report.json").is_file()


def test_train_with_one_shared_synthetic_width(tmp_path, fast_cfg):
    assert main(["train", "--dataset", "synthetic:n=30,v=3,k=3,dims=4",
                 "--profile", "desk", "--config", fast_cfg,
                 "--out", str(tmp_path / "run")]) == 0


@pytest.mark.parametrize("command, config, extra", [
    ("train", {"epochs": "3"}, []),
    ("train", {"tau": "0.5"}, []),
    ("train", 3, []),
    ("train", {"rate": "abc"}, []),
    ("train", {"hidden": 64}, []),
    ("train", {"batch": 8.5}, []),
    ("train", {"eval_protocol": "retrain", "eval_seeds": 0}, []),
    ("train", {"seed": 1.5}, []),
    ("ablate", {"settings": ["bogus"]}, []),
    ("sweep", {}, ["--rates", "0.1,1.5"]),
    ("train", {}, ["--dataset", "synthetic:n=0,v=2,k=3"]),
    ("train", {}, ["--dataset", "synthetic:n=-3,v=2,k=3"]),
    ("train", {}, ["--dataset", "synthetic:n=30,v=2,k=3,dims=0|4"]),
    ("train", {}, ["--dataset", "synthetic:n=30,v=2,k=3,seed=-1"]),
    # grids whose cells would share a directory; names print the rate with
    # :g, so 0.3 and 0.3000001 are one
    ("sweep", {"settings": ["noise", "noise"]}, ["--rates", "0.2,0.2"]),
    ("sweep", {"ablations": ["rec", "full", "rec"]}, ["--rates", "0.3"]),
    ("sweep", {}, ["--rates", "0.3,0.3000001"]),
    ("ablate", {"settings": ["noise", "combined", "noise"]}, []),
    # distinct names but shared seeds: seeds take the rate to 6 decimals
    ("sweep", {}, ["--rates", "1e-7,2e-7"]),
    # grids ablate would not read
    ("ablate", {"rates": [0.1, 0.5]}, []),
    ("ablate", {"ablations": ["rec"]}, []),
])
def test_bad_config_exits_1_before_any_cell(tmp_path, command, config, extra):
    # run as a process, so an uncaught exception would show as a traceback
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    proc = _run_cli(command, "--dataset", SPEC, "--profile", "desk",
                    "--config", str(path), "--out", str(out), *extra)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("config error:")
    assert proc.stderr.count("\n") == 1
    assert not (out / "cells").exists()


def _run_cli(*argv):
    """``python -m glc.cli *argv`` in a fresh process, output captured."""
    src = str(Path(glc.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "glc.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)


@pytest.mark.parametrize("key, value", [("rates", [0.1, 0.5]),
                                        ("ablations", ["rec"])])
def test_ablate_names_the_grid_key_it_would_not_read(tmp_path, fast_cfg,
                                                      capsys, key, value):
    cfg = {**json.loads(Path(fast_cfg).read_text()), key: value}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main(["ablate", "--dataset", SPEC, "--profile", "desk",
                 "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert f"'{key}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# prepare
# ---------------------------------------------------------------------------

def test_prepare_clean_copies_bytes(tmp_path):
    src = tmp_path / "src"
    save_dataset(make_synthetic(12, 2, 2, dims=3, seed=1), src)
    out = tmp_path / "clean"
    assert main(["prepare", "--dataset", str(src), "--setting", "clean",
                 "--out", str(out)]) == 0
    for name in ("view_0.csv", "view_1.csv", "labels.csv"):
        assert (out / name).read_bytes() == (src / name).read_bytes()
    mask = np.loadtxt(out / "mask.csv", delimiter=",", dtype=int)
    assert (mask == 1).all()


def test_malformed_manifest_is_an_io_error(tmp_path, fast_cfg):
    src = tmp_path / "src"
    save_dataset(make_synthetic(12, 2, 2, dims=3, seed=1), src)
    valid = json.loads((src / "manifest.json").read_text())
    texts = ["{not json"] + [json.dumps({**valid, **change}) for change in (
        {"n_views": "two"}, {"n_classes": "x"}, {"views": 5},
        {"n_samples": 12.0}, {"n_views": True}, {"views": ["view_0.csv", 1]},
        {"labels": 3}, {"mask": ["mask.csv"]}, {"standardize": "false"})]
    for text in texts:
        (src / "manifest.json").write_text(text, encoding="utf-8")
        assert main(["prepare", "--dataset", str(src), "--setting", "clean",
                     "--out", str(tmp_path / "clean")]) == 2, text
        assert main(["train", "--dataset", str(src), "--profile", "desk",
                     "--config", fast_cfg,
                     "--out", str(tmp_path / "run")]) == 2, text


def test_an_empty_view_file_exits_2_with_one_line(tmp_path):
    src = tmp_path / "src"
    save_dataset(make_synthetic(12, 2, 2, dims=3, seed=1), src)
    (src / "view_1.csv").write_text("")
    proc = _run_cli("train", "--dataset", str(src), "--profile", "desk",
                    "--out", str(tmp_path / "run"))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("i/o error:") and "view_1.csv" in proc.stderr


def test_bad_noise_flags_exit_2_from_train_and_a_sweep_cell(tmp_path,
                                                             fast_cfg):
    prep = tmp_path / "prep"
    assert main(["prepare", "--dataset", SPEC, "--setting", "noise",
                 "--rate", "0.3", "--seed", "5", "--out", str(prep)]) == 0
    flags = np.loadtxt(prep / "noise_flags.csv", delimiter=",", dtype=int)
    np.savetxt(prep / "noise_flags.csv", flags[:, :1], fmt="%d",
               delimiter=",")
    with pytest.raises(DataFormatError, match="noise_flags"):
        load_dataset(prep)
    common = ["--dataset", str(prep), "--profile", "desk",
              "--config", fast_cfg]
    assert main(["train", *common, "--out", str(tmp_path / "run")]) == 2
    out = tmp_path / "sweep"
    assert main(["sweep", *common, "--rates", "0.3", "--out", str(out)]) == 2
    cell, = json.loads((out / "sweep.json").read_text())["cells"]
    assert cell["error"]["type"] == "DataFormatError"
    assert cell["error"]["exit_code"] == 2


@pytest.mark.parametrize("error, code", [
    (ConfigError("bad key"), 1), (ShapeError("bad shape"), 1),
    (DataFormatError("bad file"), 2), (OSError("no disk"), 2),
    (NumericError("degenerate"), 3), (TrainingAborted("diverged"), 3)])
def test_train_and_a_sweep_cell_share_one_exit_code(tmp_path, fast_cfg,
                                                     monkeypatch, error, code):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "run_cell", fail)
    assert exit_code(error) == code
    assert main(_train_args(tmp_path / "run", fast_cfg)) == code
    out = tmp_path / "sweep"
    assert main(["sweep", "--dataset", SPEC, "--profile", "desk",
                 "--config", fast_cfg, "--rates", "0.3",
                 "--out", str(out)]) == code
    cell, = json.loads((out / "sweep.json").read_text())["cells"]
    assert cell["error"]["exit_code"] == code


def test_prepare_incomplete_counts(tmp_path):
    out = tmp_path / "inc"
    assert main(["prepare", "--dataset", SPEC, "--setting", "incomplete",
                 "--rate", "0.5", "--seed", "3", "--out", str(out)]) == 0
    mask = np.loadtxt(out / "mask.csv", delimiter=",", dtype=int)
    assert (mask == 0).any(axis=1).sum() == 12
    ds = load_dataset(out)
    assert ds.n_samples == 24 and ds.n_views == 2


def test_prepare_rerun_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["prepare", "--dataset", SPEC, "--setting", "combined",
            "--rate", "0.3", "--seed", "4"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for f in sorted(out1.iterdir()):
        assert f.read_bytes() == (out2 / f.name).read_bytes(), f.name


def test_prepare_clean_keeps_mask_and_noise_flags(tmp_path, fast_cfg):
    src, copy = tmp_path / "src", tmp_path / "copy"
    assert main(["prepare", "--dataset", SPEC, "--setting", "combined",
                 "--rate", "0.3", "--seed", "5", "--out", str(src)]) == 0
    assert main(["prepare", "--dataset", str(src), "--setting", "clean",
                 "--out", str(copy)]) == 0
    source, clean = load_dataset(src), load_dataset(copy)
    assert (source.mask == 0).any() and source.noise_flags.any()
    np.testing.assert_array_equal(clean.mask, source.mask)
    np.testing.assert_array_equal(clean.noise_flags, source.noise_flags)
    assert sorted(f.name for f in copy.iterdir()) == sorted(
        f.name for f in src.iterdir())
    for f in src.iterdir():
        assert (copy / f.name).read_bytes() == f.read_bytes(), f.name
    checkpoints = []
    for data in (src, copy):
        out = tmp_path / f"run_{data.name}"
        assert main(["train", "--dataset", str(data), "--profile", "desk",
                     "--seed", "5", "--config", fast_cfg,
                     "--out", str(out)]) == 0
        checkpoints.append((out / "checkpoint.npz").read_bytes())
    assert checkpoints[0] == checkpoints[1]


def test_prepare_then_train_on_materialized(tmp_path, fast_cfg):
    prep = tmp_path / "prep"
    assert main(["prepare", "--dataset", SPEC, "--setting", "noise",
                 "--rate", "0.3", "--seed", "5", "--out", str(prep)]) == 0
    run = tmp_path / "run"
    assert main(["train", "--dataset", str(prep), "--profile", "desk",
                 "--config", fast_cfg, "--out", str(run)]) == 0
    assert (run / "report.json").is_file()


# ---------------------------------------------------------------------------
# train artifacts
# ---------------------------------------------------------------------------

def test_train_artifacts_and_report_schema(tmp_path, fast_cfg):
    out = tmp_path / "run"
    assert main(_train_args(out, fast_cfg)) == 0
    report = json.loads((out / "report.json").read_text())
    # frozen schema: the exact top-level field set is part of the contract
    assert set(report) == {"schema_version", "config", "config_hash",
                           "dataset", "results", "final_loss", "artifacts",
                           "wall_time_s"}
    assert report["schema_version"] == 3
    assert report["config"]["alpha"] == 0.1
    assert report["config"]["beta"] == 1.0
    assert report["config"]["tau"] == 0.5
    assert set(report["results"]) == {"acc_mean", "acc_std", "nmi_mean",
                                      "nmi_std", "ari_mean", "ari_std",
                                      "runs"}
    assert set(report["final_loss"]) == {"rec", "ggc", "lwc", "total"}
    assert (out / "checkpoint.npz").is_file()

    lines = (out / "history.csv").read_text().strip().split("\n")
    assert lines[0] == "epoch,L_rec,L_ggc,L_lwc,L_total,acc,nmi,ari"
    assert len(lines) == 1 + 1 + 2      # header + pretrain + train epochs


def test_train_writes_epoch_timings_apart_from_reproducible_artifacts(
        tmp_path, fast_cfg):
    out = tmp_path / "run"
    runs = []
    for _ in range(2):
        assert main(_train_args(out, fast_cfg)) == 0
        report = json.loads((out / "report.json").read_text())
        del report["wall_time_s"]
        timings = json.loads((out / "timings.json").read_text())
        runs.append(((out / "history.csv").read_bytes(), report, timings))
    (hist_a, report_a, timings), (hist_b, report_b, _) = runs
    assert hist_a == hist_b and report_a == report_b
    assert report_a["artifacts"] == {"history_csv": "history.csv",
                                     "checkpoint": "checkpoint.npz"}
    # one entry per history.csv row, in its order
    epochs = [line.split(",")[0]
              for line in hist_a.decode().strip().split("\n")[1:]]
    assert [str(t["epoch"]) for t in timings] == epochs
    assert [t["phase"] for t in timings] == ["pretrain", "train", "train"]
    assert all(set(t) == {"epoch", "phase", "seconds", "eval_seconds"}
               for t in timings)
    assert all(t["seconds"] > 0 for t in timings)


def test_timings_split_off_the_evaluation_of_checkpoint_epochs(tmp_path,
                                                                fast_cfg):
    # eval_every=5 over 3 joint epochs: checkpoints at the first and the last
    cfg = json.loads(Path(fast_cfg).read_text())
    cfg.update(epochs=3, eval_every=5)
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert main(_train_args(out, str(path))) == 0
    timings = json.loads((out / "timings.json").read_text())
    rows = [line.split(",") for line in
            (out / "history.csv").read_text().strip().split("\n")[1:]]
    checkpoints = [row[5] != "" for row in rows]
    assert checkpoints == [False, True, False, True]
    for t, checkpoint in zip(timings, checkpoints):
        assert 0.0 <= t["eval_seconds"] <= t["seconds"]
        assert (t["eval_seconds"] > 0.0) == checkpoint


def test_retrain_protocol_trains_once_per_seed(tmp_path, fast_cfg):
    cfg = json.loads(Path(fast_cfg).read_text())
    cfg.update(eval_protocol="retrain", eval_seeds=2)
    path = tmp_path / "retrain.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert main(_train_args(out, str(path))) == 0
    runs = json.loads((out / "report.json").read_text())["results"]["runs"]
    assert len(runs) == 2
    assert runs[0]["seed"] != runs[1]["seed"]


def test_train_determinism_full_rerun(tmp_path, fast_cfg):
    out = tmp_path / "run"
    args = _train_args(out, fast_cfg)
    assert main(args) == 0
    first_history = (out / "history.csv").read_bytes()
    first_report = json.loads((out / "report.json").read_text())
    assert main(args) == 0
    assert (out / "history.csv").read_bytes() == first_history
    second_report = json.loads((out / "report.json").read_text())
    first_report.pop("wall_time_s")
    second_report.pop("wall_time_s")
    assert first_report == second_report


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_single_cell_equals_train(tmp_path, fast_cfg):
    train_out = tmp_path / "t"
    assert main(_train_args(train_out, fast_cfg, "--setting", "incomplete",
                            "--rate", "0.3")) == 0
    sweep_out = tmp_path / "s"
    assert main(["sweep", "--dataset", SPEC, "--profile", "desk", "--seed",
                 "5", "--config", fast_cfg, "--setting", "incomplete",
                 "--rates", "0.3", "--out", str(sweep_out)]) == 0
    sweep = json.loads((sweep_out / "sweep.json").read_text())
    assert len(sweep["cells"]) == 1
    cell = sweep["cells"][0]
    report = json.loads((train_out / "report.json").read_text())
    assert cell["results"] == report["results"]
    assert cell["final_loss"] == report["final_loss"]
    cell_dir = sweep_out / "cells" / "incomplete_0.3_full"
    assert (cell_dir / "history.csv").read_bytes() == \
        (train_out / "history.csv").read_bytes()


def test_sweep_product_layout(tmp_path, fast_cfg):
    out = tmp_path / "sweep"
    code = main(["sweep", "--dataset", SPEC, "--profile", "desk", "--seed",
                 "7", "--config", fast_cfg, "--setting", "incomplete",
                 "--rates", "0.1,0.5", "--out", str(out)])
    assert code == 0
    sweep = json.loads((out / "sweep.json").read_text())
    assert len(sweep["cells"]) == 2
    lines = (out / "sweep.csv").read_text().strip().split("\n")
    assert lines[0] == ("setting,rate,ablation,acc_mean,acc_std,nmi_mean,"
                        "nmi_std,ari_mean,ari_std,config_hash,error")
    assert len(lines) == 3
    rates = [float(l.split(",")[1]) for l in lines[1:]]
    assert rates == [0.1, 0.5]


def test_sweep_cells_reproducible(tmp_path, fast_cfg):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    args = ["sweep", "--dataset", SPEC, "--profile", "desk", "--seed", "9",
            "--config", fast_cfg, "--setting", "noise", "--rates", "0.3,0.7"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    a = json.loads((out1 / "sweep.json").read_text())
    b = json.loads((out2 / "sweep.json").read_text())
    for ca, cb in zip(a["cells"], b["cells"]):
        assert ca["config_hash"] == cb["config_hash"]
        assert ca["results"] == cb["results"]


def test_parallel_sweep_equals_the_serial_one(tmp_path, fast_cfg,
                                              monkeypatch):
    pools = []

    class Pool(cli.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
    args = ["sweep", "--dataset", SPEC, "--profile", "desk", "--seed", "9",
            "--config", fast_cfg, "--setting", "noise", "--rates", "0.3,0.7"]
    runs = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("GLC_THREADS", threads)
        runs[threads] = tmp_path / f"t{threads}"
        assert main(args + ["--out", str(runs[threads])]) == 0
    assert pools == [2]

    def report(path):
        result = json.loads(path.read_text())
        del result["wall_time_s"], result["config"]["out"]
        return result

    cells = sorted(p.name for p in (runs["1"] / "cells").iterdir())
    assert len(cells) == 2
    assert sorted(p.name for p in (runs["2"] / "cells").iterdir()) == cells
    for cell in cells:
        serial = runs["1"] / "cells" / cell
        parallel = runs["2"] / "cells" / cell
        assert report(parallel / "report.json") == \
            report(serial / "report.json")
        for name in ("history.csv", "checkpoint.npz"):
            assert (parallel / name).read_bytes() == \
                (serial / name).read_bytes()


# ---------------------------------------------------------------------------
# ablation
# ---------------------------------------------------------------------------

def test_ablate_rows_and_selectors(tmp_path, fast_cfg):
    out = tmp_path / "ab"
    code = main(["ablate", "--dataset", SPEC, "--profile", "desk", "--seed",
                 "11", "--config", fast_cfg, "--rate", "0.3",
                 "--out", str(out)])
    assert code == 0
    table = json.loads((out / "ablate.json").read_text())
    assert len(table["cells"]) == 9      # 3 settings x 3 ablation rows
    by_key = {(c["config"]["setting"], c["config"]["ablation"]): c
              for c in table["cells"]}
    for setting in ("incomplete", "noise", "combined"):
        rec = by_key[(setting, "rec")]
        assert rec["final_loss"]["ggc"] == 0.0
        assert rec["final_loss"]["lwc"] == 0.0
        mid = by_key[(setting, "rec+ggc")]
        assert mid["final_loss"]["ggc"] != 0.0
        assert mid["final_loss"]["lwc"] == 0.0
        full = by_key[(setting, "full")]
        assert full["final_loss"]["ggc"] != 0.0
        assert full["final_loss"]["lwc"] != 0.0

    lines = (out / "ablate.csv").read_text().strip().split("\n")
    assert lines[0] == ("ablation,acc_incomplete,nmi_incomplete,acc_noise,"
                        "nmi_noise,acc_combined,nmi_combined")
    assert [l.split(",")[0] for l in lines[1:]] == ["rec", "rec+ggc", "full"]


def test_ablate_rows_share_data_and_batches(tmp_path, fast_cfg):
    # all three rows must see identical corrupted data and batch order, so
    # their pretrain-phase losses coincide (pretraining ignores alpha/beta)
    out = tmp_path / "ab"
    assert main(["ablate", "--dataset", SPEC, "--profile", "desk", "--seed",
                 "13", "--config", fast_cfg, "--rate", "0.3",
                 "--out", str(out)]) == 0
    first_lines = {}
    for row in ("rec", "rec+ggc", "full"):
        hist = (out / "cells" / f"incomplete_0.3_{row}" / "history.csv")
        first_lines[row] = hist.read_text().strip().split("\n")[1]
    assert first_lines["rec"] == first_lines["rec+ggc"] == first_lines["full"]


def test_report_echoes_the_resolved_config(tmp_path, fast_cfg, capsys):
    # the profile's widths left implicit or written out are one run
    widths = {"hidden": [64, 64], "latent_dim": 32, "head_dim": 16}
    fast = json.loads(Path(fast_cfg).read_text())
    runs = []
    for name, extra in (("implicit", {}), ("explicit", widths)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(fast | extra))
        out = tmp_path / name
        assert main(_train_args(out, str(path))) == 0
        printed = json.loads(capsys.readouterr().out.splitlines()[0])
        report = json.loads((out / "report.json").read_text())
        assert printed == report["config"]
        runs.append((report, (out / "checkpoint.npz").read_bytes()))
    (implicit, ckpt_a), (explicit, ckpt_b) = runs
    assert ckpt_a == ckpt_b
    assert implicit["config_hash"] == explicit["config_hash"]
    assert {k: implicit["config"][k] for k in widths} == widths
    resolved = asdict(Config.from_dict(
        fast | {"dataset": SPEC, "profile": "desk", "seed": 5,
                "out": str(tmp_path / "implicit")}).resolved())
    for key in ("rates", "settings", "ablations"):
        del resolved[key]
    assert implicit["config"] == json.loads(json.dumps(resolved))


def test_train_skips_the_global_term_when_a_batch_leaves_no_negative(
        tmp_path, caplog):
    # 259 samples in batches of 258: the last batch stacks 3 feature rows,
    # and 60% of their 2 candidates are both of them
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"pretrain_epochs": 0, "epochs": 1}))
    with caplog.at_level(logging.WARNING, logger="glc.pipeline"):
        assert main(["train", "--dataset",
                     "synthetic:n=259,v=3,k=7,dims=4|4|4", "--profile",
                     "desk", "--pos", "60", "--neg", "40", "--batch", "258",
                     "--config", str(path),
                     "--out", str(tmp_path / "run")]) == 0
    assert "3 stacked features leave no negative" in caplog.text


def test_cell_config_round_trip():
    cfg = load_config(type("A", (), {"config": None, "dataset": SPEC})())
    cell = resolved_cell_config(cfg, "noise", 0.5, "rec+ggc")
    assert cell["setting"] == "noise"
    assert cell["rate"] == 0.5
    assert cell["ablation"] == "rec+ggc"
    assert "rates" not in cell


def test_run_cell_takes_a_dict_of_config_keys():
    # perfbench/child.py calls run_cell with such a dict; it is checked too
    cfg = dict(DEFAULTS) | {"dataset": SPEC, "profile": "desk",
                            "pretrain_epochs": 1, "epochs": 2,
                            "eval_seeds": 1, "kmeans_restarts": 2, "batch": 8}
    result = run_cell(cfg, "combined", 0.3, "full")
    assert result["config"]["setting"] == "combined"
    assert result["config"]["rate"] == 0.3
    assert len(result["results"]["runs"]) == 1
    with pytest.raises(ConfigError):
        run_cell(cfg | {"batch": "8"}, "combined", 0.3, "full")
