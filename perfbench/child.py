"""The measured process: runs one round of a glc workload and records it.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH`` and the
BLAS thread count fixed in its environment.  Modes:

* ``run``    one round of the workload, untraced;
* ``trace``  the same round with every layer boundary spanned;
* ``setup``  set-up only: exits at the first training step, or, on the
             workloads with ``probe_warmup``, at the first joint-phase
             step, after the warm-up.

It writes one JSON result to ``--result``.  The probes installed in every
mode are one wrapper call per cell, per phase and per evaluation; none sits
inside a training step.
"""

import argparse
import json
import os
import sys
import time
import traceback

import glc.cli
import glc.pipeline

from workloads import MASTER_SEED, RATE, WORKLOADS


class Recorder:
    """Marks and per-cell records, filled by wrappers around glc functions."""

    def __init__(self):
        self.first_step = None
        self.cells = []
        self._evaluating = None

    def cell(self, run_cell):
        def probe(cfg, setting, rate, ablation, out_dir=None):
            record = {"row": ablation, "ok": False, "epochs": []}
            self.cells.append(record)
            try:
                result = run_cell(cfg, setting, rate, ablation,
                                  out_dir=out_dir)
            except Exception as err:
                record["error"] = f"{type(err).__name__}: {err}"
                raise
            record["runs"] = result["results"]["runs"]
            record["ok"] = True
            return result
        return probe

    def train(self, train, on_start=None):
        def probe(model, dataset, config, history=None):
            if on_start is not None:
                on_start(history)
            model, history = train(model, dataset, config, history=history)
            if self.cells:
                self.cells[-1]["epochs"] = [
                    [r.phase, r.seconds, r.rec, r.ggc, r.lwc, r.total]
                    for r in history.records]
            return model, history
        return probe

    def evaluate(self, evaluate):
        def probe(model, dataset, *args, **kwargs):
            self._evaluating = {}
            report = evaluate(model, dataset, *args, **kwargs)
            if self.cells:
                self.cells[-1].update(labels=dataset.labels.tolist(),
                                      pred=self._evaluating.get("pred"),
                                      pred_seed=self._evaluating.get("seed"))
            self._evaluating = None
            return report
        return probe

    def kmeans(self, kmeans):
        def probe(features, n_clusters, *args, **kwargs):
            labels = kmeans(features, n_clusters, *args, **kwargs)
            if self._evaluating is not None and not self._evaluating:
                self._evaluating.update(pred=labels.tolist(),
                                        seed=int(kwargs["seed"]))
            return labels
        return probe

    def first_batches(self, iter_epoch, on_first=None):
        def probe(*args, **kwargs):
            if self.first_step is None:
                self.first_step = time.monotonic()
                if on_first is not None:
                    on_first()
            return iter_epoch(*args, **kwargs)
        return probe


def install(recorder, on_first=None, on_joint=None):
    glc.cli.run_cell = recorder.cell(glc.cli.run_cell)
    glc.cli.train = recorder.train(glc.cli.train, on_joint)
    glc.cli.evaluate = recorder.evaluate(glc.cli.evaluate)
    glc.pipeline.kmeans = recorder.kmeans(glc.pipeline.kmeans)
    glc.pipeline.iter_epoch = recorder.first_batches(glc.pipeline.iter_epoch,
                                                     on_first)


def attempt(calls):
    """Run each call; one that raises is reported and the rest still run."""
    for call in calls:
        try:
            call()
        except Exception:
            traceback.print_exc()


def workload_calls(name, out_root):
    """The calls of one round: one CLI run, or one call per cell."""
    w = WORKLOADS[name]
    spec = w["spec"]
    if w["via_cli"]:
        config = os.path.join(out_root, "config.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(dict(w["config"], settings=[w["setting"]]), fh)
        argv = ["ablate", "--config", config, "--dataset", spec,
                "--rate", str(RATE), "--seed", str(MASTER_SEED),
                "--out", os.path.join(out_root, "ablate")]
        return [lambda: glc.cli.main(argv)]
    cfg = dict(glc.cli.DEFAULTS)
    cfg.update(w["config"], dataset=spec, seed=MASTER_SEED)
    return [lambda row=row: glc.cli.run_cell(
                cfg, w["setting"], RATE, row,
                out_dir=os.path.join(out_root, "cell"))
            for row in w["rows"]]


def environment(blas_threads_env):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": blas_threads_env,
        "blas_threads_seen": _openblas_threads(),
        "glc_threads": os.environ.get("GLC_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--mode", choices=("run", "trace", "setup"),
                        required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    def write(payload):
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)

    recorder = Recorder()

    def setup_done(history=None):
        warmup = [r.seconds for r in history.records] if history else []
        write({"first_step": recorder.first_step, "warmup": warmup})
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(0)

    tracer = None
    if args.mode == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    if args.mode != "setup":
        install(recorder)
    elif WORKLOADS[args.workload]["probe_warmup"]:
        install(recorder, on_joint=setup_done)
    else:
        install(recorder, on_first=setup_done)

    attempt(workload_calls(args.workload, args.out))
    end = time.monotonic()

    payload = {"first_step": recorder.first_step, "end": end,
               "cells": recorder.cells,
               "env": environment(os.environ.get("OPENBLAS_NUM_THREADS"))}
    if tracer is not None:
        trace_path = os.path.join(args.out, "trace.json")
        tracer.dump(trace_path)
        payload["trace"] = trace_path
    write(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
