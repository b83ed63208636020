"""Benchmark of glc: one workload per call, measured from outside the package.

    python3 perfbench/run.py --workload desk-combined --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program runs in child processes
(``child.py``) with ``src`` on ``PYTHONPATH``, one BLAS thread and
``GLC_THREADS`` unset, so cells run serially.  With ``--trace 0`` it prints
the end-to-end metrics of an untraced run; with ``--trace 1`` it runs the
workload untraced and then traced, and prints the per-layer metrics and the
tracing overhead.  Every run checks the program's outputs.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Outputs and traces go to ``.perfbench_out/``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, rounds_for  # noqa: E402

OUT_DIR = ".perfbench_out"
BLAS_THREADS = 1
# set-up is timed this many times per run (the measured processes plus
# set-up-only ones), and the median reported
SETUP_SAMPLES = 5
# a run must end well inside the 180 s a caller allows
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "pretrain_samples_per_s": "samples/s",
    "train_samples_per_s": "samples/s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env():
    env = dict(os.environ)
    env.pop("GLC_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    # the same string hashes in every process, so set and dict layouts (and
    # with them allocation and garbage-collection timing) repeat
    env["PYTHONHASHSEED"] = "0"
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def spawn(args, mode, work_dir, tag, deadline):
    """Run child.py once; returns (result, spawn time, peak RSS in MB)."""
    out = os.path.join(work_dir, tag)
    os.makedirs(out, exist_ok=True)
    result_path = os.path.join(out, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload,
           "--mode", mode, "--out", out, "--result", result_path]
    with open(os.path.join(out, "log.txt"), "w", encoding="utf-8") as log:
        started = time.monotonic()
        proc = subprocess.Popen(cmd, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        status, usage = _wait(proc, deadline)
    if status != 0 or not os.path.exists(result_path):
        raise BenchError(f"{mode} process exited with {status}; "
                         f"see {os.path.join(out, 'log.txt')}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    if result.get("first_step") is None:
        raise BenchError(f"{mode} process never reached a training step")
    return result, started, usage.ru_maxrss / 1024.0


def _wait(proc, deadline):
    """Reap ``proc`` with its resource usage; kill it past ``deadline``."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise BenchError("the measured process ran past the deadline")
        time.sleep(0.02)


def cell_problems(workload, cells):
    """Checks on every cell of a round that completed, and the row order."""
    problems = []
    for i, cell in enumerate(cells):
        if not cell["ok"]:
            continue
        where = f"cell {i} ({cell['row']})"
        problems += [f"{where}: {p}" for p in
                     checks.history_problems(cell["epochs"])]
        first = cell["runs"][0]
        if cell.get("pred") is None or cell["pred_seed"] != first["seed"]:
            problems.append(f"{where}: no predictions for evaluation seed "
                            f"{first['seed']}")
            continue
        problems += [f"{where}: {p}" for p in
                     checks.score_problems(cell["pred"], cell["labels"],
                                           first)]
        k = len(set(cell["labels"]))
        acc = statistics.fmean(r["acc"] for r in cell["runs"])
        if cell["row"] == "full" and not acc >= 1.0 / k + checks.CHANCE_MARGIN:
            problems.append(f"{where}: ACC {acc:.4f} is not clearly above "
                            f"chance 1/{k}")
    rows = WORKLOADS[workload]["rows"]
    if len(rows) > 1 and [c["row"] for c in cells if c["ok"]] == list(rows):
        problems += checks.ordering_problems({
            c["row"]: statistics.fmean(r["acc"] for r in c["runs"])
            for c in cells})
    return problems


def operation_counts(workload, results):
    """Cells attempted and failed over ``results``, one per round."""
    per_round = len(WORKLOADS[workload]["rows"])
    attempted = per_round * len(results)
    return attempted, attempted - sum(1 for r in results for c in r["cells"]
                                      if c["ok"])


def run_span(results):
    """Seconds from first training step to last report, over all rounds."""
    return sum(r["end"] - r["first_step"] for r in results)


def end_to_end(results, probes, setups, rss_mb):
    cells = [c for r in results for c in r["cells"] if c["ok"]]
    full = [c for c in cells if c["row"] == "full"]
    n = len(cells[0]["labels"])
    warmup = [e[1] for c in cells for e in c["epochs"] if e[0] == "pretrain"]
    warmup += [t for p in probes for t in p["warmup"]]
    joint = [e[1] for c in full for e in c["epochs"] if e[0] == "train"]
    return {
        "setup_s": statistics.median(setups),
        "run_s": run_span(results),
        "pretrain_samples_per_s": n / statistics.median(warmup),
        "train_samples_per_s": n / statistics.median(joint),
        "peak_rss_mb": rss_mb,
    }


def measure(args, work_dir, deadline):
    """Run the workload, one process per round; returns figures and checks."""
    rounds = rounds_for(args.workload, args.seconds)

    def rounds_in(mode):
        return [spawn(args, mode, work_dir, f"{mode}{r}", deadline)
                for r in range(rounds)]

    problems = []
    if args.trace:
        base = [result for result, _, _ in rounds_in("run")]
        results = [result for result, _, _ in rounds_in("trace")]
        traces = []
        for result in results:
            with open(result["trace"], encoding="utf-8") as fh:
                traces.append(json.load(fh))
        metrics = tracing.per_layer([t["spans"] for t in traces])
        metrics["trace.overhead_pct"] = (
            100.0 * (run_span(results) - run_span(base)) / run_span(base))
        for trace in traces:
            problems += [f"pair selection: {p}" for p in trace["problems"]]
            if trace["problem_count"] > len(trace["problems"]):
                problems.append(f"pair selection: {trace['problem_count']} "
                                "problems in all")
        kept = os.path.join(OUT_DIR, "traces",
                            f"{args.workload}-seed{args.seed}.json")
        os.makedirs(os.path.dirname(kept), exist_ok=True)
        with open(kept, "w", encoding="utf-8") as fh:
            json.dump(traces, fh)
        results = base + results
    else:
        runs = rounds_in("run")
        results = [result for result, _, _ in runs]
        setups = [result["first_step"] - started
                  for result, started, _ in runs]
        probes = []
        for i in range(SETUP_SAMPLES - len(setups)):
            probe, started, _ = spawn(args, "setup", work_dir, f"setup{i}",
                                      deadline)
            setups.append(probe["first_step"] - started)
            probes.append(probe)
        metrics = end_to_end(results, probes, setups,
                             max(rss for _, _, rss in runs))
    for result in results:
        problems += cell_problems(args.workload, result["cells"])
    attempted, failed = operation_counts(args.workload, results)
    return metrics, results[0]["env"], problems, attempted, failed, rounds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    if not os.path.isfile(os.path.join("src", "glc", "__init__.py")):
        print("run from the root of a glc checkout: src/glc is missing",
              file=sys.stderr)
        return 2
    work_dir = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-"
                                     f"{os.getpid()}")
    try:
        metrics, env, problems, attempted, failed, rounds = measure(
            args, work_dir, deadline)
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    units = END_TO_END_UNITS if not args.trace else tracing.UNITS
    print(f"workload {args.workload}  seed {args.seed}  rounds {rounds}  "
          f"data {WORKLOADS[args.workload]['spec']}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:28s} {value:14.6f} {units[name]}")
    print(f"attempted {attempted}  failed {failed}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
