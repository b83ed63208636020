"""Span tracing of a glc run from outside the package, and its per-layer sums.

``install`` replaces public functions under the names the calling module
binds (``glc.pipeline`` imports ``select_pairs`` by name, so
``glc.pipeline.select_pairs`` is the name wrapped).  Spans stay in memory
and are written once, at the end.  A training step is the interval between
two batches of ``iter_epoch``: it covers the batch fetch and the loop body
of ``_epoch_pass``.  Self time is a span minus its direct children.
"""

import json
import statistics
import time
from collections import defaultdict

from checks import selection_problems

MAX_PROBLEMS = 20


class Tracer:
    """Nested spans ``[id, parent, name, start, end, attrs]`` in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.problems = []
        self.problem_count = 0
        self._stack = []
        self._next_id = 0

    def open(self, name, attrs=None):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([sid, parent, name, self.clock(), attrs])
        return sid

    def close(self, sid, keep=True):
        """End span ``sid`` and any span left open inside it."""
        end = self.clock()
        while self._stack:
            entry = self._stack.pop()
            if keep or entry[0] != sid:
                self.spans.append(entry[:4] + [end, entry[4]])
            if entry[0] == sid:
                return

    def innermost(self, name):
        """``(id, attrs)`` of the innermost open span called ``name``."""
        for entry in reversed(self._stack):
            if entry[2] == name:
                if entry[4] is None:
                    entry[4] = {}
                return entry[0], entry[4]
        return None, None

    def problem(self, text):
        self.problem_count += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(text)

    def wrap(self, owner, attr, name, attrs=None, after=None):
        """Replace ``owner.attr`` by a spanned call; ``after`` runs after."""
        inner = getattr(owner, attr)

        def traced(*args, **kwargs):
            sid = self.open(name, attrs(args, kwargs) if attrs else None)
            try:
                out = inner(*args, **kwargs)
            finally:
                self.close(sid)
            if after is not None:
                after(args, kwargs, out)
            return out

        setattr(owner, attr, traced)

    def wrap_batches(self, owner, attr):
        """Open a step span per batch of the generator ``owner.attr``."""
        inner = getattr(owner, attr)

        def traced(*args, **kwargs):
            batches = inner(*args, **kwargs)
            in_train, _ = self.innermost("pipeline.train")
            phase = "pretrain" if in_train is None else "train"
            cell, _ = self.innermost("cli.cell")
            while True:
                attrs = {"phase": phase, "cell": cell}
                step = self.open("pipeline.step", attrs)
                fetch = self.open("data.batch")
                try:
                    batch = next(batches)
                except StopIteration:
                    self.close(step, keep=False)
                    return
                self.close(fetch)
                attrs["batch"] = batch.size
                try:
                    yield batch
                finally:
                    self.close(step)

        setattr(owner, attr, traced)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "problems": self.problems,
                       "problem_count": self.problem_count}, fh)


def install(tracer):
    """Trace every layer boundary of a glc cell."""
    import glc.cli as cli
    import glc.pipeline as pipeline
    from glc.model import model_parameters

    def step_counts(**counts):
        _, attrs = tracer.innermost("pipeline.step")
        if attrs is not None:
            attrs.update(counts)

    def after_build_model(args, kwargs, model):
        _, cell = tracer.innermost("cli.cell")
        if cell is not None:
            cell["params"] = sum(p.data.size for p in model_parameters(model))

    def after_select(args, kwargs, pairs):
        graph, pos_percent, neg_percent = args[:3]
        for text in selection_problems(graph.sims.data, pairs.positives,
                                       pairs.negatives, pos_percent,
                                       neg_percent):
            tracer.problem(text)
        step_counts(stacked_rows=graph.size,
                    pos_per_anchor=pairs.positives.shape[1],
                    neg_per_anchor=pairs.negatives.shape[1])

    def after_lwc(args, kwargs, out):
        rows = [len(ru) for ru, _ in args[1].values()]
        step_counts(co_rows=sum(rows),
                    lwc_kernel_entries=sum(3 * r * r for r in rows if r >= 2))

    def after_backward(args, kwargs, out):
        step_counts(tape_nodes=len(args[0]._nodes))

    tracer.wrap(cli, "run_cell", "cli.cell",
                attrs=lambda args, kwargs: {"row": args[3]})
    tracer.wrap(cli, "resolve_dataset", "data.setup")
    tracer.wrap(cli, "corrupt_dataset", "data.setup")
    tracer.wrap(cli, "build_model", "model.init", after=after_build_model)
    tracer.wrap(cli, "pretrain", "pipeline.pretrain")
    tracer.wrap(cli, "train", "pipeline.train")
    tracer.wrap(cli, "evaluate", "pipeline.evaluate")
    tracer.wrap(cli, "save_checkpoint", "cli.artifacts")
    tracer.wrap(cli, "_write_json", "cli.artifacts")
    tracer.wrap(pipeline.TrainHistory, "write_csv", "cli.artifacts")
    tracer.wrap_batches(pipeline, "iter_epoch")
    tracer.wrap(pipeline, "forward_views", "model.forward")
    tracer.wrap(pipeline, "reconstruction_loss", "model.rec")
    tracer.wrap(pipeline, "build_global_graph", "graphs.build")
    tracer.wrap(pipeline, "select_pairs", "graphs.select", after=after_select)
    tracer.wrap(pipeline, "ggc_loss", "graphs.ggc")
    tracer.wrap(pipeline, "lwc_total", "graphs.lwc", after=after_lwc)
    tracer.wrap(pipeline, "backward", "nn.backward", after=after_backward)
    tracer.wrap(pipeline, "adam_step", "nn.adam")
    tracer.wrap(pipeline, "fuse_features", "pipeline.fuse")
    tracer.wrap(pipeline, "kmeans", "pipeline.kmeans")
    for name in ("accuracy", "nmi", "ari"):
        tracer.wrap(pipeline, name, "metrics.score")


# names of the per-step sums: the direct children of a joint-phase step
STEP_LAYERS = {
    "data.batch_ms": "data.batch",
    "model.forward_ms": "model.forward",
    "model.rec_ms": "model.rec",
    "nn.backward_ms": "nn.backward",
    "nn.adam_ms": "nn.adam",
    "graphs.build_ms": "graphs.build",
    "graphs.select_ms": "graphs.select",
    "graphs.ggc_ms": "graphs.ggc",
    "graphs.lwc_ms": "graphs.lwc",
}
STEP_COUNTS = {
    "nn.tape_nodes": "tape_nodes",
    "graphs.stacked_rows": "stacked_rows",
    "graphs.pos_per_anchor": "pos_per_anchor",
    "graphs.neg_per_anchor": "neg_per_anchor",
    "graphs.co_rows": "co_rows",
    "graphs.lwc_kernel_entries": "lwc_kernel_entries",
}
EVAL_LAYERS = {
    "pipeline.fuse_ms": "pipeline.fuse",
    "pipeline.kmeans_ms": "pipeline.kmeans",
    "metrics.score_ms": "metrics.score",
}
ROUND_LAYERS = {
    "data.setup_ms": "data.setup",
    "cli.artifacts_ms": "cli.artifacts",
}
UNITS = dict(
    {m: "ms" for m in (*STEP_LAYERS, *EVAL_LAYERS, *ROUND_LAYERS,
                       "pipeline.step_ms", "pipeline.step_self_ms")},
    **{m: "count" for m in (*STEP_COUNTS, "pipeline.kmeans_calls",
                            "nn.params")},
    **{"trace.overhead_pct": "%"})


def per_layer(span_lists):
    """Per-layer figures of a traced run, one span list per round.

    Step figures are medians over the full-size joint-phase steps of
    ``full`` cells (an epoch's last, smaller batch is left out), evaluation
    figures medians over those cells' evaluations, and set-up and artifact
    figures totals per round.
    """
    # span ids are unique within a round; key everything by (round, id)
    child_time = defaultdict(float)      # (round, parent, name) -> seconds
    child_calls = defaultdict(int)
    all_children = defaultdict(float)    # (round, parent) -> seconds
    round_time = defaultdict(float)
    full_cells, steps, evals = {}, [], []
    for r, spans in enumerate(span_lists):
        for sid, parent, name, start, end, attrs in spans:
            child_time[(r, parent, name)] += end - start
            child_calls[(r, parent, name)] += 1
            all_children[(r, parent)] += end - start
            round_time[name] += end - start
            if name == "cli.cell" and attrs["row"] == "full":
                full_cells[(r, sid)] = attrs
        for sid, parent, name, start, end, attrs in spans:
            if (name == "pipeline.step" and attrs["phase"] == "train"
                    and (r, attrs["cell"]) in full_cells):
                steps.append(((r, sid), end - start, attrs))
            elif name == "pipeline.evaluate" and (r, parent) in full_cells:
                evals.append((r, sid))
    full_size = max(attrs["batch"] for _, _, attrs in steps)
    steps = [s for s in steps if s[2]["batch"] == full_size]
    ms = 1000.0
    out = {}
    for metric, name in STEP_LAYERS.items():
        out[metric] = statistics.median(child_time[(*key, name)] * ms
                                        for key, _, _ in steps)
    out["pipeline.step_ms"] = statistics.median(t * ms for _, t, _ in steps)
    out["pipeline.step_self_ms"] = statistics.median(
        (t - all_children[key]) * ms for key, t, _ in steps)
    for metric, count in STEP_COUNTS.items():
        out[metric] = statistics.fmean(a.get(count, 0) for _, _, a in steps)
    for metric, name in EVAL_LAYERS.items():
        out[metric] = statistics.median(child_time[(*key, name)] * ms
                                        for key in evals)
    out["pipeline.kmeans_calls"] = statistics.median(
        child_calls[(*key, "pipeline.kmeans")] for key in evals)
    for metric, name in ROUND_LAYERS.items():
        out[metric] = round_time[name] * ms / len(span_lists)
    out["nn.params"] = next(iter(full_cells.values()))["params"]
    return out
