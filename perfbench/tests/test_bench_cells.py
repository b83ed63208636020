"""Operation counting and span sums of the benchmark's harness."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import child  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _fake_cell(cfg, setting, rate, ablation, out_dir=None):
    if ablation == "rec+ggc":
        raise ValueError("broken row")
    return {"results": {"runs": [{"seed": 1, "acc": 1.0, "nmi": 1.0,
                                  "ari": 1.0}]}}


def test_a_raising_cell_is_a_failed_operation_and_the_run_goes_on():
    recorder = child.Recorder()
    cell = recorder.cell(_fake_cell)
    rows = ("rec", "rec+ggc", "full")
    child.attempt([lambda row=row: cell({}, "noise", 0.3, row)
                   for row in rows])
    assert [c["ok"] for c in recorder.cells] == [True, False, True]
    assert "ValueError: broken row" in recorder.cells[1]["error"]
    result = {"cells": recorder.cells}
    assert run.operation_counts("ablate-noise", [result]) == (3, 1)


def test_a_round_that_stops_early_counts_its_missing_cells():
    results = []
    for _ in range(2):
        recorder = child.Recorder()
        cell = recorder.cell(_fake_cell)

        def round_():
            for row in ("rec", "rec+ggc", "full"):
                cell({}, "noise", 0.3, row)      # raises at rec+ggc

        child.attempt([round_])
        results.append({"cells": recorder.cells})
    assert run.operation_counts("ablate-noise", results) == (6, 4)


def test_failed_cells_are_not_checked():
    cells = [{"row": "full", "ok": False, "epochs": []}]
    assert run.cell_problems("desk-combined", cells) == []


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_and_step_sums():
    clock = _Clock()
    tracer = tracing.Tracer(clock=clock)
    cell = tracer.open("cli.cell", {"row": "full", "params": 10})
    train = tracer.open("pipeline.train")
    for batch_rows, extra in ((4, 0.0), (4, 2.0), (1, 0.0)):
        step = tracer.open("pipeline.step", {"phase": "train", "cell": cell,
                                             "batch": batch_rows})
        clock.now += 1.0
        fwd = tracer.open("model.forward")
        clock.now += 2.0 + extra
        tracer.close(fwd)
        sel = tracer.open("graphs.select")
        clock.now += 3.0
        tracer.close(sel)
        tracer.close(step)
    tracer.close(train)
    evaluation = tracer.open("pipeline.evaluate")
    for _ in range(2):
        km = tracer.open("pipeline.kmeans")
        clock.now += 0.5
        tracer.close(km)
    tracer.close(evaluation)
    tracer.close(cell)

    out = tracing.per_layer([tracer.spans])
    # the 1-row tail step is left out; medians of the two full steps
    assert out["model.forward_ms"] == 3000.0
    assert out["graphs.select_ms"] == 3000.0
    assert out["pipeline.step_ms"] == 7000.0
    assert out["pipeline.step_self_ms"] == 1000.0
    assert out["pipeline.kmeans_ms"] == 1000.0
    assert out["pipeline.kmeans_calls"] == 2
    assert out["nn.params"] == 10
    assert set(out) | {"trace.overhead_pct"} == set(tracing.UNITS)


def test_close_ends_spans_left_open_inside():
    clock = _Clock()
    tracer = tracing.Tracer(clock=clock)
    outer = tracer.open("outer")
    tracer.open("inner")
    clock.now = 1.0
    tracer.close(outer)
    assert sorted(s[2] for s in tracer.spans) == ["inner", "outer"]
    assert all(s[4] == 1.0 for s in tracer.spans)
