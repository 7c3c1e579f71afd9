"""Tests of the benchmark itself: ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import harness  # noqa: E402
import synth  # noqa: E402
import tracer as trc  # noqa: E402
from xlinear import cli, training  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

# Share of tensor.backward_ms that the per-stage backward spans must cover;
# the rest is the walk's own loop over skipped nodes and stage changes.
BWD_COVERAGE = 0.9


def _traced_training(tmp_path, size):
    run = harness.Run("train_m", 3, 0.0, True, str(tmp_path), size)
    run.prepare()
    t = trc.Tracer()
    with t.active():
        training.train(run.cfg, run.run_cfg.train, run.ds, echo=False)
    return t


def test_inputs_are_seeded_and_tail_is_the_last_rows(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    full_a, tail_a = synth.write_inputs(str(a), 300, 16, seed=5)
    full_b, _ = synth.write_inputs(str(b), 300, 16, seed=5)
    assert open(full_a, "rb").read() == open(full_b, "rb").read()
    synth.write_inputs(str(b), 300, 16, seed=6)
    assert open(full_a, "rb").read() != open(full_b, "rb").read()
    full_lines = open(full_a).read().splitlines()
    tail_lines = open(tail_a).read().splitlines()
    assert full_lines[0].split(",") == ["date", *synth.COLUMNS]
    assert tail_lines[0] == full_lines[0] and tail_lines[1:] == full_lines[-16:]


def test_stage_tape_nodes_add_up_to_tape_length(tmp_path):
    t = _traced_training(tmp_path, harness.TINY)
    assert t.tape_lengths and t.counts["nodes.glue"] == 0
    staged = sum(t.counts[f"nodes.{s}"] for s in (*trc.STAGES, "loss"))
    assert staged == sum(t.tape_lengths)


def test_stage_backward_times_add_up_to_backward(tmp_path):
    size = harness.TINY.__class__(**{**harness.TINY.__dict__, "d_model": 64, "t_ff": 128,
                                     "c_ff": 64, "batch_size": 64})
    m = trc.layer_metrics(_traced_training(tmp_path, size), 0)
    stages = sum(m[f"model.{s}.bwd_ms"] for s in trc.STAGES) + m["training.loss.bwd_ms"]
    ops = sum(m[f"tensor.bwd.{op}_ms"] for op in trc.BWD_OPS)
    assert BWD_COVERAGE * m["tensor.backward_ms"] <= stages <= m["tensor.backward_ms"]
    assert ops <= stages


def test_tail_leaves_ten_samples_above():
    assert harness.tail(range(1, 101)) == (90, 90.0, 100)
    assert harness.tail([3.0] * 5) == (3.0, 100.0, 5)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_passes_its_checks(tmp_path, workload):
    plain = harness.Run(workload, 1, 0.0, False, str(tmp_path / "plain"), harness.TINY)
    traced = harness.Run(workload, 1, 0.0, True, str(tmp_path / "traced"), harness.TINY)
    for run in (plain, traced):
        os.makedirs(run.work)
        run.execute()
        assert run.failures == []
    e2e, latency = plain.end_to_end()
    assert sorted(e2e) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(v is not None and v > 0 for v in e2e.values())
    assert latency["predict_win"]["samples"] == plain.cycles >= harness.MIN_CYCLES
    trains = sum(map(len, plain.train_times.values()))
    assert trains == -(-plain.cycles // harness.WORKLOADS[workload].cycles_per_train)
    layers = traced.per_layer()
    assert sorted(layers) == sorted(m["name"] for m in SPEC["per_layer"])
    assert traced.final_val_mse == plain.final_val_mse  # tracing keeps the trajectory


def _nan_cell(cells):
    cells[0][-1] = "nan"


def _scaled(cells):
    for row in cells:
        row[1:] = [repr(1.01 * float(c)) for c in row[1:]]


@pytest.mark.parametrize("corrupt, inputs, failing", [
    (_nan_cell, ("series_tail.csv",), {"predict_win"}),
    # wrong on both inputs alike, as a de-scaling or window-choice bug would be
    (_scaled, ("series_tail.csv", "series_full.csv"), {"predict_hist", "predict_win"}),
])
def test_a_bad_forecast_counts_as_failed(tmp_path, monkeypatch, corrupt, inputs, failing):
    real_main = cli.main

    def corrupting_main(argv):
        code = real_main(argv)
        if argv[0] == "predict" and os.path.basename(argv[argv.index("--input") + 1]) in inputs:
            path = os.path.join(argv[argv.index("--out-dir") + 1], "forecast.csv")
            lines = open(path).read().splitlines()
            cells = [line.split(",") for line in lines[1:]]
            corrupt(cells)
            open(path, "w").write("\n".join([lines[0], *map(",".join, cells)]) + "\n")
        return code

    monkeypatch.setattr(cli, "main", corrupting_main)
    run = harness.Run("infer", 1, 0.0, False, str(tmp_path), harness.TINY)
    run.execute()
    ops = {op for op, _ in run.failures}
    cycles = run.cycles + 1  # with the warm-up cycle
    assert ops == failing and len(run.failures) == len(failing) * cycles
    assert run.attempted == 1 + len(run.train_times[False]) + len(harness.CALLS) * cycles


def test_an_unknown_tape_op_stops_the_traced_run():
    def pull(g):
        pass

    with pytest.raises(LookupError, match="no tensor.bwd metric"):
        trc.op_of_pull(pull)


def test_run_without_the_library_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "infer",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_forecast_reader_rejects_short_files(tmp_path):
    path = tmp_path / "forecast.csv"
    path.write_text("step,OT\n1,2.0\n")
    cells, reason = harness._read_forecast(str(path), ("OT",), 2)
    assert cells is None and "rows" in reason
    path.write_text("step,OT\n1,2.0\n2,3.5\n")
    cells, reason = harness._read_forecast(str(path), ("OT",), 2)
    assert reason is None and np.array_equal(cells, [[2.0], [3.5]])
