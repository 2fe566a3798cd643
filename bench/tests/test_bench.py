"""Self-test of the benchmark at tiny sizes.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

TINY = {
    "lloyd_bm": {"m": 16, "n_paths": 300, "n": 3, "max_iters": 300, "inputs": 2},
    "sgd_p3": {"m": 9, "n_paths": 200, "n": 2, "max_iters": 200, "inputs": 2},
    "oracle_suite": {"m_sharp": 3, "inputs": 1},
}


@pytest.fixture(autouse=True)
def _tiny_run_in_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK_ROOT", tmp_path / "work")
    monkeypatch.setattr(run, "SIZES", TINY)


def _run(capsys, workload: str, trace: int) -> dict:
    rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                   "--trace", str(trace)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert info["env"]["nproc"] >= 1 and info["seed"] == 3
    return result


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_end_to_end_metric_printed_with_unit(capsys, workload):
    result = _run(capsys, workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {name: v["unit"] for name, v in result["metrics"].items()}
    assert got == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_every_per_layer_metric_printed_with_unit(capsys):
    result = _run(capsys, "lloyd_bm", 1)
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: v["unit"] for name, v in result["metrics"].items()} == expected
    assert result["metrics"]["quantize_core.pairwise_distances.calls"]["value"] > 0
    assert 0 < result["metrics"]["trace.span_coverage"]["value"] < 1


@pytest.mark.parametrize("workload", ["lloyd_bm", "oracle_suite"])
def test_traced_self_times_sum_to_op_wall(tmp_path, workload):
    fq = run.import_fquant()
    op = run.make_inputs(workload, 5, TINY[workload], tmp_path / "in")[0]
    checker = run.Checker(fq, workload)
    with Tracer() as tracer:
        res = run.run_op(fq, op, checker, tracer)
    assert not res.problems
    self_sum = sum(res.trace["self"].values())
    assert self_sum == pytest.approx(res.trace["top"], rel=1e-9)
    assert res.wall - 0.05 * res.wall - 1e-3 <= self_sum <= res.wall
    # the CLI's own time is not counted as covered
    assert run.span_coverage(res) < res.trace["top"] / res.wall
    # the tracer restores every binding it replaced
    assert fq.quantize_core.pairwise_distances.__module__ == "fquant.quantize_core"
    assert not hasattr(fq.optimize.pairwise_distances, "__wrapped__")


def test_layer_spans_cover_op_wall(tmp_path):
    # large enough that the CLI's fixed cost (argument parsing, writing the
    # outputs) is a small share, as it is at the benchmark's sizes
    size = {"m": 32, "n_paths": 4000, "n": 4, "max_iters": 300, "inputs": 1}
    fq = run.import_fquant()
    op = run.make_inputs("lloyd_bm", 5, size, tmp_path / "in")[0]
    checker = run.Checker(fq, "lloyd_bm")
    run.run_op(fq, op, checker)
    with Tracer() as tracer:
        res = run.run_op(fq, op, checker, tracer)
    assert not res.problems
    assert run.span_coverage(res) >= 0.95


def _corrupting_main(monkeypatch, corrupt):
    fq = run.import_fquant()
    original = fq.cli.main
    calls = []

    def main(argv):
        rc = original(argv)
        calls.append(argv)
        corrupt(Path(argv[argv.index("--out") + 1]), len(calls))
        return rc

    monkeypatch.setattr(fq.cli, "main", main)


def _scale_distortion(out, k):
    path = out / "distortion.json"
    body = json.loads(path.read_text())
    body["value"] *= 1.0 + 1e-6
    path.write_text(json.dumps(body))


def _truncate_distortion(out, k):
    path = out / "distortion.json"
    path.write_text(path.read_text()[:20])


@pytest.mark.parametrize("corrupt", [_scale_distortion, _truncate_distortion])
def test_wrong_distortion_counts_as_failed_op(monkeypatch, corrupt):
    _corrupting_main(monkeypatch, corrupt)
    result, info = run.run_workload("lloyd_bm", 3, 0.0, False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert info["ops_failed_ratio"] == 1.0


def test_non_reproducible_repeat_counts_as_failed_op(monkeypatch):
    def corrupt(out, k):
        if k == 3:  # the third set-up's warm-up repeats the first one's input
            path = out / "codebook.bin"
            data = bytearray(path.read_bytes())
            data[-1] ^= 1
            path.write_bytes(bytes(data))

    _corrupting_main(monkeypatch, corrupt)
    result, _ = run.run_workload("sgd_p3", 3, 0.0, False)
    assert not result["correct"] and result["failed"] == 1


def test_missing_program_exits_nonzero_without_result(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    t0 = time.perf_counter()
    rc = run.main(["--workload", "oracle_suite", "--seed", "1", "--seconds", "1"])
    assert rc != 0 and time.perf_counter() - t0 < 5
    assert capsys.readouterr().out == ""


def test_times_are_scaled_by_the_calibration_loop(monkeypatch):
    # a machine twice as slow as the reference halves the reported times
    monkeypatch.setattr(run, "calibrate", lambda: 2 * run.CAL_REF_S)
    result, info = run.run_workload("oracle_suite", 1, 0.0, False)
    metrics = result["metrics"]
    assert metrics["run_s"]["value"] == pytest.approx(info["raw_run_s"] / 2)
    assert metrics["setup_s"]["value"] == pytest.approx(info["raw_setup_s"] / 2)
