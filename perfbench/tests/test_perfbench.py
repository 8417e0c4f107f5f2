"""The benchmark's own tests, on smoke-sized workloads.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import clock, measure, spans
from perfbench.names import END_TO_END, PER_LAYER, WORKLOAD_NAMES
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

#: Per-layer metrics that depend on timing rather than on the inputs.
TIMING_DEPENDENT = {
    "trace.calls",
    "trace.overhead_ratio",
    "trace.unattributed_share",
    "runtime.gc_gen2",
}


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
        check=False,
    )


def _smoke(workload: str, trace: int, seed: int = 3) -> dict:
    completed = _run(
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", "0.05",
        "--trace", str(trace),
        "--scale", "smoke",
    )
    assert completed.returncode == 0, completed.stderr
    *_, context_line, result_line = completed.stdout.strip().splitlines()
    return {"context": json.loads(context_line)["context"], **json.loads(result_line)}


@pytest.fixture(scope="module")
def calibrator():
    with clock.Calibrator() as helper:
        yield helper


@pytest.fixture(scope="module")
def smoke_runs():
    return {
        (workload, trace): _smoke(workload, trace)
        for workload in WORKLOAD_NAMES
        for trace in (0, 1)
    }


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOAD_NAMES)
    assert set(WORKLOADS) == set(WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run_reports_every_metric(smoke_runs, workload, trace):
    run = smoke_runs[workload, trace]
    assert set(run) - {"context"} == RESULT_KEYS
    assert run["correct"] is True
    assert run["failed"] == 0 and run["attempted"] > 0
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert list(run["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        reported = run["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
    for key in ("accel_backend", "kernel_tier", "native_rung", "nproc", "python",
                "numpy", "git_revision", "seed", "calibration_s"):
        assert key in run["context"]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_program_counters_repeat_exactly(smoke_runs, workload):
    again = _smoke(workload, 1)
    first = smoke_runs[workload, 1]
    for name, unit in PER_LAYER.items():
        if unit in ("count", "ratio", "bytes") and name not in TIMING_DEPENDENT:
            assert again["metrics"][name] == first["metrics"][name], name


def _corrupt(workload: str, index: int):
    """A mutate hook that corrupts session ``index`` of the second call."""

    def mutate(call_index, result):
        if call_index != 1:
            return
        if workload == "mc-figure8":
            result[index].windows[0].clf += 1
        elif workload == "serve-steady":
            result.outcomes[index].shed_frames += 1
        else:
            result.columns["mean_clf"][index] += 1.0

    return mutate


@pytest.mark.parametrize("sampled", [True, False], ids=["oracle", "majority"])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_one_corrupted_session_is_one_failure(calibrator, workload, sampled):
    # Session 0 is always in the oracle sample; the last session of the
    # fleet is checked against its digest in the other calls.
    sessions = WORKLOADS[workload](5, True).sessions
    index = 0 if sampled else sessions - 1
    run = measure.measure(
        workload, 5, 0.0, True, time.perf_counter(), clock.REFERENCE_S,
        calibrator, mutate=_corrupt(workload, index),
    )
    assert run["calls"] == measure.MIN_CALLS
    assert run["failed"] == 1
    assert run["attempted"] == sessions * run["calls"]


def test_a_slowed_layer_is_named(calibrator, monkeypatch):
    from repro import accel

    base = measure.trace("serve-steady", 7, 0.05, True, calibrator)
    original = accel.gilbert_states_batch

    def slowed(*args, **kwargs):
        time.sleep(0.02)
        return original(*args, **kwargs)

    monkeypatch.setattr(accel, "gilbert_states_batch", slowed)
    run = measure.trace("serve-steady", 7, 0.05, True, calibrator)
    assert spans.grown_layer(base["self_s"], run["self_s"]) == (
        "accel.gilbert_states_batch"
    )
    calls = run["metrics"]["accel.gilbert_states_batch.calls"]
    grown = (
        run["metrics"]["accel.gilbert_states_batch.s"]
        - base["metrics"]["accel.gilbert_states_batch.s"]
    )
    assert calls >= 1 and grown >= 0.9 * 0.02 * calls
    assert run["failed"] == 0


def test_tracer_restores_every_wrapped_attribute():
    from repro.core import kernel
    from repro.serve.service import StreamingService

    before = (kernel.step_window, StreamingService.__dict__["run"])
    tracer = spans.Tracer().install()
    try:
        assert kernel.step_window is not before[0]
        assert not tracer.missing
    finally:
        tracer.uninstall()
    assert (kernel.step_window, StreamingService.__dict__["run"]) == before


def test_without_the_library_the_benchmark_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = _run(
        "--workload", "mc-figure8", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
