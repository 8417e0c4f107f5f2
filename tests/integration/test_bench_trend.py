"""``tools/bench_trend.py``: the per-family trajectory and its 10% gate.

Two edges pinned here: a recording with an empty ``benchmarks`` list is
listed and skipped rather than crashing the whole report, and a family
whose newest mean grew by more than the threshold fails the run.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def bench_trend():
    spec = importlib.util.spec_from_file_location(
        "bench_trend", REPO / "tools" / "bench_trend.py"
    )
    module = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    spec.loader.exec_module(module)
    return module


def _write(path: pathlib.Path, stamp: str, means: dict) -> None:
    path.write_text(
        json.dumps(
            {
                "datetime": stamp,
                "benchmarks": [
                    {"fullname": f"bench.py::{name}", "stats": {"mean": mean}}
                    for name, mean in means.items()
                ],
            }
        )
    )


def test_empty_recording_is_listed_and_exits_zero(bench_trend, tmp_path, capsys):
    _write(tmp_path / "BENCH_aaaaaaa_empty.json", "2026-01-01", {})
    _write(tmp_path / "BENCH_bbbbbbb_kernel.json", "2026-01-02", {"test_x": 0.1})
    assert bench_trend.main(["--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "family empty: 1 recording(s)" in out
    assert "(no benchmarks)" in out
    assert "test_x" in out


def test_mean_growth_beyond_ten_percent_regresses(bench_trend, tmp_path, capsys):
    _write(tmp_path / "BENCH_aaaaaaa_kernel.json", "2026-01-01", {"test_x": 0.100})
    _write(tmp_path / "BENCH_bbbbbbb_kernel.json", "2026-01-02", {"test_x": 0.115})
    assert bench_trend.main(["--out-dir", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out
    assert "1 benchmark(s) regressed" in out
