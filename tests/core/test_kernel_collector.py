"""The kernel's garbage-collector pause and the allocation rule behind it.

:func:`repro.core.kernel.step_window` and :func:`~repro.core.kernel.step_fleet`
turn the collector off while they run, which is only sound because
stepping never creates reference cycles.  These tests pin both halves:
the collector's on/off state is restored exactly (on return, on a
raising hook, under a caller that already turned it off, across the
nested ``step_fleet`` -> ``step_window`` call), and the engines leave no
cyclic garbage whose amount grows with the number of windows stepped.
The mid-window refill branch of the scalar sender is pinned here too.
"""

from __future__ import annotations

import gc
from dataclasses import replace

import pytest

from repro import accel, obs
from repro.core import kernel
from repro.core.batch import run_sessions_batch
from repro.core.protocol import ProtocolConfig, ProtocolSession
from repro.media.gop import GopPattern
from repro.media.stream import make_video_stream
from repro.serve import LoadSpec, generate_requests, serve_sessions
from repro.serve.hierarchy import run_hierarchy
from repro.traces.synthetic import calibrated_stream

CONFIG = ProtocolConfig(gop_size=4, gops_per_window=1, p_good=0.85, p_bad=0.5)
CAPACITY = 4_000_000.0


@pytest.fixture(scope="module")
def stream():
    return make_video_stream(GopPattern.parse("IBBP"), gop_count=40)


@pytest.fixture(autouse=True)
def _restore_collector():
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


def _batch(stream, *, shed_for=None, window_index=0, seeds=(1, 2, 3)):
    config = CONFIG
    window = list(stream.windows(config.window_frames))[window_index]
    info = kernel.WindowInfo(window, config, stream.fps, {})
    return kernel.FleetBatch(
        rows=[kernel.SessionRow(config, seed) for seed in seeds],
        info=info,
        config=config,
        fps=stream.fps,
        window_index=window_index,
        control_serialization=1e-4,
        shed_for=shed_for,
    )


def _step_window(batch):
    kernel.step_window(
        batch.rows,
        batch.info,
        batch.config,
        batch.fps,
        batch.window_index,
        control_serialization=batch.control_serialization,
        shed_for=batch.shed_for,
    )


def _step_fleet(batch):
    kernel.step_fleet([batch])


STEPPERS = [_step_window, _step_fleet]


def _raising_hook(row, plan):
    raise RuntimeError("shed hook failed")


@pytest.mark.parametrize("step", STEPPERS, ids=lambda f: f.__name__.lstrip("_"))
class TestCollectorState:
    def test_enabled_collector_is_paused_then_restored(self, stream, step):
        seen = []

        def hook(row, plan):
            seen.append(gc.isenabled())
            return frozenset()

        gc.enable()
        step(_batch(stream, shed_for=hook))
        assert gc.isenabled()
        assert seen and not any(seen)

    def test_restored_when_the_step_raises(self, stream, step):
        gc.enable()
        with pytest.raises(RuntimeError, match="shed hook failed"):
            step(_batch(stream, shed_for=_raising_hook))
        assert gc.isenabled()

    def test_caller_disabled_collector_stays_off(self, stream, step):
        gc.disable()
        step(_batch(stream))
        assert not gc.isenabled()
        with pytest.raises(RuntimeError):
            step(_batch(stream, shed_for=_raising_hook))
        assert not gc.isenabled()


def test_nested_step_window_keeps_the_fleet_pause(stream):
    """``step_fleet``'s inner ``step_window`` calls must not re-enable it."""
    seen = []

    def hook(row, plan):
        seen.append(gc.isenabled())
        return frozenset()

    gc.enable()
    batches = [_batch(stream, shed_for=hook, seeds=(seed,)) for seed in (4, 5, 6)]
    kernel.step_fleet(batches)
    assert len(seen) == 3 and not any(seen)
    assert gc.isenabled()


# ----------------------------------------------------------------------
# No cyclic garbage: the pause can never grow RSS with run length
# ----------------------------------------------------------------------


def _spec(windows: int) -> LoadSpec:
    return LoadSpec(
        sessions=8,
        seed=3,
        mean_interarrival=1e-3,
        gop_count=2 * windows,
        max_windows=windows,
    )


def _run_batch(stream, windows):
    return run_sessions_batch(stream, CONFIG, seeds=range(8), max_windows=windows)


def _run_serve(stream, windows):
    return serve_sessions(generate_requests(_spec(windows)), CAPACITY, fast=True)


def _run_hierarchy(stream, windows):
    return run_hierarchy(_spec(windows), CAPACITY, shards=2, jobs=1)


ENGINES = [_run_batch, _run_serve, _run_hierarchy]


def _cyclic_garbage(run, stream, windows: int) -> int:
    """Objects only the collector could free after one run, gc off throughout."""
    gc.collect()
    gc.disable()
    result = run(stream, windows)
    del result
    return gc.collect()


@pytest.mark.parametrize("run", ENGINES, ids=lambda f: f.__name__.lstrip("_"))
def test_cyclic_garbage_does_not_grow_with_windows(stream, run):
    # Warm every process-wide cache (plans, permutations, demand
    # probes) at both lengths first: a first-time cache store may
    # allocate a bounded amount of cyclic garbage of its own.
    for windows in (5, 40):
        run(stream, windows)
    short = _cyclic_garbage(run, stream, 5)
    long = _cyclic_garbage(run, stream, 40)
    assert long <= short, (short, long)


# ----------------------------------------------------------------------
# Mid-window refill branch of the scalar sender
# ----------------------------------------------------------------------


def test_mid_window_refill_matches_the_session_oracle():
    """A lossy, fragment-heavy channel outruns the prefetch slack.

    1 KiB packets and long bad-state bursts force anchor retransmissions
    past ``PREFETCH_SLACK`` flags, so the scalar sender must refill its
    flag buffer mid-window; every backend must still equal the oracle.
    """
    movie = calibrated_stream("jurassic_park_corrected", gop_count=12, seed=7)
    config = ProtocolConfig(
        p_good=0.6, p_bad=0.95, packet_size_bytes=1024, bandwidth_bps=8e6
    )
    seeds = range(1, 5)
    previous = accel.backend_name()
    try:
        for backend in accel.available_backends():
            accel.set_backend(backend)
            expected = [
                ProtocolSession(movie, replace(config, seed=seed)).run(max_windows=5)
                for seed in seeds
            ]
            registry = obs.enable()
            obs.reset()
            try:
                actual = run_sessions_batch(movie, config, seeds=seeds, max_windows=5)
                counters = registry.snapshot()["counters"]
            finally:
                obs.disable()
            assert counters.get("batch.refills", 0) > 0, backend
            assert actual == expected, backend
    finally:
        accel.set_backend(previous)
