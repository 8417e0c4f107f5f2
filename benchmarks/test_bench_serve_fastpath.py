"""Window-batched serving fast path: parity and speedup at K = 16.

Serves the same K = 16 capacity-sweep fleet two ways — the event-loop
:class:`~repro.serve.service.StreamingService` and the window-batched
fast path of :mod:`repro.serve.fastpath` — and checks both that every
session outcome is bit-for-bit identical and that the fast path
delivers the advertised speedup on the NumPy backend.
"""

from __future__ import annotations

import gc
import time

from repro import accel
from repro.serve import LoadSpec, generate_requests, serve_sessions

SESSIONS = 16
CAPACITY_BPS = 2_400_000.0 * 8  # heavy fleet, everyone admitted
SPEC = LoadSpec(
    sessions=SESSIONS,
    seed=5,
    gop_count=50,
    max_windows=50,
    mean_interarrival=0.0,
)


def _serve(requests, **kwargs):
    return serve_sessions(requests, CAPACITY_BPS, **kwargs)


def test_bench_fastpath_sweep(benchmark, show):
    _serve(generate_requests(SPEC), fast=True)  # warm permutation caches
    requests = generate_requests(SPEC)
    result = benchmark.pedantic(
        lambda: _serve(requests, fast=True), rounds=3, iterations=1
    )
    assert len(result.admitted) == SESSIONS
    show(result.describe())


def test_bench_eventloop_sweep(benchmark):
    _serve(generate_requests(SPEC), fast=True)  # warm permutation caches
    requests = generate_requests(SPEC)
    result = benchmark.pedantic(
        lambda: _serve(requests), rounds=1, iterations=1
    )
    assert len(result.admitted) == SESSIONS


def test_bench_fastpath_speedup_and_parity(benchmark, show):
    # Warm the permutation and stream caches so neither arm pays the
    # one-off plan-search cost.
    _serve(generate_requests(SPEC), fast=True)
    requests = generate_requests(SPEC)

    # Interleaved min-of-3 on both arms: scheduler and allocator noise
    # hits both engines alike, so the minima give the honest ratio.
    event_loop_times = []
    fast_times = []
    expected = fast = None
    for _ in range(3):
        gc.collect()
        started = time.perf_counter()
        expected = _serve(requests)
        event_loop_times.append(time.perf_counter() - started)
        gc.collect()
        started = time.perf_counter()
        fast = _serve(requests, fast=True)
        fast_times.append(time.perf_counter() - started)

    assert len(fast.outcomes) == len(expected.outcomes)
    for a, b in zip(expected.outcomes, fast.outcomes):
        assert a.admitted == b.admitted
        assert a.share_bps == b.share_bps
        assert a.min_share_bps == b.min_share_bps
        assert a.shed_frames == b.shed_frames
        assert a.result == b.result, a.request.session_id

    # Record the fast arm for regression gating (tools/bench_compare.py).
    benchmark.pedantic(
        lambda: _serve(requests, fast=True), rounds=1, iterations=1
    )

    event_loop_time = min(event_loop_times)
    fast_time = min(fast_times)
    speedup = event_loop_time / fast_time
    show(
        f"event loop {event_loop_time:.3f}s, fast path {fast_time:.3f}s "
        f"=> {speedup:.2f}x on the {accel.backend_name()} backend "
        f"(K={SESSIONS}, {SPEC.max_windows} windows)"
    )
    if accel.backend_name() == "numpy":
        assert speedup >= 4.0
