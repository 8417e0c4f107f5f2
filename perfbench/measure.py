"""What one benchmark child process measures.

``perfbench/run.py`` starts a fresh interpreter per role, so every role
begins cold, with an empty permutation cache of its own:

``probe``
    Times set-up only: from before ``import repro`` through input
    generation and the first, cold call.
``measure``
    Set-up as ``probe``, then closed-loop steady-state calls for the
    requested seconds with nothing traced, then the oracle check; gives
    the end-to-end metrics.
``trace``
    The same calls with the layer spans of :mod:`perfbench.spans` and
    the library's own ``repro.obs`` counters switched on, alternating
    with untraced calls so the tracing overhead is measured in the same
    process; gives the per-layer metrics.

Calls are closed-loop with one caller: each starts after the previous
one returned, its result digested and released, and a full collection
run — all outside the timed region.  Every timed stretch is bracketed by
:meth:`perfbench.clock.Calibrator.loop_s` timings and reported in
calibrated seconds; the wall-clock figures go to the run context.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from typing import Dict, List, Optional, Tuple

from perfbench import clock, spans
from perfbench.names import SETUP_COUNTERS, STEADY_COUNTERS
from perfbench.workloads import WORKLOADS


#: Timed calls per run at least: a median and a majority across calls
#: need three.
MIN_CALLS = 3


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_context(seed: int) -> Dict[str, object]:
    """Where the numbers were measured: engine selection and versions."""
    from repro import accel
    from repro.core import kernel
    from repro.core.native import jit_status, numba_available

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "accel_backend": accel.backend_name(),
        "kernel_tier": kernel.tier_name(),
        "native_rung": "jit" if numba_available() else f"twin ({jit_status()})",
        "cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "seed": seed,
    }


def cold_setup(name: str, seed: int, smoke: bool, jobs: Optional[int] = None):
    """Build the workload's inputs and make its first, cold call."""
    workload = WORKLOADS[name](seed, smoke)
    result = workload.call(jobs)
    del result
    return workload


def _call(workload, jobs, calibrator, tracer=None) -> Tuple[object, float, float]:
    """One closed-loop call: (result, wall seconds, calibrated seconds).

    ``tracer``, when given, records the call (GC pauses included).
    """
    gc.collect()
    before = calibrator.loop_s()
    started = time.perf_counter()
    if tracer is None:
        result = workload.call(jobs)
    else:
        tracer.active = True
        try:
            with tracer.span():
                result = workload.call(jobs)
        finally:
            tracer.active = False
    wall = time.perf_counter() - started
    return result, wall, clock.calibrated(wall, before, calibrator.loop_s())


def count_failures(
    call_digests: List[Optional[List[int]]], sessions: int, oracle: Dict[int, int]
) -> Tuple[int, int]:
    """(attempted, failed) sessions over every timed call.

    A call that raised fails all its sessions.  A session in the oracle
    sample fails in every call whose digest differs from the oracle's;
    any other session fails where it differs from its most common
    digest across the calls (the same inputs must give the same result).
    """
    attempted = sessions * len(call_digests)
    good = [digests for digests in call_digests if digests is not None]
    failed = sessions * (len(call_digests) - len(good))
    for index in range(sessions):
        expected = oracle.get(index)
        if expected is None and good:
            expected = Counter(d[index] for d in good).most_common(1)[0][0]
        failed += sum(1 for digests in good if digests[index] != expected)
    return attempted, failed


def _record(workload, result, wall, calibrated, calls, mutate=None) -> None:
    """Digest one call's result (outside the timed region)."""
    if mutate is not None:
        mutate(len(calls), result)
    # Only small integer digests are kept, so results of earlier calls
    # barely add to the RSS of workers forked later.
    calls.append((wall, calibrated, workload.windows(result), workload.digests(result)))


def _setup_s(started: float, before: float, calibrator) -> Tuple[float, float]:
    """(wall, calibrated) seconds since ``started``; ``before`` is the
    calibration loop's time just before it."""
    wall = time.perf_counter() - started
    return wall, clock.calibrated(wall, before, calibrator.loop_s())


def probe(
    name: str, seed: int, smoke: bool, started: float, before: float, calibrator
) -> Dict[str, object]:
    cold_setup(name, seed, smoke)
    wall, calibrated = _setup_s(started, before, calibrator)
    return {"setup_s": calibrated, "wall_setup_s": wall}


def measure(
    name: str,
    seed: int,
    seconds: float,
    smoke: bool,
    started: float,
    before: float,
    calibrator,
    mutate=None,
) -> Dict[str, object]:
    """Set-up, steady-state calls for ``seconds``, then the oracle check.

    ``started`` is when set-up began (before ``import repro``) and
    ``before`` the ``calibrator``'s loop time just before that.
    ``mutate(call_index, result)``, when given, edits a result before it
    is digested — the seam the benchmark's own tests corrupt one session
    through.
    """
    workload = cold_setup(name, seed, smoke)
    wall_setup, setup = _setup_s(started, before, calibrator)
    calls: List[Tuple[float, float, int, List[int]]] = []
    raised = 0
    timed = 0.0
    while timed < seconds or len(calls) < MIN_CALLS:
        try:
            result, wall, calibrated = _call(workload, None, calibrator)
        except Exception:  # counted: every session of the call failed
            traceback.print_exc(file=sys.stderr)
            raised += 1
            break
        timed += wall
        _record(workload, result, wall, calibrated, calls, mutate)
        del result
    oracle = workload.oracle_digests()
    attempted, failed = count_failures(
        [call[3] for call in calls] + [None] * raised, workload.sessions, oracle
    )
    context = run_context(seed)
    context["wall_windows_per_s"] = (
        statistics.median(windows / wall for wall, _, windows, _ in calls)
        if calls
        else 0.0
    )
    context["wall_setup_s"] = wall_setup
    return {
        "metrics": {
            "windows_per_s": (
                statistics.median(windows / cal for _, cal, windows, _ in calls)
                if calls
                else 0.0
            ),
            "setup_s": setup,
            "peak_rss_mb": _rss_mb(resource.RUSAGE_SELF)
            + _rss_mb(resource.RUSAGE_CHILDREN),
        },
        "attempted": attempted,
        "failed": failed,
        "calls": len(calls),
        "oracle_sessions": len(oracle),
        "context": context,
    }


#: Per-layer metrics read straight off the spans, per steady-state call:
#: metric -> (span, "total" | "self" | "calls").
SPAN_METRICS = {
    "loadgen.generate_requests.s": ("loadgen.generate_requests", "total"),
    "loadgen.generate_requests.calls": ("loadgen.generate_requests", "calls"),
    "service.plan_replay.self_s": ("service.plan_replay", "self"),
    "admission.estimate_demand.s": ("admission.estimate_demand", "total"),
    "admission.evaluate.s": ("admission.evaluate", "total"),
    "shedding.select.s": ("shedding.select", "total"),
    "kernel.step_fleet.s": ("kernel.step_fleet", "total"),
    "kernel.step_window.self_s": ("kernel.step_window", "self"),
    "kernel.step_window.calls": ("kernel.step_window", "calls"),
    "kernel.run_row_sender.s": ("kernel.run_row_sender", "total"),
    "kernel.run_row_sender.calls": ("kernel.run_row_sender", "calls"),
    "kernel.send_ack.s": ("kernel.send_ack", "total"),
    "kernel.send_ack.calls": ("kernel.send_ack", "calls"),
    "kernel.prefetch_flags.self_s": ("kernel.prefetch_flags", "self"),
    "accel.gilbert_states_batch.s": ("accel.gilbert_states_batch", "total"),
    "accel.gilbert_states_batch.calls": ("accel.gilbert_states_batch", "calls"),
    "accel.batch_worst_clf.s": ("accel.batch_worst_clf", "total"),
    "accel.batch_worst_clf.calls": ("accel.batch_worst_clf", "calls"),
    "layered.plan.steady_s": ("layered.plan", "total"),
    "trace.unattributed_s": (spans.ROOT, "self"),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def _counters() -> Dict[str, float]:
    from repro import obs

    return dict(obs.snapshot()["counters"])


def _hierarchy_split(result, workers: int) -> Dict[str, float]:
    """Worker/coordinator split of one untraced hierarchy run.

    ``fanout_overhead_s`` is the wall minus the busiest worker's time;
    shards are dealt to workers in contiguous near-equal chunks, as the
    hierarchy assigns them.
    """
    perf = result.performance_dict()
    stats = result.shard_stats
    per_shard = [
        plan + serve + reduce
        for plan, serve, reduce in zip(
            stats["plan_seconds"], stats["serve_seconds"], stats["reduce_seconds"]
        )
    ]
    workers = max(1, min(workers, len(per_shard)))
    base, extra = divmod(len(per_shard), workers)
    busiest = 0.0
    position = 0
    for index in range(workers):
        count = base + (1 if index < extra else 0)
        busiest = max(busiest, sum(per_shard[position:position + count]))
        position += count
    return {
        "hierarchy.worker_plan_s": perf["worker_plan_seconds"],
        "hierarchy.worker_serve_s": perf["worker_serve_seconds"],
        "hierarchy.worker_reduce_s": perf["worker_reduce_seconds"],
        "hierarchy.coordinator_s": perf["coordinator_seconds"],
        "hierarchy.fanout_overhead_s": result.wall_seconds - busiest,
    }


def trace(
    name: str, seed: int, seconds: float, smoke: bool, calibrator
) -> Dict[str, object]:
    """The per-layer run: traced cold call, then traced/untraced pairs.

    The spans wrap whatever each target attribute holds when the run
    starts, so a layer slowed from outside beforehand is traced slowed.
    The fan-out workload runs its traced and paired untraced calls with
    ``jobs=1`` (spans in forked workers would be lost; the outcome does
    not depend on ``jobs``), and takes its worker/coordinator split from
    one more untraced call at the default worker count.
    """
    from repro import obs

    cls = WORKLOADS[name]
    jobs = getattr(cls, "traced_jobs", None)
    tracer = spans.Tracer().install()
    try:
        obs.reset()
        obs.enable()
        tracer.active = True
        setup_started = time.perf_counter()
        workload = cold_setup(name, seed, smoke, jobs)
        setup_traced = time.perf_counter() - setup_started
        tracer.active = False
        obs.disable()
        setup_spans = dict(tracer.total)
        setup_counters = _counters()

        tracer.reset()
        obs.reset()
        calls: List[Tuple[float, float, int, List[int]]] = []
        traced: List[Tuple[float, float]] = []
        untraced: List[Tuple[float, float]] = []
        while sum(wall for wall, _ in traced) < seconds or len(calls) < MIN_CALLS:
            obs.enable()
            result, wall, calibrated = _call(workload, jobs, calibrator, tracer)
            obs.disable()
            traced.append((wall, calibrated))
            _record(workload, result, wall, calibrated, calls)
            del result
            result, wall, calibrated = _call(workload, jobs, calibrator)
            untraced.append((wall, calibrated))
            _record(workload, result, wall, calibrated, calls)
            del result
        counters = _counters()
        arena_bytes = obs.snapshot()["gauges"].get("serve.hierarchy.arena_bytes", 0.0)

        split: Dict[str, float] = {}
        workers_rss = 0.0
        if jobs is not None:
            result, wall, calibrated = _call(workload, None, calibrator)
            split = _hierarchy_split(result, result.plan.workers)
            _record(workload, result, wall, calibrated, calls)
            del result
            workers_rss = _rss_mb(resource.RUSAGE_CHILDREN)
    finally:
        tracer.uninstall()
        obs.disable()

    oracle = workload.oracle_digests()
    attempted, failed = count_failures(
        [call[3] for call in calls], workload.sessions, oracle
    )
    n = len(traced)
    wall = sum(wall for wall, _ in traced) / n
    stats = {"total": tracer.total, "self": tracer.self_time, "calls": tracer.calls}
    metrics: Dict[str, float] = {
        name: stats[kind].get(span, 0) / n
        for name, (span, kind) in SPAN_METRICS.items()
    }

    def counter(key: str) -> float:
        return counters.get(key, 0) / n

    evaluate = tracer.total.get("admission.evaluate", 0.0)
    metrics.update(
        {
            "setup.loadgen.generate_requests.s": setup_spans.get(
                "loadgen.generate_requests", 0.0
            ),
            "setup.traced_s": setup_traced,
            "layered.plan.s": setup_spans.get("layered.plan", 0.0),
            "admission.evaluate.us_per_call": 1e6
            * _ratio(evaluate, tracer.calls.get("admission.evaluate", 0)),
            "admission.demand_cache_hit_ratio": _ratio(
                counters.get("serve.demand_cache.hits", 0),
                counters.get("serve.demand_cache.hits", 0)
                + counters.get("serve.demand_cache.misses", 0),
            ),
            "fastpath.assembly.s": (
                (
                    tracer.total.get(spans.ROOT, 0.0)
                    - tracer.total.get("service.plan_replay", 0.0)
                    - tracer.total.get("kernel.step_fleet", 0.0)
                )
                / n
                if getattr(cls, "assembly_root", False)
                else 0.0
            ),
            "shedding.frames_shed": counter("serve.shed_frames"),
            "kernel.epoch_ms.p50": 1e3 * _percentile(tracer.epochs, 50),
            "kernel.epoch_ms.p90": 1e3 * _percentile(tracer.epochs, 90),
            "kernel.rows_per_step": _ratio(
                counters.get("kernel.rows", 0), counters.get("kernel.steps", 0)
            ),
            "kernel.scalar_row_share": _ratio(
                counters.get("kernel.collapse.scalar", 0),
                counters.get("kernel.rows", 0),
            ),
            "kernel.plan_hit_ratio": _ratio(
                counters.get("batch.plan_hits", 0),
                counters.get("batch.plan_hits", 0)
                + counters.get("batch.plan_misses", 0),
            ),
            "hierarchy.arena_bytes": float(arena_bytes),
            "runtime.gc_s": tracer.gc_seconds / n,
            "runtime.gc_gen2": tracer.gc_gen2 / n,
            "runtime.rss_mb.workers": workers_rss,
            "trace.calls": float(n),
            "trace.wall_s": wall,
            "trace.untraced_wall_s": sum(wall for wall, _ in untraced) / n,
            # Calibrated, so machine speed drift within each pair cancels.
            "trace.overhead_ratio": sum(cal for _, cal in traced)
            / sum(cal for _, cal in untraced),
            "trace.unattributed_share": metrics["trace.unattributed_s"] / wall,
        }
    )
    for key in STEADY_COUNTERS:
        metrics[key] = counter(key)
    for key in SETUP_COUNTERS:
        metrics[key] = float(setup_counters.get(key, 0))
    for key in (
        "hierarchy.worker_plan_s",
        "hierarchy.worker_serve_s",
        "hierarchy.worker_reduce_s",
        "hierarchy.coordinator_s",
        "hierarchy.fanout_overhead_s",
    ):
        metrics[key] = split.get(key, 0.0)
    context = run_context(seed)
    context["unwrapped_layers"] = tracer.missing
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "calls": len(calls),
        "oracle_sessions": len(oracle),
        "context": context,
        "self_s": {key: value / n for key, value in tracer.self_time.items()},
    }

