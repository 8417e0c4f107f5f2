"""Workload and metric names, shared by the orchestrator and the children.

Kept free of library imports: ``perfbench/run.py`` reads it without
importing anything from ``src/``.  ``BENCHMARK.json`` lists the same
names; the benchmark's own tests check that the two agree.
"""

WORKLOAD_NAMES = ("mc-figure8", "serve-steady", "plan-fanout")

#: Workloads that run in one process.  They are pinned to one CPU and
#: calibrated on it; the fan-out uses (and is calibrated on) every CPU.
SINGLE_PROCESS = frozenset({"mc-figure8", "serve-steady"})

#: End-to-end metrics (``--trace 0``), name -> unit.
END_TO_END = {
    "windows_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``), name -> unit.  Times and counts are
#: per steady-state call unless the name starts with ``setup.`` or the
#: README lists the metric under the cold first call.
PER_LAYER = {
    "loadgen.generate_requests.s": "s",
    "loadgen.generate_requests.calls": "count",
    "setup.loadgen.generate_requests.s": "s",
    "service.plan_replay.self_s": "s",
    "admission.estimate_demand.s": "s",
    "admission.evaluate.s": "s",
    "admission.evaluate.us_per_call": "us",
    "admission.demand_cache_hit_ratio": "ratio",
    "serve.demand_cache.hits": "count",
    "serve.demand_cache.misses": "count",
    "fastpath.assembly.s": "s",
    "shedding.select.s": "s",
    "shedding.frames_shed": "count",
    "kernel.step_fleet.s": "s",
    "kernel.epoch_ms.p50": "ms",
    "kernel.epoch_ms.p90": "ms",
    "kernel.step_window.self_s": "s",
    "kernel.step_window.calls": "count",
    "kernel.rows": "count",
    "kernel.rows_per_step": "count",
    "kernel.scalar_row_share": "ratio",
    "kernel.collapse.full": "count",
    "kernel.collapse.timeline": "count",
    "kernel.collapse.scalar": "count",
    "kernel.run_row_sender.s": "s",
    "kernel.run_row_sender.calls": "count",
    "kernel.send_ack.s": "s",
    "kernel.send_ack.calls": "count",
    "protocol.retransmissions": "count",
    "kernel.prefetch_flags.self_s": "s",
    "accel.gilbert_states_batch.s": "s",
    "accel.gilbert_states_batch.calls": "count",
    "channel.packets": "count",
    "accel.batch_worst_clf.s": "s",
    "accel.batch_worst_clf.calls": "count",
    "layered.plan.s": "s",
    "layered.plan.steady_s": "s",
    "cpo.searches": "count",
    "permcache.misses": "count",
    "permcache.hits": "count",
    "permcache.stores": "count",
    "kernel.plan_hit_ratio": "ratio",
    "batch.plan_hits": "count",
    "batch.plan_misses": "count",
    "hierarchy.worker_plan_s": "s",
    "hierarchy.worker_serve_s": "s",
    "hierarchy.worker_reduce_s": "s",
    "hierarchy.coordinator_s": "s",
    "hierarchy.fanout_overhead_s": "s",
    "hierarchy.arena_bytes": "bytes",
    "runtime.gc_s": "s",
    "runtime.gc_gen2": "count",
    "runtime.rss_mb.workers": "MB",
    "trace.calls": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_s": "s",
    "trace.unattributed_share": "ratio",
    "setup.traced_s": "s",
}

#: ``repro.obs`` counters exported per steady-state call under their own
#: names (``serve.shed_frames`` is exported as ``shedding.frames_shed``).
STEADY_COUNTERS = (
    "serve.demand_cache.hits",
    "serve.demand_cache.misses",
    "kernel.rows",
    "kernel.collapse.full",
    "kernel.collapse.timeline",
    "kernel.collapse.scalar",
    "protocol.retransmissions",
    "channel.packets",
    "batch.plan_hits",
    "batch.plan_misses",
)

#: Plan-search counters, read over the cold first call where the search
#: runs (steady-state calls hit the in-process caches).
SETUP_COUNTERS = (
    "cpo.searches",
    "permcache.misses",
    "permcache.hits",
    "permcache.stores",
)
