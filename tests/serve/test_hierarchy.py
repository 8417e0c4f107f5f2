"""Tests for the hierarchical fan-out (repro.serve.hierarchy).

The load-bearing property is bit-for-bit parity: a hierarchy run at
shard count ``S`` must reproduce the flat fan-out — each
:func:`shard_specs` slice served alone by ``serve_sessions(fast=True)``
(and so, via that suite's own pins, by the event-loop service),
concatenated in shard order — outcome for outcome, on every
acceleration backend, for any worker count.  Everything else
(cost-model planning, the returned column blocks, the reduced result
surface) is tested around that core.
"""

from __future__ import annotations

import os

import pytest

from repro import accel
from repro.errors import ConfigurationError
from repro.serve import LoadSpec, generate_requests, serve_sessions
from repro.serve.admission import ADMITTED_REASON
from repro.serve.hierarchy import (
    MAX_SHARD_SESSIONS,
    HierarchyPlan,
    plan_hierarchy,
    resolve_auto_shards,
    run_hierarchy,
    shard_specs,
)

#: A fleet under enough pressure that admission rejects, shedding fires
#: and shares bind — the regime where a transport bug would show.
TIGHT = dict(sessions=48, seed=3, mean_interarrival=1e-3, gop_count=4, max_windows=2)
TIGHT_CAPACITY = 4_000_000.0


def shm_entries() -> set[str]:
    """Names under ``/dev/shm`` (empty where the platform has none)."""
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:
        return set()


def _tight_spec() -> LoadSpec:
    return LoadSpec(**TIGHT)


def _flat_fanout(spec, capacity_bps, shards):
    """The flat fan-out oracle: every shard slice served on its own."""
    return [
        serve_sessions(generate_requests(shard), capacity_bps, fast=True)
        for shard in shard_specs(spec, shards)
    ]


def _keys(outcomes):
    keys = []
    for outcome in outcomes:
        result = outcome.result
        keys.append(
            (
                outcome.request.session_id,
                outcome.request.priority,
                outcome.admitted,
                outcome.reason,
                outcome.shed_frames,
                outcome.share_bps,
                outcome.min_share_bps,
                outcome.demand_bps,
                outcome.critical_bps,
                result.mean_clf if result else None,
                result.stream_clf if result else None,
            )
        )
    return keys


class TestPlanning:
    def test_cost_model_sizes_the_tree(self):
        spec = LoadSpec(sessions=1000, gop_count=4, max_windows=2)
        plan = plan_hierarchy(spec, 1e6, target_shard_cost=128)
        # 1000 sessions x 2 windows / 128 session-windows -> 16 shards.
        assert plan.shards == 16
        assert plan.windows_per_session == 2
        assert sum(task.spec.sessions for task in plan.shard_tasks) == 1000
        offsets = [task.row_offset for task in plan.shard_tasks]
        sizes = [task.spec.sessions for task in plan.shard_tasks]
        assert offsets == [sum(sizes[:i]) for i in range(len(sizes))]

    def test_session_cap_binds_when_cost_budget_is_huge(self):
        spec = LoadSpec(sessions=4096, gop_count=4, max_windows=1)
        plan = plan_hierarchy(spec, 1e6, target_shard_cost=10**9)
        assert plan.shards == 4096 // MAX_SHARD_SESSIONS
        assert all(
            task.spec.sessions <= MAX_SHARD_SESSIONS for task in plan.shard_tasks
        )

    def test_explicit_shards_preserve_flat_seed_lineage(self):
        spec = _tight_spec()
        plan = plan_hierarchy(spec, TIGHT_CAPACITY, shards=6)
        assert plan.shards == 6
        assert plan.shard_seeds == [s.seed for s in shard_specs(spec, 6)]

    def test_worker_count_clamped_to_shards(self):
        spec = LoadSpec(sessions=8, gop_count=4, max_windows=2)
        plan = plan_hierarchy(spec, 1e6, shards=2, workers=64)
        assert plan.workers == 2

    def test_invalid_inputs_rejected(self):
        spec = LoadSpec(sessions=8)
        with pytest.raises(ConfigurationError):
            plan_hierarchy(spec, 0.0)
        with pytest.raises(ConfigurationError):
            plan_hierarchy(spec, 1e6, target_shard_cost=0)
        with pytest.raises(ConfigurationError):
            plan_hierarchy(spec, 1e6, shards=0)
        with pytest.raises(ConfigurationError):
            plan_hierarchy(spec, 1e6, workers=0)
        with pytest.raises(ConfigurationError):
            plan_hierarchy(spec, 1e6, scheduler="bogus")

    def test_plan_to_dict_is_json_ready(self):
        import json

        plan = plan_hierarchy(LoadSpec(sessions=16), 1e6, shards=4)
        record = plan.to_dict()
        json.dumps(record)
        assert record["shards"] == 4
        assert len(record["shard_seeds"]) == 4


class TestParity:
    def test_matches_flat_fanout_on_every_backend(self):
        previous = accel.backend_name()
        try:
            for name in accel.available_backends():
                accel.set_backend(name)
                flat = _flat_fanout(_tight_spec(), TIGHT_CAPACITY, 6)
                hier = run_hierarchy(
                    _tight_spec(), TIGHT_CAPACITY, shards=6, jobs=1
                )
                assert hier.rejected_count > 0, "scenario must exercise admission"
                assert _keys(hier.outcomes) == _keys(
                    [o for shard in flat for o in shard.outcomes]
                ), f"backend {name!r} diverged"
                assert hier.admitted_count == sum(len(s.admitted) for s in flat)
                assert hier.shed_total == sum(s.shed_total for s in flat)
        finally:
            accel.set_backend(previous)

    def test_single_shard_matches_fast_service(self):
        from repro.serve import generate_requests, serve_sessions

        spec = LoadSpec(
            sessions=12, seed=1, mean_interarrival=1e-3, gop_count=4, max_windows=2
        )
        direct = serve_sessions(generate_requests(spec), TIGHT_CAPACITY, fast=True)
        hier = run_hierarchy(spec, TIGHT_CAPACITY, shards=1, jobs=1)
        direct_keys = [
            (
                o.request.session_id,
                o.admitted,
                o.reason,
                o.shed_frames,
                o.share_bps,
                o.min_share_bps,
                o.result.mean_clf if o.result else None,
                o.result.stream_clf if o.result else None,
            )
            for o in direct.outcomes
        ]
        hier_keys = [
            (
                o.request.session_id,
                o.admitted,
                o.reason,
                o.shed_frames,
                o.share_bps,
                o.min_share_bps,
                o.result.mean_clf if o.result else None,
                o.result.stream_clf if o.result else None,
            )
            for o in hier.outcomes
        ]
        assert hier_keys == direct_keys

    def test_independent_of_worker_count_and_pool_size(self):
        spec = _tight_spec()
        lone = run_hierarchy(spec, TIGHT_CAPACITY, shards=6, workers=1, jobs=1)
        pooled = run_hierarchy(spec, TIGHT_CAPACITY, shards=6, workers=3, jobs=3)
        assert lone.columns == pooled.columns
        assert lone.window_totals == pooled.window_totals
        assert lone.rejected_reasons == pooled.rejected_reasons
        assert lone.summary_dict() == pooled.summary_dict()

    def test_rejection_reasons_survive_the_lean_transport(self):
        result = run_hierarchy(_tight_spec(), TIGHT_CAPACITY, shards=6, jobs=1)
        rejected = result.rejected
        assert rejected
        assert all("critical demand" in o.reason for o in rejected)
        assert all(o.reason == ADMITTED_REASON for o in result.admitted)


class TestTransport:
    def test_result_layout_matches_the_plan(self):
        plan = plan_hierarchy(
            LoadSpec(sessions=10, gop_count=4, max_windows=2), 1e6,
            shards=3, workers=2,
        )
        result = run_hierarchy(plan, jobs=1)
        slots = 3 * plan.windows_per_session
        assert all(len(column) == 10 for column in result.columns.values())
        assert all(len(column) == slots for column in result.window_totals.values())
        assert all(len(column) == 3 for column in result.shard_stats.values())
        # Two workers' blocks, concatenated in shard order.
        assert result.shard_stats["sessions"] == [4.0, 3.0, 3.0]

    def test_interrupted_pool_propagates(self, monkeypatch):
        from repro.serve import hierarchy

        def dying_pool(fn, tasks, jobs):
            raise KeyboardInterrupt

        monkeypatch.setattr(hierarchy, "parallel_map", dying_pool)
        spec = LoadSpec(sessions=4, seed=0, gop_count=4, max_windows=2)
        with pytest.raises(KeyboardInterrupt):
            run_hierarchy(spec, 2e6, shards=2)


class TestArena:
    def test_worker_error_propagates_and_cleans_up(self, monkeypatch):
        from repro.serve import hierarchy

        def boom(*args, **kwargs):
            raise RuntimeError("planned failure")

        monkeypatch.setattr(hierarchy, "_plan_shard", boom)
        before = shm_entries()
        with pytest.raises(RuntimeError, match="planned failure"):
            run_hierarchy(_tight_spec(), TIGHT_CAPACITY, shards=4, jobs=1)
        # Results travel back as plain columns: a failed run leaves no
        # shared-memory segment behind.
        assert shm_entries() == before


class TestStepCache:
    """One window-step cache per worker chunk, shared by its shards."""

    #: 16 shards of four viewers, two windows each: shares repeat across
    #: shards (fair share is capacity / active), so infos should too.
    SPEC = dict(
        sessions=64, seed=11, mean_interarrival=1e-3, gop_count=4, max_windows=2
    )

    def _oracle_keys(self, spec, shards):
        flat = _flat_fanout(spec, TIGHT_CAPACITY, shards)
        return _keys([o for shard in flat for o in shard.outcomes])

    def test_one_info_per_distinct_key(self, monkeypatch):
        from repro import obs
        from repro.serve import fastpath, hierarchy

        caches = []

        class RecordingCache(fastpath._StepCache):
            __slots__ = ()

            def __init__(self):
                super().__init__()
                caches.append(self)

        monkeypatch.setattr(hierarchy, "_StepCache", RecordingCache)
        spec = LoadSpec(**self.SPEC)
        registry = obs.enable()
        obs.reset()
        try:
            hier = run_hierarchy(
                spec, TIGHT_CAPACITY, shards=16, workers=1, jobs=1
            )
            counters = registry.snapshot()["counters"]
        finally:
            obs.disable()
        assert len(caches) == 1
        built = counters["kernel.window_infos"]
        assert built == len(caches[0].infos)
        # Far fewer builds than window steps: shards reuse each other's.
        assert 4 * built <= counters["kernel.steps"], counters
        assert _keys(hier.outcomes) == self._oracle_keys(spec, 16)

    def test_multi_slab_run_matches_the_oracle(self, monkeypatch):
        from repro.serve import hierarchy, service

        # A few shards per slab, and fresh window tuples for every shard,
        # so slabs (and the windows only they held) are freed while the
        # worker's cache keeps serving later slabs.
        monkeypatch.setattr(hierarchy, "SLAB_SESSION_BUDGET", 12)
        original = hierarchy._plan_shard

        def fresh_windows_plan_shard(*args, **kwargs):
            service._windows_cache.clear()
            return original(*args, **kwargs)

        monkeypatch.setattr(hierarchy, "_plan_shard", fresh_windows_plan_shard)
        spec = LoadSpec(**self.SPEC)
        plan = plan_hierarchy(spec, TIGHT_CAPACITY, shards=16, workers=1)
        assert len(list(hierarchy._slabs(plan.shard_tasks))) > 1
        hier = run_hierarchy(plan, jobs=1)
        assert _keys(hier.outcomes) == self._oracle_keys(spec, 16)


class TestResultSurface:
    def _result(self):
        return run_hierarchy(_tight_spec(), TIGHT_CAPACITY, shards=6, jobs=1)

    def test_percentiles_are_nearest_rank(self):
        from repro.serve.hierarchy import _percentile

        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert _percentile(values, 50.0) == 3.0
        assert _percentile(values, 95.0) == 5.0
        assert _percentile(values, 1.0) == 1.0
        assert _percentile([], 50.0) == 0.0

    def test_summary_is_deterministic_and_wall_free(self):
        result = self._result()
        summary = result.summary_dict()
        flat = str(summary)
        assert "wall" not in flat and "seconds" not in flat
        assert summary == self._result().summary_dict()
        perf = result.performance_dict()
        assert perf["wall_seconds"] > 0.0
        assert perf["sessions_per_second"] > 0.0
        for key in ("worker_plan_seconds", "worker_serve_seconds",
                    "worker_reduce_seconds", "coordinator_seconds"):
            assert perf[key] >= 0.0

    def test_coordinator_seconds_count_the_processes_that_ran(self):
        plan = plan_hierarchy(_tight_spec(), TIGHT_CAPACITY, shards=4, workers=2)
        result = run_hierarchy(plan, jobs=1)
        assert result.processes == 1
        perf = result.performance_dict()
        worker = (
            perf["worker_plan_seconds"]
            + perf["worker_serve_seconds"]
            + perf["worker_reduce_seconds"]
        )
        assert perf["coordinator_seconds"] == max(
            0.0, perf["wall_seconds"] - worker
        )

    def test_per_window_curve_accounts_every_admitted_session(self):
        result = self._result()
        curve = result.per_window_curve()
        assert [point["window"] for point in curve] == [0, 1]
        assert all(point["sessions"] == result.admitted_count for point in curve)
        assert sum(point["shed_frames"] for point in curve) == result.shed_total

    def test_describe_mentions_the_tree_and_the_tiles(self):
        text = self._result().describe()
        assert "shards" in text and "workers" in text
        assert "p50/p95/p99" in text and "sessions/s" in text

    def test_accepts_prebuilt_plan_and_requires_capacity_otherwise(self):
        plan = plan_hierarchy(_tight_spec(), TIGHT_CAPACITY, shards=2)
        assert isinstance(plan, HierarchyPlan)
        result = run_hierarchy(plan, jobs=1)
        assert result.sessions == TIGHT["sessions"]
        with pytest.raises(ConfigurationError):
            run_hierarchy(_tight_spec())


class TestAutoShards:
    def test_uses_process_cpu_count_when_available(self, monkeypatch):
        from repro.serve import hierarchy

        monkeypatch.setattr(
            hierarchy.os, "process_cpu_count", lambda: 6, raising=False
        )
        assert resolve_auto_shards(100) == 6
        assert resolve_auto_shards(4) == 4  # capped by the fleet

    def test_falls_back_to_cpu_count(self, monkeypatch):
        from repro.serve import hierarchy

        monkeypatch.delattr(hierarchy.os, "process_cpu_count", raising=False)
        monkeypatch.setattr(hierarchy.os, "cpu_count", lambda: 3)
        assert resolve_auto_shards(100) == 3

    def test_never_below_one(self, monkeypatch):
        from repro.serve import hierarchy

        monkeypatch.delattr(hierarchy.os, "process_cpu_count", raising=False)
        monkeypatch.setattr(hierarchy.os, "cpu_count", lambda: None)
        assert resolve_auto_shards(100) == 1

    def test_rejects_empty_fleet(self):
        with pytest.raises(ConfigurationError):
            resolve_auto_shards(0)
