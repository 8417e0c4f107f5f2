"""Hierarchical fan-out at K = 4096: parity and throughput.

Runs a 4096-session fleet through the two-level hierarchy
(:mod:`repro.serve.hierarchy`) and checks every session outcome
bit-for-bit against the flat fan-out oracle at the *same* shard
partitioning: each :func:`~repro.serve.hierarchy.shard_specs` slice
served alone by ``serve_sessions(fast=True)``, concatenated in shard
order.  The hierarchy's wall time is recorded for regression gating
(``tools/bench_compare.py``).
"""

from __future__ import annotations

from repro.serve import LoadSpec, generate_requests, serve_sessions
from repro.serve.hierarchy import plan_hierarchy, run_hierarchy, shard_specs

SESSIONS = 4096
CAPACITY_BPS = 80e6
SPEC = LoadSpec(
    sessions=SESSIONS,
    seed=3,
    gop_count=8,
    max_windows=4,
    mean_interarrival=1e-4,
)
#: 32 session-windows per shard puts 8 sessions in each of 512 shards —
#: a planner-scale tree width scaled down to a benchable fleet.  This is
#: the regime the hierarchy exists for: per-shard serving work is small,
#: so fan-out overhead per shard would dominate.
TARGET_SHARD_COST = 32


def _warm_caches() -> None:
    # One in-process fast-path pass warms the permutation, stream and
    # demand caches; forked workers inherit them.
    serve_sessions(generate_requests(SPEC), CAPACITY_BPS, fast=True)


def _outcome_keys(outcomes):
    return [
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
        for o in outcomes
    ]


def test_bench_hierarchy_parity(benchmark, show):
    plan = plan_hierarchy(SPEC, CAPACITY_BPS, target_shard_cost=TARGET_SHARD_COST)
    # The oracle pass also warms the caches the forked workers inherit.
    flat = [
        serve_sessions(generate_requests(shard), CAPACITY_BPS, fast=True)
        for shard in shard_specs(SPEC, plan.shards)
    ]
    hier = benchmark.pedantic(lambda: run_hierarchy(plan), rounds=1, iterations=1)

    flat_outcomes = [o for shard in flat for o in shard.outcomes]
    assert _outcome_keys(hier.outcomes) == _outcome_keys(flat_outcomes)
    assert hier.admitted_count == sum(len(s.admitted) for s in flat)
    assert hier.shed_total == sum(s.shed_total for s in flat)
    show(hier.describe())


def test_bench_hierarchy_throughput(benchmark, show):
    _warm_caches()
    plan = plan_hierarchy(SPEC, CAPACITY_BPS, target_shard_cost=TARGET_SHARD_COST)
    result = benchmark.pedantic(
        lambda: run_hierarchy(plan), rounds=2, iterations=1
    )
    assert result.sessions == SESSIONS
    assert result.admitted_count + result.rejected_count == SESSIONS
    show(result.describe())
