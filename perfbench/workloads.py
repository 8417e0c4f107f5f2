"""The three workloads: inputs from a seed, one timed call, an oracle.

Each workload builds its inputs from the workload seed before anything
is timed, exposes one closed-loop ``call`` (the unit a steady-state
measurement repeats), counts the session-windows a call simulated, and
reduces a call's result to one digest per session.  ``oracle_digests``
recomputes a seeded sample of sessions through the repository's
reference engines — :class:`repro.core.protocol.ProtocolSession` or the
event-loop :func:`repro.serve.serve_sessions` — so a session whose
digest differs from its oracle counts as failed.

Sizes (``smoke=False``) are the ones ``perfbench/README.md`` documents;
``smoke=True`` shrinks every workload to a second or two for the
benchmark's own tests.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Dict, List, Optional

# Requests are generated through ``serve.generate_requests`` (a module
# attribute) so a traced run sees input generation as load-generator time.
from repro import serve
from repro.core.batch import run_sessions_batch
from repro.core.protocol import ProtocolConfig, ProtocolSession
from repro.experiments.config import FIGURE8_TOP, FIGURE_GOPS, FIGURE_MOVIE
from repro.serve import LoadSpec, serve_sessions
from repro.serve.admission import ADMITTED_REASON, estimate_demand
from repro.serve.hierarchy import plan_hierarchy, run_hierarchy
from repro.traces.synthetic import calibrated_stream

#: Per-session outcome columns of a hierarchy result, in digest order.
OUTCOME_COLUMNS = (
    "admitted",
    "has_result",
    "priority",
    "mean_clf",
    "stream_clf",
    "shed_frames",
    "share_bps",
    "min_share_bps",
    "demand_bps",
    "critical_bps",
)


def session_digest(result) -> int:
    """Digest of one :class:`~repro.core.protocol.SessionResult`.

    A hash over every recorded field, with sets and dicts hashed as
    frozensets (order-free), so equal results digest equal whatever
    their insertion order.  Digests are only compared within one
    process.
    """
    return hash(
        (
            result.acks_sent,
            result.acks_used,
            result.acks_lost,
            result.packets_offered,
            result.packets_lost,
            result.mean_clf,
            tuple(
                (
                    w.index,
                    w.frames,
                    w.transmission_order,
                    w.sent,
                    w.dropped_at_sender,
                    w.shed,
                    w.lost_in_network,
                    w.retransmissions,
                    w.recovered,
                    w.late,
                    frozenset(w.received),
                    frozenset(w.decodable),
                    frozenset(w.layer_bursts.items()),
                    frozenset(w.layer_sizes.items()),
                    frozenset(w.arrival_times.items()),
                    w.playback_start,
                    w.first_attempt_stats,
                    w.clf,
                    w.unit_losses,
                    w.ack_delivered,
                )
                for w in result.windows
            ),
        )
    )


def outcome_digest(outcome) -> int:
    """Digest of one served session: admission, shares and its result."""
    result = outcome.result
    return hash(
        (
            outcome.admitted,
            outcome.reason,
            outcome.shed_frames,
            outcome.share_bps,
            outcome.min_share_bps,
            outcome.demand_bps,
            outcome.critical_bps,
            session_digest(result) if result is not None else None,
        )
    )


def _sample(rng: random.Random, population: int, size: int) -> List[int]:
    """Index 0 plus ``size - 1`` seeded others, sorted."""
    size = max(1, min(size, population))
    return [0] + sorted(rng.sample(range(1, population), size - 1))


class McFigure8:
    """The paper's Figure-8 experiment as a Monte-Carlo batch."""

    name = "mc-figure8"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        count, self.max_windows, sample = (8, 6, 3) if smoke else (256, 100, 8)
        rng = random.Random(seed)
        self.stream = calibrated_stream(
            FIGURE_MOVIE, gop_count=FIGURE_GOPS, seed=FIGURE8_TOP.stream_seed
        )
        self.config = FIGURE8_TOP.protocol()
        self.seeds = rng.sample(range(1, 2**31), count)
        self.sample = _sample(rng, count, sample)
        self.sessions = count

    def call(self, jobs: Optional[int] = None):
        return run_sessions_batch(
            self.stream, self.config, seeds=self.seeds, max_windows=self.max_windows
        )

    @staticmethod
    def windows(results) -> int:
        return sum(len(result.windows) for result in results)

    @staticmethod
    def digests(results) -> List[int]:
        return [session_digest(result) for result in results]

    def oracle_digests(self) -> Dict[int, int]:
        return {
            index: session_digest(
                ProtocolSession(
                    self.stream, replace(self.config, seed=self.seeds[index])
                ).run(max_windows=self.max_windows)
            )
            for index in self.sample
        }


#: Small packets on a mostly clean channel: per-packet Gilbert prefetch
#: and wide clean row groups dominate.
SERVE_CONFIG = ProtocolConfig(p_good=0.995, p_bad=0.6, packet_size_bytes=2048)


class ServeSteady:
    """Steady serving: a fleet admitted at full demand, fast path."""

    name = "serve-steady"
    #: The call is ``serve_sessions`` itself, so its wall minus the
    #: planning replay and the kernel is the fast path's batch assembly.
    assembly_root = True

    def __init__(self, seed: int, smoke: bool = False) -> None:
        sessions, gops, windows, sample = (
            (16, 4, 2, 4) if smoke else (1024, 24, 12, 32)
        )
        spec = LoadSpec(
            sessions=sessions,
            seed=seed,
            gop_count=gops,
            max_windows=windows,
            mean_interarrival=0.0,
            config=SERVE_CONFIG,
        )
        self.requests = serve.generate_requests(spec)
        # Every viewer's full demand fits: capacity is one provisioned
        # rate per session, so all are admitted at full share.
        self.capacity_bps = SERVE_CONFIG.bandwidth_bps * sessions
        self.sample = _sample(random.Random(seed), sessions, sample)
        self.sessions = sessions

    def call(self, jobs: Optional[int] = None):
        return serve_sessions(self.requests, self.capacity_bps, fast=True)

    @staticmethod
    def windows(result) -> int:
        return sum(
            len(outcome.result.windows)
            for outcome in result.outcomes
            if outcome.admitted and outcome.result is not None
        )

    def digests(self, result) -> List[Optional[int]]:
        by_id = {o.request.session_id: o for o in result.outcomes}
        return [
            outcome_digest(by_id[request.session_id])
            if request.session_id in by_id
            else None
            for request in self.requests
        ]

    def oracle_digests(self) -> Dict[int, int]:
        # Each session's outcome depends only on its own request and its
        # share sequence; at one provisioned rate per session the shares
        # are full in any sub-fleet, so the event loop over the sampled
        # sessions alone is the oracle for those sessions.
        sub = [self.requests[index] for index in self.sample]
        oracle = serve_sessions(sub, SERVE_CONFIG.bandwidth_bps * len(sub))
        by_id = {o.request.session_id: o for o in oracle.outcomes}
        return {
            index: outcome_digest(by_id[self.requests[index].session_id])
            for index in self.sample
        }


#: Offered load per modeled server, as a multiple of its capacity.
FANOUT_LOAD = 1.6


class PlanFanout:
    """One over-subscribed ``repro serve plan`` arm through the hierarchy."""

    name = "plan-fanout"
    #: Traced calls run the workers in-process, where spans are visible.
    traced_jobs = 1

    def __init__(self, seed: int, smoke: bool = False) -> None:
        sessions, sample = (256, 2) if smoke else (8192, 4)
        spec = LoadSpec(
            sessions=sessions,
            seed=seed,
            gop_count=8,
            max_windows=4,
            mean_interarrival=1e-4,
        )
        # Provisioned as the capacity-plan experiment does: size the
        # shard tree, then set each server's capacity so its share of
        # the fleet at the measured per-viewer demand is FANOUT_LOAD
        # times what it can carry.
        sizing = plan_hierarchy(spec, 1.0)
        probe = replace(spec, sessions=1)
        request = serve.generate_requests(probe)[0]
        full_bps, _ = estimate_demand(
            request.stream, request.config, max_windows=probe.max_windows
        )
        offered_bps = spec.sessions / sizing.shards * full_bps
        self.plan = replace(sizing, capacity_bps=offered_bps / FANOUT_LOAD)
        self.sample = _sample(random.Random(seed), self.plan.shards, sample)
        self.sessions = sessions

    def call(self, jobs: Optional[int] = None):
        return run_hierarchy(self.plan, jobs=jobs)

    @staticmethod
    def windows(result) -> int:
        return int(sum(result.window_totals["rows"]))

    @staticmethod
    def digests(result) -> List[int]:
        columns = [result.columns[name] for name in OUTCOME_COLUMNS]
        admitted = result.columns["admitted"]
        return [
            hash(
                tuple(column[row] for column in columns)
                + (
                    ADMITTED_REASON
                    if admitted[row] > 0.0
                    else result.rejected_reasons.get(row, ""),
                )
            )
            for row in range(result.sessions)
        ]

    def oracle_digests(self) -> Dict[int, int]:
        digests: Dict[int, int] = {}
        for index in self.sample:
            task = self.plan.shard_tasks[index]
            oracle = serve_sessions(
                serve.generate_requests(task.spec), self.plan.capacity_bps
            )
            for outcome in oracle.outcomes:
                result = outcome.result
                values = {
                    "admitted": 1.0 if outcome.admitted else 0.0,
                    "has_result": 0.0 if result is None else 1.0,
                    "priority": float(outcome.request.priority),
                    "mean_clf": result.mean_clf if result is not None else 0.0,
                    "stream_clf": (
                        float(result.stream_clf) if result is not None else 0.0
                    ),
                    "shed_frames": float(outcome.shed_frames),
                    "share_bps": outcome.share_bps,
                    "min_share_bps": outcome.min_share_bps,
                    "demand_bps": outcome.demand_bps,
                    "critical_bps": outcome.critical_bps,
                }
                row = task.row_offset + int(outcome.request.session_id[1:])
                digests[row] = hash(
                    tuple(values[name] for name in OUTCOME_COLUMNS)
                    + (outcome.reason,)
                )
        return digests


WORKLOADS = {cls.name: cls for cls in (McFigure8, ServeSteady, PlanFanout)}
