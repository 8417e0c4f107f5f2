"""Window-batched fast path for the single-host service.

``StreamingService`` (the event-loop path) runs its ``K`` sessions one
:meth:`~repro.core.protocol.ProtocolSession.run_window` call at a time,
paying the sequential engine's full per-packet object churn per viewer.
But the scheduling decisions the event loop exists to order — arrivals,
admission tests, per-window share reallocation, departures — never read
a single simulation result: shares depend only on the active demand set,
and demands come from the streams themselves.  The media simulation of
each admitted session is therefore a pure function of its request and
of the share it is handed at each of its window boundaries.

The fast path exploits exactly that factorisation:

1. **Plan.**  A :class:`_PlanningService` replays the *identical* event
   timeline — same events, same heap order, same admission calls, same
   ``scheduler.allocate`` invocations — with the media engine replaced
   by a stub, recording every admitted session's per-window bottleneck
   share.  Because nothing the stub skips can influence scheduling,
   the recorded shares are bit-for-bit the ones the event-loop path
   would have applied.
2. **Execute.**  The admitted fleet then advances window-by-window in
   lockstep through the columnar window-step kernel
   (:func:`repro.core.kernel.step_window` — the same engine behind
   :mod:`repro.core.batch`): one
   :func:`repro.accel.gilbert_states_batch` prefetch across the fleet
   per window, per-window and per-layer CLF scored once per distinct
   received-offsets bitmask, permutation plans shared per window
   shape, and whole rows collapsed onto shared first-attempt
   timelines when their losses allow.  Load shedding runs through the
   same :class:`~repro.serve.shedding.LayeredShedPolicy` via the
   kernel's ``shed_for`` hook.  Windows whose rows all share one
   (window shape, share) key batch across the whole fleet
   (``serve.fastpath.windows_batched``); windows made dynamic by
   arrivals, departures or scheduler rebalancing fall back to
   per-session execution (``serve.fastpath.windows_fallback``) — the
   same arithmetic the event loop performs, minus the batching.

Either way the produced :class:`~repro.serve.service.ServiceResult` is
pinned bit-for-bit against :class:`StreamingService` on every accel
backend (``tests/serve/test_fastpath.py``, ``tests/serve/test_parity.py``).
Multi-shard fleets fan out through :mod:`repro.serve.hierarchy`, which
reuses this module's planning service and fleet execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Sequence, Tuple

from repro import obs
from repro.core import kernel
from repro.core.kernel import (
    CONTROL_PACKET_BYTES as _CONTROL_PACKET_BYTES,
    SessionRow as _Row,
    WindowInfo as _WindowInfo,
)
from repro.errors import ConfigurationError, ProtocolError
from repro.media.ldu import Ldu
# Unused here; kept bound because perfbench's tracer wraps this name.
from repro.serve.loadgen import generate_requests as generate_requests
from repro.serve.service import (
    _MIN_SHARE_BPS,
    ServiceResult,
    SessionOutcome,
    SessionRequest,
    StreamingService,
)

__all__ = [
    "FastStreamingService",
    "serve_sessions_fast",
]


# ----------------------------------------------------------------------
# Phase 1 — planning: replay the exact scheduling timeline
# ----------------------------------------------------------------------


class _PlanStub:
    """Stands in for a :class:`ServedSession` during the planning pass."""

    __slots__ = ("stream", "shares")

    def __init__(self, stream) -> None:
        if len(stream) == 0:
            raise ProtocolError("cannot stream an empty stream")
        self.stream = stream
        self.shares: List[float] = []


@dataclass
class _SessionPlan:
    """One admitted session's complete schedule: windows and shares."""

    outcome: SessionOutcome
    windows: List[Tuple[Ldu, ...]]
    shares: List[float] = field(default_factory=list)


class _PlanningService(StreamingService):
    """The service with the media engine stubbed out.

    Scheduling in :class:`StreamingService` never reads a simulation
    result — shares and admission depend only on the demand set — so
    replaying the event loop with ``run_window`` skipped records the
    exact per-window share sequence of every admitted session.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.session_plans: Dict[str, _SessionPlan] = {}

    def _create_session(self, request: SessionRequest):
        return _PlanStub(request.stream)

    def _execute_window(
        self, active, index: int, window: Sequence[Ldu], share_bps: float
    ) -> None:
        active.session.shares.append(share_bps)

    def _finalize_session(self, active) -> None:
        self.session_plans[active.outcome.request.session_id] = _SessionPlan(
            outcome=active.outcome,
            windows=active.windows,
            shares=active.session.shares,
        )


# ----------------------------------------------------------------------
# Phase 2 — execution: the fleet in window lockstep
# ----------------------------------------------------------------------


class _FleetRow(_Row):
    """One served session as a batch-engine row with service state."""

    __slots__ = (
        "plan",
        "config",
        "fps",
        "native_bps",
        "bandwidth_bps",
        "min_share_bps",
        "shed_total",
        "group_id",
    )

    def __init__(self, plan: _SessionPlan) -> None:
        request = plan.outcome.request
        super().__init__(request.config, request.config.seed)
        self.plan = plan
        self.config = request.config
        self.fps = request.stream.fps
        #: Mirrors ``ServedSession``: the provisioned rate is a hard
        #: cap (a bigger share is idle headroom, never a speed-up).
        self.native_bps = request.config.bandwidth_bps
        self.bandwidth_bps = request.config.bandwidth_bps
        self.min_share_bps = request.config.bandwidth_bps
        self.shed_total = 0
        self.group_id = 0

    def apply_share(self, share_bps: float) -> float:
        """Clamp and apply one window's share; twin of ``set_bandwidth``."""
        share_bps = min(max(share_bps, _MIN_SHARE_BPS), self.native_bps)
        self.min_share_bps = min(self.min_share_bps, share_bps)
        self.bandwidth_bps = share_bps
        return share_bps


def _make_shed_for(shed_policy, window: Sequence[Ldu], fps: float):
    """Bind the service's shed policy to the row engine's hook.

    Mirrors :meth:`ServedSession._shed_frames`: the policy sees the
    row's current bottleneck share, its provisioned rate and its own
    feedback-fed channel estimator.
    """

    def shed_for(row: _FleetRow, plan) -> frozenset:
        shed = shed_policy.select(
            window,
            plan,
            row.bandwidth_bps,
            fps,
            native_bps=row.native_bps,
            estimator=row.estimator,
        )
        if shed:
            row.shed_total += len(shed)
            if obs.enabled():
                obs.counter("serve.shed_frames").inc(len(shed))
        return shed

    return shed_for


def _ack_serialization(row: _FleetRow) -> float:
    """The ACK rides the feedback channel at the session's *current*
    share — the event-loop path resizes both channel directions."""
    return _CONTROL_PACKET_BYTES * 8.0 / row.bandwidth_bps


class _FleetExecution:
    """One admitted fleet advancing in window-ordinal lockstep.

    The execute half of the plan-then-execute fast path, packaged so
    both drivers share it: :func:`_execute_fleet` steps one fleet per
    epoch, the hierarchical fan-out (:mod:`repro.serve.hierarchy`)
    interleaves *many* fleets per epoch through one
    :func:`repro.core.kernel.step_fleet` slab call.

    ``batches_for(ordinal)`` groups the fleet's live rows into uniform
    :class:`~repro.core.kernel.FleetBatch` groups — rows share a batch
    iff their (config sans seed, fps), window tuple and effective share
    all agree (the grouping invariant :func:`step_window` requires) —
    with serve-grade shedding and the share-dependent ACK serialization
    bound in.  ``finalize()`` writes each row's results back onto its
    session outcome.
    """

    __slots__ = (
        "rows",
        "shed_policy",
        "total_windows",
        "_shape_caches",
        "_info_cache",
        "_window_ids",
        "_window_ids_by_obj",
    )

    def __init__(self, plans: List[_SessionPlan], shed_policy) -> None:
        self.rows = [_FleetRow(plan) for plan in plans]
        self.shed_policy = shed_policy
        # Shape caches (schedulers, dependency masks, permutation plans)
        # are keyed by the config family only, so every bandwidth
        # variant of a window shares one plan cache.  Window infos
        # additionally depend on the packetization timing, hence on the
        # effective share.
        self._shape_caches: Dict[tuple, dict] = {}
        self._info_cache: Dict[tuple, _WindowInfo] = {}
        # Intern the expensive-to-hash group-key components once: rows
        # share a batch group iff their (config sans seed, fps), window
        # tuple and effective share all agree, but hashing whole configs
        # and 24-LDU window tuples on every row-step would dominate the
        # bookkeeping.
        config_ids: Dict[tuple, int] = {}
        for row in self.rows:
            base = (replace(row.config, seed=0), row.fps)
            row.group_id = config_ids.setdefault(base, len(config_ids))
        self._window_ids: Dict[Tuple[Ldu, ...], int] = {}
        # Identity memo over the content map: the service interns window
        # tuples per stream shape, so most rows carry the *same* tuple
        # objects and the 24-LDU content hash runs once per distinct
        # object (ids are stable here — the plans keep every window
        # alive).
        self._window_ids_by_obj: Dict[int, int] = {}
        self.total_windows = max(len(row.plan.windows) for row in self.rows)

    def batches_for(self, ordinal: int) -> List[kernel.FleetBatch]:
        """The epoch's uniform row groups, shares applied, ready to step."""
        groups: Dict[tuple, List[_FleetRow]] = {}
        group_info: Dict[tuple, _WindowInfo] = {}
        group_window: Dict[tuple, Tuple[Ldu, ...]] = {}
        info_cache = self._info_cache
        window_ids_by_obj = self._window_ids_by_obj
        for row in self.rows:
            if ordinal >= len(row.plan.windows):
                continue
            effective = row.apply_share(row.plan.shares[ordinal])
            row.plan.outcome.share_bps = effective
            window = row.plan.windows[ordinal]
            wid = window_ids_by_obj.get(id(window))
            if wid is None:
                wid = self._window_ids.setdefault(window, len(self._window_ids))
                window_ids_by_obj[id(window)] = wid
            key = (row.group_id, effective, wid)
            info = info_cache.get(key)
            if info is None:
                # The family carries the phase schedule too: scenarios
                # that differ only in channel dynamics get separate
                # shape/permutation-plan caches (their burst bounds
                # evolve differently, so sharing would couple them).
                family = (
                    row.config.closed_gops,
                    row.config.effort,
                    row.config.layered,
                    row.config.channel_phases,
                )
                shapes = self._shape_caches.setdefault(family, {})
                info = _WindowInfo(
                    window,
                    replace(row.config, seed=0, bandwidth_bps=effective),
                    row.fps,
                    shapes,
                )
                info_cache[key] = info
            members = groups.get(key)
            if members is None:
                groups[key] = [row]
                group_info[key] = info
                group_window[key] = window
            else:
                members.append(row)
        shed_policy = self.shed_policy
        batches: List[kernel.FleetBatch] = []
        for key, members in groups.items():
            window = group_window[key]
            fps = members[0].fps
            batches.append(
                kernel.FleetBatch(
                    rows=members,
                    info=group_info[key],
                    config=members[0].config,  # uniform bar the seed
                    fps=fps,
                    window_index=ordinal,
                    control_serialization=_ack_serialization,
                    shed_for=(
                        _make_shed_for(shed_policy, window, fps)
                        if shed_policy is not None
                        else None
                    ),
                )
            )
        return batches

    def finalize(self) -> None:
        """Write each finished row's results back onto its outcome."""
        for row in self.rows:
            outcome = row.plan.outcome
            outcome.result = row.result
            outcome.shed_frames = row.shed_total
            outcome.min_share_bps = row.min_share_bps
            if obs.enabled():
                obs.counter("serve.sessions_completed").inc()
                session_id = outcome.request.session_id
                obs.gauge(f"serve.session.{session_id}.mean_clf").set(
                    outcome.result.mean_clf
                )
                obs.gauge(f"serve.session.{session_id}.mean_alf").set(
                    outcome.result.series.alf_summary.mean
                )
                obs.histogram("serve.session_stream_clf").observe(
                    outcome.result.stream_clf
                )


def _execute_fleet(plans: List[_SessionPlan], shed_policy) -> None:
    """Run every admitted session's schedule, window ordinals in lockstep.

    Each epoch's groups step through the kernel's fleet-slab entry
    point (:func:`repro.core.kernel.step_fleet`): rows that cannot
    cover their window's first-attempt packets (plus retransmission
    slack) refill together, one stacked Gilbert call per
    channel-parameter family, then every group advances.
    """
    execution = _FleetExecution(plans, shed_policy)
    track = obs.enabled()
    for ordinal in range(execution.total_windows):
        batches = execution.batches_for(ordinal)
        refilled = kernel.step_fleet(batches)
        if track:
            obs.counter("serve.fastpath.steps").inc()
            if refilled:
                obs.counter("serve.fastpath.refill_rows").inc(refilled)
            for batch in batches:
                if len(batch.rows) > 1:
                    obs.counter("serve.fastpath.windows_batched").inc(len(batch.rows))
                else:
                    obs.counter("serve.fastpath.windows_fallback").inc()
    execution.finalize()


# ----------------------------------------------------------------------
# Public fast-path API
# ----------------------------------------------------------------------


def serve_sessions_fast(
    requests: Sequence[SessionRequest],
    capacity_bps: float,
    *,
    loop=None,
    **kwargs,
) -> ServiceResult:
    """Serve a fleet through the window-batched engine.

    Bit-for-bit identical to
    :func:`repro.serve.service.serve_sessions` on every accel backend.
    A caller-supplied event ``loop`` may carry foreign events the
    planning pass must not consume, so that case falls back to the
    event-loop service wholesale (``serve.fastpath.fallback_runs``).
    """
    if loop is not None:
        if obs.enabled():
            obs.counter("serve.fastpath.fallback_runs").inc()
        service = StreamingService(capacity_bps, loop=loop, **kwargs)
        service.submit_all(requests)
        return service.run()
    planner = _PlanningService(capacity_bps, **kwargs)
    planner.submit_all(requests)
    result = planner.run()
    plans = [
        planner.session_plans[outcome.request.session_id]
        for outcome in result.outcomes
        if outcome.admitted
    ]
    if plans:
        _execute_fleet(plans, planner._shed_policy)
    if obs.enabled():
        obs.counter("serve.fastpath.runs").inc()
        obs.counter("serve.fastpath.sessions").inc(len(plans))
    return result


class FastStreamingService:
    """Drop-in front end with the :class:`StreamingService` interface.

    Requests are collected on submit and the whole fleet runs through
    :func:`serve_sessions_fast` when :meth:`run` is called — submission
    order, arrival times and admission decisions behave exactly as on
    the event-loop service.
    """

    def __init__(self, capacity_bps: float, **kwargs) -> None:
        if capacity_bps <= 0:
            raise ConfigurationError("capacity must be positive")
        self.capacity_bps = capacity_bps
        self._kwargs = kwargs
        self._requests: List[SessionRequest] = []
        self._ran = False

    def submit(self, request: SessionRequest) -> None:
        if self._ran:
            raise ConfigurationError("service already ran; build a new one")
        self._requests.append(request)

    def submit_all(self, requests: Sequence[SessionRequest]) -> None:
        for request in requests:
            self.submit(request)

    def run(self) -> ServiceResult:
        self._ran = True
        return serve_sessions_fast(
            self._requests, self.capacity_bps, **self._kwargs
        )
