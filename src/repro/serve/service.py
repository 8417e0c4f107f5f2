"""The multi-session streaming service over one shared bottleneck.

``StreamingService`` runs ``K`` concurrent :class:`ProtocolSession`
engines on the discrete-event :class:`~repro.network.simulator.EventLoop`.
The sessions share one bottleneck gateway of fixed capacity; a pluggable
bandwidth scheduler (:mod:`repro.serve.bandwidth`) splits that capacity,
admission control (:mod:`repro.serve.admission`) refuses sessions whose
critical layers would not fit, and a shedding policy
(:mod:`repro.serve.shedding`) drops B-layers first when a share falls
below a window's demand.

Timeline model
--------------
Each session keeps the *private* media timeline of the sequential
engine (windows at ``k x cycle`` on its own clock) so its results stay
comparable — and, for ``K = 1`` under fair share, bit-for-bit equal —
to :func:`repro.core.protocol.run_session`.  The service's event loop
orders the *scheduling decisions*: session arrivals, admission tests,
per-window share reallocation and departures.  Shares change only at
window boundaries, which keeps every session's window deterministic
given the active set at its start.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.protocol import ProtocolConfig, ProtocolSession, SessionResult
from repro.errors import ConfigurationError
from repro.media.ldu import Ldu
from repro.media.stream import MediaStream
from repro.network.simulator import EventLoop
from repro.serve.admission import AdmissionController, estimate_demand
from repro.serve.bandwidth import FairShareScheduler, SessionDemand
from repro.serve.shedding import LayeredShedPolicy

__all__ = [
    "SessionRequest",
    "SessionOutcome",
    "ServiceResult",
    "ServedSession",
    "StreamingService",
    "serve_sessions",
    "build_service_manifest",
]

#: Floor applied to allocated shares before they reach a session's
#: config — a starved priority class still needs a positive bandwidth
#: for the engine's timing arithmetic (it will shed essentially
#: everything instead).
_MIN_SHARE_BPS = 1.0

#: Identity-keyed cache of a stream's buffer-window slicing.  Load
#: generators intern LDU tuples, so a whole fleet's sessions usually
#: share a handful of ``ldus`` objects — caching the window tuples by
#: that identity both skips the re-slicing and hands every session the
#: *same* window tuple objects, which downstream group-batching keys on
#: cheaply.  Entries pin the tuple, so its ``id`` cannot recycle while
#: cached; the ``is`` check on lookup makes the key airtight.
_WINDOWS_CACHE_SIZE = 128
_windows_cache: "OrderedDict[tuple, Tuple[tuple, List[Tuple[Ldu, ...]]]]" = (
    OrderedDict()
)


def _windows_for(
    stream: MediaStream, window_frames: int, max_windows: Optional[int]
) -> List[Tuple[Ldu, ...]]:
    key = (id(stream.ldus), window_frames, max_windows)
    hit = _windows_cache.get(key)
    if hit is not None and hit[0] is stream.ldus:
        _windows_cache.move_to_end(key)
        return list(hit[1])
    windows = list(stream.windows(window_frames))
    if max_windows is not None:
        windows = windows[:max_windows]
    _windows_cache[key] = (stream.ldus, windows)
    if len(_windows_cache) > _WINDOWS_CACHE_SIZE:
        _windows_cache.popitem(last=False)
    return list(windows)


@dataclass(frozen=True)
class SessionRequest:
    """One viewer asking the service for a stream."""

    session_id: str
    stream: MediaStream
    config: ProtocolConfig
    arrival_time: float = 0.0
    weight: float = 1.0
    priority: int = 0
    max_windows: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.session_id:
            raise ConfigurationError("session_id must be non-empty")
        if self.arrival_time < 0:
            raise ConfigurationError("arrival time must be non-negative")


class ServedSession(ProtocolSession):
    """A protocol session whose bandwidth is dictated by the service.

    Extends the sequential engine with two service hooks: a share setter
    applied at window boundaries, and the load-shedding override of
    :meth:`ProtocolSession._shed_frames`.  With the share pinned at the
    config's own bandwidth and no shedding policy the behaviour is
    bit-for-bit that of the parent class.
    """

    def __init__(
        self,
        stream: MediaStream,
        config: ProtocolConfig,
        *,
        session_id: str,
        shed_policy: Optional[LayeredShedPolicy] = None,
    ) -> None:
        super().__init__(stream, config)
        self.session_id = session_id
        self.shed_policy = shed_policy
        self.shed_total = 0
        #: The session's provisioned rate: a share above it is idle
        #: headroom (the viewer's own access link), never a speed-up.
        self.native_bps = config.bandwidth_bps
        self.min_share_bps = config.bandwidth_bps

    def set_bandwidth(self, share_bps: float) -> None:
        """Apply a bottleneck share (takes effect for the next window)."""
        share_bps = min(max(share_bps, _MIN_SHARE_BPS), self.native_bps)
        self.min_share_bps = min(self.min_share_bps, share_bps)
        if share_bps == self.config.bandwidth_bps:
            return
        self.config = replace(self.config, bandwidth_bps=share_bps)
        self.forward.bandwidth_bps = share_bps
        self.feedback_channel.bandwidth_bps = share_bps

    def _shed_frames(self, window_index, window: Sequence[Ldu], plan):
        if self.shed_policy is None:
            return frozenset()
        shed = self.shed_policy.select(
            window,
            plan,
            self.config.bandwidth_bps,
            self.stream.fps,
            native_bps=self.native_bps,
            estimator=self.channel_estimator,
        )
        if shed:
            self.shed_total += len(shed)
            if obs.enabled():
                obs.counter("serve.shed_frames").inc(len(shed))
        return shed


@dataclass
class SessionOutcome:
    """Everything the service records about one request."""

    request: SessionRequest
    admitted: bool
    reason: str = ""
    result: Optional[SessionResult] = None
    shed_frames: int = 0
    share_bps: float = 0.0       # last share applied
    min_share_bps: float = 0.0   # worst share seen over the session
    demand_bps: float = 0.0
    critical_bps: float = 0.0


@dataclass
class ServiceResult:
    """Outcome of one full service run."""

    capacity_bps: float
    scheduler: str
    shedding: bool
    admission: bool
    outcomes: List[SessionOutcome] = field(default_factory=list)

    @property
    def admitted(self) -> List[SessionOutcome]:
        return [outcome for outcome in self.outcomes if outcome.admitted]

    @property
    def rejected(self) -> List[SessionOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.admitted]

    @property
    def admitted_results(self) -> List[SessionResult]:
        return [
            outcome.result for outcome in self.admitted if outcome.result is not None
        ]

    @property
    def mean_clf(self) -> float:
        """Mean of the admitted sessions' per-window CLF means."""
        results = self.admitted_results
        if not results:
            return 0.0
        return sum(result.mean_clf for result in results) / len(results)

    @property
    def worst_clf(self) -> int:
        """Worst whole-stream CLF over the admitted sessions."""
        results = self.admitted_results
        return max((result.stream_clf for result in results), default=0)

    @property
    def shed_total(self) -> int:
        return sum(outcome.shed_frames for outcome in self.admitted)

    def describe(self) -> str:
        return (
            f"{len(self.admitted)}/{len(self.outcomes)} sessions admitted "
            f"({self.scheduler} split of {self.capacity_bps / 1e6:.2f} Mbps): "
            f"mean CLF {self.mean_clf:.2f}, worst CLF {self.worst_clf}, "
            f"{self.shed_total} frames shed"
        )

    def summary_dict(self) -> Dict[str, object]:
        """JSON-ready summary for run manifests."""
        return {
            "capacity_bps": self.capacity_bps,
            "scheduler": self.scheduler,
            "shedding": self.shedding,
            "admission": self.admission,
            "sessions": len(self.outcomes),
            "admitted": len(self.admitted),
            "rejected": len(self.rejected),
            "mean_clf": self.mean_clf,
            "worst_clf": self.worst_clf,
            "shed_frames": self.shed_total,
            "per_session": [
                {
                    "session_id": outcome.request.session_id,
                    "admitted": outcome.admitted,
                    "reason": outcome.reason,
                    "priority": outcome.request.priority,
                    "mean_clf": (
                        outcome.result.mean_clf if outcome.result else None
                    ),
                    "stream_clf": (
                        outcome.result.stream_clf if outcome.result else None
                    ),
                    "shed_frames": outcome.shed_frames,
                    "min_share_bps": outcome.min_share_bps,
                }
                for outcome in self.outcomes
            ],
        }


@dataclass
class _Active:
    """Book-keeping for one admitted, still-streaming session."""

    outcome: SessionOutcome
    session: ServedSession
    demand: SessionDemand
    windows: List[Tuple[Ldu, ...]]
    next_index: int = 0
    #: The session's window-event callback, allocated once at admission
    #: and re-scheduled for every window.
    window_event: Optional[Callable[[], None]] = None


class StreamingService:
    """Run many sessions against one bottleneck on an event loop."""

    def __init__(
        self,
        capacity_bps: float,
        *,
        scheduler=None,
        shedding: bool = True,
        admission: bool = True,
        shed_headroom: float = 0.05,
        admission_headroom: float = 0.0,
        loop: Optional[EventLoop] = None,
    ) -> None:
        if capacity_bps <= 0:
            raise ConfigurationError("capacity must be positive")
        self.capacity_bps = capacity_bps
        self.scheduler = scheduler if scheduler is not None else FairShareScheduler()
        self.shedding = shedding
        self.admission = admission
        self.loop = loop if loop is not None else EventLoop()
        self._shed_policy = (
            LayeredShedPolicy(headroom=shed_headroom) if shedding else None
        )
        self._admission = (
            AdmissionController(
                self.scheduler, capacity_bps, headroom=admission_headroom
            )
            if admission
            else None
        )
        self._active: Dict[str, _Active] = {}
        self._seen_ids: set = set()
        # Epoch cache of the scheduler's allocation.  Both shipped
        # schedulers are pure functions of (demand set, capacity), and
        # demands are frozen per session, so the allocation can only
        # change when the active set changes — arrivals and departures
        # invalidate it, every window event in between reuses it.
        self._shares_cache: Optional[Dict[str, float]] = None
        self._result = ServiceResult(
            capacity_bps=capacity_bps,
            scheduler=getattr(self.scheduler, "name", type(self.scheduler).__name__),
            shedding=shedding,
            admission=admission,
        )
        self._ran = False

    # ------------------------------------------------------------------
    # Submission and admission
    # ------------------------------------------------------------------

    def submit(self, request: SessionRequest) -> None:
        """Queue a session request; it arrives at ``request.arrival_time``."""
        if self._ran:
            raise ConfigurationError("service already ran; build a new one")
        if obs.enabled():
            obs.counter("serve.sessions_submitted").inc()
        self.loop.schedule(request.arrival_time, lambda: self._arrive(request))

    def submit_all(self, requests: Sequence[SessionRequest]) -> None:
        for request in requests:
            self.submit(request)

    def _demands(self) -> List[SessionDemand]:
        return [active.demand for active in self._active.values()]

    def _arrive(self, request: SessionRequest) -> None:
        if request.session_id in self._seen_ids:
            raise ConfigurationError(
                f"duplicate session id {request.session_id!r}"
            )
        self._seen_ids.add(request.session_id)
        full, critical = estimate_demand(
            request.stream, request.config, max_windows=request.max_windows
        )
        demand = SessionDemand(
            session_id=request.session_id,
            demand_bps=full,
            critical_bps=critical,
            weight=request.weight,
            priority=request.priority,
        )
        outcome = SessionOutcome(
            request=request,
            admitted=True,
            demand_bps=full,
            critical_bps=critical,
        )
        self._result.outcomes.append(outcome)
        if self._admission is not None:
            decision = self._admission.evaluate(self._demands(), demand)
            if not decision.admitted:
                outcome.admitted = False
                outcome.reason = decision.reason
                outcome.share_bps = decision.share_bps
                if obs.enabled():
                    obs.counter("serve.sessions_rejected").inc()
                return
            outcome.reason = decision.reason
        session = self._create_session(request)
        windows = _windows_for(
            request.stream, request.config.window_frames, request.max_windows
        )
        active = _Active(
            outcome=outcome,
            session=session,
            demand=demand,
            windows=windows,
        )
        active.window_event = lambda: self._window_event(request.session_id)
        self._active[request.session_id] = active
        self._shares_cache = None
        if obs.enabled():
            obs.counter("serve.sessions_admitted").inc()
            obs.gauge("serve.active_sessions").set(len(self._active))
        self.loop.schedule(self.loop.now, active.window_event)

    # ------------------------------------------------------------------
    # Windows and departures
    # ------------------------------------------------------------------

    def _create_session(self, request: SessionRequest):
        """Build the engine that will stream one admitted request.

        The fast path's planning pass (:mod:`repro.serve.fastpath`)
        overrides this with a stub so the exact scheduling timeline can
        be replayed without any media simulation.
        """
        return ServedSession(
            request.stream,
            request.config,
            session_id=request.session_id,
            shed_policy=self._shed_policy,
        )

    def _execute_window(
        self, active: _Active, index: int, window: Sequence[Ldu], share_bps: float
    ) -> None:
        """Apply one window's bottleneck share and stream the window."""
        active.session.set_bandwidth(share_bps)
        active.outcome.share_bps = active.session.config.bandwidth_bps
        active.session.run_window(index, window)

    def _window_event(self, session_id: str) -> None:
        active = self._active[session_id]
        shares = self._shares_cache
        if shares is None:
            shares = self.scheduler.allocate(self._demands(), self.capacity_bps)
            self._shares_cache = shares
        index = active.next_index
        window = active.windows[index]
        self._execute_window(active, index, window, shares[session_id])
        active.next_index += 1
        if obs.enabled():
            obs.counter("serve.windows").inc()
        if active.next_index < len(active.windows):
            cycle = len(window) / active.session.stream.fps
            self.loop.schedule_in(cycle, active.window_event)
        else:
            self._depart(session_id)

    def _finalize_session(self, active: _Active) -> None:
        """Record a finished session's results on its outcome."""
        outcome = active.outcome
        outcome.result = active.session.result
        outcome.shed_frames = active.session.shed_total
        outcome.min_share_bps = active.session.min_share_bps
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

    def _depart(self, session_id: str) -> None:
        active = self._active.pop(session_id)
        self._shares_cache = None
        self._finalize_session(active)
        if obs.enabled():
            obs.gauge("serve.active_sessions").set(len(self._active))

    # ------------------------------------------------------------------

    def run(self) -> ServiceResult:
        """Drive the event loop until every session finished."""
        self._ran = True
        self.loop.run()
        if obs.enabled():
            obs.gauge("serve.capacity_bps").set(self.capacity_bps)
        return self._result


def serve_sessions(
    requests: Sequence[SessionRequest],
    capacity_bps: float,
    *,
    fast: bool = False,
    **kwargs,
) -> ServiceResult:
    """One-shot convenience: submit every request, run, return the result.

    ``fast=True`` routes the run through the window-batched execution
    engine (:func:`repro.serve.fastpath.serve_sessions_fast`), which is
    pinned bit-for-bit against this event-loop path.
    """
    if fast:
        from repro.serve.fastpath import serve_sessions_fast

        return serve_sessions_fast(requests, capacity_bps, **kwargs)
    service = StreamingService(capacity_bps, **kwargs)
    service.submit_all(requests)
    return service.run()


def build_service_manifest(
    result: ServiceResult,
    *,
    seed: Optional[int] = None,
    wall_seconds: float = 0.0,
) -> Dict[str, object]:
    """A run manifest for one service run (see ``repro obs validate``)."""
    from repro import accel
    from repro.experiments.persist import build_run_manifest

    return build_run_manifest(
        experiment="serve",
        config={
            "capacity_bps": result.capacity_bps,
            "scheduler": result.scheduler,
            "shedding": result.shedding,
            "admission": result.admission,
            "sessions": len(result.outcomes),
        },
        seed=seed,
        backend=accel.backend_name(),
        metrics=obs.snapshot(),
        wall_seconds=wall_seconds,
        virtual_seconds=None,
        shape_holds=None,
        summary=result.summary_dict(),
    )
