"""Unified columnar window-step kernel shared by every engine.

The paper's protocol is one loop — drain feedback, fit the Equation-1
burst estimate, pick a k-CPO permutation, serialize a buffer window,
score CLF/ALF at the receiver, ACK — yet the repo grew three copies of
it: the object engine (:class:`repro.core.protocol.ProtocolSession`),
the Monte-Carlo row engine (:mod:`repro.core.batch`) and the serving
fast path (:mod:`repro.serve.fastpath`).  This module hoists the row
engine's struct-of-arrays state (:class:`SessionRow`: loss-flag
buffers, channel positions, estimator ``b̂``, per-layer CLF
accumulators) and the shared window precomputation
(:class:`WindowShape`, :class:`WindowInfo`) into one place, and exposes
one entry point — :func:`step_window` — that advances a uniform group
of rows through one buffer window.  ``run_session``, ``core.batch``
and ``serve.fastpath`` all route window advancement through it.

The window step
---------------
:func:`step_window` runs one pass per window batch, bit-for-bit equal
to :class:`~repro.core.protocol.ProtocolSession` (the oracle every
differential suite in ``tests/core``, ``tests/serve`` and
``tests/scenario`` compares against, on both accel backends, with and
without NumPy).  Loss flags are Gilbert-sampled in one stacked
prefetch; the window's first-attempt serialization timeline — which is
loss-independent — is computed once per (permutation plan, window) and
shared by the whole group; rows are then split into three cohorts by
what their own randomness requires:

* *full collapse* — rows whose span of loss flags is clean take the
  shared timeline **and** the shared receiver verdict (arrivals,
  decodability, CLF, per-layer bursts are all loss-free facts of the
  schedule);
* *timeline collapse* — rows with losses but no lost anchor (or
  retransmissions disabled) reuse the shared timeline and only score
  their own deliveries;
* *scalar* — rows that shed, carry link backlog into the window, or
  must retransmit a lost anchor run the per-row sender loop
  (:func:`run_row_sender`; retransmission timing is data-dependent).

The ``kernel.collapse.*`` counters expose the split.  The accel
backend only changes how the stacked kernel calls run: the NumPy
backend vectorizes them, the pure backend loops.

Allocation rule
---------------
Stepping a window allocates many long-lived containers (per-window
results, received/decodable sets, ACK dicts) but must never create a
reference cycle: everything it builds is freed by reference counting
alone.  That is why the garbage collector is paused while windows are
stepped — its generational scans would only re-walk the growing result
heap and find nothing to free.  Each engine holds one pause around its
whole loop (:func:`repro.core.batch.run_sessions_batch`'s windows, the
serving fast path's epochs, a hierarchy worker's slabs, planning
included), so no collection runs between steps either;
:func:`step_window` and :func:`step_fleet` keep their own pause for
direct callers.  The pause (:func:`_collector_paused`) is taken only if
the collector was on, and undone in a ``finally``, so nested pauses and
callers that already turned it off are left as they were.  The caches
that outlive a step — a fast-path call's or a hierarchy worker's window
infos, shapes and plans — must stay acyclic too.  The collector is
process-wide: other threads also go uncollected while an engine loop
runs.
"""

from __future__ import annotations

import gc
import random
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import islice
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import accel, obs
from repro.core.adaptation import AdaptiveController
from repro.core.layered import LayeredPlan, LayeredScheduler
from repro.core.protocol import ProtocolConfig, SessionResult, WindowResult
from repro.media.ldu import Ldu
from repro.metrics.windows import WindowSeries
from repro.network.estimation import GilbertEstimator
from repro.network.feedback import Feedback, FeedbackCollector
from repro.network.markov import GilbertPhase, phase_params_at, phase_segments
from repro.network.packet import fragments_needed
from repro.poset.builders import independent_poset, ldu_poset

__all__ = [
    "CONTROL_PACKET_BYTES",
    "FEEDBACK_SEED_OFFSET",
    "PREFETCH_SLACK",
    "PREFETCH_WINDOWS",
    "FleetBatch",
    "RowWindow",
    "SessionRow",
    "WindowInfo",
    "WindowShape",
    "drain_acks",
    "loss_run_count",
    "plan_refills",
    "prefetch_flags",
    "row_bounds",
    "run_row_sender",
    "send_ack",
    "step_fleet",
    "step_window",
    "tier_name",
]

#: Seed offset of the feedback channel's Gilbert process
#: (must match :func:`repro.network.channel.make_duplex`).
FEEDBACK_SEED_OFFSET = 104729

#: Control (ACK) packet payload, bytes (Packetizer.control_packet default).
CONTROL_PACKET_BYTES = 64

#: Extra loss flags prefetched per window beyond the first-attempt packet
#: count, to cover retransmissions without a mid-window refill.
PREFETCH_SLACK = 32

#: Windows' worth of loss flags drawn per batched refill.  Prefetching
#: several windows ahead is free (the draws come off each row's private
#: stream in order either way) and turns many small stacked kernel calls
#: into few large ones, which is where the NumPy backend pays off.
PREFETCH_WINDOWS = 8


def tier_name() -> str:
    """Name of the one window step :func:`step_window` runs: ``"fused"``.

    Benchmark run contexts record it next to the accel backend.
    """
    return "fused"


# ----------------------------------------------------------------------
# Shared (row-independent) precomputation
# ----------------------------------------------------------------------


class WindowShape:
    """Schedulers, dependency masks and plan cache for one window shape.

    A shape is a window length plus its frame-type tuple — the same key
    :class:`~repro.core.protocol.ProtocolSession` caches schedulers by.
    Plans additionally depend on the per-layer burst bounds, which vary
    per row, so they get their own cache keyed by bounds.
    """

    __slots__ = ("transmission", "media", "need_masks", "_plans")

    def __init__(self, window: Sequence[Ldu], config: ProtocolConfig) -> None:
        media_poset = ldu_poset(window, closed_gops=config.closed_gops)
        self.media = LayeredScheduler(media_poset, effort=config.effort)
        if config.layered:
            self.transmission = self.media
        else:
            self.transmission = LayeredScheduler(
                independent_poset(len(window)), effort=config.effort
            )
        # need_masks[f]: bit f plus the bits of everything frame f
        # (transitively) depends on; f is decodable iff its mask is a
        # subset of the received-offsets mask.
        masks: List[int] = []
        for offset in range(len(window)):
            mask = 1 << offset
            for dep in media_poset.above(offset):
                mask |= 1 << dep
            masks.append(mask)
        self.need_masks = masks
        self._plans: Dict[
            Tuple[Tuple[Tuple[int, int], ...], bool],
            Tuple[LayeredPlan, Tuple[Tuple[int, ...], ...]],
        ] = {}

    def plan_for(
        self, bounds: Dict[int, int], scramble: bool
    ) -> Tuple[LayeredPlan, Tuple[Tuple[int, ...], ...]]:
        """(plan, per-layer transmission sequences) for one bounds map.

        ``calculate_permutation`` is deterministic per (size, bound,
        effort), so identical bounds always yield the identical plan the
        sequential engine would have built.
        """
        key = (tuple(sorted(bounds.items())), scramble)
        cached = self._plans.get(key)
        if cached is None:
            plan = self.transmission.plan(bounds, scramble=scramble)
            sequences = tuple(
                tuple(layer.members[frame] for frame in perm.order)
                for layer, perm in zip(plan.layers, plan.permutations)
            )
            cached = (plan, sequences)
            self._plans[key] = cached
            if obs.enabled():
                obs.counter("batch.plan_misses").inc()
        elif obs.enabled():
            obs.counter("batch.plan_hits").inc()
        return cached


class WindowInfo:
    """Packetization and timing facts of one window, shared by all rows."""

    __slots__ = (
        "n",
        "cycle",
        "anchors",
        "frag_counts",
        "frag_times",
        "frame_ser",
        "first_attempt_packets",
        "shape",
        "schedules",
    )

    def __init__(
        self,
        window: Sequence[Ldu],
        config: ProtocolConfig,
        fps: float,
        shapes: Dict[Tuple[int, tuple], WindowShape],
    ) -> None:
        n = len(window)
        self.n = n
        self.cycle = n / fps
        self.anchors = frozenset(
            offset for offset in range(n) if window[offset].frame_type.is_anchor
        )
        bandwidth = config.bandwidth_bps
        packet_size = config.packet_size_bytes
        frag_counts: List[int] = []
        frag_times: List[Tuple[float, ...]] = []
        frame_ser: List[float] = []
        for ldu in window:
            count = fragments_needed(ldu.size_bits, packet_size)
            remaining = ldu.size_bytes
            times: List[float] = []
            for _ in range(count):
                payload = min(packet_size, max(remaining, 0))
                times.append(payload * 8.0 / bandwidth)
                remaining -= payload
            frag_counts.append(count)
            frag_times.append(tuple(times))
            frame_ser.append(ldu.size_bytes * 8.0 / bandwidth)
        self.frag_counts = tuple(frag_counts)
        self.frag_times = tuple(frag_times)
        self.frame_ser = tuple(frame_ser)
        self.first_attempt_packets = sum(frag_counts)
        key = (n, tuple(ldu.frame_type for ldu in window))
        shape = shapes.get(key)
        if shape is None:
            shape = WindowShape(window, config)
            shapes[key] = shape
        self.shape = shape
        if obs.enabled():
            obs.counter("kernel.window_infos").inc()
        #: Cache of shared first-attempt timelines, keyed by
        #: (plan identity, window index).  Plans live in ``shape._plans``
        #: for the life of this info, so their ids are stable.
        self.schedules: Dict[Tuple[int, int], _Schedule] = {}


# ----------------------------------------------------------------------
# Per-row state
# ----------------------------------------------------------------------


class SessionRow:
    """One session's channel, feedback and adaptation state (SoA cell)."""

    __slots__ = (
        "result",
        "fwd_rng",
        "fwd_bad",
        "fwd_drawn",
        "flags",
        "pos",
        "fwd_busy",
        "fb_rng",
        "fb_bad",
        "fb_drawn",
        "fb_busy",
        "controller",
        "estimator",
        "collector",
        "ack_seq",
        "pending",
    )

    def __init__(self, config: ProtocolConfig, seed: int) -> None:
        self.result = SessionResult(
            config=replace(config, seed=seed),
            windows=[],
            series=WindowSeries(
                label="scrambled" if config.scramble else "in-order"
            ),
        )
        self.fwd_rng = random.Random(seed)
        self.fwd_bad = False       # Gilbert state at the END of the buffer
        self.fwd_drawn = 0         # draws consumed = absolute packet index
        self.flags: List[bool] = []
        self.pos = 0
        self.fwd_busy = 0.0
        self.fb_rng = (
            random.Random(seed + FEEDBACK_SEED_OFFSET)
            if config.lossy_feedback
            else None
        )
        self.fb_bad = False
        self.fb_drawn = 0
        self.fb_busy = 0.0
        self.controller = AdaptiveController(alpha=config.alpha)
        self.estimator = GilbertEstimator()
        self.collector = FeedbackCollector()
        self.ack_seq = 0
        self.pending: List[Tuple[float, Feedback]] = []

    def refill(self, count: int, config: ProtocolConfig) -> None:
        """Draw ``count`` more loss flags off the private forward stream.

        With a phase schedule the batch is split at phase boundaries
        (by absolute draw index, which equals the packet index) and each
        run replayed with the carried Gilbert state — exact, because the
        recurrence is per-draw Markov.
        """
        draws = [self.fwd_rng.random() for _ in range(count)]
        if config.channel_phases is None:
            states = accel.gilbert_states(
                draws, config.p_good, config.p_bad, start_bad=self.fwd_bad
            )
        else:
            states = []
            offset = 0
            bad = self.fwd_bad
            for take, p_good, p_bad in phase_segments(
                config.channel_phases, self.fwd_drawn, count
            ):
                segment = accel.gilbert_states(
                    draws[offset : offset + take], p_good, p_bad, start_bad=bad
                )
                states.extend(segment)
                bad = bool(segment[-1])
                offset += take
        self.fwd_drawn += count
        if states:
            self.fwd_bad = bool(states[-1])
        self.flags.extend(states)


@dataclass
class RowWindow:
    """What one row's sender phase hands to the batched receiver phase."""

    result: WindowResult
    sent: Dict[int, Tuple[float, bool]]   # offset -> (completed_at, delivered)
    first_attempt: List[int]
    layer_sequences: Tuple[Tuple[int, ...], ...]


# ----------------------------------------------------------------------
# Batched loss-flag prefetch
# ----------------------------------------------------------------------


def plan_refills(
    rows: Sequence[SessionRow], needed: int
) -> List[Tuple[SessionRow, int, int]]:
    """Compact each row's flag buffer; list the rows that need a refill.

    Returns ``(row, missing, needed)`` triples for every row whose
    buffer cannot cover ``needed`` flags — the shape
    :func:`prefetch_flags` consumes.
    """
    entries: List[Tuple[SessionRow, int, int]] = []
    for row in rows:
        if row.pos:
            del row.flags[: row.pos]
            row.pos = 0
        missing = needed - len(row.flags)
        if missing > 0:
            entries.append((row, missing, needed))
    return entries


def prefetch_flags(
    entries: Sequence[Tuple[SessionRow, int, int]],
    p_good: float,
    p_bad: float,
    phases: Optional[Tuple[GilbertPhase, ...]] = None,
) -> None:
    """One stacked Gilbert draw covering every listed row's deficit.

    Every row draws the same-size chunk (the largest of
    ``max(missing, PREFETCH_WINDOWS * needed)`` over the entries), so
    the stacked :func:`repro.accel.gilbert_states_batch` call stays
    rectangular.  Draws come off each row's private stream in order, so
    prefetch depth never changes any row's loss sequence.

    With ``phases`` the chunk is split at phase boundaries and replayed
    segment by segment (per-phase-segment prefetch): rows are grouped by
    their absolute draw position — rows at the same position share the
    same segmentation — and each segment is one rectangular stacked call
    with the per-row Gilbert states carried across the cut.  Splitting
    is exact (the recurrence is per-draw Markov), so a single-phase
    schedule reproduces the stationary prefetch bit for bit.
    """
    if not entries:
        return
    chunk = max(
        max(missing, PREFETCH_WINDOWS * needed)
        for _, missing, needed in entries
    )
    if phases is None:
        # ``iter(rng.random, 2.0)`` never hits its sentinel, so islice
        # runs the exact same sequence of draws as a listcomp would — in C.
        draw_rows = [
            list(islice(iter(row.fwd_rng.random, 2.0), chunk))
            for row, _, _ in entries
        ]
        states_rows = accel.gilbert_states_batch(
            draw_rows, p_good, p_bad, [row.fwd_bad for row, _, _ in entries]
        )
        for (row, _, _), states in zip(entries, states_rows):
            if states:
                row.fwd_bad = bool(states[-1])
            row.flags.extend(states)
            row.fwd_drawn += chunk
        return
    cohorts: Dict[int, List[SessionRow]] = {}
    for row, _, _ in entries:
        cohorts.setdefault(row.fwd_drawn, []).append(row)
    for start, rows in cohorts.items():
        draw_rows = [
            list(islice(iter(row.fwd_rng.random, 2.0), chunk)) for row in rows
        ]
        bads = [row.fwd_bad for row in rows]
        offset = 0
        for take, seg_good, seg_bad in phase_segments(phases, start, chunk):
            segment_rows = [draws[offset : offset + take] for draws in draw_rows]
            states_rows = accel.gilbert_states_batch(
                segment_rows, seg_good, seg_bad, bads
            )
            for row, states in zip(rows, states_rows):
                row.flags.extend(states)
            bads = [bool(states[-1]) for states in states_rows]
            offset += take
        for row, bad in zip(rows, bads):
            row.fwd_bad = bad
            row.fwd_drawn += chunk


# ----------------------------------------------------------------------
# Sender phase (per row, scalar, object-churn-free)
# ----------------------------------------------------------------------


def row_bounds(
    row: SessionRow, config: ProtocolConfig, shape: WindowShape
) -> Dict[int, int]:
    """Per-layer burst bounds exactly as ``ProtocolSession._plan_window``."""
    bounds: Dict[int, int] = {}
    if not config.scramble:
        return bounds
    quantile_bound: Optional[int] = None
    if config.burst_policy == "quantile":
        quantile_bound = row.estimator.burst_quantile(config.quantile_epsilon)
    for layer in shape.transmission.layers:
        if layer.critical or layer.size <= 1:
            continue
        if quantile_bound is not None:
            bounds[layer.index] = min(quantile_bound, layer.size)
        else:
            bounds[layer.index] = row.controller.burst_bound(
                layer.index, layer.size
            )
    return bounds


def _apply_feedback(row: SessionRow, feedback: Feedback) -> None:
    """Fold one arrived ACK into the row's estimators (Eq. 1 / quantile)."""
    if not row.collector.offer(feedback):
        if obs.enabled():
            obs.counter("protocol.acks_stale").inc()
        return
    row.result.acks_used += 1
    if obs.enabled():
        obs.counter("protocol.acks_used").inc()
    window = row.result.windows[feedback.window_index]
    for layer_index, burst in feedback.burst_estimates.items():
        layer_size = window.layer_sizes.get(layer_index, window.frames)
        if layer_size > 1:
            row.controller.observe(layer_index, layer_size, burst)
    if feedback.loss_statistics is not None:
        lost, runs, total = feedback.loss_statistics
        if total > 0:
            row.estimator.observe_counts(lost=lost, total=total, runs=runs)


def drain_acks(row: SessionRow, now: float) -> None:
    """Apply every ACK arrived by ``now`` (Equation 1 / quantile fit)."""
    pending = row.pending
    if not pending:
        return
    if len(pending) == 1:
        # The steady-state shape: exactly one in-flight ACK per window.
        arrival, feedback = pending[0]
        if arrival > now:
            return
        pending.clear()
        _apply_feedback(row, feedback)
        return
    arrived = [item for item in pending if item[0] <= now]
    row.pending = [item for item in pending if item[0] > now]
    for _, feedback in sorted(arrived, key=lambda item: item[0]):
        _apply_feedback(row, feedback)


def run_row_sender(
    row: SessionRow,
    info: WindowInfo,
    config: ProtocolConfig,
    window_index: int,
    window_start: float,
    window_end: float,
    *,
    plan: LayeredPlan,
    layer_sequences: Tuple[Tuple[int, ...], ...],
    shed: frozenset,
) -> RowWindow:
    """One row's sender loop; mirrors ``ProtocolSession.run_window``.

    :func:`step_window` has already drained this row's ACKs and passes
    the ``plan``/``layer_sequences`` it picked and the ``shed`` frame
    offsets its ``shed_for`` hook returned (the row-engine twin of
    :meth:`ProtocolSession._shed_frames`), so per-row side effects — the
    shed policy's bookkeeping in particular — happen exactly once.
    Shed frames are dropped before they consume air time or channel
    state.
    """
    frag_counts = info.frag_counts
    frag_times = info.frag_times
    frame_ser = info.frame_ser
    anchors = info.anchors
    rtt = config.rtt
    retransmit = config.retransmit_anchors
    flags = row.flags
    pos = row.pos
    busy = row.fwd_busy
    order = plan.order
    order_len = len(order)
    packets_offered = packets_lost = 0
    sent_frames = dropped = shed_frames = lost_frames = 0
    retransmissions = recovered = 0
    sent: Dict[int, Tuple[float, bool]] = {}
    first_attempt: List[int] = []
    queue: List[Tuple[int, float]] = []  # lost anchors: (offset, completed_at)
    due: List[Tuple[int, float]] = []    # retries owed before order[index]
    index = 0
    scanned = -1                         # order index whose retries are collected
    tail = False
    # Each pass serializes one frame: a retransmission whose NACK round
    # trip has elapsed, the next first attempt, or — once the order is
    # exhausted — a retry in the idle tail of the cycle.
    while True:
        if due:
            record = due.pop()
            queue.remove(record)
            offset, completed_at = record
            retry = True
        elif index < order_len:
            offset = order[index]
            if offset in shed:
                index += 1
                dropped += 1
                shed_frames += 1
                continue
            link_free = window_start if window_start > busy else busy
            if queue and scanned != index:
                scanned = index
                due = [record for record in queue if record[1] + rtt <= link_free]
                due.reverse()  # pop() then retries them in queue order
                continue
            index += 1
            if link_free + frame_ser[offset] > window_end:
                dropped += 1
                continue
            at = link_free
            retry = False
        elif queue:
            # The idle tail of the cycle is retransmission time: keep
            # retrying lost anchors, one NACK round trip apart, while
            # the cycle allows.
            record = min(queue, key=lambda r: r[1])
            queue.remove(record)
            offset, completed_at = record
            retry = tail = True
        else:
            break
        if retry:
            # A due retry's round trip has already elapsed, so it starts
            # when the link frees; a tail retry may wait for its NACK.
            due_at = completed_at + rtt
            link_free = window_start if window_start > busy else busy
            at = due_at if due_at > link_free else link_free
            if at + frame_ser[offset] > window_end:
                if tail:
                    break
                continue
        count = frag_counts[offset]
        if len(flags) - pos < count:
            deficit = count - (len(flags) - pos)
            row.pos = pos
            row.refill(max(deficit, 64), config)
            if obs.enabled():
                obs.counter("batch.refills").inc()
        completed = at
        for serialization in frag_times[offset]:
            completed = completed + serialization
        if count == 1:
            lost = 1 if flags[pos] else 0
        else:
            lost = sum(flags[pos:pos + count])
        pos += count
        busy = completed
        packets_offered += count
        packets_lost += lost
        if retry:
            retransmissions += 1
            if lost:
                queue.append((offset, completed))
            else:
                recovered += 1
                sent[offset] = (completed, True)
        else:
            sent_frames += 1
            sent[offset] = (completed, not lost)
            first_attempt.append(1 if lost else 0)
            if lost:
                lost_frames += 1
                if retransmit and offset in anchors:
                    queue.append((offset, completed))

    row.pos = pos
    row.fwd_busy = busy
    row.result.packets_offered += packets_offered
    row.result.packets_lost += packets_lost
    if obs.enabled():
        obs.counter("channel.packets").inc(packets_offered)
        obs.counter("channel.losses").inc(packets_lost)
    return RowWindow(
        result=WindowResult(
            index=window_index,
            frames=info.n,
            transmission_order=order,
            sent=sent_frames,
            dropped_at_sender=dropped,
            shed=shed_frames,
            lost_in_network=lost_frames,
            retransmissions=retransmissions,
            recovered=recovered,
            layer_sizes={layer.index: layer.size for layer in plan.layers},
        ),
        sent=sent,
        first_attempt=first_attempt,
        layer_sequences=layer_sequences,
    )


# ----------------------------------------------------------------------
# Receiver phase (batched across rows) and feedback path
# ----------------------------------------------------------------------


def loss_run_count(indicator: Sequence[int]) -> int:
    """Number of maximal loss runs in a 0/1 indicator (scalar, exact)."""
    runs = 0
    previous = 0
    for value in indicator:
        if value and not previous:
            runs += 1
        previous = value
    return runs


def send_ack(
    row: SessionRow,
    config: ProtocolConfig,
    window_index: int,
    window_end: float,
    result: WindowResult,
    control_serialization: float,
    *,
    loss_rates: Optional[Dict[int, float]] = None,
    loss_statistics: Optional[Tuple[int, int, int]] = None,
    burst_estimates: Optional[Dict[int, int]] = None,
    feedback: Optional[Feedback] = None,
) -> None:
    """Mirror of ``ProtocolSession._send_ack`` without packet objects.

    ``loss_rates``/``loss_statistics``/``burst_estimates`` let the
    window step pass the values it already derived for a whole collapsed
    cohort (they are pure functions of ``result`` fields shared across
    the cohort, and :class:`Feedback` consumers never mutate them, so
    one dict may back many ACKs).  A fully pre-built ``feedback``
    (matching ``row.ack_seq``) skips message construction entirely.
    """
    if feedback is None or feedback.sequence != row.ack_seq:
        if loss_rates is None:
            loss_rates = {
                layer: min(1.0, burst / max(1, result.frames))
                for layer, burst in result.layer_bursts.items()
            }
        if loss_statistics is None:
            loss_statistics = (
                result.first_attempt_stats[0],
                result.first_attempt_stats[1],
                result.first_attempt_stats[2],
            )
        if burst_estimates is None:
            burst_estimates = dict(result.layer_bursts)
        feedback = Feedback(
            sequence=row.ack_seq,
            window_index=window_index,
            burst_estimates=burst_estimates,
            loss_rates=loss_rates,
            loss_statistics=loss_statistics,
        )
    row.ack_seq += 1
    row.result.acks_sent += 1
    if obs.enabled():
        obs.counter("protocol.acks_sent").inc()
    start = window_end if window_end > row.fb_busy else row.fb_busy
    completed = start + control_serialization
    row.fb_busy = completed
    lost = False
    if row.fb_rng is not None:
        draw = row.fb_rng.random()
        if config.channel_phases is None:
            p_good, p_bad = config.p_good, config.p_bad
        else:
            # The feedback channel walks the same phase schedule, one
            # draw per ACK — mirrors SwitchingGilbertModel.step.
            p_good, p_bad = phase_params_at(
                config.channel_phases, row.fb_drawn
            )
        row.fb_drawn += 1
        if row.fb_bad:
            if draw >= p_bad:
                row.fb_bad = False
        else:
            if draw >= p_good:
                row.fb_bad = True
        lost = row.fb_bad
    if lost:
        row.result.acks_lost += 1
        if obs.enabled():
            obs.counter("protocol.acks_lost").inc()
        result.ack_delivered = False
        return
    row.pending.append((completed + config.rtt / 2.0, feedback))


def _control_serialization_for(
    control_serialization: Union[float, Callable[[SessionRow], float]],
    row: SessionRow,
) -> float:
    if callable(control_serialization):
        return control_serialization(row)
    return control_serialization


#: (decodable, clf, layer bursts, ACK loss rates) of one received mask.
_MaskVerdict = Tuple[set, int, Dict[int, int], Dict[int, float]]


def _mask_verdict(
    mask: int,
    info: WindowInfo,
    sequences: Tuple[Tuple[int, ...], ...],
) -> _MaskVerdict:
    """Receiver facts that depend only on the received-offsets bitmask.

    Returns ``(decodable, clf, layer_bursts, ack_loss_rates)``: frame
    ``f`` is decodable iff its need-mask is a subset of ``mask``, the
    CLF is the longest run of undecodable offsets, and each layer's
    burst is the longest run of unreceived frames in that layer's
    transmission sequence.  The returned containers are shared
    read-only by every row with the same mask and plan.
    """
    n = info.n
    need_masks = info.shape.need_masks
    decodable = set()
    clf = run = 0
    for offset in range(n):
        if need_masks[offset] & ~mask:
            run += 1
            if run > clf:
                clf = run
        else:
            run = 0
            decodable.add(offset)
    bursts: Dict[int, int] = {}
    for layer, sequence in zip(info.shape.transmission.layers, sequences):
        burst = run = 0
        for offset in sequence:
            if mask >> offset & 1:
                run = 0
            else:
                run += 1
                if run > burst:
                    burst = run
        bursts[layer.index] = burst
    rates = {
        layer: min(1.0, burst / max(1, n)) for layer, burst in bursts.items()
    }
    return decodable, clf, bursts, rates


def _receive_and_ack(
    pairs: Sequence[Tuple[SessionRow, RowWindow]],
    info: WindowInfo,
    config: ProtocolConfig,
    window_index: int,
    window_end: float,
    playback_start: float,
    slot_times: Sequence[float],
    control_serialization: Union[float, Callable[[SessionRow], float]],
) -> None:
    """Arrivals, decodability, CLF and ACKs for rows with per-row deliveries."""
    n = info.n
    rtt_half = config.rtt / 2.0
    verdicts: Dict[Tuple[int, int], _MaskVerdict] = {}
    for row, data in pairs:
        result = data.result
        arrival_times = result.arrival_times
        received = set()
        mask = late = 0
        for offset, (completed, delivered) in data.sent.items():
            if not delivered:
                continue
            arrival = completed + rtt_half
            if arrival <= slot_times[offset]:
                received.add(offset)
                arrival_times[offset] = arrival
                mask |= 1 << offset
            else:
                late += 1
        # Plans (and so their sequence tuples) are cached per shape and
        # alive for the whole step, so identity keys are stable here.
        key = (mask, id(data.layer_sequences))
        verdict = verdicts.get(key)
        if verdict is None:
            verdict = _mask_verdict(mask, info, data.layer_sequences)
            verdicts[key] = verdict
        decodable, clf, bursts, rates = verdict
        result.late = late
        result.received = received
        result.playback_start = playback_start
        result.decodable = decodable
        result.unit_losses = n - len(decodable)
        result.clf = clf
        result.layer_bursts = bursts
        first_attempt = data.first_attempt
        stats = (
            sum(first_attempt),
            loss_run_count(first_attempt),
            len(first_attempt),
        )
        result.first_attempt_stats = stats
        send_ack(
            row,
            config,
            window_index,
            window_end,
            result,
            _control_serialization_for(control_serialization, row),
            loss_rates=rates,
            loss_statistics=stats,
            burst_estimates=bursts,
        )
        row.result.windows.append(result)
        row.result.series.add_clf(clf, result.alf)


def _observe_window(results: Sequence[WindowResult], rows: int) -> None:
    """The shared ``protocol.*`` obs block of one window step."""
    obs.counter("protocol.windows").inc(rows)
    clf_hist = obs.histogram("protocol.window_clf")
    alf_hist = obs.histogram("protocol.window_alf")
    sent = lost = retransmissions = recovered = late = dropped = 0
    for result in results:
        sent += result.sent
        lost += result.lost_in_network
        retransmissions += result.retransmissions
        recovered += result.recovered
        late += result.late
        dropped += result.dropped_at_sender
        clf_hist.observe(result.clf)
        alf_hist.observe(result.alf)
    obs.counter("protocol.frames_sent").inc(sent)
    obs.counter("protocol.frames_lost").inc(lost)
    obs.counter("protocol.retransmissions").inc(retransmissions)
    obs.counter("protocol.recovered").inc(recovered)
    obs.counter("protocol.late").inc(late)
    obs.counter("protocol.dropped_at_sender").inc(dropped)


# ----------------------------------------------------------------------
# The window step: shared first-attempt timelines and cohort collapse
# ----------------------------------------------------------------------


class _Schedule:
    """The loss-independent first-attempt timeline of one (plan, window).

    With an empty retransmission queue and no link backlog, the sender
    loop's timing never reads a loss flag: every attempted frame starts
    back-to-back from the window start and the budget check is pure
    arithmetic.  The timeline is therefore shared by every row whose
    window stays in that regime, float-for-float.
    """

    __slots__ = (
        "attempts",
        "dropped",
        "span",
        "final_busy",
        "sent_count",
        "layer_sizes",
        "clean",
    )

    def __init__(
        self,
        info: WindowInfo,
        plan: LayeredPlan,
        window_start: float,
        window_end: float,
    ) -> None:
        frame_ser = info.frame_ser
        frag_times = info.frag_times
        frag_counts = info.frag_counts
        busy = window_start
        attempts: List[Tuple[int, float, int, int]] = []
        dropped = 0
        pack = 0
        for offset in plan.order:
            if busy + frame_ser[offset] > window_end:
                dropped += 1
                continue
            completed = busy
            for serialization in frag_times[offset]:
                completed = completed + serialization
            count = frag_counts[offset]
            attempts.append((offset, completed, pack, count))
            pack += count
            busy = completed
        self.attempts = tuple(attempts)
        self.dropped = dropped
        self.span = pack
        self.final_busy = busy
        self.sent_count = len(attempts)
        self.layer_sizes = {layer.index: layer.size for layer in plan.layers}
        self.clean: Optional[_CleanVerdict] = None


class _CleanVerdict:
    """Shared receiver outcome of a loss-free window on one timeline."""

    __slots__ = (
        "received",
        "arrival_times",
        "late",
        "decodable",
        "unit_losses",
        "clf",
        "layer_bursts",
        "ack_loss_rates",
        "ack_stats",
        "ack_feedback",
        "result_dict",
    )

    def __init__(
        self,
        sched: _Schedule,
        info: WindowInfo,
        sequences: Tuple[Tuple[int, ...], ...],
        rtt_half: float,
        slot_times: Sequence[float],
    ) -> None:
        received = set()
        arrival_times: Dict[int, float] = {}
        mask = late = 0
        for offset, completed, _, _ in sched.attempts:
            arrival = completed + rtt_half
            if arrival <= slot_times[offset]:
                received.add(offset)
                arrival_times[offset] = arrival
                mask |= 1 << offset
            else:
                late += 1
        decodable, clf, bursts, rates = _mask_verdict(mask, info, sequences)
        self.received = received
        self.arrival_times = arrival_times
        self.late = late
        self.decodable = decodable
        self.unit_losses = info.n - len(decodable)
        self.clf = clf
        self.layer_bursts = bursts
        # ACK fields shared by every row on this verdict (read-only).
        self.ack_loss_rates = rates
        self.ack_stats = (0, 0, sched.sent_count)
        #: Memo for the cohort's ACK message: rows stepping in lockstep
        #: share the same sequence number, so one immutable Feedback
        #: serves the whole cohort (rebuilt only on a sequence mismatch).
        self.ack_feedback: Optional[Feedback] = None
        #: ``__dict__`` template of the cohort's WindowResult: every
        #: field is cohort-identical (scalars, or the shared read-only
        #: containers above), so per-row results are one dict copy.
        self.result_dict: Optional[Dict[str, object]] = None


def _schedule_for(
    info: WindowInfo,
    plan: LayeredPlan,
    window_index: int,
    window_start: float,
    window_end: float,
) -> _Schedule:
    key = (id(plan), window_index)
    sched = info.schedules.get(key)
    if sched is None:
        sched = _Schedule(info, plan, window_start, window_end)
        info.schedules[key] = sched
    return sched


def _step_fused(
    rows: Sequence[SessionRow],
    info: WindowInfo,
    config: ProtocolConfig,
    fps: float,
    window_index: int,
    control_serialization: Union[float, Callable[[SessionRow], float]],
    shed_for,
) -> None:
    n = info.n
    cycle = info.cycle
    window_start = window_index * cycle
    window_end = window_start + cycle
    playback_start = window_end + config.rtt / 2.0
    slot_times = [playback_start + offset / fps for offset in range(n)]
    rtt_half = config.rtt / 2.0
    retransmit = config.retransmit_anchors
    anchors = info.anchors
    scramble = config.scramble
    shape = info.shape
    track = obs.enabled()

    prefetch_flags(
        plan_refills(rows, info.first_attempt_packets + PREFETCH_SLACK),
        config.p_good,
        config.p_bad,
        phases=config.channel_phases,
    )

    all_results: List[WindowResult] = []
    pending: List[Tuple[SessionRow, RowWindow]] = []
    full_collapse = timeline_collapse = scalar_rows = 0
    packets_total = 0
    losses_total = 0
    cs_fixed = (
        None if callable(control_serialization) else control_serialization
    )
    plan_for = shape.plan_for
    no_shed = frozenset()
    # Most rows carry the same burst bounds (clean feedback histories
    # agree), so memoize the last plan's schedule locally.
    last_plan = None
    last_sequences: Optional[Tuple[Tuple[int, ...], ...]] = None
    last_sched: Optional[_Schedule] = None

    for row in rows:
        drain_acks(row, window_start)
        bounds = row_bounds(row, config, shape)
        plan, sequences = plan_for(bounds, scramble)
        shed = shed_for(row, plan) if shed_for is not None else no_shed
        if plan is last_plan:
            sequences = last_sequences
            sched = last_sched
        else:
            sched = _schedule_for(info, plan, window_index, window_start, window_end)
            last_plan, last_sequences, last_sched = plan, sequences, sched

        cohort = "scalar"
        lost_counts: Optional[List[int]] = None
        if not shed and row.fwd_busy <= window_start:
            pos = row.pos
            flags = row.flags
            span = sched.span
            if len(flags) - pos >= span:
                try:
                    first_rel = flags.index(True, pos, pos + span) - pos
                except ValueError:
                    cohort = "clean"
                else:
                    counts = [0] * sched.sent_count
                    eligible = True
                    for k, (offset, _, pack, count) in enumerate(sched.attempts):
                        if pack + count <= first_rel:
                            continue
                        base = pos + pack
                        if count == 1:
                            lost = 1 if flags[base] else 0
                        else:
                            lost = sum(flags[base:base + count])
                        if lost:
                            counts[k] = lost
                            if retransmit and offset in anchors:
                                eligible = False
                                break
                    if eligible:
                        cohort = "timeline"
                        lost_counts = counts

        if cohort == "clean":
            # Full collapse: the shared timeline *and* the shared
            # receiver verdict apply — only per-row containers and the
            # feedback channel are touched.
            full_collapse += 1
            span = sched.span
            row.pos += span
            if sched.attempts:
                row.fwd_busy = sched.final_busy
            row.result.packets_offered += span
            packets_total += span
            verdict = sched.clean
            if verdict is None:
                verdict = _CleanVerdict(
                    sched, info, sequences, rtt_half, slot_times
                )
                sched.clean = verdict
            # Every container below is shared verdict state: clean rows
            # never reach the receive phase, so nothing mutates them.
            template = verdict.result_dict
            if template is None:
                result = WindowResult(
                    index=window_index,
                    frames=n,
                    transmission_order=plan.order,
                    layer_sizes=sched.layer_sizes,
                )
                result.sent = sched.sent_count
                result.dropped_at_sender = sched.dropped
                result.received = verdict.received
                result.playback_start = playback_start
                result.arrival_times = verdict.arrival_times
                result.late = verdict.late
                result.decodable = verdict.decodable
                result.unit_losses = verdict.unit_losses
                result.clf = verdict.clf
                result.layer_bursts = verdict.layer_bursts
                result.first_attempt_stats = verdict.ack_stats
                verdict.result_dict = dict(result.__dict__)
            else:
                result = WindowResult.__new__(WindowResult)
                result.__dict__.update(template)
            fb = verdict.ack_feedback
            if fb is None or fb.sequence != row.ack_seq:
                fb = Feedback(
                    sequence=row.ack_seq,
                    window_index=window_index,
                    burst_estimates=verdict.layer_bursts,
                    loss_rates=verdict.ack_loss_rates,
                    loss_statistics=verdict.ack_stats,
                )
                verdict.ack_feedback = fb
            send_ack(
                row,
                config,
                window_index,
                window_end,
                result,
                control_serialization(row) if cs_fixed is None else cs_fixed,
                feedback=fb,
            )
            row.result.windows.append(result)
            row.result.series.add_clf(result.clf, result.alf)
            all_results.append(result)
        elif cohort == "timeline":
            # Timeline collapse: shared serialization times, per-row
            # deliveries; no retransmission tail can fire.
            timeline_collapse += 1
            assert lost_counts is not None
            result = WindowResult(
                index=window_index,
                frames=n,
                transmission_order=plan.order,
                layer_sizes=sched.layer_sizes,
            )
            sent: Dict[int, Tuple[float, bool]] = {}
            first_attempt: List[int] = []
            lost_total = 0
            lost_frames = 0
            for k, (offset, completed, _, _) in enumerate(sched.attempts):
                lost = lost_counts[k]
                if lost:
                    sent[offset] = (completed, False)
                    first_attempt.append(1)
                    lost_frames += 1
                    lost_total += lost
                else:
                    sent[offset] = (completed, True)
                    first_attempt.append(0)
            span = sched.span
            row.pos += span
            if sched.attempts:
                row.fwd_busy = sched.final_busy
            result.sent = sched.sent_count
            result.dropped_at_sender = sched.dropped
            result.lost_in_network = lost_frames
            row.result.packets_offered += span
            row.result.packets_lost += lost_total
            packets_total += span
            losses_total += lost_total
            pending.append(
                (
                    row,
                    RowWindow(
                        result=result,
                        sent=sent,
                        first_attempt=first_attempt,
                        layer_sequences=sequences,
                    ),
                )
            )
        else:
            # Scalar fallback: shedding, link backlog, short flag
            # buffers or a lost anchor (retransmission timing is
            # data-dependent) — run the per-row sender loop.
            scalar_rows += 1
            pending.append(
                (
                    row,
                    run_row_sender(
                        row,
                        info,
                        config,
                        window_index,
                        window_start,
                        window_end,
                        plan=plan,
                        layer_sequences=sequences,
                        shed=shed,
                    ),
                )
            )

    if track and (packets_total or losses_total):
        obs.counter("channel.packets").inc(packets_total)
        obs.counter("channel.losses").inc(losses_total)

    if pending:
        _receive_and_ack(
            pending,
            info,
            config,
            window_index,
            window_end,
            playback_start,
            slot_times,
            control_serialization,
        )
        all_results.extend(data.result for _, data in pending)

    if track:
        obs.counter("kernel.collapse.full").inc(full_collapse)
        obs.counter("kernel.collapse.timeline").inc(timeline_collapse)
        obs.counter("kernel.collapse.scalar").inc(scalar_rows)
        _observe_window(all_results, len(rows))


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Turn the garbage collector off for the block, if it was on.

    Stepping creates no reference cycles (the module's allocation
    rule), so a collection during a step can free nothing and only
    re-scans the result heap.  A collector the caller already turned
    off — or an enclosing step paused — is left as it was.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def step_window(
    rows: Sequence[SessionRow],
    info: WindowInfo,
    config: ProtocolConfig,
    fps: float,
    window_index: int,
    *,
    control_serialization: Union[float, Callable[[SessionRow], float]],
    shed_for=None,
) -> None:
    """Advance a uniform group of rows through one buffer window.

    Every engine's window advancement funnels through here.  ``rows``
    must agree on everything but their seeds: one ``config`` (its
    ``seed`` field is ignored — each row carries its own channel
    state), one ``info`` (so one effective bandwidth), one playback
    rate.  ``control_serialization`` is the ACK's serialization time —
    a float for fixed-rate fleets, or a ``row -> float`` callable when
    shares differ per row (the serving fast path).  ``shed_for`` is
    the load-shedding hook: an optional ``(row, plan) -> frozenset``
    callback naming frame offsets to drop at the sender.  The serve
    fast path (:mod:`repro.serve.fastpath`) binds it to the service's
    shedding policy; replication sweeps leave it unset.

    Results accumulate on each row's :class:`SessionResult` exactly as
    the sequential engine would have produced them.
    The garbage collector is paused for the duration of the step (see
    the module's allocation rule).
    """
    if not rows:
        return
    if obs.enabled():
        obs.counter("kernel.steps").inc()
        obs.counter("kernel.rows").inc(len(rows))
        obs.histogram("kernel.rows_per_window").observe(len(rows))
    with _collector_paused():
        _step_fused(
            rows, info, config, fps, window_index, control_serialization, shed_for
        )


# ----------------------------------------------------------------------
# Fleet-slab stepping: many uniform groups, one window epoch
# ----------------------------------------------------------------------


@dataclass
class FleetBatch:
    """One uniform row group ready to advance through one window.

    The slab counterpart of a single :func:`step_window` call: ``rows``
    must satisfy the same uniformity contract (one config family, one
    window info, one playback rate).  A slab is a list of batches —
    typically every group of every fleet a worker advances in one
    window epoch — handed to :func:`step_fleet` together so the
    loss-flag prefetch can stack across all of them.
    """

    rows: Sequence[SessionRow]
    info: WindowInfo
    config: ProtocolConfig
    fps: float
    window_index: int
    control_serialization: Union[float, Callable[[SessionRow], float]]
    shed_for: Optional[Callable[[SessionRow, LayeredPlan], frozenset]] = None


def step_fleet(batches: Sequence[FleetBatch]) -> int:
    """Advance a slab of uniform row groups through one window epoch.

    The fleet-slab entry point behind the serving fast path and the
    hierarchical fan-out (:mod:`repro.serve.hierarchy`): refills are
    planned per batch but *drawn* once per Gilbert parameter family
    across the whole slab — one stacked
    :func:`repro.accel.gilbert_states_batch` call covers every fleet
    advancing in the epoch — then each batch steps through
    :func:`step_window`.  Results are bit-for-bit what stepping each
    batch alone would produce: draws come off each row's private
    stream in order, so prefetch batching never changes a loss
    sequence.

    Returns the number of rows refilled (callers feed their own
    telemetry from it).  Like :func:`step_window`, it pauses the
    garbage collector while it runs.
    """
    with _collector_paused():
        # The slab-wide refill groups rows by their full channel dynamics:
        # stationary parameters AND phase schedule.  Two batches differing
        # only in ``channel_phases`` must never share a stacked prefetch.
        refills: Dict[
            Tuple[float, float, Optional[Tuple[GilbertPhase, ...]]],
            List[Tuple[SessionRow, int, int]],
        ] = {}
        for batch in batches:
            entries = plan_refills(
                batch.rows, batch.info.first_attempt_packets + PREFETCH_SLACK
            )
            if entries:
                refills.setdefault(
                    (
                        batch.config.p_good,
                        batch.config.p_bad,
                        batch.config.channel_phases,
                    ),
                    [],
                ).extend(entries)
        refill_rows = 0
        for (p_good, p_bad, phases), entries in refills.items():
            prefetch_flags(entries, p_good, p_bad, phases=phases)
            refill_rows += len(entries)
        if obs.enabled():
            obs.counter("kernel.slab.steps").inc()
            obs.counter("kernel.slab.batches").inc(len(batches))
            if refill_rows:
                obs.counter("kernel.slab.refill_rows").inc(refill_rows)
        for batch in batches:
            step_window(
                batch.rows,
                batch.info,
                batch.config,
                batch.fps,
                batch.window_index,
                control_serialization=batch.control_serialization,
                shed_for=batch.shed_for,
            )
        return refill_rows
