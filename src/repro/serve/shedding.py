"""Graceful load shedding: B-layers first, anchors last.

When the service squeezes a session's bottleneck share below its
provisioned rate, whole windows stop fitting their cycle and something
must be dropped *at the sender*.  PROTOCOL.md step 2 already drops
lowest-priority-last through the layered transmission order; this
policy makes the drop proactive, layer-aware and adaptive:

* non-critical (B) layers are shed first, deepest layer first, exactly
  mirroring the layered order's priority;
* within a layer, frames are shed from the **tail of the layer's
  permuted transmission sequence**, so the survivors stay spread the
  way ``calculatePermutation`` arranged them — shedding never
  reintroduces the contiguous gaps error spreading exists to avoid;
* critical (anchor) layers are never shed; if the share cannot even
  carry the anchors, the engine's per-frame budget handles the rest
  (and admission control should have refused the session);
* on top of a fixed ``headroom`` fraction, the policy reserves air time
  for anchor *retransmissions*, sized from the session's own channel
  estimate (loss rate and expected retry count from the Gilbert fit the
  ACK feedback maintains).  An unlucky anchor loss then has room to be
  repaired instead of cascading into budget drops of later anchors —
  the failure mode that turns one lost I frame into a dead GOP.

A session running at (or above) its provisioned bandwidth never sheds:
the unloaded engine's idle tail already is its retransmission budget,
and the ``K = 1`` serve path must stay bit-for-bit equal to the
sequential engine.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.layered import LayeredPlan
from repro.errors import ConfigurationError
from repro.media.ldu import Ldu
from repro.network.estimation import GilbertEstimator

__all__ = ["LayeredShedPolicy"]

#: Windows whose per-frame sums one policy remembers (FIFO beyond it).
_WINDOW_SUMS_SIZE = 256


class LayeredShedPolicy:
    """Shed just enough non-critical frames to fit the current share.

    Parameters
    ----------
    headroom:
        Minimum fraction of the cycle's air time kept free for
        retransmissions, even when the channel estimate says losses are
        rare.
    retry_cap:
        Upper bound on the expected-attempts factor derived from the
        estimated ``p_bad`` (a nearly-absorbing BAD state would
        otherwise reserve the whole cycle).
    reserve_cap:
        Upper bound on the total reserved fraction of the cycle; the
        rest is always available for first-attempt media.
    """

    def __init__(
        self,
        *,
        headroom: float = 0.05,
        retry_cap: float = 4.0,
        reserve_cap: float = 0.35,
    ) -> None:
        if not 0.0 <= headroom < 1.0:
            raise ConfigurationError("headroom must be within [0, 1)")
        if retry_cap < 1.0:
            raise ConfigurationError("retry cap must be at least 1")
        if not 0.0 <= reserve_cap < 1.0:
            raise ConfigurationError("reserve cap must be within [0, 1)")
        self.headroom = headroom
        self.retry_cap = retry_cap
        self.reserve_cap = reserve_cap
        #: ``id(window) -> (window, sizes, anchor_bits, total_bits)``.
        #: Every row of a fleet sheds against the same few window
        #: tuples, so their sums are computed once per window.  The entry
        #: pins its tuple, so a recycled ``id`` never matches (``is``).
        self._window_sums: Dict[
            int, Tuple[tuple, List[int], int, float]
        ] = {}

    def reserve_bits(
        self,
        air_bits: float,
        anchor_bits: float,
        estimator: Optional[GilbertEstimator],
    ) -> float:
        """Air time (in bits) set aside for anchor retransmissions."""
        reserve = self.headroom * air_bits
        if estimator is not None:
            p_bad = min(estimator.p_bad, 0.99)
            retry_factor = min(self.retry_cap, 1.0 / (1.0 - p_bad))
            reserve = max(
                reserve, estimator.loss_rate * anchor_bits * retry_factor
            )
        return min(reserve, self.reserve_cap * air_bits)

    def select(
        self,
        window: Sequence[Ldu],
        plan: LayeredPlan,
        bandwidth_bps: float,
        fps: float,
        *,
        native_bps: Optional[float] = None,
        estimator: Optional[GilbertEstimator] = None,
    ) -> frozenset:
        """Frame offsets to shed for one window at ``bandwidth_bps``.

        ``native_bps`` is the bandwidth the session was provisioned
        with; at or above it the policy never sheds.  ``estimator`` is
        the session's feedback-fed Gilbert fit, used to size the
        retransmission reserve.
        """
        if native_bps is not None and bandwidth_bps >= native_bps:
            return frozenset()
        n = len(window)
        cycle = n / fps
        air_bits = bandwidth_bps * cycle
        sizes, anchor_bits, total_bits = self._sums(window)
        budget = air_bits - self.reserve_bits(air_bits, anchor_bits, estimator)
        excess = total_bits - budget
        if excess <= 0:
            return frozenset()
        shed = set()
        for layer, perm in zip(reversed(plan.layers), reversed(plan.permutations)):
            if layer.critical:
                continue
            sequence = [layer.members[frame] for frame in perm.order]
            for offset in reversed(sequence):
                if excess <= 0:
                    break
                shed.add(offset)
                excess -= sizes[offset]
            if excess <= 0:
                break
        return frozenset(shed)

    def _sums(self, window: Sequence[Ldu]) -> Tuple[List[int], int, float]:
        """(per-frame bits, anchor bits, total bits) of one window."""
        hit = self._window_sums.get(id(window))
        if hit is not None and hit[0] is window:
            return hit[1], hit[2], hit[3]
        sizes = [ldu.size_bits for ldu in window]
        anchor_bits = sum(
            size
            for ldu, size in zip(window, sizes)
            if ldu.frame_type.is_anchor
        )
        total_bits = float(sum(sizes))
        if type(window) is tuple:  # immutable, so safe to remember
            memo = self._window_sums
            if len(memo) >= _WINDOW_SUMS_SIZE:
                del memo[next(iter(memo))]
            memo[id(window)] = (window, sizes, anchor_bits, total_bits)
        return sizes, anchor_bits, total_bits
