"""Tests for the layered load-shedding policy (repro.serve.shedding)."""

from __future__ import annotations

import pytest

from repro.core.layered import LayeredScheduler
from repro.errors import ConfigurationError
from repro.media.gop import GOP_12
from repro.media.stream import make_video_stream
from repro.network.estimation import GilbertEstimator
from repro.poset.builders import ldu_poset
from repro.serve.shedding import LayeredShedPolicy

FPS = 24.0


@pytest.fixture(scope="module")
def window():
    stream = make_video_stream(GOP_12, gop_count=1, fps=FPS)
    return tuple(stream.ldus)


@pytest.fixture(scope="module")
def plan(window):
    return LayeredScheduler(ldu_poset(window)).plan({}, scramble=True)


def window_bps(window):
    """The bandwidth that exactly carries the window in one cycle."""
    cycle = len(window) / FPS
    return sum(ldu.size_bits for ldu in window) / cycle


class TestSelect:
    def test_no_shed_at_native_bandwidth(self, window, plan):
        policy = LayeredShedPolicy()
        native = window_bps(window)
        assert (
            policy.select(window, plan, native, FPS, native_bps=native)
            == frozenset()
        )

    def test_no_shed_above_native(self, window, plan):
        policy = LayeredShedPolicy()
        native = window_bps(window)
        assert (
            policy.select(window, plan, native * 2, FPS, native_bps=native)
            == frozenset()
        )

    def test_sheds_only_non_critical_frames(self, window, plan):
        policy = LayeredShedPolicy()
        shed = policy.select(window, plan, window_bps(window) * 0.7, FPS)
        assert shed
        anchors = {i for i, ldu in enumerate(window) if ldu.frame_type.is_anchor}
        assert not (shed & anchors)

    def test_anchors_survive_any_squeeze(self, window, plan):
        policy = LayeredShedPolicy()
        shed = policy.select(window, plan, 1.0, FPS)
        anchors = {i for i, ldu in enumerate(window) if ldu.frame_type.is_anchor}
        assert not (shed & anchors)
        # everything non-critical is gone
        assert shed == set(range(len(window))) - anchors

    def test_sheds_deepest_layer_first(self, window, plan):
        """A mild squeeze takes frames from the last (deepest) layer only."""
        policy = LayeredShedPolicy(headroom=0.0)
        sizes = [ldu.size_bits for ldu in window]
        deepest = plan.layers[-1]
        assert not deepest.critical
        cycle = len(window) / FPS
        # Air time for everything except one deepest-layer frame.
        squeeze = (sum(sizes) - min(sizes[o] for o in deepest.members)) / cycle
        shed = policy.select(window, plan, squeeze, FPS)
        assert shed
        assert shed <= set(deepest.members)

    def test_sheds_from_tail_of_permuted_sequence(self, window, plan):
        """Survivors keep the error-spread arrangement: shedding eats
        the permuted transmission sequence from its tail."""
        policy = LayeredShedPolicy(headroom=0.0)
        shed = policy.select(window, plan, window_bps(window) * 0.8, FPS)
        assert shed
        layer, perm = plan.layers[-1], plan.permutations[-1]
        sequence = [layer.members[frame] for frame in perm.order]
        in_layer = [offset for offset in sequence if offset in shed]
        if in_layer:
            assert in_layer == sequence[-len(in_layer):]

    def test_more_bandwidth_sheds_no_more(self, window, plan):
        policy = LayeredShedPolicy()
        native = window_bps(window)
        lighter = policy.select(window, plan, native * 0.9, FPS)
        heavier = policy.select(window, plan, native * 0.6, FPS)
        assert len(lighter) <= len(heavier)


class TestWindowSums:
    """Per-window sums are computed once per window tuple and reused."""

    def test_memoized_policy_sheds_exactly_like_a_fresh_one(self, window, plan):
        warm = LayeredShedPolicy()
        native = window_bps(window)
        for fraction in (0.95, 0.8, 0.6, 0.3):
            bandwidth = native * fraction
            first = warm.select(window, plan, bandwidth, FPS)
            assert warm.select(window, plan, bandwidth, FPS) == first
            assert first == LayeredShedPolicy().select(window, plan, bandwidth, FPS)
        assert len(warm._window_sums) == 1

    def test_mutable_windows_are_not_remembered(self, window, plan):
        policy = LayeredShedPolicy()
        as_list = list(window)
        squeeze = window_bps(window) * 0.5
        expected = LayeredShedPolicy().select(window, plan, squeeze, FPS)
        assert policy.select(as_list, plan, squeeze, FPS) == expected
        assert not policy._window_sums


class TestReserve:
    def test_headroom_floor(self):
        policy = LayeredShedPolicy(headroom=0.1)
        assert policy.reserve_bits(1000.0, 0.0, None) == pytest.approx(100.0)

    def test_estimator_raises_reserve_for_lossy_channels(self):
        policy = LayeredShedPolicy(headroom=0.01)
        estimator = GilbertEstimator()
        # 20 losses in 100 slots over 10 runs: loss rate 0.2, mean burst 2.
        estimator.observe_counts(lost=20, total=100, runs=10)
        with_estimate = policy.reserve_bits(10_000.0, 5_000.0, estimator)
        without = policy.reserve_bits(10_000.0, 5_000.0, None)
        assert with_estimate > without

    def test_reserve_capped(self):
        policy = LayeredShedPolicy(headroom=0.01, reserve_cap=0.3)
        estimator = GilbertEstimator()
        # A nearly-absorbing BAD state must not reserve the whole cycle.
        estimator.observe_counts(lost=99, total=100, runs=1)
        reserve = policy.reserve_bits(10_000.0, 10_000.0, estimator)
        assert reserve <= 3_000.0


class TestValidation:
    def test_headroom_bounds(self):
        with pytest.raises(ConfigurationError):
            LayeredShedPolicy(headroom=1.0)
        with pytest.raises(ConfigurationError):
            LayeredShedPolicy(headroom=-0.1)

    def test_retry_cap_bounds(self):
        with pytest.raises(ConfigurationError):
            LayeredShedPolicy(retry_cap=0.5)

    def test_reserve_cap_bounds(self):
        with pytest.raises(ConfigurationError):
            LayeredShedPolicy(reserve_cap=1.0)
