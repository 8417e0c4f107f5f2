"""Tests for the streaming service itself (repro.serve.service)."""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.protocol import ProtocolConfig
from repro.errors import ConfigurationError
from repro.media.gop import GOP_12
from repro.media.stream import make_video_stream
from repro.serve import (
    LoadSpec,
    SessionRequest,
    StreamingService,
    build_service_manifest,
    generate_requests,
    serve_sessions,
)

CAPACITY = 2_400_000.0


def fleet(sessions=4, seed=5, **kwargs):
    return generate_requests(
        LoadSpec(
            sessions=sessions, seed=seed, gop_count=4, max_windows=4, **kwargs
        )
    )


class TestLifecycle:
    def test_all_outcomes_recorded(self):
        requests = fleet(4)
        result = serve_sessions(requests, CAPACITY)
        assert len(result.outcomes) == len(requests)
        for outcome in result.admitted:
            assert outcome.result is not None
            # 4 GOPs of GOP-12 = 48 frames = 2 windows of 24
            assert len(outcome.result.windows) == 2
        for outcome in result.rejected:
            assert outcome.result is None
            assert outcome.reason

    def test_duplicate_session_id_rejected(self):
        stream = make_video_stream(GOP_12, gop_count=2)
        config = ProtocolConfig()
        requests = [
            SessionRequest(
                session_id="dup", stream=stream, config=config, max_windows=2
            )
            for _ in range(2)
        ]
        service = StreamingService(CAPACITY)
        service.submit_all(requests)
        with pytest.raises(ConfigurationError):
            service.run()

    def test_submit_after_run_rejected(self):
        service = StreamingService(CAPACITY)
        service.submit_all(fleet(1))
        service.run()
        with pytest.raises(ConfigurationError):
            service.submit(fleet(1, seed=6)[0])

    def test_empty_session_id_rejected(self):
        stream = make_video_stream(GOP_12, gop_count=2)
        with pytest.raises(ConfigurationError):
            SessionRequest(session_id="", stream=stream, config=ProtocolConfig())

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamingService(0.0)


class TestContention:
    def test_overload_sheds_b_frames_not_anchors(self):
        result = serve_sessions(fleet(8), CAPACITY)
        assert result.shed_total > 0
        for outcome in result.admitted:
            for window in outcome.result.windows:
                assert window.shed <= window.dropped_at_sender
                # anchors (offsets 0 and the P frames) stay decodable
                # whenever the channel cooperated; at minimum the shed
                # set never includes the I frame's offset 0 slot unless
                # the channel lost it.
                assert window.sent + window.dropped_at_sender == window.frames

    def test_shedding_beats_baseline_under_overload(self):
        requests = fleet(8)
        shed = serve_sessions(requests, CAPACITY, shedding=True, admission=True)
        base = serve_sessions(requests, CAPACITY, shedding=False, admission=False)
        assert shed.mean_clf <= base.mean_clf
        assert base.shed_total == 0

    def test_admission_bounds_the_active_set(self):
        result = serve_sessions(fleet(10), CAPACITY)
        # 2.4 Mbps cannot carry ten 1.2 Mbps-provisioned sessions'
        # critical layers; somebody must have been refused.
        assert result.rejected
        assert len(result.admitted) + len(result.rejected) == 10

    def test_min_share_tracks_worst_split(self):
        result = serve_sessions(fleet(4, mean_interarrival=0.0), CAPACITY)
        for outcome in result.admitted:
            assert outcome.min_share_bps <= CAPACITY / len(result.admitted) + 1e-6
            assert outcome.min_share_bps > 0

    def test_no_contention_no_shedding(self):
        result = serve_sessions(fleet(2), CAPACITY)
        assert result.shed_total == 0
        assert len(result.admitted) == 2


class TestObservability:
    def test_counters_and_manifest(self):
        obs.enable()
        obs.reset()
        try:
            result = serve_sessions(fleet(6), CAPACITY)
            snapshot = obs.snapshot()
            counters = snapshot["counters"]
            assert counters["serve.sessions_submitted"] == 6
            assert (
                counters.get("serve.sessions_admitted", 0)
                + counters.get("serve.sessions_rejected", 0)
                == 6
            )
            assert counters.get("serve.sessions_completed", 0) == len(
                result.admitted
            )
            manifest = build_service_manifest(result, seed=5, wall_seconds=0.1)
        finally:
            obs.disable()
        from repro.obs.manifest import validate_manifest

        assert validate_manifest(manifest) == []
        summary = manifest["summary"]
        assert summary["sessions"] == 6
        assert summary["admitted"] == len(result.admitted)
        assert len(summary["per_session"]) == 6

    def test_manifest_validates_with_metrics_off(self):
        from repro.obs.manifest import validate_manifest
        from repro.serve import run_hierarchy

        assert not obs.enabled()
        spec = LoadSpec(sessions=2, seed=5, gop_count=4)
        for result in (
            serve_sessions(generate_requests(spec), CAPACITY),
            run_hierarchy(spec, CAPACITY, shards=2, jobs=1),
        ):
            manifest = build_service_manifest(result, seed=5)
            assert validate_manifest(manifest) == []

    def test_describe_mentions_the_split(self):
        result = serve_sessions(fleet(2), CAPACITY)
        text = result.describe()
        assert "fair" in text and "admitted" in text
