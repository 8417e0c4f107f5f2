"""Tests for stream containers (repro.media.stream)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import StreamError
from repro.media.gop import GOP_12, GopPattern
from repro.media.ldu import FrameType, Ldu
from repro.media.stream import (
    MediaStream,
    VideoStream,
    make_independent_stream,
    make_video_stream,
)


class TestMediaStream:
    def test_indices_must_be_consecutive(self):
        with pytest.raises(StreamError):
            MediaStream(ldus=(Ldu(index=1),))

    def test_fps_positive(self):
        with pytest.raises(StreamError):
            MediaStream(ldus=(), fps=0)

    def test_duration_and_rate(self):
        stream = make_independent_stream(60, size_bits=1000, fps=30.0)
        assert stream.duration_seconds == pytest.approx(2.0)
        assert stream.slot_duration == pytest.approx(1 / 30)
        assert stream.total_bits == 60_000
        assert stream.mean_bitrate_bps == pytest.approx(30_000)

    def test_slot_time(self):
        stream = make_independent_stream(10, fps=10.0)
        assert stream.slot_time(5) == pytest.approx(0.5)

    def test_windows_exact(self):
        stream = make_independent_stream(20)
        windows = list(stream.windows(5))
        assert len(windows) == 4
        assert all(len(w) == 5 for w in windows)

    def test_windows_partial_tail(self):
        stream = make_independent_stream(23)
        windows = list(stream.windows(5))
        assert len(windows) == 5
        assert len(windows[-1]) == 3

    def test_windows_invalid_size(self):
        with pytest.raises(StreamError):
            list(make_independent_stream(5).windows(0))

    def test_window_slice(self):
        stream = make_independent_stream(10)
        window = stream.window(2, 3)
        assert [l.index for l in window] == [2, 3, 4]

    def test_window_negative(self):
        with pytest.raises(StreamError):
            make_independent_stream(5).window(-1, 2)

    def test_sequence_protocol(self):
        stream = make_independent_stream(4)
        assert len(stream) == 4
        assert stream[1].index == 1
        assert [l.index for l in stream] == [0, 1, 2, 3]

    def test_no_dependencies(self):
        assert not make_independent_stream(5).has_dependencies


class TestVideoStream:
    def test_make_video_stream(self):
        stream = make_video_stream(GOP_12, gop_count=3)
        assert len(stream) == 36
        assert stream.has_dependencies
        assert stream.gop_size == 12

    def test_pattern_mismatch_rejected(self):
        ldus = tuple(
            Ldu(index=i, frame_type=FrameType.I if i == 0 else FrameType.I)
            for i in range(2)
        )
        with pytest.raises(StreamError):
            VideoStream(ldus=ldus, pattern=GOP_12)

    def test_custom_sizes(self):
        sizes = list(range(24))
        stream = make_video_stream(GOP_12, gop_count=2, sizes_bits=sizes)
        assert [l.size_bits for l in stream] == sizes

    def test_sizes_length_checked(self):
        with pytest.raises(StreamError):
            make_video_stream(GOP_12, gop_count=2, sizes_bits=[1, 2, 3])

    def test_gops_and_max_gop(self):
        stream = make_video_stream(GOP_12, gop_count=3)
        gops = stream.gops
        assert len(gops) == 3
        assert stream.max_gop_bits() == max(g.size_bits for g in gops)

    def test_gop_size_requires_pattern(self):
        stream = make_independent_stream(5)
        video = VideoStream(ldus=stream.ldus, fps=stream.fps)
        with pytest.raises(StreamError):
            _ = video.gop_size

    def test_default_sizes_by_type(self):
        stream = make_video_stream(GOP_12, gop_count=1)
        i_frame = stream[0]
        p_frame = stream[3]
        b_frame = stream[1]
        assert i_frame.size_bits > p_frame.size_bits > b_frame.size_bits

    def test_gop_metadata(self):
        stream = make_video_stream(GOP_12, gop_count=2)
        assert stream[13].gop_index == 1
        assert stream[13].position_in_gop == 1


class TestValidationMemo:
    """A validated ``(ldus, pattern)`` pair is not re-checked per stream."""

    def test_shared_tuple_is_checked_once(self, monkeypatch):
        base = make_video_stream(GOP_12, gop_count=2)
        VideoStream(ldus=base.ldus, fps=base.fps, name="a", pattern=GOP_12)
        calls = []
        original = GopPattern.type_at

        def counting(self, index):
            calls.append(index)
            return original(self, index)

        monkeypatch.setattr(GopPattern, "type_at", counting)
        named = VideoStream(ldus=base.ldus, fps=base.fps, name="b", pattern=GOP_12)
        assert calls == []
        assert named.ldus is base.ldus

    def test_bad_frame_type_still_raises(self):
        base = make_video_stream(GOP_12, gop_count=1)
        bad = (replace(base.ldus[0], frame_type=FrameType.B),) + base.ldus[1:]
        for _ in range(2):  # a failure is never remembered
            with pytest.raises(StreamError):
                VideoStream(ldus=bad, pattern=GOP_12)

    def test_validated_tuple_with_another_pattern_is_checked_again(self):
        base = make_video_stream(GOP_12, gop_count=1)
        with pytest.raises(StreamError):
            VideoStream(ldus=base.ldus, pattern=GopPattern.parse("IBBP"))

    def test_rate_is_checked_on_a_memo_hit(self):
        base = make_video_stream(GOP_12, gop_count=1)
        with pytest.raises(StreamError):
            VideoStream(ldus=base.ldus, fps=0.0, pattern=GOP_12)
