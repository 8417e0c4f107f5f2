"""The unified columnar window-step kernel (repro.core.kernel).

The kernel is the single engine behind ``run_session``,
``core.batch`` and ``serve.fastpath``; its contract is bit-for-bit
equality with the object engine on every accel backend.  The
properties here drive :func:`repro.core.kernel.step_window` directly —
one step must equal one :class:`ProtocolSession` window — including the
degenerate rows the step must not collapse incorrectly: zero
effective share and boundary-exact admission budgets.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import accel
from repro.core import kernel
from repro.core.protocol import ProtocolConfig, ProtocolSession
from repro.media.gop import GopPattern
from repro.media.ldu import FrameType, Ldu
from repro.media.stream import MediaStream, make_video_stream

SMALL_PATTERN = GopPattern.parse("IBBP")


@pytest.fixture(scope="module")
def small_stream():
    return make_video_stream(SMALL_PATTERN, gop_count=6)


@st.composite
def kernel_configs(draw):
    """Randomized configs spanning every branch the kernel mirrors."""
    layered = draw(st.booleans())
    return ProtocolConfig(
        gops_per_window=draw(st.integers(min_value=1, max_value=2)),
        gop_size=4,
        p_good=draw(st.floats(min_value=0.5, max_value=1.0, allow_nan=False)),
        p_bad=draw(st.floats(min_value=0.0, max_value=0.9, allow_nan=False)),
        layered=layered,
        scramble=layered and draw(st.booleans()),
        retransmit_anchors=draw(st.booleans()),
        lossy_feedback=draw(st.booleans()),
        closed_gops=draw(st.booleans()),
        burst_policy=draw(st.sampled_from(["equation1", "quantile"])),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )


def _drive_kernel(stream, config, max_windows):
    """Step one row through ``max_windows`` via the public kernel API."""
    windows = list(stream.windows(config.window_frames))[:max_windows]
    shapes = {}
    infos = [
        kernel.WindowInfo(window, config, stream.fps, shapes)
        for window in windows
    ]
    row = kernel.SessionRow(config, config.seed)
    control = kernel.CONTROL_PACKET_BYTES * 8.0 / config.bandwidth_bps
    for index, info in enumerate(infos):
        kernel.step_window(
            [row],
            info,
            config,
            stream.fps,
            index,
            control_serialization=control,
        )
    return row.result


class TestStepWindowParity:
    @given(kernel_configs())
    @settings(max_examples=25, deadline=None)
    def test_steps_equal_session_windows(self, small_stream, config):
        expected = ProtocolSession(small_stream, config).run(max_windows=3)
        assert _drive_kernel(small_stream, config, 3) == expected

    def test_parity_on_every_backend(self, small_stream):
        config = ProtocolConfig(gop_size=4, seed=11)
        previous = accel.backend_name()
        try:
            for name in accel.available_backends():
                accel.set_backend(name)
                expected = ProtocolSession(small_stream, config).run(
                    max_windows=3
                )
                actual = _drive_kernel(small_stream, config, 3)
                assert actual == expected, f"backend {name!r} diverged"
        finally:
            accel.set_backend(previous)

    def test_mixed_seed_fleet_matches_solo_rows(self, small_stream):
        """A fleet stepping in lockstep equals each row run alone."""
        config = ProtocolConfig(gop_size=4, p_good=0.9, p_bad=0.5, seed=0)
        windows = list(stream_windows(small_stream, config))[:3]
        shapes = {}
        infos = [
            kernel.WindowInfo(window, config, small_stream.fps, shapes)
            for window in windows
        ]
        control = kernel.CONTROL_PACKET_BYTES * 8.0 / config.bandwidth_bps
        rows = [kernel.SessionRow(config, seed) for seed in (3, 7, 19)]
        for index, info in enumerate(infos):
            kernel.step_window(
                rows,
                info,
                config,
                small_stream.fps,
                index,
                control_serialization=control,
            )
        for row, seed in zip(rows, (3, 7, 19)):
            solo = ProtocolSession(
                small_stream, replace(config, seed=seed)
            ).run(max_windows=3)
            assert row.result == solo

    def test_zero_share_row(self, small_stream):
        """A starved row (1 bps) sheds every frame at the sender."""
        config = ProtocolConfig(gop_size=4, bandwidth_bps=1.0, seed=5)
        expected = ProtocolSession(small_stream, config).run(max_windows=2)
        actual = _drive_kernel(small_stream, config, 2)
        assert actual == expected
        assert actual.windows[0].sent == 0
        assert actual.windows[0].dropped_at_sender == len(
            actual.windows[0].transmission_order
        )

    def test_boundary_exact_admission(self):
        """Frames whose serialization lands exactly on the window end.

        With dyadic frame times (1/32 s at 32 fps) the last frame of
        every window completes exactly at the cycle boundary — the
        strict ``>`` budget must admit it, and the link
        must end the window exactly busy until the boundary.
        """
        frames = 4
        stream = MediaStream(
            ldus=tuple(
                Ldu(index=i, frame_type=FrameType.X, size_bits=8192)
                for i in range(frames * 4)
            ),
            fps=32.0,
        )
        config = ProtocolConfig(
            gops_per_window=1,
            gop_size=frames,
            bandwidth_bps=262144.0,  # 8192 bits -> exactly 1/32 s
            p_good=1.0,
            p_bad=0.0,
            seed=1,
        )
        expected = ProtocolSession(stream, config).run(max_windows=4)
        actual = _drive_kernel(stream, config, 4)
        assert actual == expected
        for window in actual.windows:
            assert window.sent == frames
            assert window.dropped_at_sender == 0

    def test_run_session_routes_through_kernel(self, small_stream):
        from repro.core.protocol import run_session

        config = ProtocolConfig(gop_size=4, seed=9)
        assert run_session(small_stream, config, max_windows=3) == (
            ProtocolSession(small_stream, config).run(max_windows=3)
        )


def stream_windows(stream, config):
    return stream.windows(config.window_frames)
