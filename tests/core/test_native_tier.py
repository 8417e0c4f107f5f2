"""The native kernel tier: fallbacks, tier plumbing and the loop pins.

The native tier's contract has three legs the parity batteries alone do
not cover:

* **Graceful degradation.**  ``REPRO_KERNEL=native`` on a box without
  numba (or without NumPy) must not crash: the step downgrades —
  warning once, bumping ``kernel.native.fallback`` — and still produces
  bit-for-bit fused results.
* **Tier plumbing.**  ``native`` is a first-class tier: it appears in
  ``available_tiers()``, round-trips through ``set_tier``, and rows
  stepped under it expose the same :class:`FleetState` columns as rows
  stepped under ``fused`` — a mixed-tier fleet snapshot must survive
  the shared-memory round trip unchanged.
* **The compiled loops.**  ``_mt_gilbert_fill_loop`` and
  ``_receiver_scan_loop`` are the source numba compiles; they are
  pinned here in pure Python against ``random.Random`` / the reference
  receiver so a drifted recurrence (or an operator-precedence slip in
  the layer-burst scan) fails loudly even where numba is absent.
"""

from __future__ import annotations

import random

import pytest

from repro import accel, obs
from repro.core import kernel
from repro.core.batch import run_sessions_batch
from repro.core.native import kernels, step
from repro.core.protocol import ProtocolConfig
from repro.media.gop import GopPattern
from repro.media.stream import make_video_stream

np = pytest.importorskip("numpy") if accel.backend_name() == "numpy" else None

SEEDS = (3, 5, 8, 13, 21, 34)
MAX_WINDOWS = 4


@pytest.fixture
def stream():
    return make_video_stream(GopPattern.parse("IBBP"), gop_count=8)


@pytest.fixture(autouse=True)
def _restore_tier():
    previous = kernel.tier_name()
    yield
    kernel.set_tier(previous)


def _canon(results):
    return [(result.windows, result.series) for result in results]


def _sweep(stream, config, tier):
    kernel.set_tier(tier)
    return run_sessions_batch(
        stream, config, seeds=list(SEEDS), max_windows=MAX_WINDOWS
    )


class TestTierPlumbing:
    def test_native_is_an_available_tier(self):
        assert kernel.NATIVE in kernel.available_tiers()

    def test_every_available_tier_round_trips_set_tier(self):
        for tier in kernel.available_tiers():
            assert kernel.set_tier(tier) == tier
            assert kernel.tier_name() == tier

    def test_auto_does_not_resolve_to_native(self):
        # ``auto`` stays on the fused tier: the native tier is an
        # explicit opt-in until its JIT rung is the proven default.
        assert kernel.set_tier(kernel.AUTO) == kernel.FUSED


@pytest.mark.skipif(np is None, reason="needs the NumPy accel backend")
class TestGracefulFallback:
    def test_no_numba_warns_counts_and_matches_fused(
        self, stream, monkeypatch
    ):
        config = ProtocolConfig(gop_size=4, p_good=0.9, p_bad=0.5)
        expected = _sweep(stream, config, kernel.FUSED)

        monkeypatch.setattr(kernels, "numba_available", lambda: False)
        monkeypatch.setattr(
            kernels, "jit_status", lambda: "numba not importable (test)"
        )
        monkeypatch.setattr(step, "_warned", set())
        registry = obs.enable()
        obs.reset()
        try:
            with pytest.warns(RuntimeWarning, match="no-numba"):
                got = _sweep(stream, config, kernel.NATIVE)
            counters = registry.snapshot()["counters"]
        finally:
            obs.disable()
        assert _canon(got) == _canon(expected)
        assert counters["kernel.native.fallback"] >= 1

    def test_wide_window_downgrades_to_fused(self, stream, monkeypatch):
        # 6 GOPs of 12 frames = 72 > the 63-bit received mask.
        wide = make_video_stream(GopPattern.parse("IBBPBBPBBPBB"), gop_count=12)
        config = ProtocolConfig(gops_per_window=6, p_good=0.9, p_bad=0.5)
        expected = _sweep(wide, config, kernel.FUSED)
        monkeypatch.setattr(step, "_warned", set())
        with pytest.warns(RuntimeWarning, match="wide-window"):
            got = _sweep(wide, config, kernel.NATIVE)
        assert _canon(got) == _canon(expected)


class TestPureBackendFallback:
    @pytest.mark.skipif(
        accel.backend_name() == "numpy", reason="pure-backend leg"
    )
    def test_native_without_numpy_matches_fused(self, stream, monkeypatch):
        config = ProtocolConfig(gop_size=4, p_good=0.9, p_bad=0.5)
        expected = _sweep(stream, config, kernel.FUSED)
        monkeypatch.setattr(step, "_warned", set())
        with pytest.warns(RuntimeWarning, match="pure-backend"):
            got = _sweep(stream, config, kernel.NATIVE)
        assert _canon(got) == _canon(expected)


@pytest.mark.skipif(np is None, reason="needs the NumPy accel backend")
class TestMixedTierFleetState:
    def test_mixed_tier_snapshot_round_trips_shared_memory(
        self, stream, shm_round_trip
    ):
        """Rows stepped under different tiers share one column ABI."""
        config = ProtocolConfig(gop_size=4, p_good=0.9, p_bad=0.5)
        windows = list(stream.windows(config.window_frames))[:MAX_WINDOWS]
        shapes: dict = {}
        infos = [
            kernel.WindowInfo(window, config, stream.fps, shapes)
            for window in windows
        ]
        control = kernel.CONTROL_PACKET_BYTES * 8.0 / config.bandwidth_bps

        def run_rows(tier):
            rows = [kernel.SessionRow(config, seed) for seed in SEEDS]
            for index, info in enumerate(infos):
                kernel.step_window(
                    rows,
                    info,
                    config,
                    stream.fps,
                    index,
                    control_serialization=control,
                    tier=tier,
                )
            return rows

        native_rows = run_rows(kernel.NATIVE)
        fused_rows = run_rows(kernel.FUSED)

        # The numeric column surface is tier-invariant: the same seeds
        # stepped under either tier snapshot to identical columns.
        assert (
            kernel.FleetState.from_rows(native_rows).as_dict()
            == kernel.FleetState.from_rows(fused_rows).as_dict()
        )

        # And a *mixed* fleet — half native-stepped, half fused-stepped
        # — survives the shared-memory round trip unchanged.
        mixed = kernel.FleetState.from_rows(native_rows[:3] + fused_rows[3:])
        assert shm_round_trip(mixed) == mixed


@pytest.mark.skipif(np is None, reason="needs the NumPy accel backend")
class TestLoopPins:
    """Pure-Python pins of the loops numba compiles."""

    def _transplant(self, rng):
        _, py_state, _ = rng.getstate()
        key = np.array(py_state[:-1], dtype=np.int64)
        return key, py_state[-1]

    @pytest.mark.parametrize("seed", [0, 7, 4242])
    @pytest.mark.parametrize("warmup", [0, 1, 623])
    def test_mt_gilbert_fill_matches_random_random(self, seed, warmup):
        """The fused draw+scan equals random.Random bit for bit.

        ``warmup`` positions the word index right before the twist
        boundary (623 words in: the two tempered words of one double
        straddle the regeneration), the historical footgun of inlined
        MT19937.
        """
        count = 700  # crosses at least one twist boundary
        p_good, p_bad = 0.9, 0.55
        reference = random.Random(seed)
        for _ in range(warmup):
            reference.random()
        mirror = random.Random(seed)
        mirror.setstate(reference.getstate())

        key, pos = self._transplant(reference)
        keys = key.reshape(1, -1).copy()
        poss = np.array([pos], dtype=np.int64)
        bads = np.array([1 if seed % 2 else 0], dtype=np.int64)
        out = np.zeros((1, count), dtype=np.bool_)
        kernels._mt_gilbert_fill_loop(keys, poss, bads, p_good, p_bad, out)

        from repro.accel.pure import gilbert_states

        draws = [mirror.random() for _ in range(count)]
        expected = gilbert_states(draws, p_good, p_bad, bool(seed % 2))
        assert out[0].tolist() == expected
        assert bool(bads[0]) == expected[-1]

        # The advanced key/pos state transplants back losslessly: the
        # restored generator continues exactly where the mirror is.
        restored = random.Random()
        restored.setstate(
            (3, tuple(int(word) for word in keys[0]) + (int(poss[0]),), None)
        )
        assert [restored.random() for _ in range(5)] == [
            mirror.random() for _ in range(5)
        ]

    def test_receiver_scan_drives_step_native_to_fused_parity(
        self, stream, monkeypatch
    ):
        """The interpreted JIT-rung loops reproduce the fused receiver.

        Binding ``_mt_gilbert_fill_loop`` / ``_receiver_scan_loop`` in
        place of the compiled kernels exercises the exact code numba
        would compile — mirror-flag slicing, the int64 need-masks, the
        layer-burst scan — against the fused tier, on a lossy layered
        config where every scan output feeds back into the plan.
        """
        config = ProtocolConfig(gop_size=4, p_good=0.8, p_bad=0.45)
        expected = _sweep(stream, config, kernel.FUSED)
        monkeypatch.setattr(
            kernels, "mt_gilbert_fill", kernels._mt_gilbert_fill_loop
        )
        monkeypatch.setattr(
            kernels, "receiver_scan", kernels._receiver_scan_loop
        )
        got = _sweep(stream, config, kernel.NATIVE)
        assert _canon(got) == _canon(expected)
