"""Abnormal exits of the hierarchical fan-out leave nothing behind.

Shard results travel back to the coordinator as plain column blocks,
so no run creates a ``/dev/shm`` segment.  This pins that contract on
the path where it would matter most: a shard that fails after a
sibling has already finished must re-raise its error in the
coordinator, and ``/dev/shm`` must look exactly as it did before.
"""

from __future__ import annotations

import os

import pytest

from repro.serve import LoadSpec, run_hierarchy


def shm_entries() -> set[str]:
    """Names under ``/dev/shm`` (empty where the platform has none)."""
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:
        return set()


class TestCoordinatorTeardown:
    def test_failed_shard_unlinks_every_sibling_segment(self, monkeypatch):
        from repro.serve import hierarchy

        real = hierarchy._plan_shard
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("shard blew up")
            return real(*args, **kwargs)

        monkeypatch.setattr(hierarchy, "_plan_shard", flaky)
        before = shm_entries()
        spec = LoadSpec(sessions=8, seed=0, gop_count=4, max_windows=2)
        with pytest.raises(RuntimeError, match="shard blew up"):
            # jobs=1 keeps the fan-out in-process, so the monkeypatch
            # reaches the worker after shard 0 has already succeeded.
            run_hierarchy(spec, 2e6, shards=4, jobs=1)
        assert shm_entries() == before
