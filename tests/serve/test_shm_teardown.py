"""Shared-memory lifecycle under abnormal exits.

The hierarchical fan-out ships results through a named ``/dev/shm``
result arena, which the kernel does not reclaim when a process dies —
teardown is the code's job.  These tests pin the three halves of that
contract: a process killed mid-run leaves a segment that
:func:`reap_segments` recognizes (by its dead baked-in owner) and
unlinks; a worker that *fails* ships an error marker and the
coordinator unlinks the arena before re-raising; and a fan-out whose
pool dies under it leaves no segment carrying its pid behind.
"""

from __future__ import annotations

import multiprocessing
import os
import signal

import pytest

from repro.core import kernel
from repro.serve import LoadSpec, run_hierarchy


def _park_segment_and_hang(conn) -> None:
    """Child: park a fleet segment it owns, report the name, then hang."""
    segment = kernel.new_segment(64, owner_pid=os.getpid())
    # Keep the child's resource tracker from unlinking the segment on
    # its own: the leak must stay behind for the reaper to find.
    from multiprocessing import resource_tracker

    resource_tracker.unregister(segment._name, "shared_memory")
    conn.send(segment.name)
    segment.close()
    conn.close()
    signal.pause()


class TestReaping:
    def test_killed_worker_segment_is_reaped(self):
        ctx = multiprocessing.get_context("fork")
        parent_conn, child_conn = ctx.Pipe()
        worker = ctx.Process(target=_park_segment_and_hang, args=(child_conn,))
        worker.start()
        try:
            name = parent_conn.recv()
            assert name in kernel.audit_segments()
            # Kill the worker mid-run: no teardown code gets to run.
            os.kill(worker.pid, signal.SIGKILL)
            worker.join()
        finally:
            if worker.is_alive():  # pragma: no cover - kill failed
                worker.terminate()
                worker.join()
        assert name in kernel.audit_segments(), "the leak must be visible"
        reaped = kernel.reap_segments()
        assert name in reaped
        assert name not in kernel.audit_segments()

    def test_live_owners_are_never_reaped(self):
        segment = kernel.new_segment(64)
        name = segment.name
        segment.close()
        try:
            assert name not in kernel.reap_segments()
            assert name in kernel.audit_segments()
        finally:
            from multiprocessing import shared_memory

            shm = shared_memory.SharedMemory(name=name)
            shm.close()
            shm.unlink()

    def test_foreign_shm_files_are_ignored(self):
        from multiprocessing import shared_memory

        foreign = shared_memory.SharedMemory(create=True, size=64)
        try:
            assert foreign.name.lstrip("/") not in kernel.audit_segments()
            assert foreign.name.lstrip("/") not in kernel.reap_segments()
        finally:
            foreign.close()
            foreign.unlink()


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
        before = set(kernel.audit_segments())
        spec = LoadSpec(sessions=8, seed=0, gop_count=4, max_windows=2)
        with pytest.raises(RuntimeError, match="shard blew up"):
            # jobs=1 keeps the fan-out in-process, so the monkeypatch
            # reaches the worker and shard 0 has already written into
            # the arena by the time shard 1 fails.
            run_hierarchy(spec, 2e6, shards=4, jobs=1)
        assert set(kernel.audit_segments()) == before

    def test_pool_death_sweeps_own_segments(self, monkeypatch):
        from repro.serve import hierarchy

        def dying_pool(fn, tasks, jobs):
            raise KeyboardInterrupt

        monkeypatch.setattr(hierarchy, "parallel_map", dying_pool)
        spec = LoadSpec(sessions=4, seed=0, gop_count=4, max_windows=2)
        with pytest.raises(KeyboardInterrupt):
            run_hierarchy(spec, 2e6, shards=2)
        # The arena the coordinator created before the pool died is
        # gone: no segment carrying the coordinator's pid remains.
        assert not [
            name
            for name in kernel.audit_segments()
            if f"-{os.getpid()}-" in name
        ]
