"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
from array import array

import pytest

from repro.core import kernel
from repro.media.gop import GOP_12
from repro.media.stream import make_video_stream
from repro.traces.synthetic import calibrated_stream


@pytest.fixture(scope="session", autouse=True)
def _isolated_perm_cache(tmp_path_factory):
    """Point the persistent permutation cache at a per-run temp dir.

    Keeps the suite hermetic: no reads of (possibly stale) entries from
    the user's home cache, no writes outside the pytest tmp tree.
    """
    cache_dir = tmp_path_factory.mktemp("perm-cache")
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


@pytest.fixture(scope="session")
def small_mpeg_stream():
    """Six GOPs of GOP-12 video with constant per-type sizes."""
    return make_video_stream(GOP_12, gop_count=6)


@pytest.fixture(scope="session")
def jurassic_stream():
    """A calibrated Jurassic Park-like stream, 30 GOPs."""
    return calibrated_stream("jurassic_park_corrected", gop_count=30, seed=7)


@pytest.fixture(scope="session")
def shm_round_trip():
    """Copy ``{name: column}`` through a shared-memory ``FleetView`` and back.

    The segment comes from :func:`repro.core.kernel.new_segment` and is
    written and read through two separate mappings — the way the
    hierarchy's result arena is shared — then unlinked.  Returns the
    columns read back as a new ``{name: list}`` dict.
    """

    def round_trip(columns):
        names = tuple(columns)
        rows = len(columns[names[0]])
        segment = kernel.new_segment(max(8 * rows * len(names), 8))
        try:
            with kernel.FleetView(segment.buf, names, rows) as view:
                for name in names:
                    view.column(name)[:] = array("d", columns[name])
            with kernel.FleetView(segment.buf, names, rows) as view:
                return {name: list(view.column(name)) for name in names}
        finally:
            segment.close()
            segment.unlink()

    return round_trip
