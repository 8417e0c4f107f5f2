"""Make ``perfbench`` and the library under ``src/`` importable in-process."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


@pytest.fixture(autouse=True)
def _isolated_perm_cache(tmp_path, monkeypatch):
    """Never read or seed the home permutation cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "perm-cache"))
