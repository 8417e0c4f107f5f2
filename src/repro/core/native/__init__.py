"""Whether the optional Numba JIT is importable in this environment.

The window step (:func:`repro.core.kernel.step_window`) is plain
Python over the accel backend and never imports Numba; these probes
only report, for benchmark run contexts, whether a JIT would be
available.  They look the module up with
:func:`importlib.util.find_spec` and do not import it.
"""

from importlib.util import find_spec
from typing import Optional

__all__ = ["jit_status", "numba_available"]


def numba_available() -> bool:
    """True when the ``numba`` package can be found on ``sys.path``."""
    return find_spec("numba") is not None


def jit_status() -> Optional[str]:
    """Why no JIT is available (``None`` when ``numba`` can be found)."""
    return None if numba_available() else "numba not importable"
