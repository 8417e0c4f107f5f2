"""Calibrated seconds: wall time restated at a reference machine speed.

The box this benchmark was sized on changes speed by up to 2x within
minutes — a fixed pure-Python loop took anywhere from 21 ms to 45 ms —
in phases that last from seconds to minutes.  CPU time slows with wall
time, so the process is not being descheduled: the machine itself runs
slower.  Wall-clock medians therefore drift by more than any useful
regression bound between two sets of runs of the same code.

The two CPUs of that box slow down independently (the per-second
speeds of a loop pinned to each correlated at 0.18), so the speed that
matters is the speed of the CPU the work ran on.  A :class:`Calibrator`
times a fixed loop — dict inserts of tuples read at random from a
million-entry list, then a sort, the kind of allocation and scattered
memory traffic the simulation does — on each CPU the work may use,
right before and right after each measured stretch.  :func:`calibrated`
scales the stretch's wall time by :data:`REFERENCE_S` over the mean of
the two loop times: the seconds the stretch would have taken with the
loop at its reference time.  Over ten seeded runs per workload on the
sizing box, this cut the spread (interquartile range over median) of
``windows_per_s`` from 19%/11%/12% in wall-clock seconds to 7%/5%/6%
on mc-figure8/serve-steady/plan-fanout.

The loop runs in one helper interpreter per CPU, pinned to it, so its
40 MB table never counts towards the measured process's peak RSS or its
forked workers'.  No library import here: the orchestrator uses it too.
"""

from __future__ import annotations

import gc
import os
import random
import subprocess
import sys
import time
from pathlib import Path

#: The reference speed: a stretch's calibrated seconds equal its wall
#: seconds whenever the loop takes this long.  A fixed scale, never
#: re-measured, so calibrated figures stay comparable across runs.
REFERENCE_S = 0.075

_TABLE = 1_000_000
_KEYS = 50_000

ROOT = Path(__file__).resolve().parent.parent


def _serve(cpu: int) -> None:
    """Helper side: pinned to ``cpu``, one loop timing per stdin line."""
    os.sched_setaffinity(0, {cpu})
    table = list(range(_TABLE))
    keys = random.Random(1).sample(range(_TABLE), _KEYS)
    # The loop's garbage is acyclic: keep collector pauses out of its time.
    gc.freeze()
    gc.disable()
    for _ in sys.stdin:
        started = time.perf_counter()
        chosen = {}
        for key in keys:
            chosen[key] = (table[key], key & 7)
        ordered = sorted(chosen.items())
        sum(value[0] for _, value in ordered[::3])
        print(time.perf_counter() - started, flush=True)


class Calibrator:
    """Helper interpreters that time the calibration loop on request.

    ``cpus`` are the CPUs to calibrate on (default: every CPU this
    process may run on); :meth:`loop_s` is the mean over them.
    """

    def __init__(self, cpus=None) -> None:
        self._helpers = []
        try:
            for cpu in sorted(cpus if cpus is not None else os.sched_getaffinity(0)):
                self._helpers.append(
                    subprocess.Popen(
                        [
                            sys.executable,
                            "-c",
                            f"from perfbench.clock import _serve; _serve({int(cpu)})",
                        ],
                        cwd=ROOT,
                        stdin=subprocess.PIPE,
                        stdout=subprocess.PIPE,
                        text=True,
                    )
                )
        except BaseException:
            self.close()
            raise

    def loop_s(self) -> float:
        """One timing of the calibration loop per CPU, averaged; seconds."""
        times = []
        for helper in self._helpers:
            helper.stdin.write("\n")
            helper.stdin.flush()
            line = helper.stdout.readline()
            if not line:
                raise RuntimeError("calibration helper exited")
            times.append(float(line))
        return sum(times) / len(times)

    def close(self) -> None:
        """Stop every helper and wait for it to end."""
        for helper in self._helpers:
            helper.stdin.close()
            try:
                helper.wait(timeout=10)
            except subprocess.TimeoutExpired:
                helper.kill()
                helper.wait()
            helper.stdout.close()
        self._helpers = []

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def calibrated(wall_s: float, before_s: float, after_s: float) -> float:
    """``wall_s`` restated at the reference speed.

    ``before_s`` and ``after_s`` are :meth:`Calibrator.loop_s` timings
    taken immediately before and after the measured stretch.
    """
    return wall_s * REFERENCE_S / ((before_s + after_s) / 2.0)
