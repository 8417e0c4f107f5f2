"""Layer spans recorded from outside the library.

:class:`Tracer` replaces each layer's public function at the attribute
its callers resolve (a module global, an attribute imported by name into
another module, or a class attribute) with a timing wrapper, and puts
the originals back on :meth:`Tracer.uninstall`.  Nested spans record
self time — a span's duration minus what its child spans covered — so
the root span's self time is the wall no named layer accounts for.
While inactive the wrappers call straight through.

Garbage-collector pauses are timed through :data:`gc.callbacks` while
the tracer is active.
"""

from __future__ import annotations

import functools
import gc
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple

#: (module, attribute path, span name).  ``generate_requests`` is
#: imported by name into the serve package and the hierarchy and fast
#: path modules, so each of those bindings is wrapped; the fast-path
#: planner inherits ``StreamingService.run``, which is its planning
#: replay.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.serve.loadgen", "generate_requests", "loadgen.generate_requests"),
    ("repro.serve", "generate_requests", "loadgen.generate_requests"),
    ("repro.serve.hierarchy", "generate_requests", "loadgen.generate_requests"),
    ("repro.serve.fastpath", "generate_requests", "loadgen.generate_requests"),
    ("repro.serve.service", "StreamingService.run", "service.plan_replay"),
    ("repro.serve.service", "estimate_demand", "admission.estimate_demand"),
    ("repro.serve.admission", "AdmissionController.evaluate", "admission.evaluate"),
    ("repro.serve.shedding", "LayeredShedPolicy.select", "shedding.select"),
    ("repro.core.kernel", "step_fleet", "kernel.step_fleet"),
    ("repro.core.kernel", "step_window", "kernel.step_window"),
    ("repro.core.kernel", "prefetch_flags", "kernel.prefetch_flags"),
    ("repro.core.kernel", "run_row_sender", "kernel.run_row_sender"),
    ("repro.core.kernel", "send_ack", "kernel.send_ack"),
    ("repro.accel", "gilbert_states_batch", "accel.gilbert_states_batch"),
    ("repro.accel", "batch_worst_clf", "accel.batch_worst_clf"),
    ("repro.core.layered", "LayeredScheduler.plan", "layered.plan"),
)

#: Spans that advance a whole fleet one window epoch; the outermost one
#: active at a time is one epoch sample.
EPOCH_SPANS = frozenset({"kernel.step_fleet", "kernel.step_window"})

ROOT = "call"


class Tracer:
    """Accumulates inclusive time, self time and calls per span name."""

    def __init__(self) -> None:
        self.active = False
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.epochs: List[float] = []
        self.gc_seconds = 0.0
        self.gc_gen2 = 0
        self.missing: List[str] = []
        self._stack: List[List[float]] = []
        self._epoch_depth = 0
        self._gc_started = 0.0
        self._installed: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _enter(self, name: str) -> List[float]:
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        if name in EPOCH_SPANS:
            self._epoch_depth += 1
        return frame

    def _exit(self, name: str, frame: List[float]) -> None:
        elapsed = time.perf_counter() - frame[0]
        self._stack.pop()
        self.total[name] += elapsed
        self.self_time[name] += elapsed - frame[1]
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += elapsed
        if name in EPOCH_SPANS:
            self._epoch_depth -= 1
            if not self._epoch_depth:
                self.epochs.append(elapsed)

    @contextmanager
    def span(self, name: str = ROOT):
        """Record one span around a block (the root span of a call)."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(name, frame)

    def wrap(self, fn: Callable, name: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(name, frame)

        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self.active:
            return
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_seconds += time.perf_counter() - self._gc_started
            if info.get("generation") == 2:
                self.gc_gen2 += 1

    # -- installation --------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every target that exists; list the ones that do not."""
        for module_name, path, name in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attribute = path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent)
                original = owner.__dict__[attribute]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            setattr(owner, attribute, self.wrap(original, name))
            self._installed.append((owner, attribute, original))
        gc.callbacks.append(self._on_gc)
        return self

    def uninstall(self) -> None:
        """Put every original back (reverse order) and drop the GC hook."""
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        self.active = False

    # -- reading -------------------------------------------------------

    def reset(self) -> None:
        self.total.clear()
        self.self_time.clear()
        self.calls.clear()
        self.epochs.clear()
        self.gc_seconds = 0.0
        self.gc_gen2 = 0


def grown_layer(base: Dict[str, float], slowed: Dict[str, float]) -> str:
    """The span whose self time grew most from ``base`` to ``slowed``.

    Both arguments map span names to self seconds per call (the
    ``self_time`` of two traced runs of one workload).  The root span is
    excluded: it is the wall no layer accounts for.
    """
    names = (set(base) | set(slowed)) - {ROOT}
    return max(names, key=lambda name: slowed.get(name, 0.0) - base.get(name, 0.0))
