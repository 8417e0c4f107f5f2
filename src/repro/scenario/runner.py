"""Turn a :class:`ScenarioSpec` into configs, requests and served runs.

The bridge between the DSL and the engines: every request is generated
through :mod:`repro.serve.loadgen` (same stream cache, same seed
lineage — ``spec.seed * 1_000_003 + index * 7919``) and then decorated
with the scenario's channel dynamics, so a single-phase scenario is
*bit-for-bit* the stationary serving path.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import List, Optional

from repro.core.protocol import ProtocolConfig
from repro.errors import ConfigurationError
from repro.scenario.spec import ScenarioSpec
from repro.serve import loadgen
from repro.serve.bandwidth import make_scheduler
from repro.serve.hierarchy import run_hierarchy
from repro.serve.service import SessionRequest, serve_sessions

#: Session seed lineage (mirrors ``serve.loadgen.generate_requests``).
_SESSION_SEED_SCALE = 1_000_003


def build_config(spec: ScenarioSpec) -> ProtocolConfig:
    """The scenario's base protocol config (seed applied per session).

    The phase schedule rides in ``channel_phases``; every engine —
    object, batch/kernel and the serving fast path — reads it from
    there.
    """
    return ProtocolConfig(channel_phases=spec.channel.phases)


def as_load_spec(spec: ScenarioSpec) -> loadgen.LoadSpec:
    """The equivalent plain :class:`~repro.serve.loadgen.LoadSpec`.

    Only scenarios whose extras are representable survive the
    translation: independent loss and a ``batch``/``poisson`` arrival
    process.  ``flash`` crowds and ``shared`` (correlated) loss decorate
    the generated requests after the fact, which the hierarchical
    fan-out's per-shard generator cannot replay — those raise
    :class:`ConfigurationError` here, so :func:`run_scenario` serves
    them only with ``shards=1`` (and raises for ``shards>1``).
    """
    if spec.channel.correlation != "independent":
        raise ConfigurationError(
            "correlated-loss scenarios are not expressible as a LoadSpec"
        )
    if spec.load.arrival == "flash":
        raise ConfigurationError(
            "flash-crowd scenarios are not expressible as a LoadSpec"
        )
    mean = (
        0.0 if spec.load.arrival == "batch" else spec.load.mean_interarrival
    )
    return loadgen.LoadSpec(
        sessions=spec.load.sessions,
        seed=spec.seed,
        mean_interarrival=mean,
        gop_count=spec.load.gop_count,
        max_windows=spec.load.max_windows,
        high_priority_fraction=spec.load.high_priority_fraction,
        config=build_config(spec),
    )


def build_requests(spec: ScenarioSpec) -> List[SessionRequest]:
    """The scenario's session requests, ready for ``serve_sessions``.

    Starts from :func:`repro.serve.loadgen.generate_requests` (so seeds,
    streams, priorities and Poisson gaps match the plain load generator
    draw for draw), then applies the scenario extras:

    * ``flash`` arrivals: the first ``ceil(flash_fraction * sessions)``
      requests arrive together at t=0 — the flash crowd — while the
      rest keep their Poisson arrival times;
    * ``shared`` correlation: every session's channel seed is pinned to
      the first session's, so all forward channels replay the *same*
      loss process (one bottleneck, one burst hits everyone).
    """
    mean = (
        spec.load.mean_interarrival
        if spec.load.arrival in ("poisson", "flash")
        else 0.0
    )
    requests = loadgen.generate_requests(
        loadgen.LoadSpec(
            sessions=spec.load.sessions,
            seed=spec.seed,
            mean_interarrival=mean,
            gop_count=spec.load.gop_count,
            max_windows=spec.load.max_windows,
            high_priority_fraction=spec.load.high_priority_fraction,
            config=build_config(spec),
        )
    )
    if spec.load.arrival == "flash":
        burst = math.ceil(spec.load.flash_fraction * len(requests))
        requests = [
            replace(request, arrival_time=0.0) if index < burst else request
            for index, request in enumerate(requests)
        ]
    if spec.channel.correlation == "shared":
        shared_seed = spec.seed * _SESSION_SEED_SCALE
        requests = [
            replace(request, config=replace(request.config, seed=shared_seed))
            for request in requests
        ]
    return requests


def run_scenario(
    spec: ScenarioSpec,
    *,
    fast: bool = True,
    shards: int = 1,
    jobs: Optional[int] = None,
):
    """Run one scenario through the serving stack.

    ``shards=1`` serves the fleet in-process on the single-host engine
    ``fast`` picks (event loop or the window-batched fast path — the
    results are bit-for-bit identical).  ``shards>1`` fans out through
    :func:`repro.serve.hierarchy.run_hierarchy` (``jobs`` caps its
    process pool; ``fast`` does not apply), which requires the scenario
    to be expressible as a plain load spec (see :func:`as_load_spec`).
    """
    if shards < 1:
        raise ConfigurationError("shards must be positive")
    if shards > 1:
        return run_hierarchy(
            as_load_spec(spec),
            spec.policy.capacity_bps,
            shards=shards,
            scheduler=spec.policy.scheduler,
            shedding=spec.policy.shedding,
            admission=spec.policy.admission,
            jobs=jobs,
        )
    return serve_sessions(
        build_requests(spec),
        spec.policy.capacity_bps,
        fast=fast,
        scheduler=make_scheduler(spec.policy.scheduler),
        shedding=spec.policy.shedding,
        admission=spec.policy.admission,
    )
