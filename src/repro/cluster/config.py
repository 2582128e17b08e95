"""Cluster configuration: supervision, liveness, and recovery knobs.

:class:`ClusterConfig` bundles every policy the supervisor applies --
worker count, run length, heartbeat liveness deadlines, the bounded
restart budget (the shared :class:`~repro.faults.backoff.RetryPolicy`),
checkpoint cadence, and what to do about crashes and stragglers.
Validation happens at construction, so a bad cluster fails before the
first fork, not after three workers have already journaled state.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

from ..errors import ClusterError
from ..faults.backoff import RetryPolicy
from ..network.graph import Network
from ..service.config import LoadControl

__all__ = ["ClusterConfig", "build_network"]

_CRASH_POLICIES = ("restart", "strict")
_STRAGGLER_POLICIES = ("restart", "shed", "strict")


def build_network(topology: str, size: int, size2: int | None = None) -> Network:
    """Deprecated: use :func:`repro.network.network_from_sizes`.

    The hard-coded builder table this function used to hold moved into
    the :data:`~repro.network.registry.TOPOLOGY_INFO` registry; this
    wrapper forwards to :func:`~repro.network.registry.network_from_sizes`
    for one release (deprecated since 1.1.0, removal scheduled for
    1.2.0; see ``docs/API.md``).
    """
    from ..network import network_from_sizes

    warnings.warn(
        "cluster.build_network() is deprecated since 1.1.0 and will be "
        "removed in 1.2.0; use repro.network.network_from_sizes(name, "
        "size, size2) or repro.network.make_network(name, **params) "
        "(docs/API.md)",
        DeprecationWarning,
        stacklevel=2,
    )
    return network_from_sizes(topology, size, size2)


@dataclass(frozen=True)
class ClusterConfig:
    """Validated configuration for :func:`~repro.cluster.run_cluster`.

    Parameters
    ----------
    workers:
        Worker processes forked at start; each owns one residue class of
        transaction ids (worker ``i`` owns ``tid % workers == i``).
    windows:
        Arrival windows every worker runs (the cluster's logical length).
    heartbeat_timeout_s:
        Wall-clock liveness deadline: a worker that produces no message
        for this long while its process is alive is declared a
        straggler.  Detection timing is wall-clock, but because chaos
        and recovery act at window boundaries the recovered *outcome*
        is deterministic.
    poll_interval_s:
        Supervisor event-loop tick (upper bound on detection latency
        added to the timeout).
    retry:
        Bounded deterministic restart budget per worker -- the same
        :class:`~repro.faults.backoff.RetryPolicy` every fault path in
        the repo shares (and the same field name
        :class:`~repro.service.ServiceConfig` uses; supply both at once
        through a shared :class:`~repro.service.LoadControl` via
        ``control=``).  Restart ``i`` waits
        ``retry.wait(i) * restart_backoff_s`` seconds; a worker
        crashing more than ``retry.max_retries`` times is retired
        (queued work counted ``lost``) or, under ``on_crash="strict"``,
        raises :class:`~repro.errors.WorkerCrashError`.  (``restart=``
        is the pre-1.1.0 spelling: accepted with a
        :class:`DeprecationWarning` for one release, removal scheduled
        for 1.2.0.)
    restart_backoff_s:
        Wall-seconds per backoff unit (small in tests, larger in
        production runs).
    checkpoint_every:
        Windows between checkpoints of the service's bounded core;
        recovery replays at most this many journaled windows.
    on_crash:
        ``"restart"`` (default) restarts from the journal within budget;
        ``"strict"`` raises :class:`~repro.errors.WorkerCrashError` on
        the first crash.
    on_straggler:
        ``"restart"`` kills and restarts the stalled worker from its
        journal (nothing lost); ``"shed"`` retires it, counts its queued
        work as shed, and spawns a replacement worker owning the class
        from the stall window onward; ``"strict"`` raises
        :class:`~repro.errors.HeartbeatTimeoutError`.
    verify_replay:
        Verify each replayed window's accounting digest against the
        journal (determinism self-check); disable only for benchmarks.
    journal_dir:
        Directory for journals/checkpoints; ``None`` uses a fresh
        temporary directory removed after the run.
    control:
        Optional shared :class:`~repro.service.LoadControl` supplying
        the ``retry`` budget when not explicitly set (the same object a
        :class:`~repro.service.ServiceConfig` consumes).
    """

    workers: int = 2
    windows: int = 12
    heartbeat_timeout_s: float = 5.0
    poll_interval_s: float = 0.05
    restart: Optional[RetryPolicy] = None  # deprecated alias for ``retry``
    restart_backoff_s: float = 0.02
    checkpoint_every: int = 8
    on_crash: str = "restart"
    on_straggler: str = "restart"
    verify_replay: bool = True
    journal_dir: Optional[str] = None
    retry: Optional[RetryPolicy] = None
    control: Optional[LoadControl] = None

    def __post_init__(self) -> None:
        retry = self.retry
        if self.restart is not None:
            if retry is None:
                warnings.warn(
                    "ClusterConfig(restart=...) is deprecated since 1.1.0 "
                    "and will be removed in 1.2.0; use retry=... (or a "
                    "shared LoadControl)",
                    DeprecationWarning,
                    stacklevel=3,
                )
                retry = self.restart
            elif self.restart != retry:
                raise ClusterError(
                    f"conflicting restart budgets: restart={self.restart!r} "
                    f"(deprecated alias) vs retry={retry!r}"
                )
        if retry is None:
            retry = (
                self.control.retry if self.control is not None
                else RetryPolicy(max_retries=3, max_wait=4)
            )
        object.__setattr__(self, "retry", retry)
        object.__setattr__(self, "restart", retry)  # alias stays readable
        if self.workers < 1:
            raise ClusterError(f"workers must be >= 1, got {self.workers}")
        if self.windows < 1:
            raise ClusterError(f"windows must be >= 1, got {self.windows}")
        if self.heartbeat_timeout_s <= 0:
            raise ClusterError(
                f"heartbeat_timeout_s must be positive, got "
                f"{self.heartbeat_timeout_s}"
            )
        if self.poll_interval_s <= 0:
            raise ClusterError(
                f"poll_interval_s must be positive, got {self.poll_interval_s}"
            )
        if self.restart_backoff_s < 0:
            raise ClusterError(
                f"restart_backoff_s must be >= 0, got {self.restart_backoff_s}"
            )
        if self.checkpoint_every < 1:
            raise ClusterError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.on_crash not in _CRASH_POLICIES:
            raise ClusterError(
                f"unknown crash policy {self.on_crash!r}; choose from "
                f"{_CRASH_POLICIES}"
            )
        if self.on_straggler not in _STRAGGLER_POLICIES:
            raise ClusterError(
                f"unknown straggler policy {self.on_straggler!r}; choose "
                f"from {_STRAGGLER_POLICIES}"
            )
