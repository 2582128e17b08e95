"""Step-driven online TM runtime with priority contention management.

Implements the classic *Greedy contention manager* discipline (Guerraoui,
Herlihy & Pochon [13], adapted to the data-flow model): every transaction
carries a fixed priority; each idle object always travels toward the
highest-priority pending transaction that requests it; a transaction
commits the moment all its objects sit at its node (and it has been
released).  Because priorities form a total order and arrivals never
preempt an older transaction (timestamp priority = release order), the
globally highest-priority pending transaction always has every object
converging on it, so the runtime is livelock-free.

The produced commit times form a feasible schedule in the batch sense
(validated against :class:`~repro.core.schedule.Schedule`) that also
respects release times.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..core.schedule import Schedule
from ..errors import SchedulingError
from ..obs import events as obs_events
from ..obs.recorder import Recorder, active
from .arrivals import OnlineWorkload

__all__ = [
    "OnlineResult",
    "WaiterHeap",
    "run_online",
    "timestamp_priority",
    "random_priority",
]


@dataclass
class OnlineResult:
    """Outcome of an online run."""

    schedule: Schedule
    release: Dict[int, int]

    @property
    def makespan(self) -> int:
        """Time of the last commit."""
        return self.schedule.makespan

    @property
    def response_times(self) -> Dict[int, int]:
        """Commit minus release, per transaction."""
        return {
            tid: ct - self.release[tid]
            for tid, ct in self.schedule.commit_times.items()
        }

    @property
    def mean_response(self) -> float:
        rts = self.response_times
        return sum(rts.values()) / len(rts)

    @property
    def max_response(self) -> int:
        return max(self.response_times.values())


class WaiterHeap:
    """Per-object min-heaps of waiting transactions, highest priority first.

    Answers "which pending transaction should ``obj`` travel to?" -- the
    dispatch rule of both online engines -- without scanning every
    pending transaction.  A transaction is pushed once per requested
    object on :meth:`admit`, keyed ``(priority, admission sequence,
    tid)``: among equal priorities the earliest admitted wins, which is
    the order a ``min`` over the pending dict's insertion order picks.
    Entries are never removed eagerly; :meth:`best` pops those whose tid
    has left ``pending`` (commit, crash, loss) once they reach the top.
    """

    __slots__ = ("_prio", "_pending", "_heaps", "_seq")

    def __init__(
        self, prio: Mapping[int, tuple], pending: Mapping[int, object]
    ) -> None:
        self._prio = prio
        self._pending = pending  # the engine's live tid -> Transaction map
        self._heaps: Dict[int, List[Tuple[tuple, int, int]]] = {}
        self._seq = 0

    def admit(self, txn) -> None:
        """Register ``txn`` (just added to ``pending``) as a waiter."""
        key = (self._prio[txn.tid], self._seq, txn.tid)
        self._seq += 1
        for obj in txn.objects:
            heapq.heappush(self._heaps.setdefault(obj, []), key)

    def best(self, obj: int) -> Optional[object]:
        """The highest-priority pending transaction requesting ``obj``."""
        heap = self._heaps.get(obj)
        while heap:
            txn = self._pending.get(heap[0][2])
            if txn is not None:
                return txn
            heapq.heappop(heap)
        return None


def timestamp_priority(workload: OnlineWorkload, rng=None) -> Dict[int, tuple]:
    """Older transactions win (the Greedy CM's timestamp discipline)."""
    return {
        a.txn.tid: (a.release, a.txn.tid) for a in workload.arrivals
    }


def random_priority(
    workload: OnlineWorkload, rng: np.random.Generator
) -> Dict[int, tuple]:
    """A uniformly random fixed total order (randomized CM)."""
    tids = [a.txn.tid for a in workload.arrivals]
    perm = rng.permutation(len(tids))
    return {tid: (int(p),) for tid, p in zip(tids, perm)}


def run_online(
    workload: OnlineWorkload,
    priority: Callable[..., Dict[int, tuple]] = timestamp_priority,
    rng: np.random.Generator | None = None,
    max_steps: int | None = None,
    sanitizer=None,
    recorder: Recorder | None = None,
) -> OnlineResult:
    """Run the priority contention manager to completion.

    ``priority`` maps the workload (and optional rng) to a total order;
    lower tuples win.  Raises :class:`SchedulingError` if the run exceeds
    ``max_steps`` (defaults to a generous bound that a livelock-free run
    cannot hit: horizon plus ``m`` serial trips across the diameter).
    ``sanitizer`` is an optional
    :class:`~repro.sim.sanitizer.InvariantSanitizer` whose step hooks
    audit every commit and dispatch (None, the default, adds no work).
    ``recorder`` is an optional :class:`~repro.obs.Recorder` sink for
    dispatch/commit events; recording never changes the run's decisions.
    """
    rec = active(recorder)
    inst = workload.instance
    net = inst.network
    prio = priority(workload, rng) if rng is not None else priority(workload)
    release_times = {a.txn.tid: a.release for a in workload.arrivals}
    if max_steps is None:
        max_steps = (
            workload.horizon + (inst.m + 1) * (net.diameter() + 1) + 16
        )

    position: Dict[int, int] = dict(inst.object_homes)
    in_transit: list[tuple[int, int, int]] = []  # (arrival, obj, dest) heap
    moving: set[int] = set()
    pending: Dict[int, object] = {}  # tid -> Transaction
    commits: Dict[int, int] = {}
    arrivals = list(workload.arrivals)
    ai = 0
    t = 1  # commit times are >= 1; release-0 work is picked up at step 1

    waiters = WaiterHeap(prio, pending)

    while (ai < len(arrivals)) or pending or in_transit:
        if t > max_steps:
            raise SchedulingError(
                f"online runtime exceeded {max_steps} steps "
                f"({len(pending)} pending)"
            )
        # releases
        while ai < len(arrivals) and arrivals[ai].release <= t:
            txn = arrivals[ai].txn
            pending[txn.tid] = txn
            waiters.admit(txn)
            ai += 1
        # deliveries
        while in_transit and in_transit[0][0] <= t:
            _, obj, dest = heapq.heappop(in_transit)
            position[obj] = dest
            moving.discard(obj)
        # commits: any pending transaction with all objects on-node
        committed_now = [
            txn
            for txn in pending.values()
            if all(
                o not in moving and position[o] == txn.node
                for o in txn.objects
            )
        ]
        for txn in sorted(committed_now, key=lambda txn: prio[txn.tid]):
            if sanitizer is not None:
                sanitizer.check_commit(t, txn, position, moving, release_times)
            if rec.enabled:
                rec.record(
                    obs_events.CommitEvent(
                        t, txn.tid, txn.node, tuple(sorted(txn.objects))
                    )
                )
                rec.count("online.commits")
            commits[txn.tid] = t
            del pending[txn.tid]
        if sanitizer is not None:
            sanitizer.check_step(t, position, moving, pending, net.n)
        # dispatch: idle objects chase their best requester
        for obj in sorted(position):
            if obj in moving:
                continue
            target = waiters.best(obj)
            if target is None or position[obj] == target.node:
                continue
            if sanitizer is not None:
                sanitizer.check_dispatch(t, obj, target, pending, prio)
            if rec.enabled:
                rec.record(
                    obs_events.DispatchEvent(
                        t, obj, position[obj], target.node, target.tid
                    )
                )
                rec.count("online.dispatches")
            d = net.dist(position[obj], target.node)
            heapq.heappush(in_transit, (t + d, obj, target.node))
            moving.add(obj)
        # advance to the next interesting time
        nxt = []
        if ai < len(arrivals):
            nxt.append(arrivals[ai].release)
        if in_transit:
            nxt.append(in_transit[0][0])
        t = max(t + 1, min(nxt)) if nxt else t + 1

    schedule = Schedule(
        inst, commits, meta={"scheduler": "online-priority"}
    )
    release = {a.txn.tid: a.release for a in workload.arrivals}
    if rec.enabled:
        rec.gauge("online.makespan", schedule.makespan)
        for tid, ct in sorted(commits.items()):
            rec.observe("online.response", ct - release[tid])
    for tid, ct in commits.items():
        if ct < release[tid]:  # pragma: no cover - construction prevents it
            raise SchedulingError(
                f"transaction {tid} committed before release"
            )
    return OnlineResult(schedule=schedule, release=release)
