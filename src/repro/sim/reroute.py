"""Congestion-aware rerouting of object legs (§9 open question 2, deeper).

A feasible schedule fixes *when* objects move but not *which path* they
take: any route no longer than ``deadline - depart`` works.  This module
exploits that slack to spread traffic: legs are processed most-constrained
first, each choosing -- among its shortest path and detours through an
intermediate node that still meet the deadline -- the path minimizing the
worst per-edge occupancy so far.

The result never changes commit times (the schedule stays feasible as-is)
but can substantially lower the peak link concurrency that
:func:`repro.sim.congestion.congestion_report` measures -- quantifying how
much of the capacity problem smart routing alone absorbs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import numpy as np

from ..core.schedule import Schedule
from ..errors import InfeasibleScheduleError

__all__ = [
    "ReroutePlan", "detour_candidates", "iter_detours", "reroute_for_congestion",
]

Edge = Tuple[int, int]


@dataclass
class ReroutePlan:
    """Chosen paths per leg plus the resulting congestion profile."""

    #: (obj, depart, src, dst) -> node path
    paths: Dict[Tuple[int, int, int, int], Tuple[int, ...]]
    peak_concurrency: Dict[Edge, int]
    detoured_legs: int
    total_legs: int

    @property
    def max_peak(self) -> int:
        """Worst per-link simultaneous occupancy under the chosen routes."""
        return max(self.peak_concurrency.values(), default=0)


def _edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _path_intervals(net, path: List[int], depart: int) -> List[Tuple[Edge, int, int]]:
    out = []
    t = depart
    for a, b in zip(path, path[1:]):
        w = net.edge_weight(a, b)
        out.append((_edge(a, b), t, t + w))
        t += w
    return out


def _peak_increase(
    usage: Dict[Edge, Tuple[List[int], List[int]]],
    intervals: List[Tuple[Edge, int, int]],
) -> int:
    """Worst per-edge overlap this path would reach against current usage.

    A plain loop over the per-edge interval lists: vectorizing this with
    numpy was measured *slower* (array conversion dominates on the small
    per-edge lists), so it stays scalar -- see bench_kernels.py.
    """
    worst = 1 if intervals else 0
    for edge, enter, exit_ in intervals:
        used = usage.get(edge)
        if used is None:
            continue
        enters, exits = used
        overlap = 1
        for a, b in zip(enters, exits):
            if enter < b and a < exit_:
                overlap += 1
        if overlap > worst:
            worst = overlap
    return worst


def iter_detours(
    net, src: int, dst: int, base_path: List[int], slack: int,
    max_detours: int = 8,
) -> Iterator[List[int]]:
    """Detours from ``src`` to ``dst`` around ``base_path``, lazily.

    Yields up to ``max_detours`` paths through an intermediate node off
    ``base_path`` whose added length does not exceed ``slack``, nearest
    candidates first (``extra == 0`` captures equal-length alternative
    shortest paths).  Each path is built only when the consumer asks for
    it, so a caller that stops at the first acceptable detour pays for
    no others.

    Vectorized over the distance matrix: the scalar ``dist()`` loop here
    dominated the whole rerouter (profiled in bench_kernels.py).
    """
    on_base = set(base_path)
    dmat = net.distance_matrix
    extra = dmat[src] + dmat[:, dst] - dmat[src, dst]
    eligible = np.flatnonzero(extra <= slack)
    order = eligible[np.argsort(extra[eligible], kind="stable")]
    taken = 0
    for mid in order:
        mid = int(mid)
        if mid in on_base:
            continue
        yield net.shortest_path(src, mid)[:-1] + net.shortest_path(mid, dst)
        taken += 1
        if taken >= max_detours:
            return


def detour_candidates(
    net, src: int, dst: int, slack: int, max_detours: int = 8
) -> List[List[int]]:
    """Candidate paths from ``src`` to ``dst``: shortest path, then detours.

    Returns the base shortest path first, followed by every detour
    :func:`iter_detours` yields.  This is the shared detour machinery: the
    congestion rerouter picks the least-loaded candidate, and the fault
    layer (:func:`repro.faults.routing.path_avoiding`) walks the same
    detours lazily, stopping at the first one avoiding failed links.
    """
    base_path = net.shortest_path(src, dst)
    return [base_path, *iter_detours(net, src, dst, base_path, slack,
                                     max_detours)]


def reroute_for_congestion(
    schedule: Schedule, max_detours: int = 8
) -> ReroutePlan:
    """Choose per-leg paths minimizing peak link occupancy.

    ``max_detours`` caps how many intermediate-node detours are evaluated
    per leg (the nearest candidates by added length are tried first).
    """
    inst = schedule.instance
    net = inst.network
    dist = net.dist

    # collect legs with their slack, most constrained first
    legs: List[Tuple[int, int, int, int, int]] = []  # (slack, obj, depart, src, dst)
    for obj, visits in schedule.itineraries():
        for a, b in zip(visits, visits[1:]):
            if a.node == b.node:
                continue
            slack = (b.time - a.time) - dist(a.node, b.node)
            if slack < 0:  # pragma: no cover - schedule assumed feasible
                raise InfeasibleScheduleError(
                    f"object {obj} leg {a.node}->{b.node} is infeasible"
                )
            legs.append((slack, obj, a.time, a.node, b.node))
    legs.sort()

    usage: Dict[Edge, Tuple[List[int], List[int]]] = {}
    paths: Dict[Tuple[int, int, int, int], Tuple[int, ...]] = {}
    detoured = 0
    for slack, obj, depart, src, dst in legs:
        candidates = detour_candidates(net, src, dst, slack, max_detours)
        base_path = candidates[0]
        best_path, best_cost = None, None
        for path in candidates:
            intervals = _path_intervals(net, path, depart)
            cost = _peak_increase(usage, intervals)
            if best_cost is None or cost < best_cost:
                best_path, best_cost = path, cost
        assert best_path is not None
        if best_path != base_path:
            detoured += 1
        for edge, enter, exit_ in _path_intervals(net, best_path, depart):
            ent, exi = usage.setdefault(edge, ([], []))
            ent.append(enter)
            exi.append(exit_)
        paths[(obj, depart, src, dst)] = tuple(best_path)

    peaks: Dict[Edge, int] = {}
    for edge, (enters, exits) in usage.items():
        events = sorted(
            [(a, 1) for a in enters] + [(b, -1) for b in exits]
        )
        cur = best = 0
        for _, delta in events:
            cur += delta
            best = max(best, cur)
        peaks[edge] = best
    return ReroutePlan(
        paths=paths,
        peak_concurrency=peaks,
        detoured_legs=detoured,
        total_legs=len(legs),
    )
