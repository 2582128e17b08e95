"""Per-layer metrics from the traced rounds' span and count tallies.

Times are seconds per round (a round is the workload's fixed number of
windows).  Shares divide a layer's time by the root: the total time in
``SchedulingService.run_window`` for the in-process services, or in the
workers' ``worker_main`` for the cluster.  The shares in
:data:`PARTITION` are self times (the session's includes the scheduler
it calls), so they sum to one; ``trace.share_sum`` reports the sum.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List

from .tracer import merge_spans

PER_LAYER = {
    "network.build_s": "s",
    "network.share": "ratio",
    "streams.window_s": "s",
    "streams.share": "ratio",
    "streams.drawn_per_owned": "ratio",
    "service.self_s": "s",
    "service.self_share": "ratio",
    "service.admit_useful_ratio": "ratio",
    "service.peak_backlog": "count",
    "service.window_retries": "count",
    "session.submit_s": "s",
    "session.commit_s": "s",
    "session.share": "ratio",
    "session.repairs_examined": "count",
    "session.full_rebuilds": "count",
    "session.memo_hit_ratio": "ratio",
    "scheduler.schedule_s": "s",
    "scheduler.calls": "count",
    "resilient.run_s": "s",
    "resilient.share": "ratio",
    "resilient.retries": "count",
    "resilient.reroutes": "count",
    "journal.append_s": "s",
    "journal.append_share": "ratio",
    "journal.checkpoint_s": "s",
    "journal.checkpoint_share": "ratio",
    "journal.bytes_per_window": "B",
    "journal.checkpoint_bytes_last": "B",
    "wire.encode_s": "s",
    "wire.encode_share": "ratio",
    "wire.decode_s": "s",
    "wire.bytes_per_window": "B",
    "supervisor.idle_share": "ratio",
    "supervisor.merge_s": "s",
    "worker.self_share": "ratio",
    "cluster.worker_skew": "ratio",
    "cluster.cross_ratio": "ratio",
    "cluster.restarts": "count",
    "trace.share_sum": "ratio",
    "trace.overhead_ratio": "ratio",
}

#: self-time shares that together cover the root
PARTITION = (
    "network.share", "streams.share", "service.self_share", "session.share",
    "resilient.share", "journal.append_share", "journal.checkpoint_share",
    "wire.encode_share", "worker.self_share",
)


def layer_metrics(wl, rounds: list, windows: int) -> Dict[str, float]:
    n = len(rounds)
    spans: Dict[str, List[float]] = {}
    counts: Dict[str, float] = {}
    services: List[Dict[str, Any]] = []
    sessions: List[Dict[str, Any]] = []
    for r in rounds:
        for tally in r.tallies:
            merge_spans(spans, tally["spans"])
            for name, value in tally["counts"].items():
                counts[name] = counts.get(name, 0) + value
            if tally["service"]:
                services.append(tally["service"])
            if tally["session"]:
                sessions.append(tally["session"])

    def total(name: str) -> float:
        return spans.get(name, [0, 0.0, 0.0])[1]

    def own(name: str) -> float:
        return spans.get(name, [0, 0.0, 0.0])[2]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    root = total("worker") if wl.cluster else total("service.run_window")
    released = sum(r.released for r in rounds)
    admitted = sum(s["admitted"] for s in services)
    deferred = sum(s["deferred_admissions"] for s in services)
    hits = sum(s.get("memo_hits", 0) for s in sessions)
    misses = sum(s.get("memo_misses", 0) for s in sessions)
    worker_windows = windows * len(services)  # one service per worker-round
    extra = [r.extra for r in rounds]
    m = {
        "network.build_s": total("network.build") / n,
        # services build their network during set-up, outside the root
        "network.share": ratio(total("network.build"), root) if wl.cluster else 0.0,
        "streams.window_s": total("streams.window") / n,
        "streams.share": ratio(total("streams.window"), root),
        "streams.drawn_per_owned": ratio(counts.get("streams.drawn", 0), released),
        "service.self_s": own("service.run_window") / n,
        "service.self_share": ratio(own("service.run_window"), root),
        "service.admit_useful_ratio": ratio(admitted, admitted + deferred),
        "service.peak_backlog": max(s["peak_backlog"] for s in services),
        "service.window_retries": sum(s["window_retries"] for s in services) / n,
        "session.submit_s": total("session.submit") / n,
        "session.commit_s": total("session.commit") / n,
        "session.share": ratio(
            total("session.submit") + total("session.commit"), root),
        "session.repairs_examined":
            sum(s.get("repairs_examined", 0) for s in sessions) / n,
        "session.full_rebuilds":
            sum(s.get("full_rebuilds", 0) for s in sessions) / n,
        "session.memo_hit_ratio": ratio(hits, hits + misses),
        "scheduler.schedule_s": total("scheduler.schedule") / n,
        "scheduler.calls": spans.get("scheduler.schedule", [0])[0] / n,
        "resilient.run_s": total("resilient.run") / n,
        "resilient.share": ratio(total("resilient.run"), root),
        "resilient.retries": counts.get("resilient.retries", 0) / n,
        "resilient.reroutes": counts.get("resilient.reroutes", 0) / n,
        "journal.append_s": total("journal.append") / n,
        "journal.append_share": ratio(total("journal.append"), root),
        "journal.checkpoint_s": total("journal.checkpoint") / n,
        "journal.checkpoint_share": ratio(total("journal.checkpoint"), root),
        "journal.bytes_per_window": ratio(
            sum(e.get("journal_bytes", 0) for e in extra), worker_windows),
        "journal.checkpoint_bytes_last": max(
            e.get("checkpoint_bytes_last", 0) for e in extra),
        "wire.encode_s": total("wire.encode") / n,
        "wire.encode_share": ratio(total("wire.encode"), root),
        "wire.decode_s": total("wire.decode") / n,
        "wire.bytes_per_window": ratio(
            sum(e.get("wire_bytes", 0) for e in extra), worker_windows),
        "supervisor.idle_share": ratio(
            total("supervisor.wait"), sum(e.get("wall_s", 0) for e in extra)),
        "supervisor.merge_s": statistics.median(
            e.get("merge_s", 0.0) for e in extra),
        "worker.self_share": ratio(own("worker"), root),
        "cluster.worker_skew": statistics.median(
            _skew(r.tallies) for r in rounds) if wl.cluster else 0.0,
        "cluster.cross_ratio": ratio(
            sum(e.get("cross", 0) for e in extra), released),
        "cluster.restarts": sum(e.get("restarts", 0) for e in extra) / n,
    }
    m["trace.share_sum"] = sum(m[name] for name in PARTITION)
    return m


def _skew(tallies: List[Dict[str, Any]]) -> float:
    """Slowest over fastest worker busy time in one cluster round."""
    busy = [t["spans"]["worker"][1] for t in tallies if "worker" in t["spans"]]
    return max(busy) / min(busy)
