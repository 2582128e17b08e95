"""Span tracing from outside the program: wrap each layer's entry points.

The tracer replaces the public entry points of every layer with thin
wrappers that time the call and keep a stack of open spans, so each
span's *self time* is its duration minus the time its child spans
cover.  Tallies are aggregated per span name (count, total, self) and
never grow with run length.

The wrappers are installed into the live modules (class attributes and
the names the cluster modules bound at import), before any fork, so
forked cluster workers inherit them; each worker resets its copy of the
tallies on entry and writes them to a JSON file when ``worker_main``
returns.  :func:`install` returns an undo callable that restores every
original, so the correctness checks run on the unwrapped program.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

#: span name -> [calls, total seconds, self seconds]
Spans = Dict[str, List[float]]


class Tracer:
    """Aggregated span and count tallies for one process."""

    def __init__(self) -> None:
        self.tally_dir: Optional[Path] = None
        self.reset()

    def reset(self) -> None:
        self.spans: Spans = {}
        self.counts: Dict[str, float] = {}
        self.service: Any = None
        self.session: Any = None
        self._stack: List[List[float]] = []

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def _close(self, name: str, duration: float, children: float) -> None:
        if self._stack:
            self._stack[-1][0] += duration
        tally = self.spans.setdefault(name, [0, 0.0, 0.0])
        tally[0] += 1
        tally[1] += duration
        tally[2] += duration - children

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a block of the benchmark's own code as a span."""
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            self._close(name, duration, frame[0])

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        after: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` timed as span ``name``; ``after(args, result)`` counts."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe tallies plus the last service's and session's counters."""
        service: Dict[str, Any] = {}
        if self.service is not None:
            report = self.service.report()
            service = {
                "admitted": report.admitted,
                "deferred_admissions": report.deferred_admissions,
                "peak_backlog": report.peak_backlog,
                "window_retries": report.window_retries,
            }
        session = dict(self.session.stats) if self.session is not None else {}
        return {
            "spans": self.spans,
            "counts": self.counts,
            "service": service,
            "session": session,
        }


def _patch(undo: List[Callable[[], None]], owner: Any, attr: str, new: Any) -> None:
    old = owner.__dict__[attr]
    setattr(owner, attr, new)
    undo.append(lambda: setattr(owner, attr, old))


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer's entry points; returns the undo callable."""
    from repro.cluster import journal, supervisor, worker
    from repro.core.incremental import SchedulerSession
    from repro.core.sharded import ShardedScheduler
    from repro.service import loop
    from repro.workloads.streams import ArrivalStream

    undo: List[Callable[[], None]] = []
    t = tracer

    def drawn(args: tuple, result: Any) -> None:
        t.count("streams.drawn", len(result))

    def saw_service(args: tuple, result: Any) -> None:
        t.service = args[0]

    def saw_session(args: tuple, result: Any) -> None:
        t.session = args[0]

    def resilient_work(args: tuple, result: Any) -> None:
        t.count("resilient.retries", result.report.retries)
        t.count("resilient.reroutes", result.report.reroutes)

    build = worker.network_from_sizes

    def build_network(*args: Any, **kwargs: Any) -> Any:
        net = build(*args, **kwargs)
        net.distance_matrix  # all-pairs distances belong to the build
        return net

    real_worker_main = supervisor.worker_main

    def traced_worker_main(conn: Any, spec: Any) -> None:
        # runs in the forked child: drop the parent's tallies first
        t.reset()
        try:
            with t.span("worker"):
                real_worker_main(conn, spec)
        finally:
            if t.tally_dir is not None:
                path = t.tally_dir / f"worker-{spec.worker}-{os.getpid()}.json"
                path.write_text(json.dumps(t.snapshot()), encoding="utf-8")

    wraps = [
        (ArrivalStream, "window", "streams.window", drawn),
        (loop.SchedulingService, "run_window", "service.run_window", saw_service),
        (SchedulerSession, "submit", "session.submit", saw_session),
        (SchedulerSession, "commit", "session.commit", None),
        (ShardedScheduler, "schedule", "scheduler.schedule", None),
        (loop, "run_resilient", "resilient.run", resilient_work),
        (journal.WindowJournal, "append", "journal.append", None),
        (journal.WindowJournal, "checkpoint", "journal.checkpoint", None),
        (worker, "encode_message", "wire.encode", None),
        (supervisor, "decode_message", "wire.decode", None),
        (supervisor, "connection_wait", "supervisor.wait", None),
    ]
    for owner, attr, name, after in wraps:
        _patch(undo, owner, attr, t.wrap(name, owner.__dict__[attr], after))
    _patch(undo, worker, "network_from_sizes",
           t.wrap("network.build", build_network))
    _patch(undo, supervisor, "worker_main", traced_worker_main)

    def restore() -> None:
        while undo:
            undo.pop()()

    return restore


def load_worker_tallies(directory: Path) -> List[Dict[str, Any]]:
    """Every worker tally file written into ``directory``."""
    return [
        json.loads(p.read_text(encoding="utf-8"))
        for p in sorted(directory.glob("worker-*.json"))
    ]


def merge_spans(into: Spans, spans: Spans) -> None:
    for name, (calls, total, self_s) in spans.items():
        tally = into.setdefault(name, [0, 0.0, 0.0])
        tally[0] += calls
        tally[1] += total
        tally[2] += self_s
