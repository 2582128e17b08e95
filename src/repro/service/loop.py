"""The long-lived windowed scheduling service.

:class:`SchedulingService` turns the repo's batch machinery into a
continuously running system: an unbounded
:class:`~repro.workloads.streams.ArrivalStream` feeds fixed-length
arrival windows; each window's admitted transactions are batched with
the priority-ordered backlog (window-based greedy contention management
per Sharma/Estrade/Busch, arXiv:1002.4182) and executed by one of two
engines:

* **batch** -- the window is fed through a long-lived
  :class:`~repro.core.incremental.SchedulerSession`
  (``submit`` the batch, ``commit`` it back), so greedy-family
  topologies get the delta-repair engine with distances memoized across
  windows while every other topology transparently keeps its paper
  scheduler -- commit times are bit-identical to the old per-window
  :func:`repro.schedule` rebuild either way;
* **reactive** -- the window runs through the fault-aware
  :func:`~repro.online.run_resilient` runtime, consuming the service's
  :class:`~repro.faults.plan.FaultPlan` slice for that span live (hop
  retries, reroutes, lease recovery).

Robustness around the engines:

* **backpressure** -- high/low-watermark admission with hysteresis:
  ``defer`` (FIFO overflow queue), ``shed`` (typed refusal), or
  ``strict`` (:class:`~repro.errors.OverloadError`);
* **deadlines** -- transactions whose sojourn exceeds the configured
  deadline expire with a typed reason (or raise
  :class:`~repro.errors.DeadlineExpiredError` in strict mode);
* **bounded window retry** -- a window whose execution hits an
  unabsorbable fault returns its batch to the backlog and backs off a
  bounded, deterministic number of windows
  (:class:`~repro.faults.backoff.RetryPolicy`); transactions exceeding
  the budget are dropped with a typed reason, never silently;
* **saturation detection** -- a queue-growth regression
  (:class:`~repro.service.saturation.SaturationDetector`) flips the
  service into shed mode before queues diverge (or raises
  :class:`~repro.errors.SaturationError` in strict mode).

Everything is deterministic given the stream's seed and the plan, and
recording through a :class:`~repro.obs.Recorder` never changes a
decision -- the same bit-parity standard as every other engine.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..core.incremental import SchedulerSession
from ..errors import (
    DeadlineExpiredError,
    FaultError,
    OverloadError,
    SaturationError,
    SchedulingError,
    ServiceError,
)
from ..faults.plan import (
    DelaySpike,
    FaultPlan,
    LinkFailure,
    NodeCrash,
    ObjectStall,
)
from ..obs import events as obs_events
from ..obs.recorder import Recorder, active
from ..online.arrivals import OnlineWorkload, TimedTransaction
from ..online.resilient import run_resilient
from ..workloads.streams import ArrivalStream
from .config import ServiceConfig
from .report import ServiceReport
from .saturation import SaturationDetector

__all__ = ["SchedulingService", "run_service"]


class _Entry:
    """One queued transaction: payload, release, and retry bookkeeping."""

    __slots__ = ("txn", "release", "attempts", "eligible_window")

    def __init__(self, txn, release: int) -> None:
        self.txn = txn
        self.release = release
        self.attempts = 0  # failed-window count (bounded by RetryPolicy)
        self.eligible_window = 0  # earliest window this entry may batch in

    @property
    def priority(self) -> Tuple[int, int]:
        """Timestamp priority: older releases win, tid breaks ties."""
        return (self.release, self.txn.tid)


def _percentile(sorted_values: List[int], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, int(-(-q * len(sorted_values) // 1)))  # ceil
    return float(sorted_values[min(rank, len(sorted_values)) - 1])


class SchedulingService:
    """A continuously running windowed scheduler over an arrival stream.

    Parameters
    ----------
    stream:
        The arrival process; its network and object homes define the
        service's world.  Finite streams (``limit`` set) let
        :meth:`run` drain to empty; unbounded streams require an
        explicit window count.
    config:
        Robustness policies (defaults: 16-step windows, defer
        backpressure at high-water 64, no deadlines, shed on
        saturation).
    plan:
        Optional live :class:`~repro.faults.plan.FaultPlan` on the
        service's global clock; forces the reactive engine under
        ``engine="auto"``.
    rng:
        Randomness for randomized batch schedulers (cluster/star);
        defaults to a fixed-seed generator so the service is
        deterministic out of the box.
    recorder:
        Optional observability sink; strictly passive.
    """

    def __init__(
        self,
        stream: ArrivalStream,
        config: ServiceConfig | None = None,
        plan: FaultPlan | None = None,
        rng: np.random.Generator | None = None,
        recorder: Recorder | None = None,
    ) -> None:
        self.stream = stream
        self.config = config or ServiceConfig()
        self.plan = plan
        if self.config.engine == "batch" and plan is not None:
            raise ServiceError(
                "the batch engine does not consume fault plans; use "
                "engine='reactive' (or 'auto') to inject faults"
            )
        self.engine = (
            self.config.engine
            if self.config.engine != "auto"
            else ("reactive" if plan is not None else "batch")
        )
        if plan is not None:
            plan.validate_against(stream.network)
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._rec = active(recorder)
        # the batch engine drives a long-lived scheduler session instead
        # of rebuilding per window: greedy-family topologies get the
        # delta-repair engine (identical schedules, memoized distances),
        # other topologies transparently keep their paper scheduler
        self._session: SchedulerSession | None = None
        if self.engine == "batch":
            self._session = SchedulerSession(
                stream.network,
                algo=self.config.algo,
                kernel=self.config.kernel,
                mode="auto",
                object_homes=dict(stream.object_homes),
                home_policy="static",
                rng=self._rng,
                recorder=recorder,
            )
        self.detector = SaturationDetector(
            horizon=self.config.detector_horizon,
            slope_threshold=self.config.slope_threshold,
            min_backlog=self.config.effective_min_backlog,
        )
        # queues and gate
        self._backlog: List[_Entry] = []
        self._deferred: List[_Entry] = []
        self._gate_open = True
        # fault bookkeeping that outlives windows
        self._dead: set[int] = set()
        self._unrecoverable: set[int] = set()
        self._crash_cursor = 0
        self._crash_seq: Tuple[NodeCrash, ...] = (
            plan.crash_events if plan is not None else ()
        )
        # accounting
        self._windows_run = 0
        self._released = 0
        self._admitted = 0
        self._commits: List[Tuple[int, int]] = []  # (tid, commit time)
        self._sojourns: List[int] = []
        self._shed: List[Tuple[int, str]] = []
        self._expired: List[Tuple[int, str]] = []
        self._lost: List[Tuple[int, str]] = []
        self._deferred_admissions = 0
        self._window_retries = 0
        self._backlog_curve: List[int] = []
        self._shed_windows = 0
        self._busy_until = 0
        self._busy = 0

    # ------------------------------------------------------------------ #
    # queue state
    # ------------------------------------------------------------------ #

    @property
    def queue_length(self) -> int:
        """Backlog plus the deferred overflow queue -- the measured queue."""
        return len(self._backlog) + len(self._deferred)

    @property
    def windows_run(self) -> int:
        """Arrival windows processed so far (the next window's index)."""
        return self._windows_run

    @property
    def dead_nodes(self) -> frozenset[int]:
        """Nodes whose compute plane has crashed so far."""
        return frozenset(self._dead)

    def _shedding(self) -> bool:
        """True while the saturation detector forces shed mode."""
        return self.detector.saturated and self.config.on_saturation == "shed"

    def _update_gate(self) -> None:
        """Watermark hysteresis on the pending backlog."""
        if self._gate_open:
            if len(self._backlog) >= self.config.high_water:
                self._gate_open = False
        elif len(self._backlog) < self.config.effective_low_water:
            self._gate_open = True

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #

    def _lose(self, tid: int, reason: str, now: int) -> None:
        self._lost.append((tid, reason))
        if self._rec.enabled:
            self._rec.record(obs_events.LostEvent(now, tid, reason))
            self._rec.count("service.lost")

    def _admit(self, entry: _Entry, now: int, window_index: int) -> None:
        """Route one release through the backpressure gate."""
        txn = entry.txn
        if txn.node in self._dead:
            self._lose(txn.tid, f"node {txn.node} crashed", now)
            return
        gone = set(txn.objects) & self._unrecoverable
        if gone:
            self._lose(txn.tid, f"objects {sorted(gone)} unrecoverable", now)
            return
        self._update_gate()
        policy = "shed" if self._shedding() else self.config.admission
        if self._gate_open:
            entry.eligible_window = max(entry.eligible_window, window_index)
            self._backlog.append(entry)
            self._admitted += 1
            if self._rec.enabled:
                self._rec.record(obs_events.AdmissionEvent(
                    now, txn.tid, "admit", len(self._backlog)))
                self._rec.count("service.admitted")
            return
        if policy == "strict":
            raise OverloadError(
                f"window {window_index}: release of transaction {txn.tid} "
                f"with backlog {len(self._backlog)} >= high-water "
                f"{self.config.high_water}"
            )
        if policy == "shed":
            self._shed.append((
                txn.tid,
                f"backlog {len(self._backlog)} >= high-water "
                f"{self.config.high_water} at window {window_index}",
            ))
            if self._rec.enabled:
                self._rec.record(obs_events.AdmissionEvent(
                    now, txn.tid, "shed", len(self._backlog)))
                self._rec.count("service.shed")
            return
        self._deferred.append(entry)
        self._deferred_admissions += 1
        if self._rec.enabled:
            self._rec.record(obs_events.AdmissionEvent(
                now, txn.tid, "defer", len(self._backlog)))
            self._rec.count("service.deferred")

    def _expire(self, now: int) -> None:
        """Drop (or raise on) queued transactions past their deadline."""
        deadline = self.config.deadline
        if deadline is None:
            return
        for queue in (self._backlog, self._deferred):
            keep: List[_Entry] = []
            for e in queue:
                if now - e.release > deadline:
                    reason = (
                        f"deadline expired: sojourn {now - e.release} > "
                        f"{deadline} steps"
                    )
                    if self.config.on_expiry == "strict":
                        raise DeadlineExpiredError(
                            f"transaction {e.txn.tid}: {reason}"
                        )
                    self._expired.append((e.txn.tid, reason))
                    if self._rec.enabled:
                        self._rec.record(
                            obs_events.LostEvent(now, e.txn.tid, reason))
                        self._rec.count("service.expired")
                else:
                    keep.append(e)
            queue[:] = keep

    # ------------------------------------------------------------------ #
    # fault-plan slicing
    # ------------------------------------------------------------------ #

    def _mark_crashes(self, span_end: int) -> List[NodeCrash]:
        """Consume global crashes up to ``span_end``; update dead sets."""
        fired: List[NodeCrash] = []
        while (
            self._crash_cursor < len(self._crash_seq)
            and self._crash_seq[self._crash_cursor].time < span_end
        ):
            ev = self._crash_seq[self._crash_cursor]
            self._crash_cursor += 1
            if ev.node not in self._dead:
                self._dead.add(ev.node)
                fired.append(ev)
        for obj, home in sorted(self.stream.object_homes.items()):
            if home in self._dead:
                self._unrecoverable.add(obj)
        return fired

    def _window_plan(
        self, exec_start: int, crashes: List[NodeCrash]
    ) -> FaultPlan:
        """The plan's slice for one window, shifted to window-local time.

        Windowed events (failures, stalls, spikes) that overlap
        ``[exec_start, exec_start + window)`` are clamped and shifted so
        the window's runtime sees them live; an event overrunning the
        window simply reappears in the next slice.  ``crashes`` are the
        global crash events this window consumes (fired once each).
        """
        if self.plan is None:
            return FaultPlan()
        span_end = exec_start + self.config.window
        events: List[object] = []
        for e in self.plan.events:
            if isinstance(e, NodeCrash):
                continue  # handled via the global crash cursor
            end = e.end
            if e.start >= span_end or (end is not None and end <= exec_start):
                continue
            rel_start = max(1, e.start - exec_start)
            rel_end = None if end is None else end - exec_start
            if rel_end is not None and rel_end <= rel_start:
                continue
            if isinstance(e, LinkFailure):
                events.append(LinkFailure(e.u, e.v, rel_start, rel_end))
            elif isinstance(e, ObjectStall):
                events.append(ObjectStall(e.obj, rel_start, rel_end))
            elif isinstance(e, DelaySpike):
                events.append(
                    DelaySpike(e.u, e.v, rel_start, rel_end, e.factor))
        for ev in crashes:
            events.append(NodeCrash(ev.node, max(1, ev.time - exec_start)))
        return FaultPlan(events)

    # ------------------------------------------------------------------ #
    # window execution
    # ------------------------------------------------------------------ #

    def _build_batch(self, window_index: int) -> List[_Entry]:
        """Highest-priority eligible entries on distinct nodes."""
        taken_nodes: set[int] = set()
        batch: List[_Entry] = []
        remaining: List[_Entry] = []
        for e in sorted(self._backlog, key=lambda e: e.priority):
            if (
                e.eligible_window <= window_index
                and e.txn.node not in taken_nodes
            ):
                taken_nodes.add(e.txn.node)
                batch.append(e)
            else:
                remaining.append(e)
        self._backlog = remaining
        return batch

    def _requeue_failed(
        self, batch: List[_Entry], window_index: int, now: int
    ) -> None:
        """Return a failed window's batch with bounded backoff."""
        policy = self.config.retry
        for e in batch:
            e.attempts += 1
            if e.attempts > policy.max_retries:
                self._lose(
                    e.txn.tid,
                    f"window retry budget exhausted "
                    f"({policy.max_retries} failed windows)",
                    now,
                )
                continue
            e.eligible_window = window_index + 1 + policy.wait(e.attempts)
            self._window_retries += 1
            self._backlog.append(e)
            if self._rec.enabled:
                self._rec.count("service.window_retries")
                self._rec.observe(
                    "service.retry_backoff", policy.wait(e.attempts))

    def _record_commit(self, entry: _Entry, global_time: int) -> None:
        self._commits.append((entry.txn.tid, global_time))
        self._sojourns.append(global_time - entry.release)
        if self._rec.enabled:
            self._rec.record(obs_events.CommitEvent(
                global_time, entry.txn.tid, entry.txn.node,
                tuple(sorted(entry.txn.objects))))
            self._rec.count("service.commits")
            self._rec.observe("service.sojourn", global_time - entry.release)

    def _homes_for(self, batch: List[_Entry]) -> Dict[int, int]:
        needed: set[int] = set()
        for e in batch:
            needed |= set(e.txn.objects)
        return {o: self.stream.object_homes[o] for o in sorted(needed)}

    def _execute_batch(
        self, batch: List[_Entry], exec_start: int, window_index: int
    ) -> None:
        """Run one window's batch; commits, losses, and busy accounting."""
        by_tid = {e.txn.tid: e for e in batch}
        if self.engine == "batch":
            assert self._session is not None
            times, makespan = self._session.run_epoch(
                [e.txn for e in batch]
            )
            for tid, ct in sorted(times.items()):
                self._record_commit(by_tid[tid], exec_start + ct)
            self._busy_until = exec_start + makespan
            self._busy += makespan
            return
        # reactive: live fault consumption via run_resilient
        crashes = self._mark_crashes(exec_start + self.config.window)
        window_plan = self._window_plan(exec_start, crashes)
        workload = OnlineWorkload(
            self.stream.network,
            [TimedTransaction(release=0, txn=e.txn) for e in batch],
            self._homes_for(batch),
        )
        try:
            res = run_resilient(
                workload, window_plan, policy=self.config.retry,
                recorder=self._rec if self._rec.enabled else None,
            )
        except FaultError:
            # unabsorbable fault: burn the window, back off, retry bounded
            self._requeue_failed(batch, window_index, exec_start)
            self._busy_until = exec_start + self.config.window
            self._busy += self.config.window
            return
        for tid, ct in sorted(res.commits.items()):
            self._record_commit(by_tid[tid], exec_start + ct)
        for tid, reason in res.report.lost:
            self._lose(tid, reason, exec_start)
        makespan = max(res.commits.values(), default=0)
        self._busy_until = exec_start + makespan
        self._busy += makespan

    # ------------------------------------------------------------------ #
    # the loop
    # ------------------------------------------------------------------ #

    def run_window(self, window_index: int) -> None:
        """Process one arrival window end to end (advances all state)."""
        w = self.config.window
        arrival_start, arrival_end = window_index * w, (window_index + 1) * w
        exec_start = max(arrival_end, self._busy_until)
        arrivals = self.stream.window(arrival_start, arrival_end)
        self._released += len(arrivals)
        # consume crashes the arrival clock has reached even when no
        # batch runs this window (the node is dead either way)
        self._mark_crashes(arrival_end)
        # deferred releases re-apply first (FIFO), then new arrivals
        deferred, self._deferred = self._deferred, []
        for entry in deferred:
            self._admit(entry, exec_start, window_index)
        for timed in arrivals:
            self._admit(_Entry(timed.txn, timed.release), exec_start,
                        window_index)
        self._expire(exec_start)
        batch = self._build_batch(window_index)
        if batch:
            self._execute_batch(batch, exec_start, window_index)
        queue = self.queue_length
        self._backlog_curve.append(queue)
        was_saturated = self.detector.saturated
        self.detector.observe(queue)
        if self.detector.saturated:
            self._shed_windows += 1
            if not was_saturated and self.config.on_saturation == "strict":
                raise SaturationError(
                    f"window {window_index}: backlog {queue} growing at "
                    f"slope {self.detector.slope():.3f} > threshold "
                    f"{self.config.slope_threshold} over the last "
                    f"{self.config.detector_horizon} windows"
                )
        self._windows_run += 1
        if self._rec.enabled:
            self._rec.count("service.windows")
            self._rec.gauge("service.backlog", queue)

    def run(
        self,
        windows: Optional[int] = None,
        max_windows: int = 100_000,
    ) -> ServiceReport:
        """Run ``windows`` arrival windows (or drain a finite stream).

        With ``windows=None`` the stream must be finite (``limit`` set);
        the service then runs until the stream is exhausted and every
        queue is empty, guarded by ``max_windows`` against a configured
        livelock (e.g. a retry loop that can never drain).
        """
        if windows is None and self.stream.limit is None:
            raise ServiceError(
                "an unbounded stream needs an explicit window count; "
                "pass windows=N or give the stream a limit"
            )
        if windows is not None and windows < 1:
            raise ServiceError(f"windows must be >= 1, got {windows}")
        start = self._windows_run
        while True:
            idx = self._windows_run
            if windows is not None:
                if idx - start >= windows:
                    break
            elif self.stream.exhausted and self.queue_length == 0:
                break
            if idx - start >= max_windows:
                raise SchedulingError(
                    f"service exceeded {max_windows} windows without "
                    f"draining ({self.queue_length} queued)"
                )
            self.run_window(idx)
        return self.report()

    # ------------------------------------------------------------------ #
    # checkpointing (cluster worker recovery)
    # ------------------------------------------------------------------ #

    def accounting(self) -> Dict[str, int]:
        """The conservation counters at the current window boundary.

        ``committed + shed + expired + lost + backlog == released`` holds
        at every boundary; the cluster journal stores this dict (plus its
        digest) per window, and the supervisor sums it across workers.
        """
        return {
            "released": self._released,
            "committed": len(self._commits),
            "shed": len(self._shed),
            "expired": len(self._expired),
            "lost": len(self._lost),
            "backlog": self.queue_length,
        }

    def sojourn_samples(self) -> List[int]:
        """All commit sojourns so far, ascending (for cluster-wide stats)."""
        return sorted(self._sojourns)

    @staticmethod
    def _entry_state(e: _Entry) -> Dict[str, object]:
        return {
            "tid": e.txn.tid,
            "node": e.txn.node,
            "objects": sorted(e.txn.objects),
            "release": e.release,
            "attempts": e.attempts,
            "eligible_window": e.eligible_window,
        }

    @staticmethod
    def _entry_from_state(state: Dict[str, object]) -> _Entry:
        from ..core.transaction import Transaction

        entry = _Entry(
            Transaction(state["tid"], state["node"], state["objects"]),
            int(state["release"]),  # type: ignore[arg-type]
        )
        entry.attempts = int(state["attempts"])  # type: ignore[arg-type]
        entry.eligible_window = int(state["eligible_window"])  # type: ignore[arg-type]
        return entry

    def _ledger(self) -> Dict[str, list]:
        """The append-only ledger, by name.

        ``run_window`` only ever extends these lists, so a window's share
        of them is a slice past the marks taken before it.
        """
        return {
            "commits": self._commits,
            "sojourns": self._sojourns,
            "shed": self._shed,
            "expired": self._expired,
            "lost": self._lost,
            "backlog_curve": self._backlog_curve,
        }

    def ledger_marks(self) -> Dict[str, int]:
        """Current length of each ledger list (see :meth:`ledger_delta`)."""
        return {name: len(entries) for name, entries in self._ledger().items()}

    def ledger_delta(
        self, marks: Optional[Dict[str, int]] = None
    ) -> Dict[str, list]:
        """Ledger entries appended since ``marks`` (all of it by default).

        Marks taken by :meth:`ledger_marks` before a window give that
        window's delta -- the part of the service's state the cluster
        journal carries per window instead of in every checkpoint.
        """
        return {
            name: entries[marks[name] if marks else 0:]
            for name, entries in self._ledger().items()
        }

    def snapshot_state(self) -> Dict[str, object]:
        """JSON-safe snapshot of the service's bounded mutable core.

        The core is everything but the append-only ledger (commits,
        sojourns, shed, expired, lost, backlog curve), so its size does
        not grow with the windows run; it records the ledger's lengths
        instead.  Together with :meth:`restore_state` this is the cluster
        worker's checkpoint: a service constructed with the same stream
        spec, config, and plan, then fed this snapshot and the ledger's
        deltas, continues bit-for-bit identically (same commits, same
        report).  Valid only at a window boundary (never
        mid-``run_window``).
        """
        return {
            "stream": self.stream.state_dict(),
            "rng": self._rng.bit_generator.state,
            "backlog": [self._entry_state(e) for e in self._backlog],
            "deferred": [self._entry_state(e) for e in self._deferred],
            "gate_open": self._gate_open,
            "dead": sorted(self._dead),
            "unrecoverable": sorted(self._unrecoverable),
            "crash_cursor": self._crash_cursor,
            "windows_run": self._windows_run,
            "released": self._released,
            "admitted": self._admitted,
            "deferred_admissions": self._deferred_admissions,
            "window_retries": self._window_retries,
            "shed_windows": self._shed_windows,
            "busy_until": self._busy_until,
            "busy": self._busy,
            "detector": self.detector.state_dict(),
            "ledger_marks": self.ledger_marks(),
        }

    def restore_state(
        self, state: Dict[str, object], deltas: Iterable[Dict[str, list]]
    ) -> None:
        """Restore a :meth:`snapshot_state` core plus its ledger.

        ``deltas`` are the :meth:`ledger_delta` slices that make up the
        ledger at the snapshot, in order (one whole ledger is a single
        delta); they are folded and must add up to the lengths the
        snapshot recorded.  The service must be freshly constructed from
        the same stream spec, config, and plan as the snapshotting one;
        raises :class:`~repro.errors.ServiceError` if windows have
        already run or the deltas do not match the snapshot.
        """
        if self._windows_run or self._released:
            raise ServiceError(
                "restore_state() needs a fresh service; this one has "
                f"already run {self._windows_run} windows"
            )
        ledger = self._ledger()
        for delta in deltas:
            self._commits.extend((int(t), int(c)) for t, c in delta["commits"])
            self._sojourns.extend(int(s) for s in delta["sojourns"])
            for name in ("shed", "expired", "lost"):
                ledger[name].extend((int(t), str(r)) for t, r in delta[name])
            self._backlog_curve.extend(int(q) for q in delta["backlog_curve"])
        if self.ledger_marks() != state["ledger_marks"]:
            raise ServiceError(
                f"restore_state(): the folded ledger {self.ledger_marks()} "
                f"does not match the snapshot's {state['ledger_marks']}"
            )
        self.stream.load_state(state["stream"])  # type: ignore[arg-type]
        self._rng.bit_generator.state = state["rng"]
        self._backlog = [self._entry_from_state(s) for s in state["backlog"]]  # type: ignore[union-attr]
        self._deferred = [self._entry_from_state(s) for s in state["deferred"]]  # type: ignore[union-attr]
        self._gate_open = bool(state["gate_open"])
        self._dead = {int(n) for n in state["dead"]}  # type: ignore[union-attr]
        self._unrecoverable = {int(o) for o in state["unrecoverable"]}  # type: ignore[union-attr]
        self._crash_cursor = int(state["crash_cursor"])  # type: ignore[arg-type]
        self._windows_run = int(state["windows_run"])  # type: ignore[arg-type]
        self._released = int(state["released"])  # type: ignore[arg-type]
        self._admitted = int(state["admitted"])  # type: ignore[arg-type]
        self._deferred_admissions = int(state["deferred_admissions"])  # type: ignore[arg-type]
        self._window_retries = int(state["window_retries"])  # type: ignore[arg-type]
        self._shed_windows = int(state["shed_windows"])  # type: ignore[arg-type]
        self._busy_until = int(state["busy_until"])  # type: ignore[arg-type]
        self._busy = int(state["busy"])  # type: ignore[arg-type]
        self.detector.load_state(state["detector"])  # type: ignore[arg-type]

    def skip_to_window(self, window_index: int) -> None:
        """Start a fresh service at ``window_index`` instead of 0.

        Used by cluster replacement workers taking over a retired
        worker's shard mid-run: the underlying stream must already have
        been advanced to step ``window_index * window`` (drawing -- and
        discarding -- the unowned prefix keeps the generator aligned).
        Raises :class:`~repro.errors.ServiceError` on a service that has
        already run or admitted anything.
        """
        if self._windows_run or self._released or self.queue_length:
            raise ServiceError(
                "skip_to_window() needs a fresh service; this one has "
                f"already run {self._windows_run} windows"
            )
        if window_index < 0:
            raise ServiceError(
                f"window_index must be >= 0, got {window_index}"
            )
        self._windows_run = window_index
        self._busy_until = window_index * self.config.window

    def report(self) -> ServiceReport:
        """The run's :class:`ServiceReport` (valid at any window boundary)."""
        sojourns = sorted(self._sojourns)
        elapsed = max(self._busy_until, self._windows_run * self.config.window)
        return ServiceReport(
            windows=self._windows_run,
            window_len=self.config.window,
            engine=self.engine,
            released=self._released,
            admitted=self._admitted,
            committed=len(self._commits),
            shed=len(self._shed),
            expired=len(self._expired),
            lost=len(self._lost),
            deferred_admissions=self._deferred_admissions,
            window_retries=self._window_retries,
            fault_count=len(self.plan) if self.plan is not None else 0,
            peak_backlog=max(self._backlog_curve, default=0),
            final_backlog=self.queue_length,
            backlog_curve=tuple(self._backlog_curve),
            sojourn_p50=_percentile(sojourns, 0.50),
            sojourn_p99=_percentile(sojourns, 0.99),
            sojourn_mean=(
                sum(sojourns) / len(sojourns) if sojourns else 0.0
            ),
            sojourn_max=max(sojourns, default=0),
            elapsed=elapsed,
            busy=self._busy,
            saturated_at=self.detector.tripped_at,
            shed_windows=self._shed_windows,
            detector_trips=self.detector.trips,
            final_slope=self.detector.slope(),
        )


def run_service(
    stream: ArrivalStream,
    windows: Optional[int] = None,
    config: ServiceConfig | None = None,
    plan: FaultPlan | None = None,
    rng: np.random.Generator | None = None,
    recorder: Recorder | None = None,
) -> ServiceReport:
    """One-call convenience: build a service, run it, return the report."""
    return SchedulingService(
        stream, config=config, plan=plan, rng=rng, recorder=recorder
    ).run(windows)
