"""The cluster worker process: shard service, journal, chaos, wire.

A worker is one forked process running a
:class:`~repro.service.SchedulingService` over its residue-class shard
of the shared arrival stream.  Everything it needs is in its
:class:`WorkerSpec` -- so a restarted incarnation rebuilds the *same*
deterministic world from the spec alone, recovers its progress from the
journal, and resumes as if nothing happened.

The loop per window is strictly ordered:

1. inject any chaos event pinned to this ``(worker, window)``
   (kill = ``os._exit`` with no goodbye; stall/delay = ``time.sleep``);
2. execute the window;
3. journal it with its ledger delta (the durable commit point);
4. checkpoint the service's bounded core every ``checkpoint_every``
   windows;
5. send the ``cluster_window`` message -- the supervisor's heartbeat.

Because the journal append precedes the send, the supervisor's view can
lag the journal by at most one window; recovery always trusts the
journal, never the supervisor's memory.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..errors import ClusterError, ReproError
from ..io.serialize import dumps_line
from ..network.registry import network_from_sizes
from ..service import SchedulingService, ServiceConfig
from .chaos import ChaosEvent, WorkerDelay, WorkerKill, WorkerStall
from .journal import WindowJournal, accounting_digest
from .shard import ShardedStream, StreamSpec
from .wire import MSG_DONE, MSG_ERROR, MSG_HELLO, MSG_WINDOW, encode_message

__all__ = ["WorkerSpec", "worker_main"]

#: exit status of a chaos-killed worker (distinguishes injected kills
#: from genuine crashes in logs; the supervisor treats both the same)
KILL_EXIT_STATUS = 17


@dataclass(frozen=True)
class WorkerSpec:
    """Everything one worker incarnation needs to rebuild its world.

    ``owned_from`` maps each owned residue class to the first stream
    step it is owned from (0 for original workers, the handoff step for
    replacements).  ``start_window`` is the first window this
    incarnation's *lineage* executes (0 unless it replaces a shed
    worker).  ``chaos`` holds only this worker's events, already
    stripped of anything that fired in a previous incarnation.
    """

    worker: int
    shards: int
    owned_from: Dict[int, int]
    topology: str
    size: int
    size2: Optional[int]
    stream: StreamSpec
    service: ServiceConfig
    windows: int
    start_window: int
    journal_path: str
    checkpoint_path: str
    checkpoint_every: int
    verify_replay: bool = True
    chaos: Tuple[ChaosEvent, ...] = field(default_factory=tuple)

    def build_service(self) -> SchedulingService:
        """Deterministically rebuild this worker's sharded service."""
        net = network_from_sizes(self.topology, self.size, self.size2)
        base = self.stream.build(net)
        sharded = ShardedStream(
            base, self.shards, dict(self.owned_from),
            assign=self.stream.assign,
        )
        return SchedulingService(sharded, self.service)


def _accounting(service: SchedulingService) -> Dict[str, int]:
    """The service's conservation counters plus the cross-shard tally.

    The single accounting view the worker journals, digests, and ships:
    journal digests in :func:`worker_main` and the replay verification
    in :func:`_recover` MUST both go through this helper, or a recovered
    worker's digest diverges from the one it journaled.
    """
    counters = service.accounting()
    counters["cross"] = int(getattr(service.stream, "cross_released", 0))
    return counters


def _recover(
    service: SchedulingService, journal: WindowJournal, spec: WorkerSpec
) -> int:
    """Restore checkpoint and ledger, replay journaled windows, verify.

    The checkpoint holds the service's bounded core; the ledger it
    leaves out is folded back from the deltas journaled before it.
    Returns the number of windows replayed (journal tail length).  The
    replay re-executes each journaled window deterministically; under
    ``verify_replay`` a digest or ledger-delta mismatch means the
    rebuild diverged from the incarnation that journaled it -- a
    determinism bug -- and raises :class:`~repro.errors.ClusterError`
    rather than silently forking history.
    """
    ckpt, prefix, tail = journal.load(floor=spec.start_window)
    if ckpt is not None:
        service.restore_state(ckpt["state"], [r["delta"] for r in prefix])
    elif spec.start_window > 0:
        _fast_forward(service, spec)
    for rec in tail:
        window = int(rec["window"])
        if window != service.windows_run:
            raise ClusterError(
                f"worker {spec.worker}: journal replay expected window "
                f"{service.windows_run}, found {window}"
            )
        marks = service.ledger_marks()
        service.run_window(window)
        if not spec.verify_replay:
            continue
        digest = accounting_digest(_accounting(service))
        if digest != rec["digest"]:
            raise ClusterError(
                f"worker {spec.worker}: replay of window {window} "
                f"diverged from the journal (digest {digest} != "
                f"{rec['digest']}); deterministic recovery is broken"
            )
        if dumps_line(service.ledger_delta(marks)) != dumps_line(rec["delta"]):
            raise ClusterError(
                f"worker {spec.worker}: replay of window {window} "
                "diverged from the journal (its ledger delta differs); "
                "deterministic recovery is broken"
            )
    return len(tail)


def _fast_forward(service: SchedulingService, spec: WorkerSpec) -> None:
    """Advance a fresh replacement worker to its handoff window.

    Draws (and discards) the stream prefix before ``start_window`` --
    nothing there is owned, since ``owned_from`` starts at the handoff
    step -- keeping the generator aligned with every other worker, then
    repositions the service clock.
    """
    service.stream.window(0, spec.start_window * spec.service.window)
    service.skip_to_window(spec.start_window)


def worker_main(conn: Any, spec: WorkerSpec) -> None:
    """Entry point of one worker process (also callable in-process).

    ``conn`` is the send end of the supervisor's pipe; every message is
    a versioned single-line JSON envelope from :mod:`repro.cluster.wire`.
    On any :class:`~repro.errors.ReproError` the worker sends a typed
    ``cluster_error`` notice before dying, so the supervisor can
    distinguish a logic failure (raise) from a crash (restart).
    """
    try:
        service = spec.build_service()
        journal = WindowJournal(spec.journal_path, spec.checkpoint_path)
        replayed = 0
        if journal.has_history():
            replayed = _recover(service, journal, spec)
        elif spec.start_window > 0:
            _fast_forward(service, spec)
        conn.send(encode_message(MSG_HELLO, {
            "worker": spec.worker,
            "pid": os.getpid(),
            "resumed_at": service.windows_run,
            "replayed": replayed,
        }))
        chaos_at = {e.window: e for e in spec.chaos}
        marks = service.ledger_marks()
        for window in range(service.windows_run, spec.windows):
            event = chaos_at.get(window)
            if isinstance(event, WorkerKill):
                os._exit(KILL_EXIT_STATUS)
            if isinstance(event, (WorkerStall, WorkerDelay)):
                time.sleep(event.seconds)
            service.run_window(window)
            cumulative = _accounting(service)
            digest = accounting_digest(cumulative)
            delta = service.ledger_delta(marks)
            marks = service.ledger_marks()
            journal.append(window, digest, cumulative, delta)
            if (window + 1) % spec.checkpoint_every == 0:
                journal.checkpoint(window + 1, service.snapshot_state())
            conn.send(encode_message(MSG_WINDOW, {
                "worker": spec.worker,
                "window": window,
                "digest": digest,
                "cumulative": cumulative,
            }))
        conn.send(encode_message(MSG_DONE, {
            "worker": spec.worker,
            "replayed": replayed,
            "report": service.report().to_json(),
            "sojourns": service.sojourn_samples(),
            "accounting": _accounting(service),
        }))
        conn.close()
    except ReproError as exc:
        try:
            conn.send(encode_message(MSG_ERROR, {
                "worker": spec.worker,
                "error": type(exc).__name__,
                "message": str(exc),
            }))
            conn.close()
        except (OSError, BrokenPipeError):  # pragma: no cover - dying pipe
            pass
        raise SystemExit(1)
