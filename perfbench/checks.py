"""Correctness gate, run outside the timed region.

Sampled windows of ``service-burst`` and ``cluster-sharded`` are checked
against an independent one-shot :func:`repro.schedule` of the same
batch, which must give the same commit times and pass
:func:`~repro.staticcheck.certify.certify_schedule`.  The windows come
from an untimed replay that is tied to the measured run: the service
replay must reach the timed rounds' outcome digest, and each cluster
worker's replay must reproduce, window by window, the accounting digest
that worker journaled during the last timed round.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Set, Tuple

import repro
from repro.cluster import WorkerSpec, accounting_digest
from repro.cluster.journal import JOURNAL_KIND
from repro.core.incremental import SchedulerSession
from repro.core.instance import Instance
from repro.errors import CertificationError
from repro.io.serialize import read_jsonl
from repro.service import ServiceConfig
from repro.staticcheck.certify import certify_schedule

from .workloads import (
    CLUSTER_TOPOLOGY,
    CLUSTER_WORKERS,
    build_service,
    cluster_stream,
    digest,
)

#: sampled windows per service run and per cluster worker
SAMPLES = 8

Captured = Tuple[int, Any, Dict[int, int], list, Dict[int, int], int]


def _sample(windows: int, count: int) -> Set[int]:
    step = max(1, windows // count)
    return set(range(step // 2, windows, step))


def _capture(samples: Set[int], current: List[int]) -> Tuple[Callable[[], None], List[Captured]]:
    """Record ``run_epoch`` batches and results at the sampled windows."""
    real = SchedulerSession.run_epoch
    captured: List[Captured] = []

    def run_epoch(self, txns):
        txns = list(txns)
        times, makespan = real(self, txns)
        if current[0] in samples:
            captured.append(
                (current[0], self.network, self.homes(), txns, dict(times),
                 makespan)
            )
        return times, makespan

    SchedulerSession.run_epoch = run_epoch

    def restore() -> None:
        SchedulerSession.run_epoch = real

    return restore, captured


def _verify(label: str, captured: List[Captured]) -> List[str]:
    """Re-schedule every captured batch one-shot; certify it."""
    problems: List[str] = []
    if not captured:
        return [f"{label}: no sampled window scheduled a batch"]
    for window, net, homes, txns, times, makespan in captured:
        used = sorted({o for t in txns for o in t.objects})
        inst = Instance(net, txns, {o: homes[o] for o in used})
        sched = repro.schedule(inst)
        if dict(sched.commit_times) != times:
            problems.append(
                f"{label} window {window}: session commit times differ from "
                f"a one-shot repro.schedule of the same {len(txns)} txns"
            )
        if sched.makespan != makespan:
            problems.append(
                f"{label} window {window}: makespan {makespan} != one-shot "
                f"{sched.makespan}"
            )
        try:
            certify_schedule(sched)
        except CertificationError as exc:
            problems.append(f"{label} window {window}: {exc}")
    return problems


def check_service(name: str, seed: int, windows: int, expected: str) -> List[str]:
    """Replay one round untimed; verify sampled windows and its digest."""
    current = [-1]
    restore, captured = _capture(_sample(windows, SAMPLES), current)
    try:
        svc, _ = build_service(name, seed, windows)
        for i in range(windows):
            current[0] = i
            svc.run_window(i)
    finally:
        restore()
    problems = []
    got = digest(json.loads(svc.report().to_json()))
    if got != expected:
        problems.append(
            f"{name}: untimed replay digest {got[:12]} != timed {expected[:12]}"
        )
    return problems + _verify(name, captured)


def check_cluster(seed: int, windows: int, journal_dir: Path) -> List[str]:
    """Replay each worker in-process against its journal from the run."""
    topology, shards, size = CLUSTER_TOPOLOGY
    problems: List[str] = []
    for worker in range(CLUSTER_WORKERS):
        spec = WorkerSpec(
            worker=worker, shards=CLUSTER_WORKERS, owned_from={worker: 0},
            topology=topology, size=shards, size2=size,
            stream=cluster_stream(seed), service=ServiceConfig(),
            windows=windows, start_window=0,
            journal_path="", checkpoint_path="", checkpoint_every=8,
        )
        path = journal_dir / f"worker-{worker}.journal.jsonl"
        journaled = {
            int(r["window"]): r["digest"] for r in read_jsonl(path, JOURNAL_KIND)
        }
        if sorted(journaled) != list(range(windows)):
            problems.append(f"worker {worker}: journal does not cover every window")
            continue
        current = [-1]
        restore, captured = _capture(_sample(windows, SAMPLES // 2), current)
        try:
            svc = spec.build_service()
            for i in range(windows):
                current[0] = i
                svc.run_window(i)
                counters = svc.accounting()
                counters["cross"] = svc.stream.cross_released
                if accounting_digest(counters) != journaled[i]:
                    problems.append(
                        f"worker {worker} window {i}: in-process replay "
                        "diverged from the journal the worker wrote"
                    )
                    break
        finally:
            restore()
        problems += _verify(f"cluster worker {worker}", captured)
    return problems
