"""The benchmark's workloads: inputs drawn from the seed, one timed round.

A *round* builds a workload from scratch (network, all-pairs distances,
stream, service or cluster) and runs a fixed number of arrival windows
back to back, one window in flight.  Every round of one seed does the
same work and must reach the same outcome, so rounds are both the unit
of timing and the determinism check.  In simulated time every workload
is open-loop: the seeded stream releases arrivals whatever the service
does; sojourn (commit minus release, in steps) is the simulated latency.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List

from repro import make_network
from repro.cluster import (
    ClusterConfig, StreamSpec, run_cluster, supervisor, worker,
)
from repro.cluster.wire import MSG_DONE, MSG_HELLO, MSG_WINDOW
from repro.faults.plan import DelaySpike, FaultPlan, LinkFailure, ObjectStall
from repro.service import SchedulingService, ServiceConfig
from repro.workloads.seeds import spawn
from repro.workloads.streams import MMPPStream, PoissonStream

from .tracer import load_worker_tallies

#: windows per round
ROUND_WINDOWS = 1000
#: set-up repetitions behind each set-up sample; the sample is their fastest
SETUP_BEST_OF = 3

#: the seed every recorded figure uses unless another is passed
DEFAULT_SEED = 20170722
#: a seed never used while the benchmark was tuned; must also run green
HELD_OUT_SEED = 4242


def stream_seeds(seed: int, count: int) -> List[int]:
    """The seeds of a run's ``count`` streams; the first is ``seed``."""
    return [seed] + [
        int(spawn(seed, "perfbench", "stream", k).integers(2**31))
        for k in range(1, count)
    ]


def cpu_seconds() -> float:
    """CPU time of this process plus every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def digest(doc: Any) -> str:
    """SHA-256 of a canonical JSON rendering of ``doc``."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Round:
    """What one round measured and produced."""

    lanes: int  # window sequences run side by side (cluster workers)
    busy_s: float  # wall time of the window phase
    window_s: List[float]  # wall time of each window
    cpu_s: float  # parent plus children, set-up included
    released: int
    failed: int  # shed + expired + lost
    sojourn_p50: float
    sojourn_p99: float
    accounted: bool
    digest: str  # of the deterministic outcome
    # traced runs: one tally per process (see tracer.Tracer.snapshot)
    tallies: List[Dict[str, Any]] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


# --------------------------------------------------------------------- #
# in-process services
# --------------------------------------------------------------------- #

#: ``service-faults`` draws one link failure, one 2x delay spike and one
#: object stall every this many steps
FAULT_EVERY = 32
FAULTS_W = 128


def fault_plan(net, seed: int, steps: int) -> FaultPlan:
    """Repairable faults covering ``steps`` steps, drawn from the seed.

    Each event lasts 1-12 steps.  There are no node crashes: a crash
    loses work permanently, and this workload must fail no transaction.
    """
    rng = spawn(seed, "perfbench", "service-faults", "plan")
    edges = sorted((u, v) for u, v, _ in net.edges())
    events: List[object] = []
    for t in range(1, steps + 1, FAULT_EVERY):
        u, v = edges[int(rng.integers(len(edges)))]
        events.append(LinkFailure(u, v, t, t + int(rng.integers(1, 13))))
        u, v = edges[int(rng.integers(len(edges)))]
        events.append(DelaySpike(u, v, t, t + int(rng.integers(1, 13)), 2.0))
        obj = int(rng.integers(FAULTS_W))
        events.append(ObjectStall(obj, t, t + int(rng.integers(1, 13))))
    return FaultPlan(events)


#: ``service-burst`` streams per cycle: MMPP storms make one stream's
#: sojourn and window times depend strongly on its seed
BURST_STREAMS = 4
#: ``service-burst``: min_backlog above any reachable backlog, so storms
#: defer and never shed
BURST_CONFIG = ServiceConfig(
    engine="batch", admission="defer", high_water=64, min_backlog=1_000_000,
)
FAULTS_CONFIG = ServiceConfig(engine="reactive")


def build_service(name: str, seed: int, windows: int, tracer=None):
    """One fresh service; returns ``(service, setup seconds)``.

    Set-up is the network build with its all-pairs distances plus the
    service's construction; drawing the fault plan (an input) is not.
    """
    burst = name == "service-burst"
    start = time.perf_counter()
    with _span(tracer, "network.build"):
        net = make_network("hypercube", dim=8) if burst else make_network("torus", rows=8)
        net.distance_matrix
    built = time.perf_counter()
    rng = spawn(seed, "perfbench", name, "stream")
    if burst:
        begin = time.perf_counter()
        stream = MMPPStream(
            net, w=512, k=2, rate_low=0.5, rate_high=4.0, switch=0.02, rng=rng
        )
        svc = SchedulingService(stream, BURST_CONFIG)
    else:
        plan = fault_plan(net, seed, windows * FAULTS_CONFIG.window)
        begin = time.perf_counter()
        stream = PoissonStream(net, w=FAULTS_W, k=2, rate=0.8, rng=rng)
        svc = SchedulingService(stream, FAULTS_CONFIG, plan=plan)
    return svc, (built - start) + (time.perf_counter() - begin)


def service_round(
    name: str, seed: int, windows: int, tmp: Path, tracer=None
) -> Round:
    if tracer is not None:
        tracer.reset()
    cpu0 = cpu_seconds()
    svc, _ = build_service(name, seed, windows, tracer)
    window_s: List[float] = []
    for i in range(windows):
        start = time.perf_counter()
        svc.run_window(i)
        window_s.append(time.perf_counter() - start)
    cpu_s = cpu_seconds() - cpu0
    report = svc.report()
    return Round(
        lanes=1,
        busy_s=sum(window_s),
        window_s=window_s,
        cpu_s=cpu_s,
        released=report.released,
        failed=report.shed + report.expired + report.lost,
        sojourn_p50=report.sojourn_p50,
        sojourn_p99=report.sojourn_p99,
        accounted=report.accounted,
        digest=digest(json.loads(report.to_json())),
        tallies=[tracer.snapshot()] if tracer is not None else [],
    )


def service_setup(name: str, seed: int, windows: int, tmp: Path) -> float:
    return build_service(name, seed, windows)[1]


# --------------------------------------------------------------------- #
# the multi-process cluster
# --------------------------------------------------------------------- #

CLUSTER_TOPOLOGY = ("shard-cluster", 16, 4)  # shards, shard_size
CLUSTER_WORKERS = 2


def cluster_stream(seed: int) -> StreamSpec:
    stream_seed = int(
        spawn(seed, "perfbench", "cluster-sharded", "stream").integers(2**31)
    )
    return StreamSpec(
        kind="poisson", w=512, k=2, rate=1.0, seed=stream_seed,
        assign="shard",
    )


class _Stamps:
    """When workers sent their windows; when the supervisor decoded hellos.

    Installed around the wire calls as the cluster modules bound them, in
    untraced and traced runs alike: it is how the benchmark sees the
    per-window wall time of workers it does not run.  Each worker stamps
    its hello and every window message as it encodes them, and writes
    its stamps to ``stamp_dir`` when ``worker_main`` returns.  Window
    times come from the worker's side because the supervisor reads late
    whenever it waits for a core, which lengthens one gap and shortens
    the next.
    """

    def __init__(self, stamp_dir: Path | None = None) -> None:
        self.stamp_dir = stamp_dir
        self.hello: Dict[int, float] = {}
        self.done: List[float] = []
        self.wire_bytes = 0

    def install(self) -> Callable[[], None]:
        real_decode = supervisor.decode_message
        real_encode = worker.encode_message
        real_main = supervisor.worker_main
        sent: List[float] = []

        def decode(text, *args, **kwargs):
            kind, body = real_decode(text, *args, **kwargs)
            now = time.perf_counter()
            self.wire_bytes += len(text)
            if kind == MSG_HELLO:
                self.hello.setdefault(int(body["worker"]), now)
            elif kind == MSG_DONE:
                self.done.append(now)
            return kind, body

        def encode(kind, *args, **kwargs):
            text = real_encode(kind, *args, **kwargs)
            if kind in (MSG_HELLO, MSG_WINDOW):
                sent.append(time.perf_counter())
            return text

        def main(conn, spec) -> None:
            # runs in the forked worker
            sent.clear()
            try:
                real_main(conn, spec)
            finally:
                if self.stamp_dir is not None:
                    name = f"worker-{spec.worker}-{os.getpid()}.json"
                    (self.stamp_dir / name).write_text(json.dumps(sent))

        supervisor.decode_message = decode
        worker.encode_message = encode
        supervisor.worker_main = main

        def restore() -> None:
            supervisor.decode_message = real_decode
            worker.encode_message = real_encode
            supervisor.worker_main = real_main

        return restore

    def gaps(self) -> List[float]:
        """Wall time of each window, worker by worker."""
        out: List[float] = []
        for path in sorted(self.stamp_dir.glob("worker-*.json")):
            sent = json.loads(path.read_text(encoding="utf-8"))
            out += [b - a for a, b in zip(sent, sent[1:])]
        return out


def _cluster(seed: int, windows: int, journal_dir: Path):
    topology, shards, size = CLUSTER_TOPOLOGY
    return run_cluster(
        topology, shards, size,
        stream=cluster_stream(seed),
        service=ServiceConfig(),
        config=ClusterConfig(
            workers=CLUSTER_WORKERS, windows=windows,
            journal_dir=str(journal_dir),
        ),
    )


def cluster_round(
    name: str, seed: int, windows: int, tmp: Path, tracer=None
) -> Round:
    journal_dir = tmp / "journal"
    stamps = _Stamps(tmp / "stamps")
    stamps.stamp_dir.mkdir()
    if tracer is not None:
        tracer.reset()
        tracer.tally_dir = tmp / "tallies"
        tracer.tally_dir.mkdir()
    restore = stamps.install()
    try:
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        report = _cluster(seed, windows, journal_dir)
        end = time.perf_counter()
        cpu_s = cpu_seconds() - cpu0
    finally:
        restore()
    setup_s = max(stamps.hello.values()) - start
    tallies: List[Dict[str, Any]] = []
    if tracer is not None:
        tallies = [tracer.snapshot()] + load_worker_tallies(tracer.tally_dir)
    journals = sorted(journal_dir.glob("*.journal.jsonl"))
    checkpoints = sorted(journal_dir.glob("*.ckpt.json"))
    extra = {
        "wall_s": end - start,
        "merge_s": end - max(stamps.done),
        "wire_bytes": stamps.wire_bytes,
        "journal_bytes": sum(p.stat().st_size for p in journals),
        "checkpoint_bytes_last": max(
            (p.stat().st_size for p in checkpoints), default=0
        ),
        "cross": report.cross_shard,
        "restarts": report.restarts,
    }
    return Round(
        lanes=CLUSTER_WORKERS,
        busy_s=(end - start) - setup_s,
        window_s=stamps.gaps(),
        cpu_s=cpu_s,
        released=report.released,
        failed=report.shed + report.expired + report.lost,
        sojourn_p50=report.sojourn_p50,
        sojourn_p99=report.sojourn_p99,
        accounted=report.accounted,
        digest=digest(report.parity_key()),
        tallies=tallies,
        extra=extra,
    )


def cluster_setup(name: str, seed: int, windows: int, tmp: Path) -> float:
    """Call-to-last-hello time of a one-window cluster."""
    stamps = _Stamps()
    restore = stamps.install()
    try:
        start = time.perf_counter()
        _cluster(seed, 1, tmp / "journal")
    finally:
        restore()
    return max(stamps.hello.values()) - start


# --------------------------------------------------------------------- #
# the registry
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    run_round: Callable[..., Round]
    setup_only: Callable[..., float]
    #: streams per cycle, each from its own seed (the first is the run's
    #: seed); more streams average out how much a run depends on its seed
    streams: int = 1
    cluster: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "service-burst",
            "MMPP storms on hypercube(8): the incremental session schedules "
            "and tens of thousands of deferrals pass through admission",
            run_round=service_round, setup_only=service_setup,
            streams=BURST_STREAMS,
        ),
        Workload(
            "service-faults",
            "Poisson arrivals on torus(8) under a repairable fault plan: "
            "run_resilient and plan slicing, the session bypassed",
            run_round=service_round, setup_only=service_setup,
        ),
        Workload(
            "cluster-sharded",
            "two forked workers on shard-cluster(16, 4): journal, wire and "
            "supervisor merge beside sharded scheduling",
            run_round=cluster_round, setup_only=cluster_setup,
            cluster=True,
        ),
    )
}


def workload(name: str) -> Workload:
    try:
        return WORKLOADS[name]
    except KeyError:
        raise SystemExit(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        ) from None
