"""End-to-end service and cluster benchmark with a traced per-layer run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload service-burst --seed 20170722 \
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` first runs the same untraced measurement in a child
process (for ``trace.overhead_ratio`` and the traced-equals-untraced
digest check), then wraps every layer's entry points and reports the
per-layer metrics.  Every metric is printed as ``metric <name> = <value>
<unit>``; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit status is 0 only
when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent

END_TO_END = {
    "arrivals_per_s": "1/s",
    "window_ms_p50": "ms",
    "window_ms_p99": "ms",
    "sojourn_p50_steps": "steps",
    "sojourn_p99_steps": "steps",
    "cpu_us_per_arrival": "us",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_cycles(wl, seed: int, seconds: float, windows: int, tmp: Path,
               tracer=None, setups: List[float] | None = None) -> list:
    """Cycles of rounds back to back for about ``seconds`` (at least two).

    A cycle runs one round per stream seed of the workload.  No cycle is
    started that would, at the mean pace so far, end more than half a
    cycle after ``seconds``.
    When ``setups`` is given, one set-up sample is appended after every
    round, so the samples spread over the whole run: the fastest of
    ``SETUP_BEST_OF`` set-ups done back to back.
    """
    from perfbench.workloads import SETUP_BEST_OF, stream_seeds

    seeds = stream_seeds(seed, wl.streams)
    cycles: list = []
    start = time.perf_counter()
    while len(cycles) < 2 or (
        (time.perf_counter() - start) * (len(cycles) + 0.5) / len(cycles)
        <= seconds
    ):
        cycle = []
        for stream_seed in seeds:
            tag = f"{len(cycles)}-{len(cycle)}"
            cycle.append(wl.run_round(
                wl.name, stream_seed, windows, fresh(tmp, f"round-{tag}"),
                tracer,
            ))
            if setups is not None:
                setups.append(min(
                    wl.setup_only(
                        wl.name, seed, windows, fresh(tmp, f"setup-{tag}-{k}")
                    )
                    for k in range(SETUP_BEST_OF)
                ))
        cycles.append(cycle)
    return cycles


def fresh(tmp: Path, name: str) -> Path:
    path = tmp / name
    path.mkdir()
    return path


def gate(cycles: list) -> List[str]:
    """Accounting identity, and same-seed determinism across cycles."""
    problems = []
    for c, cycle in enumerate(cycles):
        for k, r in enumerate(cycle):
            first = cycles[0][k]
            if not r.accounted:
                problems.append(
                    f"cycle {c} stream {k}: accounting identity violated")
            if r.digest != first.digest:
                problems.append(
                    f"cycle {c} stream {k}: outcome digest {r.digest[:12]} "
                    f"!= cycle 0 {first.digest[:12]} for the same seed"
                )
    return problems


def clean_windows(cycles: list) -> List[List[float]]:
    """Per stream, each window's fastest wall time over the cycles.

    Every cycle repeats the same work, window for window, and other
    tenants of a shared host only ever add time.  Their interference
    comes and goes within milliseconds as well as in spells of seconds,
    so a window's fastest repeat, taken from rounds seconds apart, is
    the steadiest estimate of the program's own cost for that window.
    """
    return [
        [min(times) for times in zip(*(r.window_s for r in rounds))]
        for rounds in zip(*cycles)
    ]


def throughput(cycles: list) -> float:
    """Arrivals released per clean wall second of window phase.

    A cluster's workers run side by side, so the slowest worker's sum
    of clean window times is the cluster's.
    """
    busy = 0.0
    for mins, r in zip(clean_windows(cycles), cycles[0]):
        size = len(mins) // r.lanes
        busy += max(sum(mins[i:i + size]) for i in range(0, len(mins), size))
    return sum(r.released for r in cycles[0]) / busy


def end_to_end(cycles: list, setups: List[float]) -> Dict[str, float]:
    """Timings from each window's fastest repeat; set-up time is a median.

    CPU time is each stream's least over the cycles.  Sojourn is the
    mean over the streams of each stream's percentile.
    """
    from perfbench.workloads import peak_rss_mb

    first = cycles[0]
    samples = [t for mins in clean_windows(cycles) for t in mins]
    cpu_s = sum(min(r.cpu_s for r in rounds) for rounds in zip(*cycles))
    return {
        "arrivals_per_s": throughput(cycles),
        "window_ms_p50": 1e3 * percentile(samples, 0.50),
        "window_ms_p99": 1e3 * percentile(samples, 0.99),
        "sojourn_p50_steps": statistics.mean(r.sojourn_p50 for r in first),
        "sojourn_p99_steps": statistics.mean(r.sojourn_p99 for r in first),
        "cpu_us_per_arrival": 1e6 * cpu_s / sum(r.released for r in first),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(setups),
    }


def outcome_digest(cycles: list) -> str:
    from perfbench.workloads import digest

    return digest([r.digest for r in cycles[0]])


def measure_untraced(wl, seed: int, seconds: float, windows: int,
                     tmp: Path) -> Tuple[Dict[str, float], list, List[str]]:
    from perfbench import checks

    setups: List[float] = []
    cycles = run_cycles(wl, seed, seconds, windows, tmp, setups=setups)
    problems = gate(cycles)
    # the first stream's seed is ``seed`` itself
    if wl.name == "service-burst":
        problems += checks.check_service(
            wl.name, seed, windows, cycles[0][0].digest)
    elif wl.cluster:
        last = tmp / f"round-{len(cycles) - 1}-0" / "journal"
        problems += checks.check_cluster(seed, windows, last)
    metrics = end_to_end(cycles, setups)
    print(f"cycles {len(cycles)} x {len(cycles[0])} streams x {windows} "
          f"windows; {sum(len(r.window_s) for r in cycles[0])} window "
          f"samples, {len(setups)} set-up samples")
    for k, rounds in enumerate(zip(*cycles)):
        print(f"stream {k} round arrivals_per_s " + " ".join(
            f"{r.released / r.busy_s:.0f}" for r in rounds))
    print(f"outcome_digest {outcome_digest(cycles)}")
    rounds = [r for cycle in cycles for r in cycle]
    released = sum(r.released for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(f"metric fail_ratio = {failed / released:.6g} ratio")
    return metrics, rounds, problems


def untraced_child(args) -> Tuple[Dict[str, Any], str]:
    """The same measurement, untraced, in its own process."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0",
    ]
    if args.windows is not None:
        cmd += ["--windows", str(args.windows)]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=170
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"untraced reference run failed ({proc.returncode}):\n"
            f"{proc.stderr[-2000:]}"
        )
    child_digest = next(
        line.split()[1] for line in lines if line.startswith("outcome_digest ")
    )
    return json.loads(lines[-1]), child_digest


def measure_traced(wl, args, windows: int,
                   tmp: Path) -> Tuple[Dict[str, float], list, List[str]]:
    from perfbench.layers import layer_metrics
    from perfbench.tracer import Tracer, install

    reference, reference_digest = untraced_child(args)
    tracer = Tracer()
    restore = install(tracer)
    try:
        cycles = run_cycles(wl, args.seed, args.seconds, windows, tmp, tracer)
    finally:
        restore()
    problems = gate(cycles)
    if not reference["correct"]:
        problems.append("the untraced reference run failed its checks")
    if outcome_digest(cycles) != reference_digest:
        problems.append(
            f"traced digest {outcome_digest(cycles)[:12]} != untraced "
            f"{reference_digest[:12]}"
        )
    untraced_aps = reference["metrics"]["arrivals_per_s"]["value"]
    rounds = [r for cycle in cycles for r in cycle]
    metrics = layer_metrics(wl, rounds, windows)
    metrics["trace.overhead_ratio"] = throughput(cycles) / untraced_aps
    print(f"rounds {len(rounds)} x {windows} windows (traced)")
    return metrics, rounds, problems


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--windows", type=int, default=None,
        help="windows per round (default: 1000)",
    )
    args = parser.parse_args(argv)
    # a terminated run still removes its temp dir and reaps its workers
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.layers import PER_LAYER
    from perfbench.workloads import DEFAULT_SEED, ROUND_WINDOWS, workload

    wl = workload(args.workload)
    if args.seed is None:
        args.seed = DEFAULT_SEED
    windows = args.windows if args.windows is not None else ROUND_WINDOWS
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.trace:
            metrics, rounds, problems = measure_traced(wl, args, windows, tmp)
            units = PER_LAYER
        else:
            metrics, rounds, problems = measure_untraced(
                wl, args.seed, args.seconds, windows, tmp
            )
            units = END_TO_END
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for name, unit in units.items():
        print(f"metric {name} = {metrics[name]:.6g} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.released for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
