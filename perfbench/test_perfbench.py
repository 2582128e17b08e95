"""The benchmark's own tests, at small sizes.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.layers import PER_LAYER
from perfbench.tracer import Tracer, install
from perfbench.workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMALL = {"service-burst": 40, "service-faults": 40, "cluster-sharded": 24}


def run_bench(workload: str, trace: int, seed: int = DEFAULT_SEED, cwd: Path = ROOT):
    cmd = [
        sys.executable, str(cwd / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", "0.1",
        "--trace", str(trace), "--windows", str(SMALL[workload]),
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def printed_metrics(stdout: str):
    printed = {}
    for line in stdout.splitlines():
        if line.startswith("metric "):
            _, name, _, value, unit = line.split()
            printed[name] = (float(value), unit)
    return printed, json.loads(stdout.splitlines()[-1])


def test_spec_names_match_the_workloads_and_metrics():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    assert {m["name"] for m in SPEC["per_layer"]} == set(PER_LAYER)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(SMALL))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    printed, result = printed_metrics(proc.stdout)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert printed[m["name"]][1] == m["unit"]
    if trace:
        # the self-time shares partition the root span
        assert result["metrics"]["trace.share_sum"]["value"] == pytest.approx(1.0)
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_traced_and_untraced_digests_match(workload, tmp_path):
    wl = WORKLOADS[workload]
    (tmp_path / "plain").mkdir()
    (tmp_path / "traced").mkdir()
    plain = wl.run_round(workload, DEFAULT_SEED, SMALL[workload], tmp_path / "plain")
    tracer = Tracer()
    restore = install(tracer)
    try:
        traced = wl.run_round(
            workload, DEFAULT_SEED, SMALL[workload], tmp_path / "traced", tracer
        )
    finally:
        restore()
    assert traced.digest == plain.digest
    assert traced.tallies and not plain.tallies


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_each_workload_is_deterministic_per_seed(workload, tmp_path):
    wl = WORKLOADS[workload]
    digests = []
    for i, seed in enumerate((DEFAULT_SEED, DEFAULT_SEED, HELD_OUT_SEED)):
        (tmp_path / str(i)).mkdir()
        r = wl.run_round(workload, seed, SMALL[workload], tmp_path / str(i))
        assert r.accounted and r.failed == 0
        digests.append(r.digest)
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_clean_window_times_take_each_windows_fastest_repeat():
    from perfbench.run import clean_windows, throughput
    from perfbench.workloads import Round

    def two_workers(times):
        return Round(
            lanes=2, busy_s=sum(times), window_s=times, cpu_s=1.0,
            released=10, failed=0, sojourn_p50=1, sojourn_p99=2,
            accounted=True, digest="d",
        )

    cycles = [[two_workers([1.0, 4.0, 2.0, 2.0])],
              [two_workers([3.0, 1.0, 1.0, 5.0])]]
    assert clean_windows(cycles) == [[1.0, 1.0, 1.0, 2.0]]
    # the workers run side by side, so the slower one's clean time counts
    assert throughput(cycles) == 10 / 3.0


def test_held_out_seed_runs_green():
    proc = run_bench("service-burst", 0, seed=HELD_OUT_SEED)
    assert proc.returncode == 0, proc.stderr
    assert printed_metrics(proc.stdout)[1]["correct"] is True


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("service-burst", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
