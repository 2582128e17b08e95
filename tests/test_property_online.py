"""Property-based tests (hypothesis) for the online runtimes.

Workloads are drawn by seed: a (topology, seed, count, rate) tuple fully
determines a Poisson arrival stream, so determinism properties can be
stated as "same tuple, same result".  The invariants under test back the
PR's zero-distortion claims:

* the online runtime is a pure function of its seeded inputs;
* no transaction ever commits before its release;
* the resilient runtime on the empty fault plan reproduces
  :func:`repro.online.run_online` field by field;
* on repairable plans (no crashes, no permanent failures) the resilient
  runtime commits everything and the sanitizer stays silent;
* both runtimes' per-object waiter heap dispatches exactly like the scan
  over every pending transaction it replaced, also under priority
  functions with ties and live faults (crashes included).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FaultError
from repro.faults import random_fault_plan
from repro.network import clique, grid, line
from repro.online import (
    AdmissionControl,
    poisson_workload,
    run_online,
    run_resilient,
)
from repro.online import resilient, runtime
from repro.sim import InvariantSanitizer
from repro.workloads import root_rng

_NETS = {"clique": clique(12), "grid": grid(4), "line": line(9)}


@st.composite
def workloads(draw):
    net = _NETS[draw(st.sampled_from(sorted(_NETS)))]
    seed = draw(st.integers(min_value=0, max_value=2**20))
    count = draw(st.integers(min_value=2, max_value=min(12, net.n)))
    rate = draw(st.sampled_from([0.5, 1.0, 2.0]))
    return poisson_workload(net, w=max(3, count // 2), k=2, rate=rate,
                            count=count, rng=root_rng(seed))


@given(workloads())
@settings(max_examples=25, deadline=None)
def test_same_seed_same_result(wl):
    a, b = run_online(wl), run_online(wl)
    assert a.schedule.commit_times == b.schedule.commit_times
    assert a.release == b.release
    assert a.response_times == b.response_times


@given(workloads())
@settings(max_examples=25, deadline=None)
def test_commit_never_precedes_release(wl):
    res = run_online(wl)
    for tid, ct in res.schedule.commit_times.items():
        assert ct >= wl.release_of(tid)


@given(workloads())
@settings(max_examples=25, deadline=None)
def test_resilient_empty_plan_matches_run_online(wl):
    healthy = run_online(wl)
    res = run_resilient(wl)
    assert res.schedule is not None
    assert res.schedule.commit_times == healthy.schedule.commit_times
    assert res.release == healthy.release
    assert res.makespan == healthy.makespan
    assert res.response_times == healthy.response_times
    assert res.report.retries == res.report.reroutes == 0


@given(workloads(), st.integers(min_value=0, max_value=2**20),
       st.sampled_from([0.5, 1.0, 2.0]))
@settings(max_examples=15, deadline=None)
def test_repairable_plan_commits_all_with_silent_sanitizer(wl, fseed, inten):
    net = wl.instance.network
    plan = random_fault_plan(
        net, horizon=run_online(wl).makespan, rng=root_rng(fseed),
        intensity=inten, objects=wl.instance.objects,
    )
    san = InvariantSanitizer()
    res = run_resilient(wl, plan, sanitizer=san)
    assert res.report.committed == wl.m
    for tid, ct in res.commits.items():
        assert ct >= wl.release_of(tid)
    assert san.violations == []


class ScanWaiters:
    """Oracle: the dispatch rule as a min over every pending transaction.

    ``min`` keeps the first of equal keys, so ties go to the earliest
    admitted -- the pending dict's insertion order.
    """

    def __init__(self, prio, pending):
        self.prio = prio
        self.pending = pending

    def admit(self, txn):
        pass

    def best(self, obj):
        cands = [t for t in self.pending.values() if obj in t.objects]
        return min(cands, key=lambda t: self.prio[t.tid]) if cands else None


#: priority functions with many ties (lower tuples win)
_TIED = {
    "all-equal": lambda wl: {a.txn.tid: (0,) for a in wl.arrivals},
    "parity": lambda wl: {a.txn.tid: (a.txn.tid % 2,) for a in wl.arrivals},
    "newest-bucket": lambda wl: {
        a.txn.tid: (-(a.release // 3),) for a in wl.arrivals
    },
}


def _with_scan(fn):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runtime, "WaiterHeap", ScanWaiters)
        mp.setattr(resilient, "WaiterHeap", ScanWaiters)
        return fn()


def _resilient_outcome(wl, plan, prio, admission):
    try:
        res = run_resilient(wl, plan, priority=prio, admission=admission)
    except FaultError as exc:
        return ("fault", str(exc))
    rep = res.report
    return res.commits, rep.lost, rep.shed, rep.retries, rep.reroutes


@given(workloads(), st.sampled_from(sorted(_TIED)))
@settings(max_examples=30, deadline=None)
def test_waiter_heap_matches_scan_run_online(wl, tie):
    prio = _TIED[tie]
    heap = run_online(wl, priority=prio).schedule.commit_times
    scan = _with_scan(lambda: run_online(wl, priority=prio))
    assert heap == scan.schedule.commit_times


@given(workloads(), st.sampled_from(sorted(_TIED)),
       st.integers(min_value=0, max_value=2**20),
       st.sampled_from([None, 2, 4]))
@settings(max_examples=30, deadline=None)
def test_waiter_heap_matches_scan_run_resilient(wl, tie, fseed, high_water):
    prio = _TIED[tie]
    plan = random_fault_plan(
        wl.instance.network, horizon=wl.horizon + 10, rng=root_rng(fseed),
        intensity=1.0, crash_rate=0.05, objects=wl.instance.objects,
    )
    admission = None if high_water is None else AdmissionControl(high_water)
    heap = _resilient_outcome(wl, plan, prio, admission)
    scan = _with_scan(lambda: _resilient_outcome(wl, plan, prio, admission))
    assert heap == scan
