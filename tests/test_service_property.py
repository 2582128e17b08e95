"""Property-based tests (hypothesis) for admission and service accounting.

The robustness contract is conservation: nothing the stream releases is
ever silently dropped.  Two layers are exercised under arbitrary drawn
policies:

* :class:`repro.online.AdmissionControl` inside :func:`run_resilient`:
  ``committed + lost + shed == released`` for any watermark and any
  defer/shed interleaving (strict runs either satisfy the identity or
  raise :class:`OverloadError` -- never a partial, silent result);
* the :class:`repro.service.SchedulingService` loop: ``committed + shed
  + expired + lost + final_backlog == released`` for any drawn window
  length, watermarks, policy, deadline, and rate -- including runs that
  saturate and flip into shed mode mid-stream.

The reactive engine's fault-plan slicer is a sweep line; it is checked
against a brute-force rescan of the whole plan on drawn plans (permanent
failures, crashes, events overrunning windows) and monotone window
starts, and through snapshot/restore mid-run.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OverloadError
from repro.faults.plan import (
    DelaySpike,
    FaultPlan,
    LinkFailure,
    NodeCrash,
    ObjectStall,
)
from repro.network import clique, grid, line
from repro.online import AdmissionControl, poisson_workload, run_resilient
from repro.service import SchedulingService, ServiceConfig, run_service
from repro.workloads import PoissonStream, root_rng, spawn

_NETS = {"clique": clique(12), "grid": grid(4), "line": line(9)}


@st.composite
def admission_cases(draw):
    topo = draw(st.sampled_from(sorted(_NETS)))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    count = draw(st.integers(min_value=2, max_value=9))
    high_water = draw(st.integers(min_value=1, max_value=10))
    policy = draw(st.sampled_from(["defer", "shed", "strict"]))
    return topo, seed, count, high_water, policy


@given(admission_cases())
@settings(max_examples=40, deadline=None)
def test_admission_accounting_identity(case):
    topo, seed, count, high_water, policy = case
    net = _NETS[topo]
    wl = poisson_workload(net, w=8, k=2, rate=1.0, count=count,
                          rng=root_rng(seed))
    admission = AdmissionControl(high_water, policy)
    try:
        res = run_resilient(wl, admission=admission)
    except OverloadError:
        assert policy == "strict"  # only strict may refuse by raising
        return
    rep = res.report
    assert rep.committed + len(rep.lost) + len(rep.shed) == rep.released
    assert rep.released == wl.m
    # empty plan: nothing is ever *lost*, only shed
    assert not rep.lost
    # shed transactions never appear among the commits
    shed_tids = {tid for tid, _ in rep.shed}
    assert shed_tids.isdisjoint(res.commits)


@st.composite
def service_cases(draw):
    topo = draw(st.sampled_from(sorted(_NETS)))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rate = draw(st.sampled_from([0.3, 0.8, 2.0]))
    window = draw(st.integers(min_value=2, max_value=12))
    high_water = draw(st.integers(min_value=2, max_value=24))
    policy = draw(st.sampled_from(["defer", "shed"]))
    deadline = draw(st.sampled_from([None, 25, 60]))
    windows = draw(st.integers(min_value=5, max_value=20))
    return topo, seed, rate, window, high_water, policy, deadline, windows


@given(service_cases())
@settings(max_examples=25, deadline=None)
def test_service_accounting_identity(case):
    topo, seed, rate, window, high_water, policy, deadline, windows = case
    net = _NETS[topo]
    stream = PoissonStream(net, w=8, k=2, rate=rate,
                           rng=spawn(seed, "prop", topo))
    cfg = ServiceConfig(window=window, high_water=high_water, admission=policy,
                        deadline=deadline)
    rep = run_service(stream, windows=windows, config=cfg)
    assert rep.accounted
    assert rep.windows == windows
    assert rep.admitted <= rep.released
    assert len(rep.backlog_curve) == windows
    assert rep.peak_backlog == max(rep.backlog_curve, default=0)


def rescan_window_plan(plan, window, exec_start, crashes):
    """Oracle: one window's plan slice by rescanning every plan event."""
    span_end = exec_start + window
    events = []
    for e in plan.events:
        if isinstance(e, NodeCrash):
            continue
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
        else:
            events.append(DelaySpike(e.u, e.v, rel_start, rel_end, e.factor))
    for ev in crashes:
        events.append(NodeCrash(ev.node, max(1, ev.time - exec_start)))
    return FaultPlan(events)


_PLAN_NET = grid(4)
_PLAN_EDGES = sorted((u, v) for u, v, _ in _PLAN_NET.edges())


@st.composite
def fault_events(draw, horizon=240, objects=8):
    kind = draw(st.sampled_from(["link", "stall", "spike", "crash"]))
    start = draw(st.integers(min_value=0, max_value=horizon))
    length = draw(st.integers(min_value=1, max_value=60))
    if kind == "crash":
        return NodeCrash(draw(st.integers(0, _PLAN_NET.n - 1)), start)
    if kind == "stall":
        return ObjectStall(draw(st.integers(0, objects - 1)), start,
                           start + length)
    u, v = draw(st.sampled_from(_PLAN_EDGES))
    if kind == "link":
        permanent = draw(st.booleans())
        return LinkFailure(u, v, start, None if permanent else start + length)
    factor = draw(st.sampled_from([1.0, 2.0, 3.5]))
    return DelaySpike(u, v, start, start + length, factor)


@st.composite
def sweep_cases(draw):
    events = draw(st.lists(fault_events(), max_size=30))
    window = draw(st.integers(min_value=1, max_value=24))
    first = draw(st.integers(min_value=0, max_value=20))
    steps = draw(st.lists(st.integers(min_value=0, max_value=30),
                          min_size=1, max_size=30))
    starts = [first]
    for step in steps:
        starts.append(starts[-1] + step)  # monotone, repeats allowed
    return FaultPlan(events), window, starts


def _reactive(plan, window=16, seed=5):
    stream = PoissonStream(_PLAN_NET, w=8, k=2, rate=0.6,
                           rng=spawn(seed, "sweep"))
    return SchedulingService(
        stream, ServiceConfig(window=window, engine="reactive"), plan=plan
    )


@given(sweep_cases())
@settings(max_examples=60, deadline=None)
def test_sweep_window_plan_matches_rescan(case):
    plan, window, starts = case
    svc = _reactive(plan, window)
    crashes = list(plan.crash_events[:1])
    for exec_start in starts:
        got = svc._window_plan(exec_start, crashes)
        want = rescan_window_plan(plan, window, exec_start, crashes)
        assert got.events == want.events
    # a window start earlier than the last restarts the sweep
    got = svc._window_plan(starts[0], [])
    assert got.events == rescan_window_plan(plan, window, starts[0], []).events


class _CheckedService(SchedulingService):
    """Asserts every window's sweep slice against the rescan oracle."""

    checked = 0

    def _window_plan(self, exec_start, crashes):
        got = super()._window_plan(exec_start, crashes)
        want = rescan_window_plan(self.plan, self.config.window, exec_start,
                                  crashes)
        assert got.events == want.events
        self.checked += 1
        return got


@given(st.lists(fault_events(horizon=400), min_size=1, max_size=30),
       st.integers(min_value=1, max_value=10))
@settings(max_examples=20, deadline=None)
def test_sweep_survives_snapshot_and_restore(events, cut):
    plan = FaultPlan(events)

    def service():
        stream = PoissonStream(_PLAN_NET, w=8, k=2, rate=0.6,
                               rng=spawn(9, "sweep-restore"))
        return _CheckedService(
            stream, ServiceConfig(window=16, engine="reactive"), plan=plan
        )

    whole = service()
    whole.run(windows=20)
    first = service()
    first.run(windows=cut)
    resumed = service()
    resumed.restore_state(first.snapshot_state(), [first.ledger_delta()])
    resumed.run(windows=20 - cut)
    assert resumed.report() == whole.report()
    assert whole.checked > 0 and resumed.checked > 0
