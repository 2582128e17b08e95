"""Tests for the crash-tolerant multi-process cluster (repro.cluster).

The headline properties under test:

* the sharded streams partition the unsharded arrival sequence exactly
  (disjoint, union-complete, deterministic);
* a service snapshot/restore continues bit-for-bit identically;
* the journal is write-ahead (torn tails dropped, divergence loud);
* a cluster run with injected kills/stalls commits the same transaction
  set as the fault-free run (``parity_key`` bit-equality), and the
  cluster-wide accounting identity holds under every failure mode.
"""

from __future__ import annotations

import json
import multiprocessing as mp
from dataclasses import replace

import pytest

from repro.cluster import (
    ChaosPlan,
    ClusterConfig,
    ClusterReport,
    ShardedStream,
    StreamSpec,
    WindowJournal,
    WorkerDelay,
    WorkerKill,
    WorkerSpec,
    WorkerStall,
    accounting_digest,
    build_network,
    run_cluster,
    worker_main,
)
from repro.cluster.wire import (
    CELL_KIND,
    MSG_DONE,
    MSG_WINDOW,
    decode_message,
    encode_message,
)
from repro.cluster.worker import KILL_EXIT_STATUS
from repro.errors import (
    ClusterError,
    HeartbeatTimeoutError,
    ReproError,
    ServiceError,
    WorkerCrashError,
)
from repro.faults.backoff import RetryPolicy
from repro.errors import TopologyError
from repro.network import grid, node_shards, shard_cluster
from repro.service import SchedulingService, ServiceConfig, ServiceReport

STREAM = StreamSpec(kind="poisson", w=16, k=2, rate=0.6, seed=7)
# coordinator-shard handoff stream for the shard-cluster runs
SHARD_STREAM = StreamSpec(
    kind="poisson", w=12, k=2, rate=0.8, seed=3, assign="shard"
)
SVC = ServiceConfig(window=8)


def quick_config(**kw) -> ClusterConfig:
    defaults = dict(
        workers=2,
        windows=10,
        checkpoint_every=4,
        restart_backoff_s=0.01,
        poll_interval_s=0.02,
    )
    defaults.update(kw)
    return ClusterConfig(**defaults)


class TestWire:
    def test_round_trip(self):
        body = {"worker": 1, "window": 3, "cumulative": {"released": 9}}
        text = encode_message(MSG_WINDOW, body)
        assert "\n" not in text  # single-line framing
        kind, decoded = decode_message(text, expected_kind=MSG_WINDOW)
        assert kind == MSG_WINDOW
        assert decoded == body

    def test_unknown_kind_rejected_on_encode(self):
        with pytest.raises(ClusterError, match="unknown wire kind"):
            encode_message("gossip", {})

    def test_malformed_json_rejected(self):
        with pytest.raises(ClusterError, match="malformed"):
            decode_message("{not json")

    def test_wrong_schema_version_rejected(self):
        payload = json.loads(encode_message(MSG_WINDOW, {"x": 1}))
        payload["schema_version"] = 999
        with pytest.raises(ClusterError, match="schema_version"):
            decode_message(json.dumps(payload))

    def test_kind_mismatch_rejected(self):
        text = encode_message(MSG_WINDOW, {"x": 1})
        with pytest.raises(ClusterError, match="expected wire kind"):
            decode_message(text, expected_kind=CELL_KIND)

    def test_missing_body_rejected(self):
        payload = json.loads(encode_message(MSG_WINDOW, {"x": 1}))
        del payload["body"]
        with pytest.raises(ClusterError, match="missing 'body'"):
            decode_message(json.dumps(payload))


class TestChaosPlan:
    def test_events_sorted_and_stable(self):
        plan = ChaosPlan([WorkerKill(1, 5), WorkerKill(0, 2)])
        assert [e.window for e in plan.events] == [2, 5]
        assert len(plan) == 2

    def test_duplicate_coordinates_rejected(self):
        with pytest.raises(ClusterError, match="more than once"):
            ChaosPlan([WorkerKill(0, 2), WorkerStall(0, 2)])

    def test_validate_against_bounds(self):
        plan = ChaosPlan([WorkerKill(3, 5)])
        with pytest.raises(ClusterError, match="worker 3"):
            plan.validate_against(workers=2, windows=10)
        with pytest.raises(ClusterError, match="window 5"):
            ChaosPlan([WorkerKill(0, 5)]).validate_against(2, 4)

    def test_for_worker_filters(self):
        plan = ChaosPlan([WorkerKill(0, 1), WorkerDelay(1, 2)])
        assert len(plan.for_worker(0)) == 1
        assert plan.for_worker(0)[0].window == 1

    def test_negative_coordinates_rejected(self):
        with pytest.raises(ClusterError):
            ChaosPlan([WorkerKill(-1, 0)])
        with pytest.raises(ClusterError):
            ChaosPlan([WorkerStall(0, 0, seconds=0.0)])


class TestShardedStream:
    def test_shards_partition_the_base_stream(self):
        net = grid(3)
        horizon = 80
        base_all = STREAM.build(net).window(0, horizon)
        shard_tids = []
        for i in range(3):
            shard = ShardedStream(STREAM.build(net), 3, {i: 0})
            got = shard.window(0, horizon)
            assert all(t.txn.tid % 3 == i for t in got)
            assert shard.released == len(got)
            shard_tids.append([t.txn.tid for t in got])
        union = sorted(t for tids in shard_tids for t in tids)
        assert union == [t.txn.tid for t in base_all]

    def test_ownership_start_step_excludes_earlier_releases(self):
        net = grid(3)
        full = ShardedStream(STREAM.build(net), 2, {0: 0}).window(0, 80)
        late = ShardedStream(STREAM.build(net), 2, {0: 40}).window(0, 80)
        late_tids = {t.txn.tid for t in late}
        assert late_tids == {t.txn.tid for t in full if t.release >= 40}

    def test_state_round_trip(self):
        net = grid(3)
        a = ShardedStream(STREAM.build(net), 2, {1: 0})
        a.window(0, 40)
        b = ShardedStream(STREAM.build(net), 2, {1: 0})
        b.load_state(a.state_dict())
        assert [t.txn.tid for t in a.window(40, 80)] == [
            t.txn.tid for t in b.window(40, 80)
        ]

    def test_bad_shard_config_rejected(self):
        net = grid(3)
        with pytest.raises(ClusterError):
            ShardedStream(STREAM.build(net), 0, {})
        with pytest.raises(ClusterError):
            ShardedStream(STREAM.build(net), 2, {5: 0})

    def test_unknown_stream_kind_rejected(self):
        with pytest.raises(ClusterError, match="unknown stream kind"):
            StreamSpec(kind="fractal")

    def test_unknown_assign_mode_rejected(self):
        with pytest.raises(ClusterError, match="unknown assignment mode"):
            StreamSpec(assign="alphabetical")
        net = grid(3)
        with pytest.raises(ClusterError, match="unknown assignment mode"):
            ShardedStream(STREAM.build(net), 2, {0: 0}, assign="alphabetical")


class TestShardAssignment:
    """StreamSpec(assign="shard"): coordinator-shard arrival handoff."""

    def _net(self):
        return shard_cluster(3, 4)

    def test_partition_by_coordinator_shard(self):
        net = self._net()
        horizon = 80
        base_all = SHARD_STREAM.build(net).window(0, horizon)
        shard_of = node_shards(net)
        homes = SHARD_STREAM.build(net).object_homes
        owned = []
        for i in range(2):
            s = ShardedStream(
                SHARD_STREAM.build(net), 2, {i: 0}, assign="shard"
            )
            got = s.window(0, horizon)
            for tt in got:
                coord = min(shard_of[homes[o]] for o in tt.txn.objects)
                assert coord % 2 == i  # class is the coordinator shard
            owned.append([t.txn.tid for t in got])
        union = sorted(t for tids in owned for t in tids)
        assert union == [t.txn.tid for t in base_all]  # exact partition

    def test_cross_counter_tallies_owned_cross_arrivals(self):
        net = self._net()
        shard_of = node_shards(net)
        homes = SHARD_STREAM.build(net).object_homes
        s = ShardedStream(
            SHARD_STREAM.build(net), 1, {0: 0}, assign="shard"
        )
        got = s.window(0, 80)
        expected = sum(
            1 for tt in got
            if len({shard_of[homes[o]] for o in tt.txn.objects}) >= 2
        )
        assert s.cross_released == expected
        assert expected > 0  # w spans shards, so cross traffic exists

    def test_tid_mode_never_counts_cross(self):
        s = ShardedStream(
            SHARD_STREAM.build(self._net()), 2, {0: 0}, assign="tid"
        )
        s.window(0, 80)
        assert s.cross_released == 0

    def test_state_round_trip_preserves_cross_counter(self):
        net = self._net()
        a = ShardedStream(SHARD_STREAM.build(net), 2, {1: 0}, assign="shard")
        a.window(0, 40)
        b = ShardedStream(SHARD_STREAM.build(net), 2, {1: 0}, assign="shard")
        b.load_state(a.state_dict())
        assert b.cross_released == a.cross_released
        assert [t.txn.tid for t in a.window(40, 80)] == [
            t.txn.tid for t in b.window(40, 80)
        ]
        assert b.cross_released == a.cross_released

    def test_pre_cross_snapshot_still_loads(self):
        # snapshots written before the cross counter lack the key
        net = self._net()
        a = ShardedStream(SHARD_STREAM.build(net), 2, {0: 0})
        a.window(0, 40)
        state = a.state_dict()
        del state["cross"]
        del state["assign"]
        b = ShardedStream(SHARD_STREAM.build(net), 2, {0: 0})
        b.load_state(state)
        assert b.cross_released == 0

    def test_assign_mismatch_rejected_on_restore(self):
        net = self._net()
        a = ShardedStream(SHARD_STREAM.build(net), 2, {0: 0}, assign="shard")
        a.window(0, 8)
        b = ShardedStream(SHARD_STREAM.build(net), 2, {0: 0}, assign="tid")
        with pytest.raises(ClusterError, match="assignment mode"):
            b.load_state(a.state_dict())

    def test_shard_mode_requires_sharded_topology(self):
        with pytest.raises(TopologyError):
            ShardedStream(
                STREAM.build(grid(3)), 2, {0: 0}, assign="shard"
            )


class TestServiceSnapshot:
    def _service(self):
        net = grid(3)
        return SchedulingService(
            ShardedStream(STREAM.build(net), 2, {0: 0}), SVC
        )

    def test_snapshot_restore_continues_identically(self):
        a = self._service()
        for w in range(6):
            a.run_window(w)
        snap = a.snapshot_state()
        b = self._service()
        b.restore_state(snap, [a.ledger_delta()])
        for w in range(6, 12):
            a.run_window(w)
            b.run_window(w)
        assert a.report() == b.report()
        assert a.accounting() == b.accounting()

    def test_restore_requires_fresh_service(self):
        a = self._service()
        a.run_window(0)
        snap = a.snapshot_state()
        with pytest.raises(ServiceError, match="fresh service"):
            a.restore_state(snap, [a.ledger_delta()])

    def test_skip_to_window_requires_pristine_service(self):
        a = self._service()
        a.run_window(0)
        with pytest.raises(ServiceError, match="fresh service"):
            a.skip_to_window(4)

    def test_snapshot_is_json_safe(self):
        a = self._service()
        for w in range(4):
            a.run_window(w)
        # raises on non-JSON types
        text = json.dumps([a.snapshot_state(), a.ledger_delta()])
        snap, ledger = json.loads(text)
        b = self._service()
        b.restore_state(snap, [ledger])
        assert b.accounting() == a.accounting()


class TestJournal:
    def test_append_load_round_trip(self, tmp_path):
        j = WindowJournal(tmp_path / "w.jsonl", tmp_path / "w.ckpt")
        assert not j.has_history()
        for w in range(3):
            j.append(w, f"d{w}", {"released": w}, {})
        ckpt, prefix, tail = j.load()
        assert ckpt is None and prefix == []
        assert [r["window"] for r in tail] == [0, 1, 2]
        assert j.has_history()

    def test_checkpoint_floors_the_tail(self, tmp_path):
        j = WindowJournal(tmp_path / "w.jsonl", tmp_path / "w.ckpt")
        for w in range(6):
            j.append(w, f"d{w}", {"released": w}, {})
        j.checkpoint(4, {"stream": "state"})
        ckpt, prefix, tail = j.load()
        assert ckpt["window"] == 4
        assert [r["window"] for r in prefix] == [0, 1, 2, 3]
        assert [r["window"] for r in tail] == [4, 5]

    def test_torn_tail_record_dropped(self, tmp_path):
        j = WindowJournal(tmp_path / "w.jsonl", tmp_path / "w.ckpt")
        j.append(0, "d0", {"released": 1}, {})
        j.append(1, "d1", {"released": 2}, {})
        path = tmp_path / "w.jsonl"
        path.write_bytes(path.read_bytes()[:-9])  # tear the last record
        _, _, tail = j.load()
        assert [r["window"] for r in tail] == [0]

    def test_conflicting_digests_raise(self, tmp_path):
        j = WindowJournal(tmp_path / "w.jsonl", tmp_path / "w.ckpt")
        j.append(0, "aaaa", {"released": 1}, {})
        j.append(0, "bbbb", {"released": 2}, {})
        with pytest.raises(ClusterError, match="conflicting"):
            j.load()

    def test_gap_raises(self, tmp_path):
        j = WindowJournal(tmp_path / "w.jsonl", tmp_path / "w.ckpt")
        j.append(0, "d0", {"released": 1}, {})
        j.append(2, "d2", {"released": 3}, {})
        with pytest.raises(ClusterError, match="gap"):
            j.load()

    def test_replacement_floor_accepted(self, tmp_path):
        j = WindowJournal(tmp_path / "w.jsonl", tmp_path / "w.ckpt")
        j.append(5, "d5", {"released": 1}, {})
        j.append(6, "d6", {"released": 2}, {})
        _, _, tail = j.load(floor=5)
        assert [r["window"] for r in tail] == [5, 6]

    def test_digest_is_order_insensitive(self):
        a = accounting_digest({"released": 3, "committed": 2})
        b = accounting_digest({"committed": 2, "released": 3})
        assert a == b

    def test_append_after_torn_record_repairs_it(self, tmp_path):
        path = tmp_path / "w.jsonl"
        j = WindowJournal(path, tmp_path / "w.ckpt")
        for w in range(4):
            j.append(w, f"d{w}", {"released": w}, {})
        path.write_bytes(path.read_bytes()[:-9])  # window 3 torn mid-write
        restarted = WindowJournal(path, tmp_path / "w.ckpt")
        for w in range(3, 6):
            restarted.append(w, f"d{w}", {"released": w}, {})
        _, _, tail = restarted.load()
        assert [r["window"] for r in tail] == [0, 1, 2, 3, 4, 5]
        assert path.read_bytes().count(b"\n") == 6

    def test_corrupt_line_before_the_last_raises(self, tmp_path):
        path = tmp_path / "w.jsonl"
        j = WindowJournal(path, tmp_path / "w.ckpt")
        j.append(0, "d0", {"released": 1}, {})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"schema_version": 1, "ki\n')
        j.append(1, "d1", {"released": 2}, {})
        with pytest.raises(ClusterError, match="corrupt record"):
            j.load()

    def test_checkpoint_past_the_journal_raises(self, tmp_path):
        j = WindowJournal(tmp_path / "w.jsonl", tmp_path / "w.ckpt")
        for w in range(3):
            j.append(w, f"d{w}", {"released": w}, {})
        j.checkpoint(4, {"stream": "state"})
        with pytest.raises(ClusterError, match="checkpoint is at window 4"):
            j.load()


class _Pipe:
    """In-process stand-in for a worker's pipe end: decodes what it gets."""

    def __init__(self) -> None:
        self.sent: list = []

    def send(self, text: str) -> None:
        self.sent.append(decode_message(text))

    def close(self) -> None:
        pass

    def done(self) -> dict:
        kind, body = self.sent[-1]
        assert kind == MSG_DONE, body
        return body


def _worker_spec(tmp_path, **kw) -> WorkerSpec:
    defaults = dict(
        worker=0, shards=2, owned_from={0: 0}, topology="grid", size=3,
        size2=None, stream=STREAM, service=SVC, windows=14, start_window=0,
        journal_path=str(tmp_path / "worker-0.journal.jsonl"),
        checkpoint_path=str(tmp_path / "worker-0.ckpt.json"),
        checkpoint_every=4,
    )
    defaults.update(kw)
    return WorkerSpec(**defaults)


def _killed_then_recovered(spec: WorkerSpec, window: int) -> dict:
    """Kill a forked worker at ``window``; finish it in-process."""
    proc = mp.get_context("fork").Process(
        target=worker_main,
        args=(_Pipe(), replace(spec, chaos=(WorkerKill(0, window),))),
    )
    proc.start()
    proc.join(60)
    assert proc.exitcode == KILL_EXIT_STATUS
    pipe = _Pipe()
    worker_main(pipe, spec)
    return pipe.done()


def _tamper(path, window: int, **delta) -> None:
    """Overwrite fields of the ledger delta journaled for ``window``."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(lines[window])
    record["body"]["delta"].update(delta)
    lines[window] = json.dumps(record) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


class TestLedgerJournal:
    """The checkpoint holds the bounded core; the journal holds the ledger."""

    def _fault_free(self, tmp_path, **kw) -> dict:
        (tmp_path / "ref").mkdir()
        pipe = _Pipe()
        worker_main(pipe, _worker_spec(tmp_path / "ref", **kw))
        return pipe.done()

    def test_checkpoint_size_independent_of_windows_run(self, tmp_path):
        spec = _worker_spec(tmp_path, windows=256, checkpoint_every=8)
        sizes = {}

        class Sizing(_Pipe):
            def send(self, text: str) -> None:
                super().send(text)
                kind, body = self.sent[-1]
                if kind == MSG_WINDOW and body["window"] in (7, 255):
                    sizes[body["window"]] = (
                        tmp_path / "worker-0.ckpt.json").stat().st_size

        worker_main(Sizing(), spec)
        assert sizes[255] <= 1.5 * sizes[7]

    def test_journal_records_carry_the_ledger_delta(self, tmp_path):
        spec = _worker_spec(tmp_path)
        pipe = _Pipe()
        worker_main(pipe, spec)
        done = pipe.done()
        _, prefix, tail = WindowJournal(
            spec.journal_path, spec.checkpoint_path).load()
        deltas = [r["delta"] for r in prefix + tail]
        assert len(deltas) == spec.windows
        commits = [c for d in deltas for c in d["commits"]]
        sojourns = [s for d in deltas for s in d["sojourns"]]
        curve = [q for d in deltas for q in d["backlog_curve"]]
        assert len(commits) == done["accounting"]["committed"]
        assert sorted(sojourns) == done["sojourns"]
        assert tuple(curve) == ServiceReport.from_json(
            done["report"]).backlog_curve

    @pytest.mark.parametrize("window", [8, 13], ids=["after-checkpoint", "last"])
    def test_kill_recovers_the_full_ledger(self, tmp_path, window):
        spec = _worker_spec(tmp_path)  # checkpoints every 4 of 14 windows
        recovered = _killed_then_recovered(spec, window)
        expected = self._fault_free(tmp_path)
        assert recovered["report"] == expected["report"]
        assert recovered["sojourns"] == expected["sojourns"]
        assert recovered["accounting"] == expected["accounting"]
        assert recovered["replayed"] == window % spec.checkpoint_every

    def test_replacement_worker_folds_from_its_start_window(self, tmp_path):
        kw = dict(start_window=5, owned_from={0: 5 * SVC.window})
        spec = _worker_spec(tmp_path, **kw)
        recovered = _killed_then_recovered(spec, spec.windows - 1)
        expected = self._fault_free(tmp_path, **kw)
        assert recovered["report"] == expected["report"]
        assert recovered["sojourns"] == expected["sojourns"]
        assert ServiceReport.from_json(recovered["report"]).windows == 14

    def test_tampered_delta_fails_replay(self, tmp_path):
        spec = _worker_spec(tmp_path, windows=6)
        worker_main(_Pipe(), spec)  # checkpoint at 4; windows 4, 5 replay
        _tamper(tmp_path / "worker-0.journal.jsonl", 5, backlog_curve=[999])
        pipe = _Pipe()
        with pytest.raises(SystemExit):
            worker_main(pipe, spec)
        kind, body = pipe.sent[-1]
        assert body["error"] == "ClusterError"
        assert "ledger delta" in body["message"]

    def test_truncated_prefix_delta_fails_restore(self, tmp_path):
        spec = _worker_spec(tmp_path, windows=6)
        worker_main(_Pipe(), spec)
        # window 2 lies before the checkpoint at 4: folded, not replayed
        _tamper(tmp_path / "worker-0.journal.jsonl", 2, backlog_curve=[])
        pipe = _Pipe()
        with pytest.raises(SystemExit):
            worker_main(pipe, spec)
        assert "does not match the snapshot" in pipe.sent[-1][1]["message"]


class TestClusterConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            {"workers": 0},
            {"windows": 0},
            {"heartbeat_timeout_s": 0},
            {"checkpoint_every": 0},
            {"on_crash": "panic"},
            {"on_straggler": "ignore"},
        ],
    )
    def test_invalid_config_rejected(self, kw):
        with pytest.raises(ClusterError):
            ClusterConfig(**kw)

    def test_build_network_rejects_unknown_topology(self):
        with pytest.raises(ReproError, match="unknown topology"):
            build_network("moebius", 3)


class TestClusterRuns:
    def test_fault_free_identity_and_worker_sum(self):
        rep = run_cluster("grid", 3, None, STREAM, SVC, quick_config())
        assert rep.accounted
        assert rep.released > 0
        for key in ("released", "committed", "shed", "expired", "lost"):
            assert getattr(rep, key) == sum(w[key] for w in rep.per_worker)
        assert rep.restarts == 0 and rep.stragglers == 0
        assert all(w["end"] == "done" for w in rep.per_worker)

    def test_repeat_runs_bit_identical(self):
        a = run_cluster("grid", 3, None, STREAM, SVC, quick_config())
        b = run_cluster("grid", 3, None, STREAM, SVC, quick_config())
        assert a.parity_key() == b.parity_key()

    def test_kill_chaos_matches_fault_free_run(self):
        cfg = quick_config(workers=3)
        base = run_cluster("grid", 3, None, STREAM, SVC, cfg)
        killed = run_cluster(
            "grid", 3, None, STREAM, SVC, cfg,
            chaos=ChaosPlan([WorkerKill(1, 5)]),
        )
        assert killed.restarts == 1
        assert killed.accounted
        assert killed.parity_key() == base.parity_key()

    def test_parity_across_restart_timings(self):
        # wall-clock backoff must not leak into the outcome
        chaos = ChaosPlan([WorkerKill(0, 4)])
        fast = run_cluster(
            "grid", 3, None, STREAM, SVC,
            quick_config(restart_backoff_s=0.0), chaos=chaos,
        )
        slow = run_cluster(
            "grid", 3, None, STREAM, SVC,
            quick_config(restart_backoff_s=0.05), chaos=chaos,
        )
        assert fast.parity_key() == slow.parity_key()

    def test_double_kill_same_worker_recovers(self):
        cfg = quick_config(workers=2, windows=12)
        base = run_cluster("grid", 3, None, STREAM, SVC, cfg)
        rep = run_cluster(
            "grid", 3, None, STREAM, SVC, cfg,
            chaos=ChaosPlan([WorkerKill(1, 3), WorkerKill(1, 8)]),
        )
        assert rep.restarts == 2
        assert rep.parity_key() == base.parity_key()

    def test_kill_across_checkpoint_boundary(self):
        # die right after a checkpoint: replay must resume from it
        cfg = quick_config(workers=2, windows=10, checkpoint_every=4)
        base = run_cluster("grid", 3, None, STREAM, SVC, cfg)
        rep = run_cluster(
            "grid", 3, None, STREAM, SVC, cfg,
            chaos=ChaosPlan([WorkerKill(0, 4)]),
        )
        assert rep.parity_key() == base.parity_key()

    def test_restart_budget_exhaustion_retires_with_typed_loss(self):
        cfg = quick_config(
            workers=2, windows=10,
            retry=RetryPolicy(max_retries=1, max_wait=2),
        )
        rep = run_cluster(
            "grid", 3, None, STREAM, SVC, cfg,
            chaos=ChaosPlan([WorkerKill(0, 2), WorkerKill(0, 5)]),
        )
        assert rep.accounted
        retired = [w for w in rep.per_worker if w["end"] == "retired"]
        assert len(retired) == 1
        assert retired[0]["final_backlog"] == 0  # moved into lost
        survivors = [w for w in rep.per_worker if w["end"] == "done"]
        assert survivors and all(w["released"] > 0 for w in survivors)

    def test_strict_crash_policy_raises(self):
        with pytest.raises(WorkerCrashError, match="worker 0"):
            run_cluster(
                "grid", 3, None, STREAM, SVC,
                quick_config(on_crash="strict"),
                chaos=ChaosPlan([WorkerKill(0, 2)]),
            )

    def test_stall_restart_matches_fault_free_run(self):
        cfg = quick_config(
            heartbeat_timeout_s=0.3, on_straggler="restart"
        )
        base = run_cluster("grid", 3, None, STREAM, SVC, quick_config())
        rep = run_cluster(
            "grid", 3, None, STREAM, SVC, cfg,
            chaos=ChaosPlan([WorkerStall(0, 4, seconds=30.0)]),
        )
        assert rep.stragglers == 1 and rep.restarts == 1
        assert rep.parity_key() == base.parity_key()

    def test_stall_shed_hands_off_to_replacement(self):
        cfg = quick_config(heartbeat_timeout_s=0.3, on_straggler="shed")
        rep = run_cluster(
            "grid", 3, None, STREAM, SVC, cfg,
            chaos=ChaosPlan([WorkerStall(0, 4, seconds=30.0)]),
        )
        assert rep.accounted
        shed = [w for w in rep.per_worker if w["end"] == "shed"]
        assert len(shed) == 1
        replacement = [w for w in rep.per_worker if w["start_window"] > 0]
        assert len(replacement) == 1
        assert replacement[0]["classes"] == shed[0]["classes"]
        # the full residue class is covered: shed prefix + replacement
        base = run_cluster("grid", 3, None, STREAM, SVC, quick_config())
        assert rep.released == base.released

    def test_strict_straggler_policy_raises(self):
        with pytest.raises(HeartbeatTimeoutError, match="worker 0"):
            run_cluster(
                "grid", 3, None, STREAM, SVC,
                quick_config(heartbeat_timeout_s=0.3, on_straggler="strict"),
                chaos=ChaosPlan([WorkerStall(0, 3, seconds=30.0)]),
            )

    def test_delay_below_timeout_triggers_nothing(self):
        cfg = quick_config(heartbeat_timeout_s=2.0)
        base = run_cluster("grid", 3, None, STREAM, SVC, cfg)
        rep = run_cluster(
            "grid", 3, None, STREAM, SVC, cfg,
            chaos=ChaosPlan([WorkerDelay(0, 3, seconds=0.05)]),
        )
        assert rep.stragglers == 0 and rep.restarts == 0
        assert rep.parity_key() == base.parity_key()

    def test_shard_assign_counts_cross_traffic(self):
        rep = run_cluster(
            "shard-cluster", 3, 4, SHARD_STREAM, SVC,
            quick_config(windows=8),
        )
        assert rep.accounted
        assert rep.cross_shard > 0
        assert rep.cross_shard == sum(
            w["cross"] for w in rep.per_worker
        )

    def test_tid_assign_reports_zero_cross(self):
        rep = run_cluster("grid", 3, None, STREAM, SVC, quick_config())
        assert rep.cross_shard == 0
        assert all(w["cross"] == 0 for w in rep.per_worker)

    def test_shard_assign_kill_chaos_matches_fault_free(self):
        # the coordinator handoff must survive a worker crash: the
        # replayed worker re-derives its coordinator classes and its
        # cross-shard tally bit-for-bit
        cfg = quick_config(windows=8)
        base = run_cluster("shard-cluster", 3, 4, SHARD_STREAM, SVC, cfg)
        killed = run_cluster(
            "shard-cluster", 3, 4, SHARD_STREAM, SVC, cfg,
            chaos=ChaosPlan([WorkerKill(1, 4)]),
        )
        assert killed.restarts == 1
        assert killed.parity_key() == base.parity_key()
        assert killed.cross_shard == base.cross_shard > 0

    def test_chaos_validated_against_cluster_shape(self):
        with pytest.raises(ClusterError, match="worker 5"):
            run_cluster(
                "grid", 3, None, STREAM, SVC, quick_config(),
                chaos=ChaosPlan([WorkerKill(5, 2)]),
            )


class TestClusterReport:
    def test_json_round_trip(self):
        rep = run_cluster(
            "grid", 3, None, STREAM, SVC, quick_config(),
            chaos=ChaosPlan([WorkerKill(1, 5)]),
        )
        back = ClusterReport.from_json(rep.to_json())
        assert back == rep
        assert back.parity_key() == rep.parity_key()

    def test_parity_key_excludes_the_supervision_path(self):
        rep = run_cluster(
            "grid", 3, None, STREAM, SVC, quick_config(),
            chaos=ChaosPlan([WorkerKill(1, 5)]),
        )
        key = json.dumps(rep.parity_key(), default=list)
        assert "wall" not in key
        assert "restarts" not in key
        assert "chaos" not in key

    def test_render_mentions_every_worker(self):
        rep = run_cluster("grid", 3, None, STREAM, SVC, quick_config())
        text = rep.render()
        for w in rep.per_worker:
            assert f"worker {w['worker']}" in text

    def test_parity_key_includes_cross_shard(self):
        rep = run_cluster(
            "shard-cluster", 3, 4, SHARD_STREAM, SVC,
            quick_config(windows=8),
        )
        assert rep.parity_key()["cross_shard"] == rep.cross_shard
        assert rep.as_dict()["cross_shard"] == rep.cross_shard
        assert f"cross-shard {rep.cross_shard}" in rep.render()

    def test_pre_cross_shard_report_json_still_loads(self):
        # report JSON written before the cross_shard field lacks the key
        rep = run_cluster("grid", 3, None, STREAM, SVC, quick_config())
        envelope = json.loads(rep.to_json())
        del envelope["report"]["cross_shard"]
        back = ClusterReport.from_json(json.dumps(envelope))
        assert back.cross_shard == 0
        assert back.released == rep.released


class TestBuildNetworkDeprecation:
    def test_forwards_and_warns(self):
        from repro.network import network_from_sizes

        with pytest.warns(DeprecationWarning, match="network_from_sizes"):
            net = build_network("shard-cluster", 3, 4)
        assert net.topology == network_from_sizes(
            "shard-cluster", 3, 4
        ).topology


class TestClusterCli:
    def test_cluster_command_with_parity_gate(self, capsys):
        from repro.cli import main

        status = main([
            "cluster", "--topology", "grid", "--size", "3",
            "--workers", "2", "--windows", "8", "--rate", "0.6",
            "--seed", "7", "--chaos", "kill", "--parity",
        ])
        out = capsys.readouterr().out
        assert status == 0
        assert "parity with fault-free run: OK" in out

    def test_cluster_command_writes_report_json(self, tmp_path, capsys):
        from repro.cli import main
        from repro.io import load_report

        out_path = tmp_path / "cluster.json"
        status = main([
            "cluster", "--topology", "grid", "--size", "3",
            "--workers", "2", "--windows", "6", "--seed", "7",
            "--json", str(out_path),
        ])
        assert status == 0
        rep = load_report(out_path)
        assert isinstance(rep, ClusterReport)
        assert rep.accounted

    def test_bad_chaos_spec_rejected(self):
        from repro.cli import main

        with pytest.raises(ReproError, match="unknown chaos spec"):
            main([
                "cluster", "--topology", "grid", "--size", "3",
                "--windows", "6", "--chaos", "meteor",
            ])
