"""Bench-regression harness: snapshot schema, comparison gate, merging."""

from __future__ import annotations

import json

import pytest

from repro.benchreg import (
    BENCH_SPECS,
    REGRESSION_THRESHOLD,
    compare_snapshots,
    latest_snapshot_path,
    load_snapshot,
    merge_runs,
    next_snapshot_path,
    write_snapshot,
)
from repro.benchreg.harness import _time, calibrate
from repro.errors import ReproError


def _body(results):
    return {"calibration_s": 0.005, "quick": False, "results": results,
            "speedups": {}}


def _res(raw, normalized, group="g", kernel="reference"):
    return {"raw_s": raw, "normalized": normalized, "group": group,
            "kernel": kernel, "repeats": 5, "meta": {}}


class TestCompare:
    def test_no_regression_when_equal(self):
        base = _body({"a": _res(0.010, 2.0)})
        regressions, notes = compare_snapshots(base, base)
        assert regressions == [] and notes == []

    def test_regression_needs_both_raw_and_normalized(self):
        base = _body({"a": _res(0.010, 2.0)})
        # normalized blew past the threshold but raw barely moved:
        # calibration jitter, not a code regression
        cur = _body({"a": _res(0.011, 3.0)})
        assert compare_snapshots(base, cur)[0] == []
        # raw slowed but normalized tracked it (machine got slower)
        cur = _body({"a": _res(0.020, 2.1)})
        assert compare_snapshots(base, cur)[0] == []

    def test_real_regression_is_flagged(self):
        base = _body({"a": _res(0.010, 2.0)})
        cur = _body({"a": _res(0.015, 3.0)})
        regressions, _ = compare_snapshots(base, cur)
        assert len(regressions) == 1
        reg = regressions[0]
        assert reg.name == "a"
        assert reg.ratio == pytest.approx(1.5)
        assert "a:" in reg.describe()

    def test_threshold_boundary(self):
        base = _body({"a": _res(0.010, 2.0)})
        within = _body({"a": _res(0.010 * 1.19, 2.0 * 1.19)})
        assert compare_snapshots(base, within)[0] == []
        beyond = _body({"a": _res(0.010 * 1.21, 2.0 * 1.21)})
        assert len(compare_snapshots(base, beyond)[0]) == 1
        assert 0 < REGRESSION_THRESHOLD < 1

    def test_added_and_removed_become_notes(self):
        base = _body({"a": _res(0.01, 2.0), "gone": _res(0.01, 2.0)})
        cur = _body({"a": _res(0.01, 2.0), "new": _res(0.01, 2.0)})
        regressions, notes = compare_snapshots(base, cur)
        assert regressions == []
        assert any("new" in n for n in notes)
        assert any("gone" in n for n in notes)


class TestSnapshotIO:
    def test_roundtrip(self, tmp_path):
        body = _body({"a": _res(0.01, 2.0)})
        path = write_snapshot(body, tmp_path / "BENCH_1.json")
        loaded = load_snapshot(path)
        assert loaded["results"] == body["results"]
        assert loaded["bench_schema"] == 1
        assert "machine" in loaded and "created" in loaded

    def test_envelope_kind_is_checked(self, tmp_path):
        p = tmp_path / "BENCH_1.json"
        p.write_text(json.dumps(
            {"schema_version": 1, "kind": "wrong", "body": {}}
        ))
        with pytest.raises(ReproError, match="expected kind"):
            load_snapshot(p)

    def test_bench_schema_is_checked(self, tmp_path):
        p = tmp_path / "BENCH_1.json"
        p.write_text(json.dumps({
            "schema_version": 1, "kind": "bench_snapshot",
            "body": {"bench_schema": 99},
        }))
        with pytest.raises(ReproError, match="bench_schema"):
            load_snapshot(p)

    def test_numbering(self, tmp_path):
        assert latest_snapshot_path(tmp_path) is None
        assert next_snapshot_path(tmp_path).name == "BENCH_1.json"
        (tmp_path / "BENCH_2.json").write_text("{}")
        (tmp_path / "BENCH_10.json").write_text("{}")
        (tmp_path / "BENCH_x.json").write_text("{}")  # ignored: not numbered
        assert latest_snapshot_path(tmp_path).name == "BENCH_10.json"
        assert next_snapshot_path(tmp_path).name == "BENCH_11.json"

    def test_other_document_kinds_are_not_baselines(self, tmp_path):
        (tmp_path / "BENCH_8.json").write_text(json.dumps({
            "schema_version": 1, "kind": "bench_snapshot", "body": {},
        }))
        (tmp_path / "BENCH_12.json").write_text(json.dumps({
            "schema_version": 1, "kind": "perfbench_comparison", "body": {},
        }))
        assert latest_snapshot_path(tmp_path).name == "BENCH_8.json"
        assert next_snapshot_path(tmp_path).name == "BENCH_13.json"


class TestMergeRuns:
    def test_median_votes_out_anomalous_pass(self):
        bodies = [
            _body({"a": _res(0.003, 0.6)}),   # anomalously fast window
            _body({"a": _res(0.010, 2.0)}),
            _body({"a": _res(0.011, 2.2)}),
        ]
        merged = merge_runs(bodies, reduce="median")
        assert merged["results"]["a"]["raw_s"] == pytest.approx(0.010)
        assert merged["merged_runs"] == 3

    def test_min_keeps_the_best(self):
        bodies = [
            _body({"a": _res(0.010, 2.0)}),
            _body({"a": _res(0.008, 1.6)}),
        ]
        merged = merge_runs(bodies, reduce="min")
        assert merged["results"]["a"]["raw_s"] == pytest.approx(0.008)

    def test_single_body_passthrough(self):
        body = _body({"a": _res(0.01, 2.0)})
        assert merge_runs([body]) is body

    def test_speedups_recomputed_from_merged_raws(self):
        bodies = [
            _body({"g/reference": _res(0.030, 6.0, kernel="reference"),
                   "g/vectorized": _res(0.010, 2.0, kernel="vectorized")}),
            _body({"g/reference": _res(0.032, 6.4, kernel="reference"),
                   "g/vectorized": _res(0.008, 1.6, kernel="vectorized")}),
            _body({"g/reference": _res(0.034, 6.8, kernel="reference"),
                   "g/vectorized": _res(0.009, 1.8, kernel="vectorized")}),
        ]
        merged = merge_runs(bodies, reduce="median")
        assert merged["speedups"]["g"]["speedup"] == pytest.approx(0.032 / 0.009)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            merge_runs([])
        with pytest.raises(ValueError):
            merge_runs([_body({}), _body({})], reduce="mean")


class TestHarnessPieces:
    def test_spec_inventory(self):
        names = {s.name for s in BENCH_SPECS}
        # the acceptance benchmark: dependency build + greedy colouring,
        # reference vs vectorized, at >= 512 transactions
        assert {"dependency_greedy/reference",
                "dependency_greedy/vectorized"} <= names
        for spec in BENCH_SPECS:
            if spec.group == "dependency_greedy":
                assert spec.meta["transactions"] >= 512

    def test_calibration_is_positive(self):
        assert calibrate() > 0

    def test_time_respects_budget_floor(self):
        spec = next(s for s in BENCH_SPECS
                    if s.name == "greedy_color/vectorized")
        raw, runs = _time(spec, budget_s=0.0)
        assert raw > 0
        assert runs >= 5  # the floor applies even with a zero budget


class TestCommittedSnapshot:
    def test_bench_4_meets_the_speedup_bar(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent
        body = load_snapshot(root / "BENCH_4.json")
        dep = body["speedups"]["dependency_greedy"]
        assert dep["speedup"] >= 3.0
        assert body["results"]["dependency_greedy/vectorized"]["meta"][
            "transactions"] >= 512


def _session_block(speedup=2.5):
    def _engine(total_s):
        return {
            "total_s": total_s,
            "epochs": 100,
            "throughput_txn_s": 3200.0 / total_s,
            "p50_latency_s": total_s / 200,
            "p99_latency_s": total_s / 100,
            "max_latency_s": total_s / 50,
        }

    return {
        "workload": {"topology": "grid", "nodes": 576, "window": 512,
                     "total": 3200},
        "incremental": _engine(1.0),
        "rebuild": _engine(speedup),
        "throughput_speedup": speedup,
    }


class TestSessionGate:
    def test_passes_at_or_above_threshold(self):
        from repro.benchreg import MIN_SESSION_SPEEDUP, check_session_gate

        body = _body({})
        body["session"] = _session_block(speedup=MIN_SESSION_SPEEDUP)
        ok, detail = check_session_gate(body)
        assert ok
        assert "txn/s" in detail and "p99" in detail

    def test_fails_below_threshold(self):
        from repro.benchreg import check_session_gate

        body = _body({})
        body["session"] = _session_block(speedup=1.4)
        ok, detail = check_session_gate(body)
        assert not ok
        assert "1.40x" in detail

    def test_fails_loudly_without_a_session_block(self):
        # a stale pre-session baseline must not pass silently
        from repro.benchreg import check_session_gate

        ok, detail = check_session_gate(_body({}))
        assert not ok
        assert "no session block" in detail

    def test_custom_threshold(self):
        from repro.benchreg import check_session_gate

        body = _body({})
        body["session"] = _session_block(speedup=2.5)
        assert check_session_gate(body, min_speedup=2.0)[0]
        assert not check_session_gate(body, min_speedup=3.0)[0]


class TestAttachSessionResults:
    def test_merges_results_speedups_and_block(self):
        from repro.benchreg import attach_session_results

        body = _body({"a": _res(0.010, 2.0)})
        block = _session_block(speedup=2.5)
        out = attach_session_results(body, block)
        assert out is body  # in place
        inc = body["results"]["session_rolling/incremental"]
        reb = body["results"]["session_rolling/rebuild"]
        assert inc["kernel"] == "vectorized"
        assert reb["kernel"] == "reference"
        assert inc["group"] == reb["group"] == "session_rolling"
        assert inc["raw_s"] == pytest.approx(1.0 / 100)
        assert inc["meta"]["p99_latency_s"] > 0
        sp = body["speedups"]["session_rolling"]
        assert sp["speedup"] == 2.5
        assert body["session"] is block

    def test_attached_entries_survive_the_generic_compare(self):
        from repro.benchreg import attach_session_results, compare_snapshots

        base = _body({"a": _res(0.010, 2.0)})
        attach_session_results(base, _session_block())
        fresh = json.loads(json.dumps(base))
        regressions, improvements = compare_snapshots(base, fresh)
        assert regressions == [] and improvements == []


class TestCommittedSessionSnapshot:
    def test_bench_8_meets_the_session_gate(self):
        import pathlib

        from repro.benchreg import check_session_gate

        root = pathlib.Path(__file__).resolve().parent.parent
        body = load_snapshot(root / "BENCH_8.json")
        ok, detail = check_session_gate(body)
        assert ok, detail
        block = body["session"]
        assert block["workload"]["total_transactions"] >= 100_000
        assert block["incremental"]["p99_latency_s"] > 0
        assert body["speedups"]["session_rolling"]["speedup"] >= 2.0
