"""JSON (de)serialization for networks, instances, and schedules.

Lets users persist generated problem instances and computed schedules —
e.g. to pin a benchmark workload, ship a counterexample, or archive an
experiment's exact inputs.  Round trips are loss-free and covered by
property tests; topology metadata survives, so a deserialized instance
dispatches to the same scheduler.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, BinaryIO, Dict

from ..core.instance import Instance
from ..core.schedule import Schedule
from ..core.transaction import Transaction
from ..errors import ReproError
from ..faults.plan import (
    DelaySpike,
    FaultPlan,
    LinkFailure,
    NodeCrash,
    ObjectStall,
)
from ..network.graph import Network, Topology

__all__ = [
    "SCHEMA_VERSION",
    "json_payload",
    "dumps_canonical",
    "dumps_line",
    "write_json",
    "read_json",
    "append_jsonl",
    "read_jsonl",
    "network_to_dict",
    "network_from_dict",
    "instance_to_dict",
    "instance_from_dict",
    "schedule_to_dict",
    "schedule_from_dict",
    "fault_plan_to_json",
    "fault_plan_from_json",
    "save_instance",
    "load_instance",
    "save_schedule",
    "load_schedule",
    "save_fault_plan",
    "load_fault_plan",
    "save_certificate",
    "load_certificate",
    "save_report",
    "load_report",
]

_FORMAT_VERSION = 1

#: version stamped on every JSON document the package writes
SCHEMA_VERSION = 1


def json_payload(kind: str, body: Dict[str, Any]) -> Dict[str, Any]:
    """Wrap ``body`` in the standard versioned envelope.

    Every JSON document the CLI and persistence layer emit carries
    ``schema_version`` and ``kind`` at the top so readers can dispatch
    and future-proof without sniffing the structure.
    """
    return {"schema_version": SCHEMA_VERSION, "kind": kind, "body": body}


def dumps_canonical(payload: Dict[str, Any]) -> str:
    """The one JSON writer: sorted keys, 2-space indent, stable bytes."""
    return json.dumps(payload, indent=2, sort_keys=True)


def dumps_line(payload: Dict[str, Any]) -> str:
    """Single-line canonical JSON (sorted keys, no indent) for JSONL/wire."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _drop_torn_tail(fh: BinaryIO) -> None:
    """Truncate an open file to just past its last newline.

    Whatever follows the last newline is a record whose write was cut
    short by a crash; it never committed, so it is removed before the
    next record is appended behind it.
    """
    end = fh.seek(0, os.SEEK_END)
    if end == 0:
        return
    fh.seek(end - 1)
    if fh.read(1) == b"\n":
        return
    pos = end
    while pos > 0:
        start = max(0, pos - 4096)
        fh.seek(start)
        cut = fh.read(pos - start).rfind(b"\n")
        if cut >= 0:
            fh.truncate(start + cut + 1)
            return
        pos = start
    fh.truncate(0)


def append_jsonl(path: str | Path, kind: str, body: Dict[str, Any]) -> None:
    """Append one enveloped record to a JSON-lines file.

    Each line is a complete ``schema_version``/``kind`` envelope ending
    in a newline; the newline is the record's commit point.  A crash
    mid-write can leave an unterminated final line, so the file is first
    truncated to its last newline: the new record never lands behind a
    torn one.  This is the cluster journal's write-ahead format.
    """
    line = (dumps_line(json_payload(kind, body)) + "\n").encode("utf-8")
    with open(path, "a+b") as fh:
        _drop_torn_tail(fh)
        fh.write(line)
        fh.flush()


def read_jsonl(
    path: str | Path, expected_kind: str | None = None
) -> list[Dict[str, Any]]:
    """Read every record body from a JSON-lines file of envelopes.

    An unterminated final line (a write cut short by a crash) is dropped
    silently -- write-ahead semantics: a record either committed fully
    or does not exist.  Raises :class:`ReproError` on an unreadable
    file, an undecodable newline-terminated line (corruption a crash
    cannot explain), an unsupported ``schema_version``, or (when
    ``expected_kind`` is given) a kind mismatch on any complete record.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ReproError(f"cannot load {path}: {exc}") from exc
    complete = text[: text.rfind("\n") + 1]
    bodies: list[Dict[str, Any]] = []
    for lineno, line in enumerate(complete.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ReproError(
                f"{path}:{lineno}: corrupt record ({exc.msg}); only an "
                "unterminated final line can be a torn write"
            ) from exc
        version = payload.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ReproError(
                f"{path}:{lineno}: unsupported schema_version {version!r} "
                f"(expected {SCHEMA_VERSION})"
            )
        kind = payload.get("kind")
        if expected_kind is not None and kind != expected_kind:
            raise ReproError(
                f"{path}:{lineno}: expected kind {expected_kind!r}, "
                f"got {kind!r}"
            )
        bodies.append(payload["body"])
    return bodies


def write_json(path: str | Path, kind: str, body: Dict[str, Any]) -> None:
    """Write ``body`` to ``path`` inside the versioned envelope."""
    Path(path).write_text(dumps_canonical(json_payload(kind, body)))


def read_json(path: str | Path, expected_kind: str | None = None) -> Dict[str, Any]:
    """Read an enveloped JSON document and return its body.

    Raises :class:`ReproError` on an unreadable file, a missing or
    unsupported ``schema_version``, or (when ``expected_kind`` is given)
    a kind mismatch.
    """
    payload = _load(path)
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ReproError(
            f"{path}: unsupported schema_version {version!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    kind = payload.get("kind")
    if expected_kind is not None and kind != expected_kind:
        raise ReproError(
            f"{path}: expected kind {expected_kind!r}, got {kind!r}"
        )
    if "body" not in payload:
        raise ReproError(f"{path}: envelope missing 'body'")
    return payload["body"]


def _jsonable_params(params: Dict[str, Any]) -> Dict[str, Any]:
    """Topology params use tuples; JSON turns them into lists and back."""

    def conv(value):
        if isinstance(value, tuple):
            return [conv(v) for v in value]
        return value

    return {k: conv(v) for k, v in params.items()}


def _tupled_params(params: Dict[str, Any]) -> Dict[str, Any]:
    def conv(value):
        if isinstance(value, list):
            return tuple(conv(v) for v in value)
        return value

    return {k: conv(v) for k, v in params.items()}


def network_to_dict(net: Network) -> Dict[str, Any]:
    """Plain-data form of a network."""
    return {
        "version": _FORMAT_VERSION,
        "n": net.n,
        "edges": [[u, v, w] for u, v, w in net.edges()],
        "topology": {
            "name": net.topology.name,
            "params": _jsonable_params(dict(net.topology.params)),
        },
    }


def network_from_dict(data: Dict[str, Any]) -> Network:
    """Inverse of :func:`network_to_dict`."""
    topo = data.get("topology", {})
    return Network(
        data["n"],
        [tuple(e) for e in data["edges"]],
        Topology(topo.get("name", "generic"), _tupled_params(topo.get("params", {}))),
    )


def instance_to_dict(inst: Instance) -> Dict[str, Any]:
    """Plain-data form of an instance (network included)."""
    return {
        "version": _FORMAT_VERSION,
        "network": network_to_dict(inst.network),
        "transactions": [
            {"tid": t.tid, "node": t.node, "objects": sorted(t.objects)}
            for t in inst.transactions
        ],
        "object_homes": {str(o): v for o, v in inst.object_homes.items()},
    }


def instance_from_dict(data: Dict[str, Any]) -> Instance:
    """Inverse of :func:`instance_to_dict` (revalidates the model rules)."""
    net = network_from_dict(data["network"])
    txns = [
        Transaction(t["tid"], t["node"], t["objects"])
        for t in data["transactions"]
    ]
    homes = {int(o): v for o, v in data["object_homes"].items()}
    return Instance(net, txns, homes)


def schedule_to_dict(schedule: Schedule) -> Dict[str, Any]:
    """Plain-data form of a schedule, embedding its instance."""
    meta = {
        k: v for k, v in schedule.meta.items()
        if isinstance(v, (str, int, float, bool, list, tuple)) or v is None
    }
    return {
        "version": _FORMAT_VERSION,
        "instance": instance_to_dict(schedule.instance),
        "commit_times": {str(t): c for t, c in schedule.commit_times.items()},
        "meta": _jsonable_params(meta),
    }


def schedule_from_dict(data: Dict[str, Any]) -> Schedule:
    """Inverse of :func:`schedule_to_dict`."""
    inst = instance_from_dict(data["instance"])
    commits = {int(t): c for t, c in data["commit_times"].items()}
    return Schedule(inst, commits, data.get("meta", {}))


_EVENT_KINDS = {
    "link_failure": LinkFailure,
    "node_crash": NodeCrash,
    "object_stall": ObjectStall,
    "delay_spike": DelaySpike,
}
_KIND_OF = {cls: kind for kind, cls in _EVENT_KINDS.items()}


def fault_plan_to_json(plan: FaultPlan) -> Dict[str, Any]:
    """Plain-data form of a fault plan (events in stable index order).

    Each event serializes as ``{"kind": ..., **fields}``; saving a plan
    next to the schedule it disrupted makes a faulty run re-runnable from
    disk (``repro-dtm validate sched.json --plan plan.json``).
    """
    events = []
    for e in plan.events:
        rec: Dict[str, Any] = {"kind": _KIND_OF[type(e)]}
        if isinstance(e, LinkFailure):
            rec.update(u=e.u, v=e.v, start=e.start, end=e.end)
        elif isinstance(e, NodeCrash):
            rec.update(node=e.node, time=e.time)
        elif isinstance(e, ObjectStall):
            rec.update(obj=e.obj, start=e.start, end=e.end)
        else:
            rec.update(u=e.u, v=e.v, start=e.start, end=e.end,
                       factor=e.factor)
        events.append(rec)
    return {"version": _FORMAT_VERSION, "events": events}


def fault_plan_from_json(
    data: Dict[str, Any], network: Network | None = None
) -> FaultPlan:
    """Inverse of :func:`fault_plan_to_json` (revalidates every window).

    Passing ``network`` additionally validates each event against the
    graph (see :meth:`FaultPlan.validate_against`).  Raises
    :class:`ReproError` on an unknown event kind.
    """
    events = []
    for rec in data.get("events", []):
        fields = {k: v for k, v in rec.items() if k != "kind"}
        try:
            cls = _EVENT_KINDS[rec.get("kind")]
        except KeyError:
            raise ReproError(
                f"unknown fault event kind {rec.get('kind')!r}; expected "
                f"one of {sorted(_EVENT_KINDS)}"
            ) from None
        events.append(cls(**fields))
    return FaultPlan(events, network=network)


def _save(path: str | Path, payload: Dict[str, Any]) -> None:
    Path(path).write_text(dumps_canonical(payload))


def _load(path: str | Path) -> Dict[str, Any]:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"cannot load {path}: {exc}") from exc


def save_instance(inst: Instance, path: str | Path) -> None:
    """Write an instance to a JSON file."""
    _save(path, instance_to_dict(inst))


def load_instance(path: str | Path) -> Instance:
    """Read an instance from a JSON file."""
    return instance_from_dict(_load(path))


def save_schedule(schedule: Schedule, path: str | Path) -> None:
    """Write a schedule (with its instance) to a JSON file."""
    _save(path, schedule_to_dict(schedule))


def load_schedule(path: str | Path) -> Schedule:
    """Read a schedule from a JSON file."""
    return schedule_from_dict(_load(path))


def save_fault_plan(plan: FaultPlan, path: str | Path) -> None:
    """Write a fault plan to a JSON file."""
    _save(path, fault_plan_to_json(plan))


def load_fault_plan(
    path: str | Path, network: Network | None = None
) -> FaultPlan:
    """Read a fault plan from a JSON file (validated against ``network``)."""
    return fault_plan_from_json(_load(path), network=network)


def save_certificate(cert, path: str | Path) -> None:
    """Write a schedule certificate to an enveloped JSON file.

    The certificate's own SHA-256 signature rides inside the standard
    ``schema_version``/``kind`` envelope (kind ``"certificate"``), so a
    loaded certificate can be re-verified offline with
    :func:`repro.staticcheck.verify_certificate`.
    """
    from ..staticcheck.certify import certificate_to_dict

    write_json(path, "certificate", certificate_to_dict(cert))


def load_certificate(path: str | Path):
    """Read a schedule certificate written by :func:`save_certificate`.

    Returns a :class:`repro.staticcheck.Certificate`; the signature is
    preserved verbatim (verify it with
    :func:`repro.staticcheck.verify_certificate`).
    """
    from ..staticcheck.certify import certificate_from_dict

    return certificate_from_dict(read_json(path, "certificate"))


def save_report(report, path: str | Path) -> None:
    """Write any registered report (metrics, degradation, service...) as
    its versioned JSON envelope (see :mod:`repro.analysis.report`)."""
    from ..analysis.report import report_to_json

    Path(path).write_text(report_to_json(report))


def load_report(path: str | Path):
    """Read a report written by :func:`save_report`.

    Dispatches on the envelope's ``kind`` through the report registry, so
    the caller gets the right dataclass back without naming it.
    """
    from ..analysis.report import report_from_json

    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ReproError(f"cannot load {path}: {exc}") from exc
    return report_from_json(text)
