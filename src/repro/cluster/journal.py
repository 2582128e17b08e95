"""Per-worker write-ahead window journal and checkpoint.

Recovery contract: a worker's execution is fully deterministic given
its spec (stream seed, shard, service config), so its *state* never
needs to cross a process boundary -- only its *progress* does.  The
journal records that progress durably, split the way the service's
state splits (:meth:`~repro.service.SchedulingService.snapshot_state`):

* after every committed window, one append-only JSONL record
  ``{window, digest, cumulative, delta}`` -- the window index, a
  SHA-256 digest of the service's cumulative accounting, the accounting
  counters themselves, and the window's slice of the service's
  append-only ledger (its commits, sojourns, shed/expired/lost entries
  and backlog sample);
* every ``checkpoint_every`` windows, the service's bounded core
  (stream and RNG state, queues, counters, detector -- no ledger), so a
  checkpoint's size does not grow with the windows run.  It is written
  as one line with the C JSON encoder, atomically (temp file + rename)
  so a crash mid-checkpoint leaves the previous one intact.

A restarted worker loads the newest checkpoint at window ``C``, rebuilds
the ledger by folding the journaled deltas before ``C`` (the *prefix*),
re-executes the journaled windows from ``C`` on (the *tail*;
deterministic, so bit-identical), verifies each re-executed window's
digest and ledger delta against the journal -- divergence is a
determinism bug and raises :class:`~repro.errors.ClusterError` rather
than silently corrupting the run -- and resumes live at the first
un-journaled window.  The cluster therefore commits exactly the same
transaction set with or without the crash.

Both files use the standard versioned JSON envelopes
(:func:`repro.io.serialize.json_payload`).  A journal record commits
with its trailing newline: an unterminated final line is a write torn
by a crash, which :func:`repro.io.serialize.read_jsonl` drops and
:func:`repro.io.serialize.append_jsonl` truncates away before the next
append -- precisely write-ahead semantics: the window either journaled
completely or never happened.  Any other undecodable line is corruption
no crash explains and raises :class:`~repro.errors.ClusterError`.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ClusterError, ReproError
from ..io.serialize import (
    append_jsonl,
    dumps_line,
    json_payload,
    read_json,
    read_jsonl,
)

__all__ = ["WindowJournal", "accounting_digest"]

#: envelope kind of one journaled window record
JOURNAL_KIND = "cluster_journal"
#: envelope kind of a checkpoint document
CHECKPOINT_KIND = "cluster_checkpoint"


def accounting_digest(cumulative: Dict[str, Any]) -> str:
    """Short stable digest of one window's cumulative accounting."""
    return hashlib.sha256(
        dumps_line(dict(cumulative)).encode("utf-8")
    ).hexdigest()[:16]


class WindowJournal:
    """Append-only window WAL plus an atomically-replaced checkpoint.

    One journal belongs to one worker id for the lifetime of a cluster
    run; successive incarnations of the worker (after crashes) reopen
    the same files.  ``append`` must be called *after* the window's
    effects are final -- the record is the commit point.
    """

    def __init__(self, journal_path: str | Path, checkpoint_path: str | Path) -> None:
        self.journal_path = Path(journal_path)
        self.checkpoint_path = Path(checkpoint_path)

    def has_history(self) -> bool:
        """True iff a previous incarnation journaled anything."""
        return self.journal_path.exists() or self.checkpoint_path.exists()

    def append(
        self,
        window: int,
        digest: str,
        cumulative: Dict[str, Any],
        delta: Dict[str, Any],
    ) -> None:
        """Durably record one committed window (the WAL commit point).

        ``delta`` is the window's slice of the service ledger
        (:meth:`~repro.service.SchedulingService.ledger_delta`).
        """
        append_jsonl(
            self.journal_path,
            JOURNAL_KIND,
            {"window": int(window), "digest": digest,
             "cumulative": dict(cumulative), "delta": dict(delta)},
        )

    def checkpoint(self, window: int, state: Dict[str, Any]) -> None:
        """Atomically replace the checkpoint with state *after* ``window``.

        ``state`` is the service's bounded core taken at the boundary
        after window ``window`` committed; the temp-file + ``os.replace``
        dance guarantees a crash mid-write preserves the previous
        checkpoint.
        """
        doc = dumps_line(
            json_payload(
                CHECKPOINT_KIND,
                {"window": int(window), "state": state},
            )
        )
        tmp = self.checkpoint_path.with_suffix(".tmp")
        tmp.write_text(doc, encoding="utf-8")
        os.replace(tmp, self.checkpoint_path)

    def load(
        self, floor: int = 0
    ) -> Tuple[
        Optional[Dict[str, Any]], List[Dict[str, Any]], List[Dict[str, Any]]
    ]:
        """Read ``(checkpoint_body | None, prefix, tail)``.

        ``prefix`` holds the journal records from ``floor`` up to the
        checkpoint's window (their deltas rebuild the ledger the
        checkpoint leaves out), ``tail`` the records at or beyond it (the
        windows to re-execute); with no checkpoint the prefix is empty.
        ``floor`` is the worker's start window (a replacement worker's
        journal legitimately begins mid-run).  Records are sorted by
        window and de-duplicated (replays re-verify rather than
        re-append, but a crash between append and send may leave the same
        window journaled once -- never twice with different digests).  A
        contiguity gap, a conflicting duplicate or a corrupt line means
        the journal was externally mutilated and raises
        :class:`~repro.errors.ClusterError`.
        """
        ckpt: Optional[Dict[str, Any]] = None
        records: List[Dict[str, Any]] = []
        try:
            if self.checkpoint_path.exists():
                ckpt = read_json(self.checkpoint_path, CHECKPOINT_KIND)
            if self.journal_path.exists():
                records = read_jsonl(self.journal_path, JOURNAL_KIND)
        except ReproError as exc:
            raise ClusterError(str(exc)) from exc
        by_window: Dict[int, Dict[str, Any]] = {}
        for rec in records:
            w = int(rec["window"])
            prev = by_window.get(w)
            if prev is not None and prev["digest"] != rec["digest"]:
                raise ClusterError(
                    f"journal {self.journal_path} has conflicting records "
                    f"for window {w}: {prev['digest']} != {rec['digest']}"
                )
            by_window[w] = rec
        kept = [by_window[w] for w in sorted(by_window) if w >= floor]
        expect = floor
        for rec in kept:
            if int(rec["window"]) != expect:
                raise ClusterError(
                    f"journal {self.journal_path} has a gap: expected "
                    f"window {expect}, found {rec['window']}"
                )
            expect += 1
        split = 0 if ckpt is None else int(ckpt["window"]) - floor
        if not 0 <= split <= len(kept):
            raise ClusterError(
                f"journal {self.journal_path} covers windows {floor}.."
                f"{expect - 1} but the checkpoint is at window {floor + split}"
            )
        return ckpt, kept[:split], kept[split:]
