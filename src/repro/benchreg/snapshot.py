"""Snapshot persistence: ``BENCH_<n>.json`` files at the repo root.

Snapshots ride the same versioned JSON envelope as every other document
the library emits (:mod:`repro.io.serialize`), with kind
``"bench_snapshot"`` and their own ``bench_schema`` counter inside the
body.  ``<n>`` increments per snapshot; the regression gate compares the
newest run against the highest committed ``<n>``.
"""

from __future__ import annotations

import json
import platform
import re
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional

from ..io.serialize import read_json, write_json

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "SNAPSHOT_KIND",
    "write_snapshot",
    "load_snapshot",
    "latest_snapshot_path",
    "next_snapshot_path",
]

BENCH_SCHEMA_VERSION = 1
SNAPSHOT_KIND = "bench_snapshot"
_NAME_RE = re.compile(r"^BENCH_(\d+)\.json$")


def _machine() -> Dict[str, Any]:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
    }


def write_snapshot(body: Dict[str, Any], path: str | Path) -> Path:
    """Write a harness result (from ``run_harness``) as a snapshot file."""
    path = Path(path)
    doc = {
        "bench_schema": BENCH_SCHEMA_VERSION,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": _machine(),
        **body,
    }
    write_json(path, SNAPSHOT_KIND, doc)
    return path


def load_snapshot(path: str | Path) -> Dict[str, Any]:
    """Read a snapshot body, validating envelope kind and bench schema."""
    from ..errors import ReproError

    body = read_json(path, expected_kind=SNAPSHOT_KIND)
    if body.get("bench_schema") != BENCH_SCHEMA_VERSION:
        raise ReproError(
            f"{path}: unsupported bench_schema {body.get('bench_schema')!r} "
            f"(expected {BENCH_SCHEMA_VERSION})"
        )
    return body


def _numbered(root: Path) -> Dict[int, Path]:
    out = {}
    for p in root.glob("BENCH_*.json"):
        m = _NAME_RE.match(p.name)
        if m:
            out[int(m.group(1))] = p
    return out


def _declares_other_kind(path: Path) -> bool:
    """True for a file whose envelope names a kind other than a snapshot."""
    try:
        kind = json.loads(path.read_text(encoding="utf-8")).get("kind")
    except (OSError, ValueError, AttributeError):
        return False
    return kind is not None and kind != SNAPSHOT_KIND


def latest_snapshot_path(root: str | Path = ".") -> Optional[Path]:
    """The highest-numbered ``BENCH_<n>.json`` under ``root``, if any.

    Numbered files that declare another document kind (the end-to-end
    before/after records of ``perfbench/``) share the numbering but are
    not harness baselines, so they are skipped.
    """
    found = _numbered(Path(root))
    for n in sorted(found, reverse=True):
        if not _declares_other_kind(found[n]):
            return found[n]
    return None


def next_snapshot_path(root: str | Path = ".") -> Path:
    """The next unused ``BENCH_<n>.json`` name under ``root``."""
    found = _numbered(Path(root))
    n = max(found) + 1 if found else 1
    return Path(root) / f"BENCH_{n}.json"
