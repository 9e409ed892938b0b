"""Append-only JSON-lines catalog of command results.

Every CLI invocation can append one record: what ran, a content hash of the
input, and the headline numbers.  Writes take an exclusive lock so
concurrent runs interleave whole lines, never fragments.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from typing import Optional

from . import __version__

CATALOG_ENV = "HADLAB_CATALOG"


@dataclass(frozen=True)
class CatalogRecord:
    command: str
    input_sha256: Optional[str]
    summary: dict
    timestamp: str = field(default_factory=lambda: datetime.now(timezone.utc)
                           .isoformat(timespec="seconds"))
    tool_version: str = __version__


def content_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def catalog_path(explicit: Optional[str] = None) -> Optional[str]:
    """Resolve the catalog file: flag beats environment; None disables."""
    if explicit:
        return explicit
    return os.environ.get(CATALOG_ENV) or None


def append_record(path: str, record: CatalogRecord) -> None:
    line = json.dumps(asdict(record), sort_keys=True, separators=(",", ":"))
    with open(path, "a", encoding="utf-8") as fh:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        try:
            fh.write(line + "\n")
            fh.flush()
        finally:
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)


def read_records(path: str) -> list:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out
