"""Append-only provenance log: JSON-lines, strictly increasing record ids."""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

from ..config import ConfigError

ACTIVITY_KINDS = {"query-served", "query-rejected", "catalog-served"}


class ProvenanceLogError(ConfigError):
    """A log that cannot be read or made, or a line that is not a
    provenance record."""


@dataclass
class ProvenanceRecord:
    id: int
    kind: str  # query-served | query-rejected | catalog-served
    consumer: str
    contract: Optional[str]
    request_digest: str
    result_digest: str
    timestamp: str

    def __post_init__(self):
        if self.kind not in ACTIVITY_KINDS:
            raise ValueError(f"unknown activity kind {self.kind!r}")

    def to_dict(self) -> dict:
        return {"id": self.id, "kind": self.kind, "consumer": self.consumer,
                "contract": self.contract, "requestDigest": self.request_digest,
                "resultDigest": self.result_digest, "timestamp": self.timestamp}

    @classmethod
    def from_dict(cls, raw: dict) -> "ProvenanceRecord":
        if not isinstance(raw["id"], int) or isinstance(raw["id"], bool):
            raise TypeError(f"id is not an integer: {raw['id']!r}")
        for key in ("kind", "consumer", "requestDigest", "resultDigest",
                    "timestamp"):
            if not isinstance(raw[key], str):
                raise TypeError(f"{key} is not a string: {raw[key]!r}")
        if not isinstance(raw.get("contract"), (str, type(None))):
            raise TypeError(f"contract is neither a string nor null: "
                            f"{raw['contract']!r}")
        return cls(id=raw["id"], kind=raw["kind"], consumer=raw["consumer"],
                   contract=raw.get("contract"),
                   request_digest=raw["requestDigest"],
                   result_digest=raw["resultDigest"],
                   timestamp=raw["timestamp"])


class ProvenanceLog:
    """Single serialized write path; appends are totally ordered per node."""

    def __init__(self, path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._next_id = 1
        if self.path.exists():
            # every record is read and checked; only the last one is kept
            for record in iter_log(self.path):
                self._next_id = record.id + 1
        else:
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self.path.touch()
            except OSError as exc:
                raise ProvenanceLogError(f"{path}: cannot create: {exc}") from None

    def append(self, kind: str, consumer: str, contract: Optional[str],
               request_digest: str, result_digest: str, timestamp: str) -> ProvenanceRecord:
        with self._lock:
            record = ProvenanceRecord(
                id=self._next_id, kind=kind, consumer=consumer, contract=contract,
                request_digest=request_digest, result_digest=result_digest,
                timestamp=timestamp)
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
            self._next_id += 1
            return record


def iter_log(path) -> Iterator[ProvenanceRecord]:
    """The records of the log at ``path``, read a line at a time; a
    ``ProvenanceLogError`` names the file and line of one that cannot be
    read."""
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = ProvenanceRecord.from_dict(json.loads(line))
                except (ValueError, KeyError, TypeError, AttributeError) as exc:
                    raise ProvenanceLogError(f"{path}: line {line_no}: not a "
                                             f"provenance record: {exc!r}") from None
                yield record
    except (OSError, UnicodeDecodeError) as exc:
        raise ProvenanceLogError(f"{path}: cannot read: {exc}") from None


def read_log(path) -> list[ProvenanceRecord]:
    """Every record of the log at ``path``, as ``iter_log`` reads them."""
    return list(iter_log(path))


def replay_audit(records, contracts, node_id: str, resource: str) -> list[str]:
    """Re-check every served record against the contract store; returns a list
    of findings (empty means the log shows no leak)."""
    from .contracts import authorize
    from .messages import parse_rfc3339

    findings = []
    last_id = 0
    for record in records:
        if record.id <= last_id:
            findings.append(f"record {record.id}: id not strictly increasing")
        last_id = record.id
        if record.kind == "query-rejected":
            continue
        operation = "query" if record.kind == "query-served" else "catalog"
        try:
            moment = parse_rfc3339(record.timestamp)
        except ValueError:
            findings.append(f"record {record.id}: unreadable timestamp "
                            f"{record.timestamp!r}")
            continue
        decision = authorize(contracts, record.contract, record.consumer,
                             operation, node_id, resource, moment)
        if decision is not None:
            findings.append(
                f"record {record.id}: served {operation} for {record.consumer} "
                f"but contract check now denies: {decision[0]}")
    return findings
