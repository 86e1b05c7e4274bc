"""Wire message envelopes and canonical digests."""

from __future__ import annotations

import hashlib
import json
import uuid
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Optional

MESSAGE_TYPES = {
    "CatalogRequest", "CatalogResponse", "QueryRequest", "QueryResult", "Rejection",
}

REJECTION_REASONS = {
    "NOT_AUTHORIZED", "CONTRACT_EXPIRED", "CONTRACT_NOT_YET_VALID",
    "UNKNOWN_CONTRACT", "OPERATION_NOT_PERMITTED", "MALFORMED", "INTERNAL",
}


class MessageError(ValueError):
    pass


def format_rfc3339(moment: Optional[datetime] = None) -> str:
    """``moment`` (default: now) as RFC 3339 with microseconds and a ``Z``
    for UTC; ``parse_rfc3339`` reads it back."""
    moment = moment or datetime.now(timezone.utc)
    return moment.isoformat().replace("+00:00", "Z")


def parse_rfc3339(text: str) -> datetime:
    """The moment ``text`` names; a ``ValueError`` when it has no UTC offset."""
    moment = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if moment.tzinfo is None:
        raise ValueError(f"{moment.isoformat()} has no UTC offset")
    return moment


@dataclass
class Message:
    type: str
    sender: str
    body: dict = field(default_factory=dict)
    correlation_id: str = field(default_factory=lambda: str(uuid.uuid4()))
    issued: str = field(default_factory=format_rfc3339)

    def to_dict(self) -> dict:
        return {"type": self.type, "sender": self.sender,
                "correlationId": self.correlation_id, "issued": self.issued,
                "body": self.body}

    @classmethod
    def from_dict(cls, raw) -> "Message":
        if not isinstance(raw, dict):
            raise MessageError("message must be a JSON object")
        for key in ("type", "sender", "correlationId", "issued", "body"):
            if key not in raw:
                raise MessageError(f"message missing {key!r}")
        if not isinstance(raw["type"], str) or raw["type"] not in MESSAGE_TYPES:
            raise MessageError(f"unknown message type {raw['type']!r}")
        if not isinstance(raw["body"], dict):
            raise MessageError("message body must be a JSON object")
        return cls(type=raw["type"], sender=str(raw["sender"]),
                   correlation_id=str(raw["correlationId"]),
                   issued=str(raw["issued"]), body=raw["body"])


class CanonicalJSON(str):
    """JSON text that is already canonical, as ``canonical_json`` writes it.
    ``digest`` hashes it as it is and ``canonical_json`` splices it into any
    object or array that holds it, so a large result is written once per
    response.  A plain ``str`` is a JSON string instead, and is quoted."""

    __slots__ = ()


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(obj) -> str:
    """Sorted keys, no insignificant whitespace; basis for all digests.  The
    text is the same as ``json.dumps(obj, sort_keys=True, separators=(",",
    ":"))``; what objects and arrays hold is encoded item by item, so that
    a ``CanonicalJSON`` among it is spliced in as it is."""
    if isinstance(obj, CanonicalJSON):
        return obj
    if isinstance(obj, dict) and all(type(key) is str for key in obj):
        return "{" + ",".join(f"{_ENCODER.encode(key)}:{canonical_json(value)}"
                              for key, value in sorted(obj.items())) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(map(canonical_json, obj)) + "]"
    return _ENCODER.encode(obj)


def digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def rejection(request: Message, node_id: str, reason: str, text: str) -> Message:
    assert reason in REJECTION_REASONS
    return Message(type="Rejection", sender=node_id,
                   correlation_id=request.correlation_id,
                   body={"reason": reason, "text": text})
