"""Client side of the connector wire protocol."""

from __future__ import annotations

import socket
from typing import Optional

from ..sparql import SolutionSequence, solutions_from_json
from .framing import FrameError, recv_frame, send_frame
from .messages import Message, MessageError

TIMEOUT_S = 10.0                # to connect, and for each send and receive


class RejectionError(RuntimeError):
    def __init__(self, source_id: str, reason: str, text: str):
        super().__init__(f"{source_id}: {reason}: {text}")
        self.source_id = source_id
        self.reason = reason
        self.text = text


class SourceUnreachableError(ConnectionError):
    def __init__(self, source_id: str, endpoint: str, cause: Exception):
        super().__init__(f"source {source_id!r} unreachable at {endpoint}: {cause}")
        self.source_id = source_id


class BadResponseError(RuntimeError):
    """A response that is not a message envelope answering the request."""

    def __init__(self, source_id: str, detail: str):
        super().__init__(f"source {source_id!r} sent a bad response: {detail}")
        self.source_id = source_id


class NodeClient:
    """One remote node, addressed as host:port, queried under one contract.
    A fresh connection per request keeps the client thread-safe."""

    def __init__(self, endpoint: str, sender_id: str, contract_id: str,
                 source_id: Optional[str] = None):
        host, _, port = endpoint.rpartition(":")
        if not (host and port.isascii() and port.isdigit() and len(port) <= 5
                and int(port) <= 65535):
            raise ValueError(f"expected host:port, got {endpoint!r}")
        self.host, self.port = host, int(port)
        self.endpoint = endpoint
        self.sender_id = sender_id
        self.contract_id = contract_id
        self.source_id = source_id or endpoint

    def request(self, type: str, body: dict) -> Message:
        """Send one request under this client's sender id and return the
        response; a Rejection raises ``RejectionError``, and a response that
        is not an envelope with the request's correlation id raises
        ``BadResponseError``."""
        request = Message(type=type, sender=self.sender_id, body=body)
        try:
            with socket.create_connection((self.host, self.port),
                                          timeout=TIMEOUT_S) as sock:
                send_frame(sock, request.to_dict())
                response = Message.from_dict(recv_frame(sock))
        except OSError as exc:
            raise SourceUnreachableError(self.source_id, self.endpoint, exc) from None
        except (FrameError, MessageError) as exc:
            raise BadResponseError(self.source_id, str(exc)) from None
        if response.correlation_id != request.correlation_id:
            raise BadResponseError(self.source_id, "correlation id mismatch")
        if response.type == "Rejection":
            raise RejectionError(self.source_id, response.body.get("reason", "?"),
                                 response.body.get("text", ""))
        return response

    def catalog(self) -> dict:
        response = self.request("CatalogRequest",
                                {"contractId": self.contract_id})
        return response.body["source"]

    def query(self, query_text: str) -> SolutionSequence:
        """The answer's solutions, as ids over their own term table; a
        response that is not a results document raises
        ``sparql.ResultsFormatError``."""
        response = self.request("QueryRequest", {"contractId": self.contract_id,
                                                 "query": query_text})
        return solutions_from_json(response.body.get("results"))

