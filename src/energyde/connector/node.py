"""Connector node: config, request handling, and the TCP server."""

from __future__ import annotations

import gc
import socketserver
import threading
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

from ..config import ConfigError, load_document, read_document, strings, tcp_port
from ..rdf import Graph, IRI, load_graph
from ..sparql import evaluate, parse_query, solutions_to_json, QueryParseError
from ..vocab import RDF_TYPE
from .contracts import ContractStore, authorize, load_contracts
from .framing import FrameError, recv_frame, send_frame
from .messages import (CanonicalJSON, Message, MessageError, digest,
                       format_rfc3339, rejection)
from .provenance import ProvenanceLog


class NodeConfigError(ConfigError):
    pass


@dataclass
class NodeConfig:
    id: str
    host: str
    port: int
    graph_paths: list
    contracts_path: str
    provenance_path: str
    resource: str


def load_node_config(path) -> NodeConfig:
    return load_document(path, _parse_node_config, Path(path).parent)


def _parse_node_config(text: str, base: Path) -> NodeConfig:
    doc = read_document(text, NodeConfigError)
    listen = doc.section("listen", required=False)
    node_id = doc.get("id")
    config = NodeConfig(
        id=node_id,
        host=listen.get("host", default="127.0.0.1"),
        port=listen.get("port", tcp_port, 0),
        graph_paths=[str(base / g) for g in doc.get("graphs", strings)],
        contracts_path=str(base / doc.get("contracts")),
        provenance_path=str(base / doc.get("provenance_log")),
        resource=doc.get("resource", default=f"{node_id}-graph"),
    )
    doc.done()
    return config


class NodeState:
    def __init__(self, node_id: str, graph: Graph, contracts: ContractStore,
                 provenance: ProvenanceLog, resource: str,
                 endpoint: str = ""):
        self.node_id = node_id
        self.graph = graph
        self.contracts = contracts
        self.provenance = provenance
        self.resource = resource
        self.endpoint = endpoint

    @classmethod
    def from_config(cls, config: NodeConfig) -> "NodeState":
        # each file is parsed once; later ones merge into the first by id
        loaded = (load_graph(gp) for gp in config.graph_paths)
        graph = next(loaded, Graph())
        for other in loaded:
            graph.update(other)
        return cls(node_id=config.id, graph=graph,
                   contracts=load_contracts(config.contracts_path),
                   provenance=ProvenanceLog(config.provenance_path),
                   resource=config.resource,
                   endpoint=f"{config.host}:{config.port}")

    def source_description(self) -> dict:
        """Catalog entry for this node, derived from its graph."""
        predicates = sorted(p.value for p in self.graph.predicates())
        classes = sorted(o.value for o in self.graph.objects(IRI(RDF_TYPE))
                         if isinstance(o, IRI))
        return {"id": self.node_id, "endpoint": self.endpoint,
                "classes": classes, "predicates": predicates}


def handle(state: NodeState, request: Message,
           now: Optional[datetime] = None) -> Message:
    """Authorize and serve one decoded request.  Exactly one provenance record
    is appended before the response is returned, whatever the body holds: a
    ``contractId`` other than a string or null, or a ``QueryRequest`` without
    a ``query`` string, is rejected as ``MALFORMED`` before the contract
    check.  A ``QueryResult``'s ``results`` is the ``CanonicalJSON`` text
    ``solutions_to_json`` wrote: each distinct term's binding entry once,
    then rows of indexes into them, which ``sparql.solutions_from_json``
    reads.  The record's ``resultDigest`` hashes that text and the response
    frame splices it in, so the document is never run through a JSON
    encoder."""
    if now is None:
        now = datetime.now(timezone.utc)
    # the record carries the clock the decision was made against, so a later
    # replay of the log re-authorizes under the same conditions
    timestamp = format_rfc3339(now)
    request_digest = digest(request.body)
    contract_id = request.body.get("contractId")
    query_text = request.body.get("query")

    def log(kind: str, result_digest: str):
        return state.provenance.append(
            kind=kind, consumer=request.sender,
            contract=contract_id if isinstance(contract_id, str) else None,
            request_digest=request_digest, result_digest=result_digest,
            timestamp=timestamp)

    def log_and_reject(reason: str, text: str) -> Message:
        response = rejection(request, state.node_id, reason, text)
        record = log("query-rejected", digest(response.body))
        response.body["provenanceRecordId"] = record.id
        return response

    if request.type not in ("CatalogRequest", "QueryRequest"):
        return log_and_reject("MALFORMED", f"cannot serve a {request.type}")
    if contract_id is not None and not isinstance(contract_id, str):
        return log_and_reject("MALFORMED", "'contractId' must be a string")
    if request.type == "QueryRequest" and not isinstance(query_text, str):
        return log_and_reject("MALFORMED", "QueryRequest body needs a 'query' string")
    operation = "catalog" if request.type == "CatalogRequest" else "query"
    decision = authorize(state.contracts, contract_id, request.sender, operation,
                         state.node_id, state.resource, now)
    if decision is not None:
        return log_and_reject(*decision)
    if request.type == "CatalogRequest":
        source = state.source_description()
        record = log("catalog-served", digest(source))
        return Message(type="CatalogResponse", sender=state.node_id,
                       correlation_id=request.correlation_id,
                       body={"source": source, "provenanceRecordId": record.id})
    try:
        query = parse_query(query_text)
    except QueryParseError as exc:
        return log_and_reject("MALFORMED", f"query does not parse: {exc}")
    try:
        results = CanonicalJSON(solutions_to_json(evaluate(query, state.graph)))
    except Exception as exc:  # evaluator fault: reject, still logged
        return log_and_reject("INTERNAL", f"evaluation failed: {exc}")
    record = log("query-served", digest(results))
    return Message(type="QueryResult", sender=state.node_id,
                   correlation_id=request.correlation_id,
                   body={"results": results, "provenanceRecordId": record.id})


# how deeply a request frame may nest arrays and objects; an envelope with
# a query body nests two deep
MAX_REQUEST_DEPTH = 32


def _nested_deeper(obj, limit: int) -> bool:
    """Whether ``obj`` nests arrays and objects more than ``limit`` deep,
    walked a level at a time, with no recursion."""
    level = [obj] if isinstance(obj, (dict, list)) else []
    for _ in range(limit):      # level: the containers one level deeper
        level = [child for x in level
                 for child in (x.values() if isinstance(x, dict) else x)
                 if isinstance(child, (dict, list))]
    return bool(level)


class _Handler(socketserver.BaseRequestHandler):
    def handle(self):
        state: NodeState = self.server.state  # type: ignore[attr-defined]
        while True:
            try:
                raw = recv_frame(self.request)
            except (FrameError, OSError):
                # closed, or not even a JSON frame: close; nothing decoded,
                # nothing logged
                return
            if _nested_deeper(raw, MAX_REQUEST_DEPTH):
                # digesting it would recurse past the interpreter's limit:
                # refused like an undecodable frame
                return
            try:
                message = Message.from_dict(raw)
            except MessageError as exc:
                # valid JSON but not a message envelope: reject, best effort on
                # the correlation id
                reject = Message(
                    type="Rejection", sender=state.node_id,
                    correlation_id=str(raw.get("correlationId", ""))
                    if isinstance(raw, dict) else "",
                    body={"reason": "MALFORMED", "text": str(exc)})
                try:
                    send_frame(self.request, reject.to_dict())
                except OSError:
                    pass
                continue
            response = handle(state, message)
            try:
                send_frame(self.request, response.to_dict())
            except OSError:
                return


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class NodeServer:
    """Running connector node; use as a context manager or call start/stop."""

    def __init__(self, state: NodeState, host: str = "127.0.0.1", port: int = 0):
        self.state = state
        self._server = _Server((host, port), _Handler)
        self._server.state = state  # type: ignore[attr-defined]
        self.host, self.port = self._server.server_address[:2]
        state.endpoint = f"{self.host}:{self.port}"
        self._thread: Optional[threading.Thread] = None

    @property
    def endpoint(self) -> str:
        return f"{self.host}:{self.port}"

    def start(self) -> "NodeServer":
        # the loaded graph lives as long as the node: move it out of the
        # collector's generations, so that full collections stay short.  No
        # collection first: after a graph load it found nothing to free and
        # added about 30 ms to start-up
        gc.freeze()
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True, name=f"node-{self.state.node_id}")
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread:
            self._thread.join(timeout=5)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()


def serve(config: NodeConfig) -> NodeServer:
    """Build node state from config and start serving.  Caller stops it."""
    state = NodeState.from_config(config)
    server = NodeServer(state, config.host, config.port)
    return server.start()
