"""Scripted multi-node demonstration: runs requirement-tagged steps over
running connector nodes and records a transcript."""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from .config import load_document, one_of, read_document, read_text, strings, write_text
from .connector.client import NodeClient, RejectionError
from .connector.messages import REJECTION_REASONS
from .connector.node import NodeServer, load_node_config, serve
from .federation import federated_query, load_catalog
from .rdf import load_graph
from .sparql import solutions_from_json

REQUIRED_TAGS = {f"RQ-{i}" for i in range(1, 9)}


class ScenarioError(RuntimeError):
    pass


@dataclass(frozen=True)
class ScenarioStep:
    rq: str
    kind: str                 # catalog | query | federated | publish
    sender: str
    receiver: Optional[str] = None
    contract: Optional[str] = None
    query: Optional[str] = None
    graph: Optional[str] = None
    catalog: Optional[str] = None
    expect: str = "allow"     # "allow" or a rejection reason code


# the keys each kind of step needs besides rq, kind and sender
_STEP_KEYS = {"catalog": ("receiver",), "query": ("receiver", "query"),
              "federated": ("catalog", "query"), "publish": ("graph",)}
_OPTIONAL_KEYS = ("receiver", "contract", "query", "graph", "catalog")
_FILE_KEYS = ("query", "graph", "catalog")
# only a step that sends a node a request can meet a rejection
_EXPECTING_KINDS = ("catalog", "query")
_expectation = one_of("allow", *sorted(REJECTION_REASONS))


def parse_scenario(text: str, base_dir: Path) -> list[ScenarioStep]:
    """Parse a scenario script whose step files (``query``, ``graph`` and
    ``catalog``) are relative to ``base_dir``."""
    doc = read_document(text)
    steps = []
    for raw in doc.sections("steps"):
        kind = raw.get("kind", one_of(*_STEP_KEYS))
        for key in _STEP_KEYS[kind]:
            if key not in raw:
                raise raw.fail(key, f"missing; a {kind} step needs it")
        if "expect" in raw and kind not in _EXPECTING_KINDS:
            raise raw.fail("expect", f"a {kind} step sends no request a node can reject")
        fields = {key: raw.get(key, default=None) for key in _OPTIONAL_KEYS}
        fields.update({key: str(base_dir / fields[key])
                       for key in _FILE_KEYS if fields[key] is not None})
        steps.append(ScenarioStep(
            rq=raw.get("rq"), kind=kind, sender=raw.get("sender"),
            expect=raw.get("expect", _expectation, "allow"), **fields))
    if not steps:
        raise doc.fail("steps", "scenario has no steps")
    doc.done()
    return steps


def load_scenario(path) -> list[ScenarioStep]:
    return load_document(path, parse_scenario, Path(path).parent)


def _node_files(text: str) -> list[str]:
    """The node config paths a nodes file lists."""
    doc = read_document(text)
    files = doc.get("nodes", strings)
    doc.done()
    return files


class NodeSet:
    """Starts every node listed in a nodes file and stops them on exit."""

    def __init__(self, nodes_path, port_override: Optional[dict] = None):
        self.servers: dict[str, NodeServer] = {}
        base = Path(nodes_path).parent
        self._configs = load_document(nodes_path, lambda text: [
            load_node_config(base / entry) for entry in _node_files(text)])
        if port_override is not None:
            for config in self._configs:
                config.port = port_override.get(config.id, config.port)

    def start(self) -> "NodeSet":
        try:
            for config in self._configs:
                self.servers[config.id] = serve(config)
        except Exception:
            self.stop()
            raise
        return self

    def stop(self) -> None:
        for server in self.servers.values():
            server.stop()
        self.servers.clear()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()

    def server(self, node_id: str) -> NodeServer:
        if node_id not in self.servers:
            raise ScenarioError(f"no running node {node_id!r}")
        return self.servers[node_id]


def run_scenario(steps: list, nodes: NodeSet,
                 transcript_path=None) -> list[dict]:
    """Execute the steps in order; a rejection at a step expecting 'allow'
    fails the scenario with that step's requirement tag."""
    transcript: list[dict] = []
    for index, step in enumerate(steps):
        entry: dict = {"step": index, "rq": step.rq, "kind": step.kind,
                       "sender": step.sender}
        if step.kind == "publish":
            payload = load_graph(step.graph)
            node = nodes.server(step.sender).state
            before = len(node.graph)
            node.graph.update(payload)
            entry.update({"response": "inserted",
                          "triples_added": len(node.graph) - before})
        elif step.kind == "federated":
            catalog = load_catalog(step.catalog)
            # endpoints in the catalog may be stale if nodes were started on
            # ephemeral ports; rewrite from the running set
            catalog.sources = [
                replace(source, endpoint=nodes.servers[source.id].endpoint)
                if source.id in nodes.servers else source
                for source in catalog.sources]
            query_text = read_text(step.query)
            solutions = federated_query(query_text, catalog)
            entry.update({"response": "QueryResult", "rows": len(solutions)})
        elif step.kind in ("catalog", "query"):
            client = NodeClient(endpoint=nodes.server(step.receiver).endpoint,
                                sender_id=step.sender,
                                contract_id=step.contract or "",
                                source_id=step.receiver)
            entry["receiver"] = step.receiver
            try:
                if step.kind == "catalog":
                    response = client.request("CatalogRequest",
                                              {"contractId": step.contract})
                else:
                    query_text = read_text(step.query)
                    response = client.request("QueryRequest",
                                              {"contractId": client.contract_id,
                                               "query": query_text})
                entry.update({
                    "response": response.type,
                    "provenance_record": response.body.get("provenanceRecordId"),
                })
                if response.type == "QueryResult":
                    entry["rows"] = len(solutions_from_json(
                        response.body.get("results")))
                if step.expect != "allow":
                    raise ScenarioError(
                        f"step {index} ({step.rq}): expected rejection "
                        f"{step.expect}, got {response.type}")
            except RejectionError as exc:
                entry.update({"response": "Rejection", "reason": exc.reason})
                if step.expect == "allow":
                    raise ScenarioError(
                        f"step {index} ({step.rq}): unexpected rejection "
                        f"{exc.reason}: {exc.text}") from None
                if step.expect != exc.reason:
                    raise ScenarioError(
                        f"step {index} ({step.rq}): expected {step.expect}, "
                        f"got {exc.reason}") from None
        transcript.append(entry)
    if transcript_path is not None:
        write_text(transcript_path, "".join(json.dumps(entry, sort_keys=True) + "\n"
                                            for entry in transcript))
    return transcript


def coverage(transcript: list) -> set:
    return {entry["rq"] for entry in transcript}
