"""Where the spans go: timing wrappers around energyde's public functions.

``node_side`` instruments a node process, ``client_side`` the process that
sends requests and runs the pipeline.
Span names are ``<layer>.<what>``; the per-layer metrics in ``metrics.py``
are computed from them.
"""

from __future__ import annotations

import hashlib
import threading
from datetime import datetime

from energyde import federation, mapping, pipeline, rdf
from energyde.connector import client, framing, node, provenance
from energyde.vocab import PROV, RDF_TYPE

from corpus import EXPIRED_CONTRACT

# every lookup query the benchmark sends starts with this text
LOOKUP_PREFIX = "SELECT ?measure WHERE {"


def request_kind(node_id: str, request) -> str:
    """The benchmark's name for a request, from what it sent."""
    if request.type == "CatalogRequest":
        return "catalog"
    if request.body.get("contractId") == EXPIRED_CONTRACT:
        return "rejected"
    query = request.body.get("query")
    if isinstance(query, str) and query.startswith(LOOKUP_PREFIX):
        return "lookup"
    return f"flagship@{node_id}"


def node_side(tracer) -> None:
    """One trace per request handled, named by ``request_kind``; the response
    frame that follows ``handle()`` in the same thread joins its trace."""
    local = threading.local()
    original_handle = node.handle
    original_recv = node.recv_frame

    def handle(state, request, now=None):
        with tracer.trace(request_kind(state.node_id, request)) as current:
            tracer.count("connector.request_bytes", getattr(local, "request_bytes", 0))
            response = original_handle(state, request, now)
        local.trace = current
        return response

    def recv_frame(sock):
        raw = original_recv(sock)
        local.request_bytes = len(framing.encode_frame(raw))
        return raw

    def send_frame(sock, obj):
        # framing.send_frame is exactly these two steps, timed apart here
        with tracer.within(getattr(local, "trace", None)):
            with tracer.span("connector.encode_frame"):
                frame = framing.encode_frame(obj)
            tracer.count("connector.response_bytes", len(frame))
            with tracer.span("connector.send"):
                sock.sendall(frame)
        local.trace = None

    node.handle = handle
    node.recv_frame = recv_frame
    node.send_frame = send_frame
    tracer.wrap(node, "parse_query", "sparql.parse_query")
    tracer.wrap(node, "evaluate", "sparql.evaluate",
                after=lambda result, args: tracer.count("sparql.rows_out", len(result)))
    tracer.wrap(node, "solutions_to_json", "sparql.results_json")
    tracer.wrap(node, "digest", "connector.digest")
    tracer.wrap(provenance.ProvenanceLog, "append", "connector.provenance_append")
    tracer.wrap(node, "load_graph", "rdf.parse",
                after=lambda result, args: tracer.count("rdf.triples_parsed", len(result)))

    original_match = rdf.Graph.match

    def match(self, subject=None, predicate=None, object=None):
        result = original_match(self, subject, predicate, object)
        tracer.count("rdf.match_calls")
        tracer.count("rdf.match_triples", len(result))
        return result

    rdf.Graph.match = match


def client_side(tracer) -> None:
    """Federation, the connector client, and the pipeline stages, in the
    process that sends the requests and runs the pipeline."""
    federation.ThreadPoolExecutor = tracer.context_executor()
    tracer.wrap(federation, "plan_query", "federation.plan")
    tracer.wrap(federation, "execute_federated", "federation.execute",
                after=lambda result, args: tracer.count("federation.rows_out", len(result)))
    tracer.wrap(federation, "hash_join", "federation.join")
    tracer.wrap(client.NodeClient, "query", "client.query",
                after=lambda result, args: tracer.count("federation.rows_shipped",
                                                        len(result)))
    tracer.wrap(client.NodeClient, "catalog", "client.catalog")
    tracer.wrap(client, "solutions_from_json", "connector.decode_results")

    tracer.wrap(pipeline, "read_records", "mapping.read_records")
    tracer.wrap(pipeline, "preprocess", "pipeline.preprocess")
    tracer.wrap(mapping, "apply_triple_map", "mapping.apply")
    tracer.wrap(pipeline, "link_entities", "pipeline.link")
    tracer.wrap(pipeline, "load_graph", "rdf.parse")

    def count_focus_nodes(result, args):
        graph, shape_list = args
        tracer.count("shapes.focus_nodes", sum(
            len({t.subject for t in graph.match(None, rdf.IRI(RDF_TYPE),
                                                rdf.IRI(shape.target_class))})
            for shape in shape_list))

    tracer.wrap(pipeline, "validate", "shapes.validate", after=count_focus_nodes)

    def count_serialize(result, args):
        tracer.count("rdf.serialize_calls")

    # the pipeline's two digests call serialize_ntriples directly; saves go
    # through rdf.save_graph
    tracer.wrap(pipeline, "serialize_ntriples", "pipeline.digest_serialize",
                after=count_serialize)
    tracer.wrap(rdf, "serialize_ntriples", "rdf.serialize", after=count_serialize)
    pipeline.hashlib = _TimedHashlib(tracer)


class _TimedHashlib:
    """Stands in for the pipeline module's ``hashlib``: hashing given data
    at construction is the digest of a serialized graph."""

    def __init__(self, tracer):
        self._tracer = tracer

    def sha256(self, data=b""):
        with self._tracer.span("pipeline.sha256"):
            return hashlib.sha256(data)


def record_staging(tracer, trace, prov_path) -> None:
    """Staging is inline in ``run_pipeline``; its duration is read back from
    the PROV activity the run wrote."""
    graph = rdf.load_graph(prov_path)
    times = {}
    for t in graph.match(None, None, None):
        if t.subject.value.endswith("/staging") and t.predicate.value in (
                PROV + "startedAtTime", PROV + "endedAtTime"):
            times[t.predicate.value] = datetime.fromisoformat(
                t.object.lexical.replace("Z", "+00:00"))
    elapsed = times[PROV + "endedAtTime"] - times[PROV + "startedAtTime"]
    with tracer.within(trace):
        tracer.count("pipeline.staging_us", round(elapsed.total_seconds() * 1e6))
