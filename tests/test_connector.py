import hashlib
import json
import socket
import threading
import tracemalloc
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_node, open_contract
from genutil import bag
from energyde.connector.client import (NodeClient, RejectionError,
                                       SourceUnreachableError)
from energyde.connector.contracts import (Contract, ContractError,
                                          ContractStore, authorize,
                                          load_contracts)
from energyde.connector.framing import (MAX_FRAME, ConnectionClosed, FrameError,
                                        encode_frame, recv_frame, send_frame)
from energyde.connector.messages import (CanonicalJSON, Message, MessageError,
                                         canonical_json, digest, format_rfc3339,
                                         rejection)
from energyde.connector.node import handle
from energyde.connector.provenance import (ProvenanceLog, read_log,
                                           replay_audit)
from energyde.rdf import BlankNode, Graph, IRI, Literal, Triple, parse_ntriples
from energyde.sparql import SolutionSequence, solutions_to_json

EX = "http://example.org/"
UTC = timezone.utc
IN_WINDOW = datetime(2024, 6, 1, tzinfo=UTC)


def small_graph(n=5):
    g = Graph()
    for i in range(n):
        g.insert(Triple(IRI(EX + f"s{i}"), IRI(EX + "p"), Literal(str(i))))
    return g


class ChunkedSocket:
    """Serves ``data`` through ``recv``, at most ``chunk`` bytes a call, then
    reports the peer closed."""

    def __init__(self, data: bytes, chunk: int):
        self.data, self.chunk = data, chunk
        self.offset = self.calls = 0

    def recv(self, bufsize):
        self.calls += 1
        n = min(bufsize, self.chunk, len(self.data) - self.offset)
        self.offset += n
        return self.data[self.offset - n:self.offset]


def query_request(sender="fed", contract="tso-open", query=None):
    return Message(type="QueryRequest", sender=sender,
                   body={"contractId": contract,
                         "query": query or
                         "SELECT ?s WHERE { ?s <http://example.org/p> ?o . }"})


class TestFraming:
    def test_round_trip(self):
        a, b = socket.socketpair()
        try:
            payload = {"b": [1, 2], "a": "x"}
            send_frame(a, payload)
            assert recv_frame(b) == payload
        finally:
            a.close(), b.close()

    def test_length_prefix_big_endian(self):
        frame = encode_frame({})
        assert frame[:4] == (len(frame) - 4).to_bytes(4, "big")

    def test_payload_is_the_canonical_json(self):
        # the bytes a resultDigest is taken over are the bytes sent
        message = Message(type="QueryRequest", sender="fed", body={
            "query": "SELECT ?s WHERE { ?s ?p \"Zürich – 東京\" . }",
            "contractId": "c"}).to_dict()
        frame = encode_frame(message)
        assert frame[4:] == canonical_json(message).encode()
        assert frame[4:].isascii()

    def test_oversize_frame_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall((70 * 1024 * 1024).to_bytes(4, "big"))
            with pytest.raises(FrameError):
                recv_frame(b)
        finally:
            a.close(), b.close()

    def test_closed_peer_raises(self):
        a, b = socket.socketpair()
        a.close()
        try:
            with pytest.raises(ConnectionClosed):
                recv_frame(b)
        finally:
            b.close()

    def test_frame_split_across_small_chunks(self):
        payload = {"rows": [f"row-{i}" for i in range(2000)]}
        frame = encode_frame(payload)
        sock = ChunkedSocket(frame, chunk=3)
        assert recv_frame(sock) == payload
        assert sock.offset == len(frame)
        assert sock.calls >= len(frame) // 3

    def test_large_header_then_close_commits_no_memory(self):
        sock = ChunkedSocket(MAX_FRAME.to_bytes(4, "big"), chunk=1 << 30)
        tracemalloc.start()
        try:
            with pytest.raises(ConnectionClosed):
                recv_frame(sock)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_undecodable_payload_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall((5).to_bytes(4, "big") + b"notjs")
            with pytest.raises(FrameError):
                recv_frame(b)
        finally:
            a.close(), b.close()


class TestMessages:
    def test_envelope_round_trip(self):
        m = query_request()
        back = Message.from_dict(m.to_dict())
        assert back == m

    def test_missing_key_rejected(self):
        raw = query_request().to_dict()
        del raw["correlationId"]
        with pytest.raises(MessageError, match="correlationId"):
            Message.from_dict(raw)

    def test_unknown_type_rejected(self):
        raw = query_request().to_dict()
        raw["type"] = "Telepathy"
        with pytest.raises(MessageError, match="Telepathy"):
            Message.from_dict(raw)

    def test_digest_independent_of_key_order(self):
        assert digest({"a": 1, "b": 2}) == digest({"b": 2, "a": 1})

    def test_rejection_keeps_correlation_id(self):
        req = query_request()
        rej = rejection(req, "tso", "UNKNOWN_CONTRACT", "no")
        assert rej.correlation_id == req.correlation_id


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20)


class TestCanonicalJSON:
    @settings(max_examples=300, deadline=None)
    @given(_JSON, st.data())
    def test_text_equals_json_dumps(self, doc, data):
        # the same text alone and nested in an object and a list, and for an
        # object also when it is a CanonicalJSON that gets spliced in
        def dumps(obj):
            return json.dumps(obj, sort_keys=True, separators=(",", ":"))

        key = data.draw(st.text(max_size=6))
        for form in [doc, CanonicalJSON(doc)] if isinstance(doc, dict) else [doc]:
            assert canonical_json(form) == dumps(doc)
            assert canonical_json({key: form, "z": [form]}) == \
                dumps({key: doc, "z": [doc]})

    def test_text_is_encoded_once_and_spliced(self):
        doc = CanonicalJSON({"b": [1, 2], "a": {"c": "é"}})
        text = canonical_json(doc)
        assert text == '{"a":{"c":"\\u00e9"},"b":[1,2]}'
        assert canonical_json(doc) is text
        assert digest(doc) == digest({"a": {"c": "é"}, "b": [1, 2]})
        frame = encode_frame({"body": {"results": doc}})
        assert frame[4:] == b'{"body":{"results":' + text.encode() + b"}}"


class TestAuthorize:
    CONTRACTS = ContractStore([Contract(
        id="c1", provider="tso", consumer="fed", resource="tso-graph",
        operations=frozenset({"query"}),
        not_before=datetime(2024, 1, 1, tzinfo=UTC),
        expiry=datetime(2025, 1, 1, tzinfo=UTC))])

    def decide(self, request, now=IN_WINDOW, node_id="tso",
               resource="tso-graph"):
        return authorize(request, self.CONTRACTS, node_id, resource, now)

    def test_allow_in_window(self):
        assert self.decide(query_request(contract="c1")) is None

    def test_unknown_contract(self):
        reason, _ = self.decide(query_request(contract="ghost"))
        assert reason == "UNKNOWN_CONTRACT"

    def test_wrong_consumer(self):
        reason, _ = self.decide(query_request(sender="intruder",
                                              contract="c1"))
        assert reason == "NOT_AUTHORIZED"

    def test_wrong_resource(self):
        reason, _ = self.decide(query_request(contract="c1"),
                                resource="other-graph")
        assert reason == "NOT_AUTHORIZED"

    def test_before_window(self):
        reason, _ = self.decide(query_request(contract="c1"),
                                now=datetime(2023, 12, 31, tzinfo=UTC))
        assert reason == "CONTRACT_NOT_YET_VALID"

    def test_not_before_boundary_inclusive(self):
        assert self.decide(query_request(contract="c1"),
                           now=datetime(2024, 1, 1, tzinfo=UTC)) is None

    def test_expiry_boundary_exclusive(self):
        reason, _ = self.decide(query_request(contract="c1"),
                                now=datetime(2025, 1, 1, tzinfo=UTC))
        assert reason == "CONTRACT_EXPIRED"

    def test_operation_not_permitted(self):
        req = Message(type="CatalogRequest", sender="fed",
                      body={"contractId": "c1"})
        reason, _ = self.decide(req)
        assert reason == "OPERATION_NOT_PERMITTED"

    def test_wrong_consumer_outranks_window(self):
        # both fail: the identity mismatch is reported, not the window
        reason, _ = self.decide(query_request(sender="intruder",
                                              contract="c1"),
                                now=datetime(2030, 1, 1, tzinfo=UTC))
        assert reason == "NOT_AUTHORIZED"

    def test_invalid_contract_window_rejected(self):
        with pytest.raises(ContractError, match="not_before"):
            Contract(id="x", provider="a", consumer="b", resource="r",
                     operations=frozenset({"query"}),
                     not_before=datetime(2025, 1, 1, tzinfo=UTC),
                     expiry=datetime(2024, 1, 1, tzinfo=UTC))

    def test_fixture_contracts_load(self, fixture_dir):
        store = load_contracts(fixture_dir / "contracts" / "contracts.yaml")
        wiki = store.get("tso-wiki-2020")
        assert wiki is not None and wiki.provider == "wiki"
        expired = store.get("tso-supplier-2019")
        if expired is not None:
            assert expired.expiry.year == 2020


class TestHandle:
    def test_query_served(self, tmp_path):
        state = make_node(tmp_path, "tso", small_graph())
        response = handle(state, query_request(contract="tso-open"))
        assert response.type == "QueryResult"
        assert len(response.body["results"]["results"]["bindings"]) == 5
        records = read_log(tmp_path / "tso.jsonl")
        assert [r.kind for r in records] == ["query-served"]

    def test_rejection_leaks_no_data(self, tmp_path):
        state = make_node(tmp_path, "tso", small_graph())
        response = handle(state, query_request(contract="nope"))
        assert response.type == "Rejection"
        assert response.body["reason"] == "UNKNOWN_CONTRACT"
        assert "results" not in response.body
        assert read_log(tmp_path / "tso.jsonl")[0].kind == "query-rejected"

    def test_correlation_id_echoed(self, tmp_path):
        state = make_node(tmp_path, "tso", small_graph())
        req = query_request(contract="tso-open")
        assert handle(state, req).correlation_id == req.correlation_id

    def test_unparseable_query_malformed(self, tmp_path):
        state = make_node(tmp_path, "tso", small_graph())
        response = handle(state, query_request(contract="tso-open",
                                               query="SELEKT"))
        assert response.body["reason"] == "MALFORMED"

    @pytest.mark.parametrize("literal", [
        '"x"^^<no-scheme>',
        '"x"^^<http://www.w3.org/1999/02/22-rdf-syntax-ns#langString>',
    ], ids=["datatype-not-an-iri", "langstring-without-tag"])
    def test_literal_rdf_rejects_is_one_logged_rejection(self, tmp_path, literal):
        state = make_node(tmp_path, "tso", small_graph())
        response = handle(state, query_request(
            contract="tso-open", query=f"SELECT ?s WHERE {{ ?s <{EX}p> {literal} . }}"))
        assert response.body["reason"] == "MALFORMED"
        assert "query does not parse" in response.body["text"]
        (record,) = read_log(tmp_path / "tso.jsonl")
        assert record.id == response.body["provenanceRecordId"]

    def test_catalog_served(self, tmp_path):
        state = make_node(tmp_path, "tso", small_graph())
        req = Message(type="CatalogRequest", sender="fed",
                      body={"contractId": "tso-open"})
        response = handle(state, req)
        assert response.type == "CatalogResponse"
        assert EX + "p" in response.body["source"]["predicates"]

    def test_every_request_logged_exactly_once(self, tmp_path):
        state = make_node(tmp_path, "tso", small_graph())
        handle(state, query_request(contract="tso-open"))
        handle(state, query_request(contract="nope"))
        handle(state, Message(type="CatalogRequest", sender="fed",
                              body={"contractId": "tso-open"}))
        records = read_log(tmp_path / "tso.jsonl")
        assert len(records) == 3
        assert [r.id for r in records] == [1, 2, 3]

    @pytest.mark.parametrize("body", [
        {"contractId": ["tso-open"], "query": "SELECT ?s WHERE { ?s ?p ?o . }"},
        {"contractId": {"id": "tso-open"}, "query": "SELECT ?s WHERE { ?s ?p ?o . }"},
        {"contractId": 7, "query": "SELECT ?s WHERE { ?s ?p ?o . }"},
        {"contractId": "tso-open", "query": ["SELECT"]},
        {"contractId": "tso-open", "query": None},
    ], ids=["contract-list", "contract-dict", "contract-int", "query-list",
            "query-null"])
    def test_wrong_field_type_is_one_logged_rejection(self, tmp_path, body):
        state = make_node(tmp_path, "tso", small_graph())
        response = handle(state, Message(type="QueryRequest", sender="fed",
                                         body=body))
        assert response.type == "Rejection"
        assert response.body["reason"] == "MALFORMED"
        (record,) = read_log(tmp_path / "tso.jsonl")
        assert record.kind == "query-rejected"
        assert record.contract in (None, "tso-open")
        assert record.id == response.body["provenanceRecordId"]

    def test_result_digest_matches_payload(self, tmp_path):
        state = make_node(tmp_path, "tso", small_graph())
        response = handle(state, query_request(contract="tso-open"))
        record = read_log(tmp_path / "tso.jsonl")[0]
        assert record.result_digest == digest(response.body["results"])


# escapes, control and non-ASCII characters, language tags, typed
# literals and blank nodes
_PINNED_GRAPH = r'''
<http://example.org/s1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/Thing> .
<http://example.org/s1> <http://example.org/label> "line\nbreak \"quoted\" back\\slash\ttab" .
<http://example.org/s1> <http://example.org/label> "Windkraft"@de .
<http://example.org/s1> <http://example.org/value> "320"^^<http://www.w3.org/2001/XMLSchema#integer> .
_:b0 <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/Thing> .
_:b0 <http://example.org/label> "Grüße ☃ \U0001F600"@en-GB .
_:b0 <http://example.org/value> "2.5"^^<http://www.w3.org/2001/XMLSchema#decimal> .
_:b0 <http://example.org/value> "ctl\u0001"^^<http://example.org/myType> .
_:b0 <http://example.org/next> _:b1 .
_:b1 <http://example.org/label> "" .
'''


class TestWireFormat:
    """The response frame's sha256 and the provenance resultDigest, pinned
    to the values of the code that encoded the results twice (once for the
    digest, once for the frame): one encoding changes no byte."""

    @pytest.mark.parametrize("query, rows, frame_sha, result_digest", [
        ("SELECT ?s ?p ?o WHERE { ?s ?p ?o . }", 10,
         "231c0bc862e703ca0c795dda9806e3f81a6ae3b479443227c195b7fe8d8a58bb",
         "5b4bd9ef1aad712ebdd415b2d21cf2a7c75dc6daef7f741b80ce40e267098e50"),
        ("SELECT ?s ?label ?v WHERE { ?s a <http://example.org/Thing> . "
         "?s <http://example.org/label> ?label . "
         "?s <http://example.org/value> ?v . }", 4,
         "b839e2d14101c2c518d163d4e6c5422a7a696e34c8549c2f9de5ffb8286ef152",
         "4d8743ff90b999d6e01b7588a83410004eedcbb70acc2c97de9218b5df330a88"),
    ], ids=["all-triples", "star-join"])
    def test_query_result_bytes(self, tmp_path, query, rows, frame_sha,
                                result_digest):
        state = make_node(tmp_path, "tso", parse_ntriples(_PINNED_GRAPH))
        request = Message(type="QueryRequest", sender="fed",
                          correlation_id="corr-1", issued="2024-06-01T00:00:00Z",
                          body={"contractId": "tso-open", "query": query})
        response = handle(state, request, now=IN_WINDOW)
        response.issued = "2024-06-01T00:00:01Z"
        assert len(response.body["results"]["results"]["bindings"]) == rows
        frame = encode_frame(response.to_dict())
        assert hashlib.sha256(frame).hexdigest() == frame_sha
        assert read_log(tmp_path / "tso.jsonl")[0].result_digest == result_digest
        # what a receiver decodes is the plain document that was digested
        assert digest(json.loads(frame[4:])["body"]["results"]) == result_digest

    def test_unbound_column_bytes(self):
        rows = [{"x": IRI("http://example.org/a"), "y": Literal("1")},
                {"x": BlankNode("z")},
                {"y": Literal("é", lang="fr")}]
        results = solutions_to_json(SolutionSequence(variables=["x", "y"],
                                                     rows=rows))
        for body_results in (results, CanonicalJSON(results)):
            message = Message(type="QueryResult", sender="tso",
                              correlation_id="corr-2",
                              issued="2024-06-01T00:00:02Z",
                              body={"results": body_results,
                                    "provenanceRecordId": 3})
            assert digest(body_results) == \
                "d54d7d12f57b19581c569495e5783008922dbc0add89aeec8e829b12154036f8"
            assert hashlib.sha256(encode_frame(message.to_dict())).hexdigest() == \
                "8c32bd5f6c60a0540bcd3c094f736331a258bbb174a4ddd898fb7d39a265d057"


class TestProvenance:
    def test_append_only_ids(self, tmp_path):
        log = ProvenanceLog(tmp_path / "p.jsonl")
        for _ in range(5):
            log.append(kind="query-served", consumer="fed", contract="c",
                       request_digest="r", result_digest="s",
                       timestamp=format_rfc3339())
        assert [r.id for r in read_log(tmp_path / "p.jsonl")] == [1, 2, 3, 4, 5]

    def test_resume_continues_numbering(self, tmp_path):
        path = tmp_path / "p.jsonl"
        ProvenanceLog(path).append(kind="query-served", consumer="fed",
                                   contract="c", request_digest="r",
                                   result_digest="s", timestamp=format_rfc3339())
        record = ProvenanceLog(path).append(
            kind="query-rejected", consumer="fed", contract="c",
            request_digest="r", result_digest="s", timestamp=format_rfc3339())
        assert record.id == 2

    def test_replay_audit_clean_log(self, tmp_path):
        state = make_node(tmp_path, "tso", small_graph())
        handle(state, query_request(contract="tso-open"), now=IN_WINDOW)
        handle(state, query_request(contract="nope"), now=IN_WINDOW)
        findings = replay_audit(read_log(tmp_path / "tso.jsonl"),
                                state.contracts, "tso", "tso-graph")
        assert findings == []

    def test_replay_audit_flags_leak(self, tmp_path):
        # a served record whose contract never authorized the consumer
        log = ProvenanceLog(tmp_path / "p.jsonl")
        log.append(kind="query-served", consumer="intruder", contract="c1",
                   request_digest="r", result_digest="s",
                   timestamp=format_rfc3339())
        contracts = ContractStore([open_contract("c1", "tso", "fed",
                                                 "tso-graph")])
        findings = replay_audit(read_log(tmp_path / "p.jsonl"), contracts,
                                "tso", "tso-graph")
        assert len(findings) == 1

    def test_replay_audit_flags_id_regression(self, tmp_path):
        path = tmp_path / "p.jsonl"
        rec = {"id": 1, "kind": "query-rejected", "consumer": "x",
               "contract": None, "requestDigest": "r", "resultDigest": "s",
               "timestamp": format_rfc3339()}
        with open(path, "w") as fh:
            fh.write(json.dumps(rec) + "\n")
            fh.write(json.dumps(rec) + "\n")
        findings = replay_audit(read_log(path), ContractStore(), "tso", "r")
        assert any("increasing" in f for f in findings)


class TestWire:
    def test_query_over_tcp(self, start_node):
        server = start_node("tso", small_graph())
        client = NodeClient(endpoint=server.endpoint, sender_id="fed",
                            contract_id="tso-open", source_id="tso")
        assert len(client.query(
            "SELECT ?s WHERE { ?s <http://example.org/p> ?o . }")) == 5

    def test_catalog_over_tcp(self, start_node):
        server = start_node("tso", small_graph())
        client = NodeClient(endpoint=server.endpoint, sender_id="fed",
                            contract_id="tso-open", source_id="tso")
        assert client.catalog()["id"] == "tso"

    def test_rejection_raises_with_reason(self, start_node):
        server = start_node("tso", small_graph())
        client = NodeClient(endpoint=server.endpoint, sender_id="fed",
                            contract_id="wrong", source_id="tso")
        with pytest.raises(RejectionError) as exc:
            client.query("SELECT ?s WHERE { ?s ?p ?o . }")
        assert exc.value.reason == "UNKNOWN_CONTRACT"

    def test_unreachable_endpoint(self):
        client = NodeClient(endpoint="127.0.0.1:1", sender_id="fed",
                            contract_id="c", source_id="x")
        with pytest.raises(SourceUnreachableError):
            client.query("SELECT ?s WHERE { ?s ?p ?o . }")

    def test_undecodable_frame_closes_connection(self, start_node):
        server = start_node("tso", small_graph())
        host, port = server.endpoint.rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.sendall((5).to_bytes(4, "big") + b"notjs")
            assert sock.recv(1) == b""

    def test_malformed_envelope_gets_rejection(self, start_node):
        server = start_node("tso", small_graph())
        host, port = server.endpoint.rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            send_frame(sock, {"type": "QueryRequest"})  # missing keys
            raw = recv_frame(sock)
        assert raw["type"] == "Rejection"
        assert raw["body"]["reason"] == "MALFORMED"

    def test_unhashable_contract_id_gets_rejection(self, start_node, tmp_path):
        server = start_node("tso", small_graph())
        host, port = server.endpoint.rsplit(":", 1)
        request = Message(type="QueryRequest", sender="fed",
                          body={"contractId": ["x"], "query": "SELECT ?s WHERE { ?s ?p ?o . }"})
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            send_frame(sock, request.to_dict())
            raw = recv_frame(sock)
        assert raw["type"] == "Rejection"
        assert raw["body"]["reason"] == "MALFORMED"
        assert len(read_log(tmp_path / "tso.jsonl")) == 1

    def test_fifty_concurrent_identical_requests(self, start_node, tmp_path):
        server = start_node("busy", small_graph())
        text = "SELECT ?s WHERE { ?s <http://example.org/p> ?o . }"
        results, errors = [], []

        def worker():
            client = NodeClient(endpoint=server.endpoint, sender_id="fed",
                                contract_id="busy-open", source_id="busy")
            try:
                results.append(bag(client.query(text)))
            except Exception as exc:  # noqa: BLE001 - surfaced via assert
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(50)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(results) == 50
        assert sum(results[0].values()) == 5
        assert all(r == results[0] for r in results)
        records = read_log(tmp_path / "busy.jsonl")
        assert len(records) == 50
        assert [r.id for r in records] == list(range(1, 51))
        assert len({r.result_digest for r in records}) == 1
