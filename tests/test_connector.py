import json
import socket
import threading
import tracemalloc
from datetime import datetime, timezone

import pytest

from conftest import make_node, open_contract
from genutil import bag
from energyde.connector.client import (NodeClient, RejectionError,
                                       SourceUnreachableError)
from energyde.connector.contracts import (Contract, ContractError,
                                          ContractStore, authorize,
                                          load_contracts)
from energyde.connector.framing import (MAX_FRAME, ConnectionClosed, FrameError,
                                        encode_frame, recv_frame, send_frame)
from energyde.connector.messages import (Message, MessageError, canonical_json,
                                         digest, format_rfc3339, rejection)
from energyde.connector.node import handle
from energyde.connector.provenance import (ProvenanceLog, read_log,
                                           replay_audit)
from energyde.rdf import Graph, IRI, Literal, Triple

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

    def test_result_digest_matches_payload(self, tmp_path):
        state = make_node(tmp_path, "tso", small_graph())
        response = handle(state, query_request(contract="tso-open"))
        record = read_log(tmp_path / "tso.jsonl")[0]
        assert record.result_digest == digest(response.body["results"])


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
