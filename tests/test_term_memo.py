"""The term table's memo of derived text: each term's N-Triples text and
results-JSON binding are made once per table, lazily, and never go stale.

A node answers byte for byte as it would with no memo (cold against warm,
concurrent against serial, after inserts), the memo holds no more entries
than the table has terms, and a second serialization of a grown graph, or
the pipeline's linked text, formats only the new terms."""

import json
import random
import shutil
import sys
import threading
from datetime import datetime, timezone

from conftest import make_node
from genutil import oracle_evaluate, oracle_ids_document
from energyde import pipeline, sparql
from energyde.connector.framing import encode_frame
from energyde.connector.messages import Message
from energyde.connector.node import handle
from energyde.connector.provenance import read_log
from energyde.rdf import (Graph, IRI, Literal, Triple, format_term, parse_ntriples,
                          serialize_ntriples)
from energyde.sparql import parse_query
from test_id_path import rich_graph, rich_query

EX = "http://example.org/"
IN_WINDOW = datetime(2024, 6, 1, tzinfo=timezone.utc)
MAKERS = (format_term, sparql._binding_text)


def ask(state, text: str) -> Message:
    request = Message(type="QueryRequest", sender="fed", correlation_id="c",
                      issued="2024-06-01T00:00:00Z",
                      body={"contractId": f"{state.node_id}-open", "query": text})
    response = handle(state, request, now=IN_WINDOW)
    assert response.type == "QueryResult", response.body
    return response


def results_frame(response: Message) -> bytes:
    return encode_frame(response.body["results"])


def memo_sizes(graph: Graph) -> list[int]:
    return [len(graph.terms.texts(make, ())) for make in MAKERS]


def test_cold_first_response_equals_a_warm_one(tmp_path):
    rng = random.Random(5)
    graph = rich_graph(rng, 60)
    queries = [sparql.format_query(rich_query(rng, graph)) for _ in range(12)]
    cold = make_node(tmp_path, "cold", graph)
    assert memo_sizes(graph) == [0, 0]          # nothing is made at load
    first = [results_frame(ask(cold, text)) for text in queries]
    assert max(memo_sizes(graph)) > 0
    for _ in range(2):
        assert [results_frame(ask(cold, text)) for text in queries] == first
    # and equal to what a node over a copy of the graph, not yet asked
    # anything, answers to each query first
    for text, frame in zip(queries, first):
        fresh = make_node(tmp_path, "fresh", Graph(graph))
        assert results_frame(ask(fresh, text)) == frame


def test_term_interned_after_a_query_is_written_correctly(tmp_path):
    graph = Graph([Triple(IRI(f"{EX}s{i}"), IRI(f"{EX}p"), Literal(f"v{i}"))
                   for i in range(5)])
    state = make_node(tmp_path, "n", graph)
    query = parse_query(f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o . }} LIMIT 9")
    text = sparql.format_query(query)
    ask(state, text)
    for i, obj in enumerate([Literal('new "one"\n', lang="en"), IRI(f"{EX}s0"),
                             Literal("7", f"{EX}unit")]):
        graph.insert(Triple(IRI(f"{EX}t{i}"), IRI(f"{EX}p"), obj))
        results = ask(state, text).body["results"]
        assert json.loads(results) == oracle_ids_document(oracle_evaluate(query, graph))
    assert serialize_ntriples(graph) == serialize_ntriples(Graph(list(graph)))


def test_memo_never_holds_more_entries_than_terms(tmp_path):
    rng = random.Random(9)
    graph = rich_graph(rng, 70)
    state = make_node(tmp_path, "n", graph)
    for _ in range(30):
        ask(state, sparql.format_query(rich_query(rng, graph)))
        assert max(memo_sizes(graph)) <= len(graph.terms)
    serialize_ntriples(graph)
    assert memo_sizes(graph)[0] == len(graph.terms)
    assert max(memo_sizes(graph)) <= len(graph.terms)


def test_concurrent_handles_give_one_result_digest(tmp_path):
    # four threads fill one cold memo at once, switching as often as the
    # interpreter allows
    rng = random.Random(13)
    graph = rich_graph(rng, 80)
    text = "SELECT ?s ?p ?o WHERE { ?s ?p ?o . }"
    shared = make_node(tmp_path, "shared", graph)
    start = threading.Barrier(4)
    errors = []

    def worker():
        start.wait()
        try:
            for _ in range(20):
                ask(shared, text)
        except Exception as exc:     # reported below, not lost in the thread
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and not errors
    records = read_log(tmp_path / "shared.jsonl")
    fresh = make_node(tmp_path, "fresh", Graph(list(graph)))
    ask(fresh, text)
    assert len(records) == 80
    assert {record.result_digest for record in records} == \
        {read_log(tmp_path / "fresh.jsonl")[0].result_digest}


def test_second_serialization_formats_only_new_terms():
    graph = parse_ntriples(f'<{EX}a> <{EX}p> "x" .\n<{EX}b> <{EX}p> <{EX}a> .\n')
    first = serialize_ntriples(graph)
    kept = dict(graph.terms.texts(format_term, ()))
    graph.insert(Triple(IRI(f"{EX}c"), IRI(f"{EX}p"), Literal("y", lang="de")))
    second = serialize_ntriples(graph)
    texts = graph.terms.texts(format_term, ())
    assert all(texts[i] is text for i, text in kept.items())
    assert len(texts) == len(graph.terms) == len(kept) + 2
    assert second == first + f'<{EX}c> <{EX}p> "y"@de .\n'
    assert parse_ntriples(second) == graph
    assert serialize_ntriples(Graph()) == ""


def test_pipeline_digests_format_each_mapped_term_once(fixture_dir, tmp_path, monkeypatch):
    shutil.copytree(fixture_dir, tmp_path / "work")
    monkeypatch.chdir(tmp_path / "work")
    seen = []
    original = pipeline.serialize_ntriples

    def serialize(graph):
        before = dict(graph.terms.texts(format_term, ()))
        text = original(graph)
        seen.append((graph, before, dict(graph.terms.texts(format_term, ())),
                     len(graph.terms)))
        return text

    monkeypatch.setattr(pipeline, "serialize_ntriples", serialize)
    report = pipeline.run_pipeline(pipeline.load_pipeline_config("pipeline.yaml"))
    assert report["loaded"] is True
    # one serialization, the mapping digest's
    (graph, before, mapped, mapped_terms), = seen
    assert before == {} and len(mapped) == mapped_terms
    # the linked text's new lines take their texts from the same memo: the
    # mapped terms' texts are reused, and only the new terms are formatted
    linked = graph.terms.texts(format_term, ())
    assert all(linked[i] is text for i, text in mapped.items())
    assert len(linked) == len(graph.terms) > mapped_terms
