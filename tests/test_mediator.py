"""The federator's positional path: answers decoded into cells over a term
table, unioned and joined as ids, and a malformed answer failing cleanly.

Equivalence: over random partitions of random graphs, with sources that
answer in-process (graph ids) and sources whose answers cross JSON spelled
in other ways, the federated answer equals central ``evaluate`` as a
multiset.  Robustness: each kind of malformed results document makes
``energyde federate`` exit 1 with a message naming the source."""

import json
import random
import socketserver
import threading
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import genutil
from energyde.cli import main
from energyde.connector.client import LocalClient
from energyde.connector.framing import recv_frame, send_frame
from energyde.federation import (FederationError, MalformedAnswerError,
                                 federated_query, hash_join, parse_catalog)
from energyde.rdf import BlankNode, Graph, IRI, Literal, Triple
from energyde.sparql import (AnswerTerms, ResultsFormatError, SolutionSequence,
                             evaluate, format_query, parse_query,
                             solutions_from_json, solutions_to_json)
from energyde.vocab import RDF_LANGSTRING, RDF_TYPE, XSD_INTEGER, XSD_STRING

EX = "http://example.org/"


# --- equivalence over random partitions --------------------------------------

def mixed_graph(rng: random.Random, size: int) -> Graph:
    """IRIs, blank nodes, and plain, typed and language-tagged literals,
    some of them spelled alike."""
    nodes = [IRI(f"{EX}s{i}") for i in range(8)] + [BlankNode(f"b{i}") for i in range(3)]
    predicates = [IRI(f"{EX}p{i}") for i in range(4)] + [IRI(RDF_TYPE)]
    values = [Literal(str(i)) for i in range(5)] + \
        [Literal(str(i), XSD_INTEGER) for i in range(5)] + \
        [Literal("zwei", lang="de"), Literal("two", lang="en"), Literal("two")]
    graph = Graph()
    while len(graph) < size:
        obj = rng.choice(values if rng.random() < 0.5 else nodes)
        graph.insert(Triple(rng.choice(nodes), rng.choice(predicates), obj))
    return graph


class RespellingClient:
    """Answers as a node does, then spells each binding another way before
    the federator decodes it: a plain literal with its ``xsd:string``
    datatype written out, and entry keys in another order."""

    def __init__(self, graph: Graph, rng: random.Random):
        self.graph = graph
        self.rng = rng

    def query(self, text: str) -> SolutionSequence:
        doc = json.loads(json.dumps(solutions_to_json(evaluate(parse_query(text),
                                                               self.graph))))
        for row in doc["results"]["bindings"]:
            for var, entry in row.items():
                if (entry["type"] == "literal" and len(entry) == 2
                        and self.rng.random() < 0.5):
                    entry["datatype"] = XSD_STRING
                if self.rng.random() < 0.5:
                    row[var] = dict(reversed(list(entry.items())))
        return solutions_from_json(doc)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_federated_answer_equals_central_evaluation(seed):
    rng = random.Random(seed)
    graph = mixed_graph(rng, rng.randrange(20, 90))
    predicates = sorted({t.predicate.value for t in graph})
    # every predicate has at least one source; most have two or three, so
    # most patterns go to several sources and are unioned
    served = {p: rng.sample(["a", "b", "c"], rng.choice([1, 2, 2, 3]))
              for p in predicates}
    parts = {source: Graph() for source in "abc"}
    for triple in graph:
        owners = served[triple.predicate.value]
        for source in rng.sample(owners, rng.randrange(1, len(owners) + 1)):
            parts[source].insert(triple)
    catalog = parse_catalog("client_id: fed\nsources:\n" + "".join(
        f"  - id: {source}\n    endpoint: e{source}\n    predicates: "
        f"[{', '.join(p for p in predicates if source in served[p]) or EX + 'none'}]\n"
        for source in "abc"))
    clients = {"a": RespellingClient(parts["a"], rng),
               "b": LocalClient(parts["b"], source_id="b"),
               "c": RespellingClient(parts["c"], rng)}
    for _ in range(8):
        query = genutil.random_query(rng, graph)
        federated = federated_query(format_query(query), catalog, clients=clients)
        assert genutil.bag(federated) == genutil.bag(evaluate(query, graph)), \
            format_query(query)


def test_spellings_of_one_term_share_a_cell():
    doc = {"head": {"vars": ["x", "y"]}, "results": {"bindings": [
        {"x": {"type": "literal", "value": "a"},
         "y": {"value": "a", "type": "literal", "datatype": XSD_STRING}},
        {"x": {"value": "a", "type": "literal"},
         "y": {"xml:lang": "en", "value": "a", "type": "literal"}},
        {"x": {"type": "literal", "value": "a", "datatype": XSD_STRING,
               "xml:lang": "en"}},
    ]}}
    solutions = solutions_from_json(doc)
    (x0, y0), (x1, y1), (x2, y2) = solutions.cells
    assert x0 == y0 == x1 and x2 == y1 != x0 and y2 is None
    assert solutions.rows == [{"x": Literal("a"), "y": Literal("a")},
                              {"x": Literal("a"), "y": Literal("a", lang="en")},
                              {"x": Literal("a", lang="en")}]
    assert len(solutions.terms) == 2


def by_name(solutions) -> Counter:
    """The bag of solutions, whatever the order of their columns."""
    return Counter(frozenset(row.items()) for row in solutions.rows)


def test_join_across_tables_keeps_bag_semantics():
    # the same rows as graph ids, as decoded ids and as terms join alike
    graph = Graph([Triple(IRI(f"{EX}s{i}"), IRI(f"{EX}p"), Literal(str(i % 2)))
                   for i in range(4)])
    left = evaluate(parse_query(f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o . }}"), graph)
    right = solutions_from_json(solutions_to_json(left))
    as_rows = SolutionSequence(["o", "s"], rows=left.rows)
    for a, b in [(left, right), (right, left), (left, as_rows), (as_rows, right),
                 (left, left)]:
        joined = hash_join(a, b, {"s", "o"})
        assert by_name(joined) == by_name(left)
        if a.terms is not b.terms:
            assert isinstance(joined.terms, AnswerTerms)
    assert graph.terms is left.terms and len(graph.terms) == 7     # not added to
    # each row meets itself and the other row with its ?o
    paired = hash_join(left, SolutionSequence(["o"], rows=[{"o": Literal("0")}] * 2), {"o"})
    assert by_name(paired) == by_name(
        SolutionSequence(["s", "o"], rows=[row for row in left.rows
                                           if row["o"] == Literal("0")] * 2))


# --- malformed answers ---------------------------------------------------------

class _OddNode(socketserver.BaseRequestHandler):
    """Answers every request with the ``body`` of its server."""

    def handle(self):
        request = recv_frame(self.request)
        send_frame(self.request, {
            "type": "QueryResult", "sender": "odd",
            "correlationId": request["correlationId"],
            "issued": "2024-06-01T00:00:00Z", "body": self.server.body})


@pytest.fixture()
def odd_node(tmp_path):
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _OddNode)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    (tmp_path / "catalog.yaml").write_text(
        f"client_id: fed\nsources:\n  - id: odd\n    endpoint: {host}:{port}\n"
        f"    predicates: [{EX}p]\n")
    (tmp_path / "query.rq").write_text(f"SELECT ?s WHERE {{ ?s <{EX}p> ?o . }}")

    def federate(results, capsys):
        server.body = {"results": results} if results is not None else {}
        code = main(["federate", "--catalog", str(tmp_path / "catalog.yaml"),
                     "--query", str(tmp_path / "query.rq")])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    yield federate
    server.shutdown()
    server.server_close()


def _answer(*bindings):
    return {"head": {"vars": ["o", "s"]}, "results": {"bindings": list(bindings)}}


_IRI = {"type": "uri", "value": EX + "a"}


@pytest.mark.parametrize("results, detail", [
    (_answer({"s": {"type": "uri", "value": 5}}), "value is not a string"),
    (_answer({"s": {"value": EX + "a"}}), "unknown type None"),
    (_answer({"s": EX + "a"}), "not an object"),
    (_answer(EX + "a"), "not a list of objects"),
    ({"head": {"vars": ["s"]}}, "results.bindings"),
    (None, "not a JSON object"),
    (_answer({"s": {"type": "uri", "value": "no scheme"}}), "IRI missing scheme"),
    (_answer({"s": {"type": "literal", "value": "a", "datatype": "x y"}}),
     "IRI missing scheme"),
    (_answer({"s": {"type": "literal", "value": "a", "xml:lang": ["en"]}}),
     "not an object of strings"),
    (_answer({"s": {"type": "typed-literal", "value": "a"}}), "unknown type"),
], ids=["value-number", "no-type", "entry-string", "binding-string", "no-results",
        "no-document", "bad-iri", "bad-datatype", "lang-list", "unknown-type"])
def test_malformed_answer_exits_1_naming_the_source(odd_node, capsys, results, detail):
    code, out, err = odd_node(results, capsys)
    assert code == 1, err
    assert "source 'odd' sent a malformed answer" in err and detail in err, err
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("entry", [
    {"type": "literal", "value": "a", "xml:lang": ""},
    {"type": "literal", "value": "a", "datatype": RDF_LANGSTRING},
], ids=["empty-lang", "langstring-without-lang"])
def test_language_string_without_a_tag_is_malformed(odd_node, capsys, entry):
    with pytest.raises(ResultsFormatError, match=r"binding of \?s: .*language tag"):
        solutions_from_json(_answer({"s": entry}))
    code, out, err = odd_node(_answer({"s": entry}), capsys)
    assert code == 1, err
    assert "source 'odd' sent a malformed answer" in err and "language tag" in err, err
    assert "Traceback" not in err and out == ""


def test_binding_of_an_unlisted_variable_is_ignored(odd_node, capsys):
    code, out, err = odd_node(_answer({"s": _IRI, "extra": 5}), capsys)
    assert code == 0, err
    assert json.loads(out)["results"]["bindings"] == [{"s": _IRI}]


def test_malformed_answer_is_a_federation_error():
    assert issubclass(MalformedAnswerError, FederationError)
    with pytest.raises(ResultsFormatError, match=r"binding of \?s: value is not a string"):
        solutions_from_json(_answer({"s": {"type": "uri", "value": 5}}))
