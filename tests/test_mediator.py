"""The federator's positional path: answers decoded into cells over a term
table, unioned and joined as ids, and a malformed answer failing cleanly.

Equivalence: over random partitions of random graphs, with sources that
answer in-process (graph ids) and sources whose answers cross JSON spelled
in other ways, the federated answer equals central ``evaluate`` as a
multiset; and a node's answer, read back off its response frame, is the
answer it evaluated.  Robustness: each kind of malformed results document
makes ``energyde federate`` exit 1 with a message naming the source."""

import json
import random
import socketserver
import threading
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import genutil
from conftest import make_node
from genutil import LocalClient
from energyde.cli import main
from energyde.connector.framing import encode_frame, recv_frame, send_frame
from energyde.connector.messages import Message
from energyde.connector.node import handle
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
    """Answers as a node does, then spells the answer's terms another way
    before the federator decodes it: a plain literal with its
    ``xsd:string`` datatype written out, entry keys in another order, and
    some entries listed twice, with some of the cells that use the entry
    pointing at the second listing."""

    def __init__(self, graph: Graph, rng: random.Random):
        self.graph = graph
        self.rng = rng

    def respell(self, entry: dict) -> dict:
        entry = dict(entry)
        if (entry["type"] == "literal" and len(entry) == 2
                and self.rng.random() < 0.5):
            entry["datatype"] = XSD_STRING
        if self.rng.random() < 0.5:
            entry = dict(reversed(list(entry.items())))
        return entry

    def query(self, text: str) -> SolutionSequence:
        doc = json.loads(solutions_to_json(evaluate(parse_query(text), self.graph)))
        terms = doc["terms"]
        copies = {}         # an entry's index -> the index of its second listing
        for i in range(len(terms)):
            terms[i] = self.respell(terms[i])
            if self.rng.random() < 0.3:
                copies[i] = len(terms)
                terms.append(self.respell(terms[i]))
        doc["rows"] = [[copies[cell] if cell in copies and self.rng.random() < 0.5
                        else cell for cell in row] for row in doc["rows"]]
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
    doc = {"head": {"vars": ["x", "y"]}, "rows": [[0, 1], [4, 2], [3, None]],
           "terms": [{"type": "literal", "value": "a"},
                     {"value": "a", "type": "literal", "datatype": XSD_STRING},
                     {"xml:lang": "en", "value": "a", "type": "literal"},
                     {"type": "literal", "value": "a", "datatype": XSD_STRING,
                      "xml:lang": "en"},
                     {"value": "a", "type": "literal"}]}
    solutions = solutions_from_json(doc)
    (x0, y0), (x1, y1), (x2, y2) = solutions.cells
    assert x0 == y0 == x1 and x2 == y1 != x0 and y2 is None
    assert solutions.rows == [{"x": Literal("a"), "y": Literal("a")},
                              {"x": Literal("a"), "y": Literal("a", lang="en")},
                              {"x": Literal("a", lang="en")}]
    assert len(solutions.terms) == 2


# --- the answer across the wire --------------------------------------------------

def _served(state, text: str) -> Message:
    """``handle``'s answer to ``text``."""
    response = handle(state, Message(
        type="QueryRequest", sender="fed",
        body={"contractId": f"{state.node_id}-open", "query": text}))
    assert response.type == "QueryResult", response.body
    return response


@pytest.fixture(scope="module")
def log_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("wire")


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_an_answer_read_off_its_frame_is_the_answer_evaluated(log_dir, seed):
    rng = random.Random(seed)
    graph = genutil.random_graph(rng, rng.randrange(10, 80))
    query = genutil.random_query(rng, graph)
    if rng.random() < 0.3:
        query = genutil.with_values(rng, graph, query)
    response = _served(make_node(log_dir, f"n{seed}", graph), format_query(query))
    frame = encode_frame(response.to_dict())
    back = solutions_from_json(json.loads(frame[4:])["body"]["results"])
    assert genutil.bag(back) == genutil.brute_force(query, graph), format_query(query)
    # and its results text is the local answer's
    assert solutions_to_json(back) == solutions_to_json(evaluate(query, graph))


def test_the_results_text_does_not_depend_on_the_load_order(tmp_path):
    rng = random.Random(3)
    triples = list(mixed_graph(rng, 80))
    forward, backward = Graph(triples), Graph(reversed(triples))
    assert forward.terms != backward.terms      # numbered differently
    for _ in range(10):
        text = format_query(genutil.random_query(rng, forward))
        assert _served(make_node(tmp_path, "f", forward), text).body["results"] == \
            _served(make_node(tmp_path, "b", backward), text).body["results"], text


def by_name(solutions) -> Counter:
    """The bag of solutions, whatever the order of their columns."""
    return Counter(frozenset(row.items()) for row in solutions.rows)


def test_join_across_tables_keeps_bag_semantics():
    # the same rows as graph ids, as decoded ids and as rows of terms join
    # alike
    graph = Graph([Triple(IRI(f"{EX}s{i}"), IRI(f"{EX}p"), Literal(str(i % 2)))
                   for i in range(4)])
    left = evaluate(parse_query(f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o . }}"), graph)
    right = solutions_from_json(json.loads(solutions_to_json(left)))
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
    """Answers every request with the ``body`` of its server, or with its
    ``payload`` text, framed as it is, the request's correlation id put in
    for its "%s"."""

    def handle(self):
        request = recv_frame(self.request)
        if self.server.payload is not None:
            payload = (self.server.payload % request["correlationId"]).encode()
            self.request.sendall(len(payload).to_bytes(4, "big") + payload)
            return
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

    def federate(results, capsys, payload=None):
        server.body = {"results": results} if results is not None else {}
        server.payload = payload
        code = main(["federate", "--catalog", str(tmp_path / "catalog.yaml"),
                     "--query", str(tmp_path / "query.rq")])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    yield federate
    server.shutdown()
    server.server_close()


def _answer(*entries, rows=None):
    """An answer over ``?o ?s`` that lists ``entries`` as its terms; by
    default each binds ``?s`` in one row of its own."""
    if rows is None:
        rows = [[None, i] for i in range(len(entries))]
    return {"head": {"vars": ["o", "s"]}, "rows": rows, "terms": list(entries)}


_IRI = {"type": "uri", "value": EX + "a"}
_IRI_B = {"type": "uri", "value": EX + "b"}


@pytest.mark.parametrize("results, detail", [
    (_answer({"type": "uri", "value": 5}), "value is not a string"),
    (_answer({"value": EX + "a"}), "unknown type None"),
    (_answer(EX + "a"), "not an object"),
    (_answer(_IRI, rows=[EX + "a"]), "a row is not a list"),
    ({"head": {"vars": ["s"]}, "terms": []}, "rows is not a list"),
    (None, "not a JSON object"),
    (_answer({"type": "uri", "value": "no scheme"}), "IRI missing scheme"),
    (_answer({"type": "literal", "value": "a", "datatype": "x y"}),
     "IRI missing scheme"),
    (_answer({"type": "literal", "value": "a", "xml:lang": ["en"]}),
     "not an object of strings"),
    (_answer({"type": "typed-literal", "value": "a"}), "unknown type"),
    # terms outside the one term grammar
    (_answer({"type": "uri", "value": EX + "{a}"}), "forbidden character"),
    (_answer({"type": "bnode", "value": "a b"}), "invalid blank node label"),
    (_answer({"type": "literal", "value": "a", "xml:lang": "en_GB"}),
     "invalid language tag"),
    (_answer({"type": "literal", "value": "a", "datatype": [EX + "t"]}),
     "not an object of strings"),
    # cells: exactly an int indexing terms, or null
    (_answer(_IRI, _IRI_B, rows=[[None, True]]), "neither null nor an index"),
    (_answer(_IRI, _IRI_B, rows=[[None, 1.0]]), "neither null nor an index"),
    (_answer(_IRI, rows=[[None, "0"]]), "neither null nor an index"),
    (_answer(_IRI, rows=[[None, -1]]), "cell -1 is not an index into terms"),
    (_answer(_IRI, rows=[[None, 1]]), "cell 1 is not an index into terms"),
    (_answer(_IRI, rows=[[0]]), "a row does not hold 2 cells"),
    (_answer(_IRI, rows=[{"s": 0}]), "a row is not a list"),
    ({"head": {"vars": ["s"]}, "rows": [], "terms": {}}, "terms is not a list"),
    ({"head": {"vars": "s"}, "rows": [], "terms": []},
     "head.vars is not a list of variable names"),
    # head.vars, as a set, must be the subquery's projection
    ({"head": {"vars": ["s", "x"]}, "rows": [[0, None]], "terms": [_IRI]},
     "head.vars ['s', 'x'] are not the projection ['o', 's']"),
], ids=["value-number", "no-type", "entry-string", "binding-string", "no-results",
        "no-document", "bad-iri", "bad-datatype", "lang-list", "unknown-type",
        "iri-brace", "bnode-space", "lang-underscore", "datatype-list",
        "cell-bool", "cell-float", "cell-string", "cell-negative",
        "cell-out-of-range", "row-width", "row-object", "terms-object",
        "head-vars-string", "head-vars"])
def test_malformed_answer_exits_1_naming_the_source(odd_node, capsys, results, detail):
    code, out, err = odd_node(results, capsys)
    assert code == 1, err
    assert "source 'odd' sent a malformed answer" in err and detail in err, err
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("depth", [600, 900, 200_000])
def test_an_answer_nested_too_deep_exits_1(odd_node, capsys, depth):
    # the frame does not decode, or its results are no results document
    payload = ('{"body":{"results":' + "[" * depth + "]" * depth + '},'
               '"correlationId":"%s","issued":"x","sender":"odd","type":"QueryResult"}')
    code, out, err = odd_node(None, capsys, payload=payload)
    assert code == 1, err
    assert "source 'odd' sent a" in err and "Traceback" not in err and out == ""


@pytest.mark.parametrize("entry", [
    {"type": "literal", "value": "a", "xml:lang": ""},
    {"type": "literal", "value": "a", "datatype": RDF_LANGSTRING},
], ids=["empty-lang", "langstring-without-lang"])
def test_language_string_without_a_tag_is_malformed(odd_node, capsys, entry):
    with pytest.raises(ResultsFormatError, match=r"terms\[0\]: .*language tag"):
        solutions_from_json(_answer(entry))
    code, out, err = odd_node(_answer(entry), capsys)
    assert code == 1, err
    assert "source 'odd' sent a malformed answer" in err and "language tag" in err, err
    assert "Traceback" not in err and out == ""


def test_fields_the_reader_does_not_read_are_ignored(odd_node, capsys):
    # an unknown key, an entry field of any type, and a term no row uses
    results = dict(_answer(dict(_IRI, extra=5), _IRI_B, rows=[[None, 0]]),
                   results={"bindings": 5})
    code, out, err = odd_node(results, capsys)
    assert code == 0, err
    assert json.loads(out)["results"]["bindings"] == [{"s": _IRI}]


def test_malformed_answer_is_a_federation_error():
    assert issubclass(MalformedAnswerError, FederationError)
    with pytest.raises(ResultsFormatError, match=r"terms\[0\]: value is not a string"):
        solutions_from_json(_answer({"type": "uri", "value": 5}))
