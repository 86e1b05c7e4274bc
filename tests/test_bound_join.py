"""Bound joins: the federator dispatches subqueries one after another and
sends each later one the values its join variable already holds, as a
VALUES block, so a source ships only the rows the join can keep.

The answers stay those of central evaluation as multisets, and every
subquery still reaches each of its sources exactly once."""

import random
import shutil
from dataclasses import replace

import pytest

import genutil
from genutil import LocalClient
from energyde.connector.client import NodeClient
from energyde.connector.messages import digest
from energyde.connector.node import NodeServer, NodeState, load_node_config
from energyde.connector.provenance import read_log
from energyde import federation
from energyde.federation import (MalformedAnswerError, UnanswerablePatternError,
                                 decompose, execute_federated, federated_query,
                                 hash_join, load_catalog, parse_catalog,
                                 plan_query, select_sources)
from energyde.rdf import Graph, IRI, Literal, Triple, load_graph
from energyde.sparql import evaluate, format_query, parse_query, solutions_from_json

EX = "http://example.org/"


class RecordingClient(LocalClient):
    """A local client that keeps the text of every query it is sent."""

    def __init__(self, graph, source_id, sent):
        super().__init__(graph, source_id=source_id)
        self.sent = sent

    def query(self, query_text):
        self.sent.append((self.source_id, query_text))
        return super().query(query_text)


def union_of(graphs) -> Graph:
    union = Graph()
    for graph in graphs:
        union.update(graph)
    return union


# --- plan ----------------------------------------------------------------------

def test_flagship_plan_sends_the_wiki_subquery_first(fixture_dir):
    plan = plan_query((fixture_dir / "queries" / "federated.rq").read_text(),
                      load_catalog(fixture_dir / "catalog.yaml"))
    doc = plan.to_dict()
    assert [sq["sources"] for sq in doc["subqueries"]] == [["tso"], ["wiki"]]
    assert doc["order"] == [1, 0]
    assert [sq["bindOn"] for sq in doc["subqueries"]] == ["productionType", None]
    # the keys the plan had before are kept as they were
    assert set(doc) == {"subqueries", "joins", "order"}
    assert [set(sq) for sq in doc["subqueries"]] == \
        [{"sources", "patterns", "projection", "query", "bindOn"}] * 2
    assert "VALUES" not in doc["subqueries"][0]["query"]


THREE_SOURCES = """
client_id: fed
sources:
  - id: a
    endpoint: a:1
    predicates: [http://example.org/p]
  - id: b
    endpoint: b:1
    predicates: [http://example.org/q]
  - id: c
    endpoint: c:1
    predicates: [http://example.org/r]
"""


def test_order_prefers_a_subquery_that_shares_a_variable():
    # sorted by variable count alone, b would follow a with nothing to bind
    q = parse_query(f"SELECT ?x ?y WHERE {{ ?x <{EX}p> ?a . ?y <{EX}q> ?b . "
                    f"?x <{EX}r> ?y . }}")
    plan = decompose(q, select_sources(q, parse_catalog(THREE_SOURCES)))
    assert [sq.sources for sq in plan.subqueries] == [("a",), ("b",), ("c",)]
    assert plan.order == [0, 2, 1]
    assert [sq.bind_on for sq in plan.subqueries] == [None, "y", "x"]


def test_fewest_variables_first_then_plan_index():
    q = parse_query(f"SELECT ?x WHERE {{ ?x <{EX}p> ?a . ?a <{EX}p> ?c . "
                    f"?x <{EX}q> ?b . ?x <{EX}r> ?c . }}")
    plan = decompose(q, select_sources(q, parse_catalog(THREE_SOURCES)))
    # a holds ?x ?a ?c, b ?x ?b, c ?x ?c: b and c tie on two, b comes first
    assert plan.order == [1, 2, 0]
    assert [sq.bind_on for sq in plan.subqueries] == ["c", None, "x"]


def test_query_values_bind_the_first_subquery():
    q = parse_query(f"SELECT ?x WHERE {{ ?x <{EX}p> ?a . ?x <{EX}q> ?b . "
                    f"VALUES ?b {{ <{EX}o> }} }}")
    plan = decompose(q, select_sources(q, parse_catalog(THREE_SOURCES)))
    assert plan.order == [1, 0]
    assert [sq.bind_on for sq in plan.subqueries] == ["x", "b"]
    assert plan.subqueries[1].query.projected == ("b", "x")


def test_rq4_plan_lists_five_joins_none_cartesian(fixture_dir):
    plan = plan_query((fixture_dir / "queries" / "rq4_federated.rq").read_text(),
                      load_catalog(fixture_dir / "catalog_full.yaml"))
    joins = plan.to_dict()["joins"]
    assert len(joins) == 5 and not any(join["cartesian"] for join in joins)
    # left-deep: each answer after the first joins every answer before it
    assert [(join["left"], join["right"]) for join in joins] == \
        [(plan.order[:k], i) for k, i in enumerate(plan.order) if k]


# --- the printed joins are the joins that run ---------------------------------------

def fixture_sources(fixture_dir):
    """The full catalog's sources, each a local graph of its node's files."""
    files = {"tso": ["tso.nt", "tso_load.nt"], "wiki": ["reference.nt"],
             "supplier": ["supplier.nt"]}
    return load_catalog(fixture_dir / "catalog_full.yaml"), {
        source: union_of(load_graph(fixture_dir / "graphs" / name) for name in names)
        for source, names in files.items()}


@pytest.mark.parametrize("catalog_name", ["catalog_full", "three_sources"])
def test_the_printed_joins_are_the_hash_joins_that_run(catalog_name, fixture_dir,
                                                       monkeypatch):
    calls = []

    def recording(left, right, shared):
        calls.append((set(left.variables), set(right.variables), list(shared)))
        return hash_join(left, right, shared)
    monkeypatch.setattr(federation, "hash_join", recording)

    rng = random.Random(2311)
    runs = {False: 0, True: 0}      # plans with a join, by VALUES block
    settings = [fixture_sources(fixture_dir)] * 10 if catalog_name == "catalog_full" \
        else [three_way(rng, genutil.random_graph(rng, 150)) for _ in range(10)]
    for catalog, parts in settings:
        graph = union_of(parts.values())
        clients = {s: LocalClient(g, source_id=s) for s, g in parts.items()}
        for _ in range(15):
            query = genutil.random_query(rng, graph, max_patterns=5)
            if rng.random() < 0.4:
                query = genutil.with_values(rng, graph, query)
            try:
                plan = plan_query(format_query(query), catalog)
            except UnanswerablePatternError:
                continue
            calls.clear()
            answer = execute_federated(plan, clients)
            assert genutil.bag(answer) == genutil.bag(evaluate(query, graph))
            values = set() if query.values is None else {query.values.variable.name}
            projected = [set(sq.query.projected) for sq in plan.subqueries]
            assert calls == [
                (values.union(*(projected[i] for i in join["left"])),
                 projected[join["right"]], join["vars"])
                for join in plan.to_dict()["joins"]], format_query(query)
            runs[query.values is not None] += bool(calls)
    assert runs[False] >= 30 and runs[True] >= 20, runs


# --- execution -------------------------------------------------------------------

def three_way(rng, graph, shared_share=0.3):
    """A catalog and graphs for sources a, b and c: most predicates are
    served by one source, so most queries join across sources; some by
    two, whose patterns go to both and are unioned."""
    predicates = sorted({t.predicate.value for t in graph})
    served = {p: rng.sample("abc", 2 if rng.random() < shared_share else 1)
              for p in predicates}
    parts = {source: Graph() for source in "abc"}
    for triple in graph:
        owners = served[triple.predicate.value]
        for source in rng.sample(owners, rng.randrange(1, len(owners) + 1)):
            parts[source].insert(triple)
    catalog = parse_catalog("client_id: fed\nsources:\n" + "".join(
        f"  - id: {source}\n    endpoint: {source}:1\n    predicates: "
        f"[{', '.join(p for p in predicates if source in served[p]) or EX + 'none'}]\n"
        for source in "abc"))
    return catalog, parts


def test_bound_joins_keep_the_central_answer():
    rng = random.Random(404)
    plans = bound = 0
    for _ in range(25):
        graph = genutil.random_graph(rng, rng.randrange(60, 400))
        catalog, parts = three_way(rng, graph)
        sent = []
        clients = {s: RecordingClient(parts[s], s, sent) for s in "abc"}
        for _ in range(12):
            query = genutil.random_query(rng, graph, max_patterns=5)
            if rng.random() < 0.3:
                query = genutil.with_values(rng, graph, query)
            plan = plan_query(format_query(query), catalog)
            sent.clear()
            federated = federated_query(format_query(query), catalog, clients=clients)
            assert genutil.bag(federated) == genutil.bag(evaluate(query, graph)), \
                format_query(query)
            # one request per subquery and source, in the plan's order, each
            # with the block its plan names
            expected = [(s, i) for i in plan.order for s in plan.subqueries[i].sources]
            assert [source for source, _ in sent] == [s for s, _ in expected]
            for (_, text), (_, i) in zip(sent, expected):
                sent_query = parse_query(text)
                assert replace(sent_query, values=None) == plan.subqueries[i].query
                bound_on = sent_query.values and sent_query.values.variable.name
                assert bound_on == plan.subqueries[i].bind_on
            plans += 1
            bound += any(sq.bind_on for sq in plan.subqueries)
    assert plans == 300 and bound >= 100


def test_only_joinable_rows_are_shipped():
    # ?s holds 40 subjects at a, of which 4 have an r value at c
    a, c = Graph(), Graph()
    for i in range(40):
        a.insert(Triple(IRI(f"{EX}s{i}"), IRI(EX + "p"), Literal(str(i))))
    for i in range(0, 40, 10):
        c.insert(Triple(IRI(f"{EX}s{i}"), IRI(EX + "r"), IRI(EX + "R")))
    catalog = parse_catalog(THREE_SOURCES)
    sent = []
    shipped = {}

    class Counting(RecordingClient):
        def query(self, query_text):
            answer = super().query(query_text)
            shipped[self.source_id] = len(answer)
            return answer

    clients = {s: Counting(g, s, sent) for s, g in
               {"a": a, "b": Graph(), "c": c}.items()}
    text = f"SELECT ?s ?v WHERE {{ ?s <{EX}p> ?v . ?s <{EX}r> <{EX}R> . }}"
    answer = federated_query(text, catalog, clients=clients)
    assert len(answer) == 4
    assert [source for source, _ in sent] == ["c", "a"]
    assert "VALUES ?s {" in sent[1][1]
    assert shipped == {"c": 4, "a": 4}


def test_an_empty_block_is_sent():
    catalog = parse_catalog(THREE_SOURCES)
    sent = []
    # a, first in the order, has no ?s; b still gets its request
    b = Graph([Triple(IRI(EX + "s"), IRI(EX + "q"), Literal("1"))])
    clients = {s: RecordingClient(b if s == "b" else Graph(), s, sent) for s in "abc"}
    text = f"SELECT ?s WHERE {{ ?s <{EX}p> ?v . ?s <{EX}q> ?w . }}"
    assert len(federated_query(text, catalog, clients=clients)) == 0
    assert [source for source, _ in sent] == ["a", "b"]
    assert "VALUES ?s { }" in sent[1][1]


def test_an_answer_no_query_can_spell_is_malformed():
    # "{" is no IRI character: the answer is refused, so none of its values
    # is bound into the next subquery
    class OddSource(RecordingClient):
        def query(self, query_text):
            self.sent.append((self.source_id, query_text))
            return solutions_from_json({
                "head": {"vars": ["s", "v"]}, "rows": [[0, 1]],
                "terms": [{"type": "uri", "value": EX + "{odd}"},
                          {"type": "literal", "value": "1"}]})

    sent = []
    clients = {"a": OddSource(Graph(), "a", sent), "b": RecordingClient(Graph(), "b", sent),
               "c": RecordingClient(Graph(), "c", sent)}
    text = f"SELECT ?s ?v WHERE {{ ?s <{EX}p> ?v . ?s <{EX}r> ?w . }}"
    with pytest.raises(MalformedAnswerError, match=r"source 'a'.*forbidden character"):
        federated_query(text, parse_catalog(THREE_SOURCES), clients=clients)
    assert [source for source, _ in sent] == ["a"]


def test_a_query_without_patterns_has_one_empty_solution():
    text = "SELECT * WHERE { }"
    clients = {s: LocalClient(Graph(), source_id=s) for s in "abc"}
    answer = federated_query(text, parse_catalog(THREE_SOURCES), clients=clients)
    assert answer.rows == evaluate(parse_query(text), Graph()).rows == [{}]


# --- over the wire, on the seed-1 fixtures -------------------------------------------

@pytest.fixture()
def fixture_nodes(fixture_dir, tmp_path):
    """The tso and wiki nodes, each logging to its own copy of the fixtures."""
    work = tmp_path / "fixtures"
    shutil.copytree(fixture_dir, work)
    servers = {}
    for name in ("tso", "wiki"):
        config = load_node_config(work / "nodes" / f"{name}.yaml")
        servers[name] = NodeServer(NodeState.from_config(config)).start()
    catalog = load_catalog(work / "catalog.yaml")
    catalog.sources = [replace(s, endpoint=servers[s.id].endpoint)
                       for s in catalog.sources]
    yield work, servers, catalog
    for server in servers.values():
        server.stop()


def test_flagship_over_the_wire(fixture_nodes, monkeypatch):
    work, servers, catalog = fixture_nodes
    text = (work / "queries" / "federated.rq").read_text()
    requests = []
    original = NodeClient.query

    def recording(self, query_text):
        answer = original(self, query_text)
        requests.append((self.source_id, self.contract_id, query_text, answer))
        return answer
    monkeypatch.setattr(NodeClient, "query", recording)
    logged = {name: len(read_log(server.state.provenance.path))
              for name, server in servers.items()}

    for run in range(1, 4):
        answer = federated_query(text, catalog)
        assert genutil.bag(answer) == genutil.bag(evaluate(
            parse_query(text), union_of(s.state.graph for s in servers.values())))
        # each node: one request and one provenance record per query
        assert [source for source, *_ in requests] == ["wiki", "tso"] * run
        for name, server in servers.items():
            records = read_log(server.state.provenance.path)[logged[name]:]
            assert [r.kind for r in records] == ["query-served"] * run

    (_, _, wiki_text, wiki_answer), (_, contract, tso_text, tso_answer) = requests[:2]
    types = {row["productionType"] for row in wiki_answer.rows}
    assert f"VALUES ?productionType {{ " in tso_text
    assert parse_query(tso_text).values.terms == tuple(
        row["productionType"] for row in wiki_answer.rows)
    # the tso node received that text: its record hashes the request body
    record = read_log(servers["tso"].state.provenance.path)[logged["tso"]]
    assert record.request_digest == digest({"contractId": contract, "query": tso_text})
    # it shipped only the rows the join keeps, fewer than unbound
    assert tso_answer.rows and all(row["productionType"] in types
                                   for row in tso_answer.rows)
    tso_graph = servers["tso"].state.graph
    unbound = evaluate(replace(parse_query(tso_text), values=None), tso_graph)
    assert len(tso_answer) == sum(row["productionType"] in types for row in unbound.rows)
    assert len(tso_answer) < len(unbound)
