"""The local query path keeps term ids from the BGP to the response text.

Equivalence: ``handle``'s canonical results text, ``evaluate``'s rows and
the modifiers over term rows all match the Term-level oracle in ``genutil``
on random graphs and queries.  Work counts: a flagship-shaped subquery
hashes no term per row, builds each distinct term's JSON fragment once and
never runs a JSON encoder over the results."""

import json
import random
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_node
from genutil import (oracle_apply_modifiers, oracle_evaluate, oracle_ids_document,
                     oracle_solutions_to_json)
from energyde import sparql
from energyde.connector.framing import encode_frame
from energyde.connector.messages import Message
from energyde.connector.node import handle
from energyde.federation import load_catalog, plan_query
from energyde.rdf import BlankNode, Graph, IRI, Literal, Triple
from energyde.sparql import (AnswerTerms, Comparison, Query, SolutionSequence,
                             TriplePattern, Variable, _match_bgp, apply_modifiers,
                             evaluate, format_query, parse_query)
from energyde.vocab import (AGG_YEAR, COUNTRY, ENERGY, GENERATION_CAPACITY,
                            MEASURE, PRODUCTION_TYPE, RDF_TYPE, XSD)

EX = "http://example.org/"
IN_WINDOW = datetime(2024, 6, 1, tzinfo=timezone.utc)
CANONICAL = {"sort_keys": True, "separators": (",", ":")}

_LEXICALS = ["a", "b", "10", "9", "2.5", "-3", "x1", "NaN", "", 'quote " in',
             "back\\slash", "new\nline", "tab\t", "nul\x00", "ls ps ",
             "été", "中", "\U0001f600"]
_DATATYPES = [XSD + "integer", XSD + "decimal", XSD + "double", XSD + "string",
              EX + "unit"]
_LANGS = ["en", "de", "fr-CA"]


def _literal(rng: random.Random) -> Literal:
    lexical = rng.choice(_LEXICALS)
    kind = rng.random()
    if kind < 0.3:
        return Literal(lexical)
    if kind < 0.5:
        return Literal(lexical, lang=rng.choice(_LANGS))
    return Literal(lexical, rng.choice(_DATATYPES))


def rich_graph(rng: random.Random, size: int) -> Graph:
    """IRIs with non-ASCII text, blank nodes, and plain, language-tagged and
    typed literals whose text needs escaping."""
    nodes = [IRI(f"{EX}s{i}") for i in range(6)] + [IRI(f"{EX}élève")] + \
        [BlankNode(f"b{i}") for i in range(3)]
    predicates = [IRI(f"{EX}p{i}") for i in range(4)] + [IRI(RDF_TYPE)]
    graph = Graph()
    while len(graph) < size:
        obj = _literal(rng) if rng.random() < 0.6 else rng.choice(nodes)
        graph.insert(Triple(rng.choice(nodes), rng.choice(predicates), obj))
    return graph


def rich_query(rng: random.Random, graph: Graph) -> Query:
    """Patterns seeded from the graph, mostly a star around one subject,
    some with a variable repeated inside one pattern; numeric and lexical
    FILTERs, DISTINCT, LIMIT, and now and then a projected variable that
    only a FILTER binds."""
    triples = list(graph)
    anchor = rng.choice(triples).subject
    star = [t for t in triples if t.subject == anchor]
    variables = [Variable(f"v{i}") for i in range(4)]
    patterns = []
    for _ in range(rng.randrange(1, 4)):
        base = rng.choice(star if rng.random() < 0.7 else triples)
        names = variables[:1] + rng.sample(variables[1:], 2)
        terms = [name if rng.random() < 0.5 else value
                 for name, value in zip(names, base)]
        if not isinstance(terms[1], (Variable, IRI)):
            terms[1] = base.predicate
        if rng.random() < 0.1:
            terms[2] = terms[0] = names[0]
        patterns.append(TriplePattern(*terms))
    used = sorted({v for p in patterns for v in p.variables()})
    if not used:
        patterns[0] = TriplePattern(variables[0], patterns[0].predicate,
                                    patterns[0].object)
        used = [variables[0].name]
    projected = rng.sample(used, rng.randrange(1, len(used) + 1))
    filters = []
    for _ in range(rng.choice([0, 0, 1, 2])):
        if rng.random() < 0.5:
            constant = Literal(str(rng.randrange(-4, 12)),
                               rng.choice([XSD + "integer", XSD + "decimal"]))
        else:
            constant = rng.choice([_literal(rng), IRI(f"{EX}s{rng.randrange(6)}")])
        filters.append(Comparison(Variable(rng.choice(used)),
                                  rng.choice(["=", "!=", "<", "<=", ">", ">="]),
                                  constant))
    if rng.random() < 0.1:
        projected.append("w")
        filters.append(Comparison(Variable("w"), "=", Literal("1", XSD + "integer")))
    limit = rng.randrange(0, 6) if rng.random() < 0.3 else None
    query = Query(projected=tuple(projected), distinct=rng.random() < 0.5,
                  patterns=tuple(patterns), filters=tuple(filters), limit=limit)
    # what the node parses is the query's text
    return parse_query(format_query(query))


def query_handled(state, text: str) -> Message:
    request = Message(type="QueryRequest", sender="fed", correlation_id="c",
                      issued="2024-06-01T00:00:00Z",
                      body={"contractId": f"{state.node_id}-open", "query": text})
    response = handle(state, request, now=IN_WINDOW)
    assert response.type == "QueryResult", response.body
    return response


@pytest.fixture(scope="module")
def log_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("id-path")


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_handle_matches_the_term_level_oracle(log_dir, seed):
    rng = random.Random(seed)
    graph = rich_graph(rng, rng.randrange(5, 80))
    query = rich_query(rng, graph)
    state = make_node(log_dir, f"n{seed}", graph)
    results = query_handled(state, format_query(query)).body["results"]
    expected = oracle_ids_document(oracle_evaluate(query, graph))
    assert json.loads(results) == expected
    assert results == json.dumps(expected, **CANONICAL)
    # the public surface: rows are term dicts, in the oracle's order
    assert evaluate(query, graph).rows == oracle_evaluate(query, graph).rows


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_modifiers_over_term_rows_match_the_oracle(seed):
    # the federator's path: the same modifiers over rows of terms
    rng = random.Random(seed)
    graph = rich_graph(rng, rng.randrange(5, 80))
    query = rich_query(rng, graph)
    columns, ids = _match_bgp(query, graph)
    terms = graph.terms
    rows = [{v: terms[i] for v, i in zip(columns, row)} for row in ids]
    got = apply_modifiers(SolutionSequence(columns, rows=rows), query)
    assert isinstance(got.terms, AnswerTerms)
    assert got.rows == oracle_apply_modifiers(rows, query).rows
    assert sparql.solutions_to_json(got) == \
        json.dumps(oracle_ids_document(got), **CANONICAL)
    assert json.loads(sparql.serialize_results(got)) == oracle_solutions_to_json(got)


@pytest.mark.parametrize("text", [
    "SELECT DISTINCT ?x ?z WHERE { ?x <http://example.org/p> ?y . "
    "?z <http://example.org/p> ?y . } LIMIT 5",
    "SELECT ?y ?x WHERE { ?x <http://example.org/p> ?y . FILTER(?y != \"b\") }",
    "SELECT DISTINCT ?y WHERE { ?x <http://example.org/p> ?y . }",
])
def test_modifiers_over_rows_with_unbound_cells(text):
    # what a federator can hold: answers that leave ?x or ?y unbound, and
    # none that binds ?z
    rng = random.Random(7)
    terms = [IRI(f"{EX}s{i}") for i in range(3)] + [Literal("b"),
                                                    Literal("a", lang="en")]
    rows = [{v: rng.choice(terms) for v in ("x", "y") if rng.random() < 0.7}
            for _ in range(40)]
    query = parse_query(text)
    got = apply_modifiers(SolutionSequence(["x", "y"], rows=rows), query)
    want = oracle_apply_modifiers(rows, query)
    assert got.rows == want.rows
    assert sparql.solutions_to_json(got) == \
        json.dumps(oracle_ids_document(want), **CANONICAL)
    assert json.loads(sparql.serialize_results(got)) == oracle_solutions_to_json(want)


def test_projecting_a_variable_twice_binds_it_once():
    graph = rich_graph(random.Random(3), 40)
    query = parse_query(f"SELECT ?s ?s ?o WHERE {{ ?s <{EX}p1> ?o . }}")
    got, want = evaluate(query, graph), oracle_evaluate(query, graph)
    expected = oracle_solutions_to_json(want)
    assert expected["head"]["vars"] == ["s", "s", "o"]
    assert sparql.solutions_to_json(got) == \
        json.dumps(oracle_ids_document(want), **CANONICAL)
    assert json.loads(sparql.serialize_results(got)) == expected


# --- work counts -------------------------------------------------------------

def flagship_graph() -> Graph:
    """Capacity records shaped like the benchmark's: countries, production
    types and measures repeat across rows."""
    graph = Graph()
    for i, (country, ptype, year) in enumerate(
            (c, t, y) for c in ("RS", "DE", "AT", "HU")
            for t in ("WindPower", "Solar", "Hydro", "Coal", "Biomass")
            for y in ("2019", "2020")):
        record = IRI(f"{ENERGY}capacity/{country}/{ptype}/{year}")
        graph.insert(Triple(record, IRI(RDF_TYPE), IRI(GENERATION_CAPACITY)))
        graph.insert(Triple(record, IRI(PRODUCTION_TYPE), IRI(ENERGY + ptype)))
        graph.insert(Triple(record, IRI(COUNTRY), Literal(country)))
        graph.insert(Triple(record, IRI(MEASURE),
                            Literal(str(100 * (i % 7)), XSD + "decimal")))
        graph.insert(Triple(record, IRI(AGG_YEAR), Literal(year)))
    return graph


def test_flagship_subquery_work_counts(fixture_dir, tmp_path, monkeypatch):
    """Deterministic stand-in for a timing: counts the work ``handle`` and
    the response frame do on the federator's TSO subquery."""
    plan = plan_query((fixture_dir / "queries" / "federated.rq").read_text(),
                      load_catalog(fixture_dir / "catalog.yaml"))
    text = format_query(plan.subqueries[0].query)
    query = parse_query(text)
    assert [s for sq in plan.subqueries for s in sq.sources][0] == "tso"
    state = make_node(tmp_path, "tso", flagship_graph())

    hashes = []
    for cls in (IRI, Literal, BlankNode):
        def counted(term, original=cls.__hash__):
            hashes.append(term)
            return original(term)
        monkeypatch.setattr(cls, "__hash__", counted)
    fragments = []
    original_fragment = sparql._binding_text

    def fragment(term):
        fragments.append(original_fragment(term))
        return fragments[-1]
    monkeypatch.setattr(sparql, "_binding_text", fragment)
    encoded = []
    original_encode = json.JSONEncoder.encode

    def encode(self, obj):
        encoded.append(obj)
        return original_encode(self, obj)
    monkeypatch.setattr(json.JSONEncoder, "encode", encode)

    response = query_handled(state, text)
    frame = encode_frame(response.to_dict())
    monkeypatch.undo()

    results = response.body["results"]
    doc = json.loads(results)
    assert len(doc["rows"]) == 20
    # the only term hashes are the lookups of the query's own constants
    constants = [t for p in query.patterns for t in p if not isinstance(t, Variable)]
    assert len(hashes) == len(constants)
    # one fragment per distinct term, each listed once, and fewer terms than
    # cells
    distinct = {json.dumps(entry, **CANONICAL) for entry in doc["terms"]}
    assert sorted(fragments) == sorted(distinct)
    assert len(doc["terms"]) == len(distinct)
    assert len(distinct) < sum(cell is not None for row in doc["rows"] for cell in row)
    # no encoder ran over the results; the frame carries their text
    assert results not in encoded
    assert results in frame[4:].decode("utf-8")
