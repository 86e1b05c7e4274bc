import random
from collections import Counter

import pytest
from hypothesis import given, settings

from energyde.federation import (CatalogError, FederationCatalog,
                                 FederationError, SourceDescription,
                                 UnanswerablePatternError, build_clients,
                                 decompose, execute_federated,
                                 federated_query, hash_join,
                                 load_catalog, parse_catalog, plan_query,
                                 select_sources)
from energyde.rdf import Graph, IRI, Literal, Triple, parse_ntriples
from energyde.sparql import (SolutionSequence, evaluate, format_query,
                             parse_query)
from energyde.vocab import RDF_TYPE, SUBCLASS_OF, WIND_POWER
import genutil
from genutil import LocalClient

EX = "http://example.org/"

TWO_SOURCE_CATALOG = """
client_id: fed
sources:
  - id: left
    endpoint: 127.0.0.1:1
    predicates: [http://example.org/p, http://example.org/q, rdf:type]
    classes: [http://example.org/C]
  - id: right
    endpoint: 127.0.0.1:2
    predicates: [http://example.org/r]
"""


def local_clients(**graphs):
    return {sid: LocalClient(g, source_id=sid) for sid, g in graphs.items()}


class TestCatalog:
    def test_parse_and_prefix_expansion(self):
        cat = parse_catalog(TWO_SOURCE_CATALOG)
        assert cat.client_id == "fed"
        left = cat.sources[0]
        assert left.id == "left"
        assert RDF_TYPE in left.predicates
        assert EX + "C" in left.classes

    def test_unknown_prefix_rejected(self):
        text = TWO_SOURCE_CATALOG.replace("rdf:type", "nope:type")
        with pytest.raises(FederationError,
                           match=r"sources\[0\]\.predicates: unknown prefix 'nope'"):
            parse_catalog(text)

    @pytest.mark.parametrize("key, old, new", [
        ("id", "  - id: left\n    endpoint:", "  - endpoint:"),
        ("endpoint", "    endpoint: 127.0.0.1:1\n", ""),
    ])
    def test_source_without_key_rejected(self, key, old, new):
        text = TWO_SOURCE_CATALOG.replace(old, new)
        with pytest.raises(FederationError, match=rf"sources\[0\]\.{key}: missing"):
            parse_catalog(text)

    @pytest.mark.parametrize("text", ["sources: [", "sources: 3", "sources: [x]",
                                      "prefixes: [a]\nsources: []"])
    def test_malformed_document_rejected(self, text):
        with pytest.raises(FederationError):
            parse_catalog(text)

    def test_empty_predicates_rejected(self):
        with pytest.raises(Exception):
            SourceDescription(id="x", endpoint="e", predicates=frozenset(),
                              classes=frozenset())

    def test_duplicate_source_ids_rejected(self):
        s = SourceDescription(id="x", endpoint="e",
                              predicates=frozenset({EX + "p"}),
                              classes=frozenset())
        with pytest.raises(Exception):
            FederationCatalog(sources=[s, s], client_id="c")

    @pytest.mark.parametrize("endpoint", ["localhost", "localhost:",
                                          ":39471", "h:x", "h:99999", "h:٣"])
    def test_endpoint_needs_host_and_port(self, endpoint):
        cat = parse_catalog(TWO_SOURCE_CATALOG.replace("127.0.0.1:2", f'"{endpoint}"'))
        with pytest.raises(CatalogError,
                           match=r"sources\[1\]\.endpoint: expected host:port"):
            build_clients(cat)

    def test_fixture_catalog(self, fixture_dir):
        cat = load_catalog(fixture_dir / "catalog.yaml")
        assert {s.id for s in cat.sources} == {"tso", "wiki"}
        wiki = {s.id: s for s in cat.sources}["wiki"]
        assert SUBCLASS_OF in wiki.predicates


class TestSelection:
    def test_predicate_routes_to_capable_source(self):
        cat = parse_catalog(TWO_SOURCE_CATALOG)
        q = parse_query("SELECT ?s WHERE { ?s <http://example.org/r> ?o . }")
        assert select_sources(q, cat) == {0: {"right"}}

    def test_type_pattern_routes_by_class(self):
        cat = parse_catalog(TWO_SOURCE_CATALOG)
        q = parse_query("SELECT ?s WHERE { ?s a <http://example.org/C> . }")
        assert select_sources(q, cat)[0] == {"left"}

    def test_variable_predicate_matches_all(self):
        cat = parse_catalog(TWO_SOURCE_CATALOG)
        q = parse_query("SELECT ?s WHERE { ?s ?p ?o . }")
        assert select_sources(q, cat)[0] == {"left", "right"}

    def test_unanswerable_pattern_raises(self):
        cat = parse_catalog(TWO_SOURCE_CATALOG)
        q = parse_query("SELECT ?s WHERE { ?s <http://example.org/nowhere> ?o . }")
        with pytest.raises(UnanswerablePatternError):
            select_sources(q, cat)

    def test_worked_example_selection(self, fixture_dir):
        cat = load_catalog(fixture_dir / "catalog.yaml")
        q = parse_query((fixture_dir / "queries" / "federated.rq").read_text())
        selection = select_sources(q, cat)
        tso_only = [i for i, s in selection.items() if s == {"tso"}]
        wiki_only = [i for i, s in selection.items() if s == {"wiki"}]
        assert len(tso_only) == 5
        assert len(wiki_only) == 1


class TestDecompose:
    def test_worked_example_plan(self, fixture_dir):
        cat = load_catalog(fixture_dir / "catalog.yaml")
        text = (fixture_dir / "queries" / "federated.rq").read_text()
        plan = plan_query(text, cat)
        doc = plan.to_dict()
        assert sorted(sq["patterns"] for sq in doc["subqueries"]) == [1, 5]
        assert len(doc["joins"]) == 1
        assert doc["joins"][0]["vars"] == ["productionType"]
        assert doc["joins"][0]["cartesian"] is False

    def test_single_source_degenerate(self):
        cat = parse_catalog(TWO_SOURCE_CATALOG)
        q = parse_query("SELECT ?s ?o WHERE { ?s <http://example.org/p> ?x . "
                        "?x <http://example.org/q> ?o . }")
        plan = decompose(q, select_sources(q, cat))
        assert len(plan.subqueries) == 1
        assert plan.subqueries[0].sources == ("left",)
        assert not plan.to_dict()["joins"]

    def test_each_pattern_in_exactly_one_subquery(self, fixture_dir):
        cat = load_catalog(fixture_dir / "catalog_full.yaml")
        rng = random.Random(31)
        g = genutil.random_graph(rng, 80)
        for _ in range(30):
            q = genutil.random_query(rng, g)
            try:
                plan = decompose(q, select_sources(q, cat))
            except UnanswerablePatternError:
                continue
            covered = Counter(p for sq in plan.subqueries for p in sq.query.patterns)
            assert covered == Counter(q.patterns)

    def test_cartesian_edge_flagged(self):
        cat = parse_catalog(TWO_SOURCE_CATALOG)
        q = parse_query("SELECT ?a ?b WHERE { ?a <http://example.org/p> ?x . "
                        "?b <http://example.org/r> ?y . }")
        plan = decompose(q, select_sources(q, cat))
        joins = plan.to_dict()["joins"]
        assert len(joins) == 1
        assert joins[0]["cartesian"]

    def test_filter_pushed_into_owning_subquery(self):
        cat = parse_catalog(TWO_SOURCE_CATALOG)
        q = parse_query('SELECT ?a WHERE { ?a <http://example.org/p> ?v . '
                        '?a <http://example.org/r> ?w . FILTER(?v > 3) }')
        plan = decompose(q, select_sources(q, cat))
        owners = [sq for sq in plan.subqueries if sq.query.filters]
        assert len(owners) == 1
        assert owners[0].sources == ("left",)
        assert q.filters[0] in owners[0].query.filters


class TestExecution:
    def test_worked_example_only_wind_survives(self, fixture_dir):
        cat = load_catalog(fixture_dir / "catalog.yaml")
        text = (fixture_dir / "queries" / "federated.rq").read_text()
        graphs = {
            "tso": parse_ntriples(
                (fixture_dir / "graphs" / "tso.nt").read_text()),
            "wiki": parse_ntriples(
                (fixture_dir / "graphs" / "reference.nt").read_text()),
        }
        result = federated_query(text, cat, clients=local_clients(**graphs))
        assert len(result) == 1
        row = result.rows[0]
        assert row["productionType"] == IRI(WIND_POWER)
        assert row["country"] == Literal("RS")

    def test_matches_centralized_evaluation(self, fixture_dir):
        # union of both graphs evaluated locally must equal the federation
        cat = load_catalog(fixture_dir / "catalog.yaml")
        text = (fixture_dir / "queries" / "federated.rq").read_text()
        tso = parse_ntriples((fixture_dir / "graphs" / "tso.nt").read_text())
        wiki = parse_ntriples(
            (fixture_dir / "graphs" / "reference.nt").read_text())
        union = Graph()
        for g in (tso, wiki):
            for t in g:
                union.insert(t)
        central = evaluate(parse_query(text), union)
        federated = federated_query(text, cat,
                                    clients=local_clients(tso=tso, wiki=wiki))
        assert genutil.bag(federated) == genutil.bag(central)

    def test_random_partitions_match_centralized(self):
        cat_text = """
        client_id: fed
        sources:
          - id: a
            endpoint: e1
            predicates: [%(p)s]
          - id: b
            endpoint: e2
            predicates: [%(p)s]
        """
        rng = random.Random(17)
        for trial in range(10):
            g = genutil.random_graph(rng, 120)
            preds = sorted({t.predicate.value for t in g} | {RDF_TYPE})
            cat = parse_catalog(cat_text % {"p": ", ".join(preds)})
            ga, gb = Graph(), Graph()
            for t in g:
                (ga if rng.random() < 0.5 else gb).insert(t)
            for _ in range(10):
                q = genutil.random_query(rng, g)
                central = genutil.bag(evaluate(q, g))
                fed = federated_query(format_query(q), cat,
                                      clients=local_clients(a=ga, b=gb))
                assert genutil.bag(fed) == central

    def test_hash_join_commutative(self):
        rng = random.Random(8)
        left = SolutionSequence(variables=["x", "y"], rows=[
            {"x": Literal(str(rng.randrange(5))),
             "y": Literal(str(rng.randrange(5)))} for _ in range(30)])
        right = SolutionSequence(variables=["y", "z"], rows=[
            {"y": Literal(str(rng.randrange(5))),
             "z": Literal(str(rng.randrange(5)))} for _ in range(30)])
        ab = hash_join(left, right, {"y"})
        ba = hash_join(right, left, {"y"})
        key = lambda seq: {tuple(sorted((k, v) for k, v in r.items()))
                           for r in seq.rows}
        assert key(ab) == key(ba)

    def test_cartesian_join_size(self):
        left = SolutionSequence(variables=["x"],
                                rows=[{"x": Literal(str(i))} for i in range(3)])
        right = SolutionSequence(variables=["y"],
                                 rows=[{"y": Literal(str(i))} for i in range(4)])
        assert len(hash_join(left, right, set())) == 12

    @settings(max_examples=300, deadline=None)
    @given(genutil.join_sides())
    def test_hash_join_is_the_nested_loop_join_as_a_bag(self, sides):
        # the commutativity test above compares sets; this counts each row
        left, right, shared = sides
        joined = hash_join(left, right, shared)
        assert joined.variables == list(dict.fromkeys(left.variables + right.variables))
        assert genutil.bag(joined) == genutil.nested_loop_join(left, right, shared)

    def test_a_source_without_a_client_is_a_federation_error(self):
        plan = plan_query("SELECT ?s WHERE { ?s <http://example.org/r> ?o . }",
                          parse_catalog(TWO_SOURCE_CATALOG))
        with pytest.raises(FederationError) as exc:
            execute_federated(plan, local_clients(left=Graph()))
        assert str(exc.value) == "no client for source 'right'"

    def test_filter_pushdown_equivalent_to_mediator_filter(self):
        cat = parse_catalog(TWO_SOURCE_CATALOG)
        ga = Graph()
        gb = Graph()
        rng = random.Random(23)
        for i in range(20):
            s = IRI(EX + f"s{i}")
            ga.insert(Triple(s, IRI(EX + "p"),
                             Literal(str(rng.randrange(10)),
                                     "http://www.w3.org/2001/XMLSchema#integer")))
            gb.insert(Triple(s, IRI(EX + "r"), Literal(f"tag{i % 3}")))
        text = ('SELECT ?s ?v WHERE { ?s <http://example.org/p> ?v . '
                '?s <http://example.org/r> ?w . FILTER(?v >= 5) }')
        clients = local_clients(left=ga, right=gb)
        fed = federated_query(text, cat, clients=clients)
        union = Graph()
        for g in (ga, gb):
            for t in g:
                union.insert(t)
        assert genutil.bag(fed) == genutil.bag(evaluate(parse_query(text), union))

    def test_bag_semantics_without_distinct(self):
        # ?s has two ?o values, so projecting ?s alone keeps two rows
        cat = parse_catalog(TWO_SOURCE_CATALOG)
        s = IRI(EX + "s")
        left = Graph()
        for o in ("o1", "o2"):
            left.insert(Triple(s, IRI(EX + "p"), IRI(EX + o)))
        left.insert(Triple(s, IRI(EX + "q"), IRI(EX + "x")))
        right = Graph()
        right.insert(Triple(s, IRI(EX + "r"), IRI(EX + "y")))
        union = Graph()
        for t in list(left) + list(right):
            union.insert(t)
        clients = local_clients(left=left, right=right)
        for text, rows in [
                ("SELECT ?s WHERE { ?s <http://example.org/p> ?o . "
                 "?s <http://example.org/q> ?x . }", 2),
                ("SELECT ?s WHERE { ?s <http://example.org/p> ?o . "
                 "?s <http://example.org/r> ?y . }", 2),
                ("SELECT DISTINCT ?s WHERE { ?s <http://example.org/p> ?o . "
                 "?s <http://example.org/r> ?y . }", 1)]:
            central = evaluate(parse_query(text), union)
            federated = federated_query(text, cat, clients=clients)
            assert len(central) == rows
            assert genutil.bag(federated) == genutil.bag(central), text

    def test_limit_applied_at_mediator(self):
        cat = parse_catalog(TWO_SOURCE_CATALOG)
        g = Graph()
        for i in range(10):
            g.insert(Triple(IRI(EX + f"s{i}"), IRI(EX + "p"), Literal(str(i))))
        clients = local_clients(left=g, right=Graph())
        res = federated_query(
            "SELECT ?s WHERE { ?s <http://example.org/p> ?o . } LIMIT 4",
            cat, clients=clients)
        assert len(res) == 4
