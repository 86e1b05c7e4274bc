import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import energyde
from energyde.rdf import BlankNode, Graph, IRI, Literal, Triple, parse_ntriples
from energyde.sparql import (Query, QueryParseError, SolutionSequence,
                             TriplePattern, UndeclaredPrefixError, Values,
                             Variable, _match_bgp, evaluate, format_query,
                             parse_query, serialize_results,
                             solutions_from_json, solutions_to_json, writable)
from energyde.vocab import (RDF_TYPE, RENEWABLE_ENERGY, SUBCLASS_OF,
                            WIND_POWER, XSD_DECIMAL, XSD_INTEGER)
from genutil import bag, brute_force, random_graph, random_query, with_values

EX = "http://example.org/"

SQ2_TEXT = """\
PREFIX wd:  <http://www.wikidata.org/entity/>
PREFIX wdt: <http://www.wikidata.org/prop/direct/>

SELECT DISTINCT ?productionType
WHERE {
?productionType     wdt:P279  wd:Q12705 .
}
"""


class TestParser:
    def test_sq2(self):
        q = parse_query(SQ2_TEXT)
        assert q.distinct
        assert q.projected == ("productionType",)
        assert len(q.patterns) == 1
        p = q.patterns[0]
        assert p.subject == Variable("productionType")
        assert p.predicate == IRI(SUBCLASS_OF)
        assert p.object == IRI(RENEWABLE_ENERGY)

    def test_full_federated_query(self, fixture_dir):
        text = (fixture_dir / "queries" / "federated.rq").read_text()
        q = parse_query(text)
        assert q.distinct
        assert len(q.patterns) == 6
        assert len(q.projected) == 3

    def test_published_listing_projects_unbound_variable(self, fixture_dir):
        # the published federated listing projects ?measure but binds
        # ?g_measure; kept verbatim here, rejected with a clear message
        text = (fixture_dir / "queries" / "federated_verbatim.rq").read_text()
        with pytest.raises(QueryParseError, match="measure"):
            parse_query(text)

    def test_select_star_projects_all_pattern_variables(self):
        q = parse_query("SELECT * WHERE { ?b <http://example.org/p> ?a . }")
        assert q.projected == ("a", "b")
        # a star query over an all-constant pattern projects nothing
        q = parse_query("SELECT * WHERE { <http://example.org/s> "
                        "<http://example.org/p> <http://example.org/o> . }")
        assert q.projected == ()
        assert format_query(q).startswith("SELECT *")

    def test_a_keyword_expands_to_rdf_type(self):
        q = parse_query("SELECT ?x WHERE { ?x a <http://example.org/C> . }")
        assert q.patterns[0].predicate == IRI(RDF_TYPE)

    def test_undeclared_prefix_named(self):
        with pytest.raises(UndeclaredPrefixError) as exc:
            parse_query("SELECT ?x WHERE { ?x nope:p ?y . }")
        assert exc.value.prefix == "nope"

    def test_prefixes_expanded_at_parse_time(self):
        q = parse_query("PREFIX ex: <http://example.org/>\n"
                        "SELECT ?x WHERE { ?x ex:p ex:o . }")
        assert q.patterns[0].predicate == IRI("http://example.org/p")
        assert q.patterns[0].object == IRI("http://example.org/o")

    def test_dollar_and_question_same_variable(self):
        q = parse_query("SELECT ?x WHERE { $x <http://example.org/p> ?y . }")
        assert q.patterns[0].subject == Variable("x")

    def test_filter_and_limit(self):
        q = parse_query('SELECT ?x ?v WHERE { ?x <http://example.org/p> ?v . '
                        'FILTER(?v >= 10) } LIMIT 5')
        assert q.limit == 5
        assert q.filters[0].op == ">="
        assert q.filters[0].constant == Literal("10", XSD_INTEGER)

    def test_syntax_error_reports_position(self):
        with pytest.raises(QueryParseError, match="offset"):
            parse_query("SELECT ?x WHERE { ?x ?p . }")

    @pytest.mark.parametrize("literal, message", [
        ('"x"^^<http://www.w3.org/1999/02/22-rdf-syntax-ns#langString>', "language tag"),
        ('"x"^^<no-scheme>', "scheme"),
    ])
    def test_literal_that_rdf_rejects_is_a_parse_error(self, literal, message):
        with pytest.raises(QueryParseError, match=message):
            parse_query(f"SELECT ?s WHERE {{ ?s <http://example.org/p> {literal} . }}")

    def test_projected_variable_must_occur(self):
        with pytest.raises(QueryParseError, match="ghost"):
            parse_query("SELECT ?ghost WHERE { ?x <http://example.org/p> ?y . }")

    def test_fixpoint_on_fixture_queries(self, fixture_dir):
        for name in ("federated.rq", "sq1.rq", "sq2.rq", "rq4_federated.rq",
                     "bids.rq", "health.rq"):
            text = (fixture_dir / "queries" / name).read_text()
            q1 = parse_query(text)
            q2 = parse_query(format_query(q1))
            assert (q1.projected, q1.distinct, q1.patterns, q1.filters,
                    q1.limit) == (q2.projected, q2.distinct, q2.patterns,
                                  q2.filters, q2.limit)

    def test_fixpoint_on_generated_queries(self):
        rng = random.Random(11)
        g = random_graph(rng, 100)
        for _ in range(100):
            q1 = random_query(rng, g)
            q2 = parse_query(format_query(q1))
            assert q1 == q2


class TestEvaluate:
    def test_sq1_fixture_two_rows(self):
        # hand-enumerable fixture: one 2020 wind capacity, one 2020 coal
        text = """
        <http://w3id.org/energy/capacity/RS/WindPower/2020> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://w3id.org/energy/GenerationCapacity> .
        <http://w3id.org/energy/capacity/RS/WindPower/2020> <http://w3id.org/energy/productionType> <http://w3id.org/energy/WindPower> .
        <http://w3id.org/energy/capacity/RS/WindPower/2020> <http://w3id.org/energy/country> "RS" .
        <http://w3id.org/energy/capacity/RS/WindPower/2020> <http://w3id.org/energy/measure> "320" .
        <http://w3id.org/energy/capacity/RS/WindPower/2020> <http://w3id.org/energy/agg_year> "2020" .
        <http://w3id.org/energy/capacity/RS/Coal/2020> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://w3id.org/energy/GenerationCapacity> .
        <http://w3id.org/energy/capacity/RS/Coal/2020> <http://w3id.org/energy/productionType> <http://w3id.org/energy/Coal> .
        <http://w3id.org/energy/capacity/RS/Coal/2020> <http://w3id.org/energy/country> "RS" .
        <http://w3id.org/energy/capacity/RS/Coal/2020> <http://w3id.org/energy/measure> "4500" .
        <http://w3id.org/energy/capacity/RS/Coal/2020> <http://w3id.org/energy/agg_year> "2020" .
        """
        graph = parse_ntriples("\n".join(l.strip() for l in text.splitlines()))
        sq1 = """
        PREFIX energy: <http://w3id.org/energy/>
        SELECT DISTINCT ?country ?productionType ?measure
        WHERE {
          ?genCapacity a energy:GenerationCapacity .
          ?genCapacity energy:productionType ?productionType .
          ?genCapacity energy:country ?country .
          ?genCapacity energy:measure ?measure .
          ?genCapacity energy:agg_year "2020" .
        }
        """
        assert len(evaluate(parse_query(sq1), graph)) == 2

    def test_empty_graph_zero_rows(self):
        q = parse_query("SELECT ?x WHERE { ?x <http://example.org/p> ?y . }")
        assert len(evaluate(q, Graph())) == 0

    def test_distinct_matches_nested_loop_oracle(self):
        rng = random.Random(5)
        g = random_graph(rng, 150)
        for _ in range(50):
            q = random_query(rng, g)
            assert bag(evaluate(q, g)) == brute_force(q, g)

    def test_filter_never_introduces_bindings(self):
        rng = random.Random(9)
        g = random_graph(rng, 150)
        checked = 0
        for _ in range(100):
            q = random_query(rng, g, allow_filters=True)
            if not q.filters:
                continue
            unfiltered = type(q)(projected=q.projected, distinct=q.distinct,
                                 patterns=q.patterns, filters=())
            assert bag(evaluate(q, g)) <= bag(evaluate(unfiltered, g))
            checked += 1
        assert checked > 10

    def test_numeric_filter_value_space(self):
        g = parse_ntriples(
            '<http://example.org/a> <http://example.org/v> '
            '"9"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
            '<http://example.org/b> <http://example.org/v> '
            '"10"^^<http://www.w3.org/2001/XMLSchema#integer> .\n')
        q = parse_query('SELECT ?x WHERE { ?x <http://example.org/v> ?v . '
                        'FILTER(?v < 10) }')
        rows = evaluate(q, g).rows
        assert [r["x"].value for r in rows] == ["http://example.org/a"]

    def test_numeric_filter_exact_beyond_float_precision(self):
        # 2**53 + 1 and 2**53 are the same float but different integers
        g = parse_ntriples('<http://example.org/a> <http://example.org/v> '
                           '"9007199254740993"^^<http://www.w3.org/2001/'
                           'XMLSchema#integer> .\n')

        def rows(op):
            q = parse_query('SELECT ?x WHERE { ?x <http://example.org/v> ?v . '
                            f'FILTER(?v {op} 9007199254740992) }}')
            return len(evaluate(q, g))

        assert rows("=") == 0
        assert rows("!=") == 1
        assert rows(">") == 1

    def test_numeric_filter_nan_and_infinity(self):
        xsd_double = "http://www.w3.org/2001/XMLSchema#double"
        g = parse_ntriples(
            f'<http://example.org/nan> <http://example.org/v> "NaN"^^<{xsd_double}> .\n'
            f'<http://example.org/inf> <http://example.org/v> "INF"^^<{xsd_double}> .\n'
            f'<http://example.org/bad> <http://example.org/v> "x1"^^<{xsd_double}> .\n')

        def matches(op, constant):
            q = parse_query('SELECT ?x WHERE { ?x <http://example.org/v> ?v . '
                            f'FILTER(?v {op} {constant}) }}')
            return sorted(r["x"].value.rsplit("/", 1)[1]
                          for r in evaluate(q, g).rows)

        # an ordered compare with NaN is false, never an error
        for op in ("<", "<=", ">", ">="):
            assert "nan" not in matches(op, 1)
        assert matches(">", 1) == ["inf"]
        assert matches("=", 1) == []
        # NaN equals nothing, so it differs from everything
        assert matches("!=", 1) == ["inf", "nan"]
        assert matches("=", f'"NaN"^^<{xsd_double}>') == []
        # an unparseable lexical form matches no numeric comparison
        assert "bad" not in matches("!=", 1)

    def test_lexical_filter_for_strings(self):
        g = parse_ntriples('<http://example.org/a> <http://example.org/v> "9" .\n'
                           '<http://example.org/b> <http://example.org/v> "10" .\n')
        q = parse_query('SELECT ?x WHERE { ?x <http://example.org/v> ?v . '
                        'FILTER(?v < "10") }')
        # lexical comparison: "10" is not greater than "9"
        assert len(evaluate(q, g)) == 0

    def test_limit_truncates_after_distinct(self):
        g = random_graph(random.Random(2), 100)
        q = parse_query('SELECT ?s WHERE { ?s ?p ?o . } LIMIT 3')
        assert len(evaluate(q, g)) == 3


class TestValues:
    PREFIX = "PREFIX ex: <http://example.org/>\n"

    def test_terms_are_the_constants_a_pattern_may_hold(self):
        q = parse_query(self.PREFIX + 'SELECT ?s WHERE { ?s ex:p ?o . VALUES ?o '
                        '{ ex:a <http://example.org/b> "x" "y"@en "1"^^ex:t 2 3.5 _:n ex:a } }')
        assert q.values == Values(Variable("o"), (
            IRI(EX + "a"), IRI(EX + "b"), Literal("x"), Literal("y", lang="en"),
            Literal("1", EX + "t"), Literal("2", XSD_INTEGER),
            Literal("3.5", XSD_DECIMAL), BlankNode("n"), IRI(EX + "a")))
        assert parse_query(format_query(q)) == q

    def test_fixpoint_on_generated_queries_with_values(self):
        rng = random.Random(12)
        g = random_graph(rng, 100)
        for _ in range(100):
            q1 = with_values(rng, g, random_query(rng, g))
            q2 = parse_query(format_query(q1))
            assert q1 == q2 and q2.values == q1.values

    @pytest.mark.parametrize("where, message", [
        ("?s ex:p ?o . VALUES ?x { 1 }", r"VALUES variable \?x appears in no pattern"),
        ("?s ex:p ?o . FILTER(?x = 1) VALUES ?x { 1 }", "VALUES variable"),
        ("?s ex:p ?o . VALUES ?o { ?s }", "expected RDF term"),
        ("?s ex:p ?o . VALUES ?o { 1 } VALUES ?o { 2 }", "one VALUES block"),
        ("?s ex:p ?o . VALUES (?o) { (1) }", "expected variable"),
        ("?s ex:p ?o . VALUES ?o { 1 ", "end of input"),
        ("?s ex:p ?o . VALUES ?o { nope:x }", "undeclared prefix"),
    ])
    def test_malformed_values_rejected(self, where, message):
        with pytest.raises(QueryParseError, match=message):
            parse_query(self.PREFIX + "SELECT ?s WHERE { " + where + " }")

    def test_repeated_value_repeats_its_rows(self):
        g = Graph([Triple(IRI(EX + f"s{i}"), IRI(EX + "p"), Literal(str(i % 3)))
                   for i in range(6)])
        q = parse_query(self.PREFIX + 'SELECT ?s WHERE { ?s ex:p ?o . '
                        'VALUES ?o { "0" "1" "0" "9" ex:p } }')
        got = bag(evaluate(q, g))
        assert got == brute_force(q, g)
        assert got == Counter({(IRI(EX + "s0"),): 2, (IRI(EX + "s3"),): 2,
                               (IRI(EX + "s1"),): 1, (IRI(EX + "s4"),): 1})
        distinct = parse_query(self.PREFIX + 'SELECT DISTINCT ?s WHERE { ?s ex:p ?o . '
                               'VALUES ?o { "0" "0" } }')
        assert bag(evaluate(distinct, g)) == Counter({(IRI(EX + "s0"),): 1,
                                                      (IRI(EX + "s3"),): 1})

    @pytest.mark.parametrize("block", ["{ }", '{ "absent" }'])
    def test_no_listed_term_in_the_graph_matches_nothing(self, block):
        g = random_graph(random.Random(3), 50)
        q = parse_query(f"SELECT ?s WHERE {{ ?s ?p ?o . VALUES ?o {block} }}")
        assert len(evaluate(q, g)) == 0 == sum(brute_force(q, g).values())

    def test_evaluate_matches_brute_force(self):
        rng = random.Random(41)
        queries = 0
        for _ in range(8):
            g = random_graph(rng, rng.randrange(50, 300))
            for _ in range(40):
                q = with_values(rng, g, random_query(rng, g))
                assert bag(evaluate(q, g)) == brute_force(q, g), format_query(q)
                queries += 1
        assert queries == 320

    def test_rows_are_cut_where_the_variable_is_bound(self):
        # the pattern after the one that binds ?t probes only the kept rows
        class LeafProbes(Graph):
            probes = 0

            def leaf(self, p, o=None):
                probe = super().leaf(p, o)

                def counted(s):
                    self.probes += 1
                    return probe(s)
                return counted

        g = LeafProbes()
        for i in range(40):
            s = IRI(EX + f"s{i}")
            g.insert(Triple(s, IRI(EX + "type"), IRI(EX + f"T{i % 10}")))
            g.insert(Triple(s, IRI(EX + "v"), Literal(str(i))))
        text = self.PREFIX + "SELECT ?v WHERE { ?s ex:type ?t . ?s ex:v ?v . }"
        assert len(evaluate(parse_query(text), g)) == 40 == g.probes
        g.probes = 0
        bound = text.replace(". }", ". VALUES ?t { ex:T1 ex:T2 } }")
        assert len(evaluate(parse_query(bound), g)) == 8 == g.probes

    def test_writable(self):
        assert writable(IRI(EX + "a")) and writable(BlankNode("b.1"))
        assert writable(Literal('a "quoted"\nline')) and writable(Literal("x", lang="en-GB"))
        assert not writable(IRI(EX + "{a}"))
        assert not writable(BlankNode("b\u00e9"))
        assert not writable(Literal("x", lang="en_GB"))
        assert not writable(Literal("x", EX + "t|u"))


class _ProbeCountingGraph(Graph):
    """Counts how ``_match_bgp`` joins each pattern: by an SPO or OSP leaf
    probe, or through ``match_ids``."""

    def __init__(self, triples, counts):
        super().__init__(triples)
        self.counts = counts

    def leaf(self, p, o=None):
        self.counts["spo leaf" if o is None else "osp leaf"] += 1
        return super().leaf(p, o)

    def match_ids(self, s=None, p=None, o=None):
        self.counts["match_ids"] += 1
        return super().match_ids(s, p, o)


def _random_bgp(rng, triples, variables=("x", "y", "z")):
    """One to four patterns seeded from real triples.  A position keeps its
    constant or becomes a variable, so BGPs bind subjects shared by several
    patterns (star joins), constant objects, constant subjects, variable
    predicates and repeated variables."""
    patterns = []
    for _ in range(rng.randrange(1, 5)):
        base = rng.choice(triples)
        s = Variable(rng.choice(variables)) if rng.random() < 0.75 else base.subject
        p = Variable("w") if rng.random() < 0.1 else base.predicate
        o = Variable(rng.choice(variables)) if rng.random() < 0.5 else base.object
        patterns.append(TriplePattern(s, p, o))
    names = tuple(sorted({v for pattern in patterns for v in pattern.variables()}))
    return Query(projected=names, distinct=False, patterns=tuple(patterns))


class TestBgpProbes:
    def test_match_bgp_equals_nested_loop_oracle(self):
        # a small, dense graph: self-loops and shared objects are common
        rng = random.Random(17)
        nodes = [IRI(f"http://example.org/n{i}") for i in range(6)]
        values = nodes + [Literal(str(i)) for i in range(3)] + [BlankNode("b")]
        counts = Counter()
        graph = _ProbeCountingGraph(
            {Triple(rng.choice(nodes[:5] + [BlankNode("b")]),
                    IRI(f"http://example.org/p{rng.randrange(3)}"),
                    rng.choice(values)) for _ in range(70)}, counts)
        triples = list(graph)
        shapes = Counter()
        for _ in range(400):
            query = _random_bgp(rng, triples)
            columns, rows = _match_bgp(query, graph)
            got = Counter()
            if rows:        # an empty answer may stop before every column
                order = [columns.index(v) for v in query.projected]
                got.update(tuple(graph.terms[row[i]] for i in order) for row in rows)
            assert got == brute_force(query, graph), format_query(query)
            for pattern in query.patterns:
                names = [t.name for t in pattern if isinstance(t, Variable)]
                shapes["repeated variable"] += len(names) != len(set(names))
                shapes["constant subject"] += not isinstance(pattern.subject, Variable)
        # every way of joining a pattern was exercised on rows (the join
        # stops at the first pattern that leaves none)
        assert min(counts["spo leaf"], counts["osp leaf"]) >= 25, counts
        assert counts["match_ids"] >= 400, counts
        assert min(shapes.values()) >= 30 and len(shapes) == 2, shapes


_LIMIT_SCRIPT = """
import json, random
from energyde.connector.client import LocalClient
from energyde.connector.messages import digest
from energyde.federation import federated_query, parse_catalog
from energyde.rdf import Graph, format_term
from energyde.sparql import evaluate, parse_query, solutions_to_json
from genutil import random_graph

graph = random_graph(random.Random(2), 300)
parts = [Graph(), Graph()]
for i, t in enumerate(sorted(graph, key=lambda t: tuple(map(format_term, t)))):
    parts[i % 2].insert(t)
predicates = ", ".join(sorted({t.predicate.value for t in graph}))
catalog = parse_catalog("sources:\\n" + "".join(
    f"  - {{id: s{i}, endpoint: none, predicates: [{predicates}]}}\\n"
    for i in range(2)))
clients = {f"s{i}": LocalClient(parts[i], source_id=f"s{i}") for i in range(2)}

def answer(solutions):
    return [[format_term(row[v]) if v in row else None
             for v in solutions.variables] for row in solutions.rows]

out = {}
for text in ["SELECT ?s ?o WHERE { ?s ?p ?o . } LIMIT 3",
             "SELECT ?s WHERE { ?s <http://example.org/p0> ?o . "
             "?s <http://example.org/p1> ?x . } LIMIT 3"]:
    central = evaluate(parse_query(text), graph)
    federated = federated_query(text, catalog, clients=clients)
    out[text] = {"central": answer(central), "federated": answer(federated),
                 "digest": digest(solutions_to_json(central))}
print(json.dumps(out))
"""


class TestDeterministicLimit:
    def test_limit_rows_and_digest_independent_of_hash_seed(self):
        paths = [str(Path(energyde.__file__).parents[1]),
                 str(Path(__file__).parent)]
        outputs = []
        for seed in ("1", "2", "3", "4"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(paths))
            done = subprocess.run([sys.executable, "-c", _LIMIT_SCRIPT],
                                  env=env, capture_output=True, text=True,
                                  timeout=60)
            assert done.returncode == 0, done.stderr
            outputs.append(json.loads(done.stdout))
        assert all(out == outputs[0] for out in outputs[1:])
        for answer in outputs[0].values():
            assert len(answer["central"]) == 3
            # LIMIT keeps the same rows, in the same order, when federated
            assert answer["federated"] == answer["central"]


class TestResults:
    def test_empty_with_header(self):
        doc = solutions_to_json(SolutionSequence(variables=["x"], rows=[]))
        assert doc == {"head": {"vars": ["x"]}, "results": {"bindings": []}}

    def test_single_iri_binding(self):
        doc = solutions_to_json(SolutionSequence(
            variables=["x"], rows=[{"x": IRI("http://example.org/a")}]))
        assert doc["results"]["bindings"] == [
            {"x": {"type": "uri", "value": "http://example.org/a"}}]

    def test_sq2_fixture_answer_is_wind_power(self, fixture_dir):
        g = parse_ntriples((fixture_dir / "graphs" / "reference.nt").read_text())
        q = parse_query((fixture_dir / "queries" / "sq2.rq").read_text())
        doc = solutions_to_json(evaluate(q, g))
        assert doc["results"]["bindings"] == [
            {"productionType": {"type": "uri", "value": WIND_POWER}}]

    def test_rows_sorted_for_determinism(self):
        rows = [{"x": Literal("b")}, {"x": Literal("a")}]
        out = serialize_results(SolutionSequence(variables=["x"], rows=rows))
        doc = json.loads(out)
        values = [b["x"]["value"] for b in doc["results"]["bindings"]]
        assert values == sorted(values)

    def test_json_round_trip(self):
        rng = random.Random(4)
        g = random_graph(rng, 80)
        q = random_query(rng, g)
        sols = evaluate(q, g)
        back = solutions_from_json(solutions_to_json(sols))
        assert bag(back) == bag(sols)
        g.insert(Triple(BlankNode("b0"), IRI("http://example.org/p0"),
                        Literal("x", lang="en")))
        sols = evaluate(parse_query("SELECT ?s ?p ?o WHERE { ?s ?p ?o . }"), g)
        back = solutions_from_json(solutions_to_json(sols))
        assert bag(back) == bag(sols)
        assert solutions_to_json(back) == solutions_to_json(sols)
        # one term object per distinct binding, shared by every row
        cells = [term for row in back.rows for term in row.values()]
        assert len({id(term) for term in cells}) == len(set(cells)) < len(cells)

    def test_typed_and_lang_literals(self):
        sols = SolutionSequence(variables=["v"], rows=[
            {"v": Literal("320", XSD_INTEGER)}])
        doc = solutions_to_json(sols)
        assert doc["results"]["bindings"][0]["v"]["datatype"] == XSD_INTEGER
        sols = SolutionSequence(variables=["v"], rows=[
            {"v": Literal("ja", lang="de")}])
        doc = solutions_to_json(sols)
        assert doc["results"]["bindings"][0]["v"]["xml:lang"] == "de"
