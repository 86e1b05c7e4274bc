import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import energyde
from energyde.rdf import (BlankNode, Graph, IRI, Literal, RdfError, Triple,
                          format_term, parse_ntriples)
from energyde.sparql import (Query, QueryParseError, SolutionSequence,
                             TriplePattern, UndeclaredPrefixError, Values,
                             Variable, _match_bgp, evaluate, format_query,
                             parse_query, serialize_results,
                             solutions_from_json, solutions_to_json)
from energyde.vocab import (RDF_TYPE, RENEWABLE_ENERGY, SUBCLASS_OF,
                            WIND_POWER, XSD_DECIMAL, XSD_INTEGER)
from genutil import (bag, brute_force, oracle_ids_document, oracle_solutions_to_json,
                     random_graph, random_query, with_values)

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

    def test_a_local_name_does_not_end_in_a_dot(self):
        q = parse_query("PREFIX ex: <http://example.org/>\n"
                        "SELECT ?s WHERE { ?s ex:p ex:o. ?s ex:q ex:a.b }")
        assert q.patterns == (
            TriplePattern(Variable("s"), IRI(EX + "p"), IRI(EX + "o")),
            TriplePattern(Variable("s"), IRI(EX + "q"), IRI(EX + "a.b")))

    @pytest.mark.parametrize("label", ["_", "1x", "ex."])
    def test_a_prefix_label_starts_with_a_letter_and_ends_in_no_dot(self, label):
        with pytest.raises(QueryParseError):
            parse_query(f"PREFIX {label}: <http://example.org/> "
                        f"SELECT ?s WHERE {{ ?s {label}: ?o }}")

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

    # a string literal's escapes are N-Triples' own: a UCHAR is exactly four
    # or eight hex digits, and its code point is no surrogate
    @pytest.mark.parametrize("body, message", [
        (r"x\u+041y", r"bad \\u escape"), (r"x\u 041y", r"bad \\u escape"),
        (r"x\u0_41y", r"bad \\u escape"), (r"x\U+0000041y", r"bad \\U escape"),
        (r"a\uD800b", "surrogate"), (r"a\uD83D\uDE00b", "surrogate"),
        ("a\udfffb", "surrogate")])
    def test_escape_that_rdf_refuses_is_a_parse_error(self, body, message):
        text = f'SELECT ?s WHERE {{ ?s <http://example.org/p> "{body}" . }}'
        with pytest.raises(QueryParseError, match=message) as exc:
            parse_query(text)
        # the fault is placed at the string token, as every query fault is
        offset = text.index('"')
        assert str(exc.value).startswith(f"at offset {offset}: ")

    def test_unknown_escape_is_placed_at_its_string(self):
        with pytest.raises(QueryParseError) as exc:
            parse_query(r'SELECT ?s WHERE { ?s <urn:p> "a\qb" }')
        assert str(exc.value) == r"at offset 29: unknown escape \q"

    def test_escape_beyond_the_basic_plane_is_one_character(self):
        q = parse_query(r'SELECT ?s WHERE { ?s <http://example.org/p> "\U0001F600" . }')
        assert q.patterns[0].object == Literal("\U0001F600")

    @pytest.mark.parametrize("text, message", [
        # the prefixed name expands to "urnp", which has no scheme
        ("PREFIX ex: <urn> SELECT ?s WHERE { ?s ex:p ?o }", "scheme"),
        # a blank node needs a label, and "_" is no prefix label
        ("SELECT ?s WHERE { ?s <http://example.org/p> _: }", "unexpected character ':'"),
    ])
    def test_term_that_rdf_rejects_is_a_parse_error(self, text, message):
        with pytest.raises(QueryParseError, match=message):
            parse_query(text)

    # each thing the parser can expect, and the token it got instead
    @pytest.mark.parametrize("text, message", [
        ("PREFIX ex: ex SELECT ?s WHERE { ?s ?p ?o }",
         "at offset 11: expected IRI, got 'ex'"),
        ("SELECT WHERE { ?s ?p ?o }",
         "at offset 7: expected projected variable or *, got 'WHERE'"),
        ("SELECT ?s WHERE { ?s ?p ?o } LIMIT 1.5",
         "at offset 35: expected non-negative integer, got '1.5'"),
        ("SELECT ?s WHERE { ?s ?p ?o } ?x",
         "at offset 29: expected end of query, got '?x'"),
        ("SELECT ?s WHERE { ?s ?p ?o FILTER(1 > 2) }",
         "at offset 34: expected variable, got '1'"),
        ("SELECT ?s WHERE { ?s ?p ?o VALUES { 1 } }",
         "at offset 34: expected variable, got '{'"),
        ("SELECT ?s WHERE { ?s ?p ?o FILTER(?o ?x) }",
         "at offset 37: expected comparison operator, got '?x'"),
        ('SELECT ?s WHERE { ?s ?p "1"^^?x }',
         "at offset 29: expected datatype IRI, got '?x'"),
        ("SELECT ?s ?p ?o }", "at offset 16: expected '{', got '}'"),
    ], ids=["prefix-iri", "projection", "limit", "end", "filter-variable",
            "values-variable", "operator", "datatype", "brace"])
    def test_parse_error_names_what_was_expected(self, text, message):
        with pytest.raises(QueryParseError) as exc:
            parse_query(text)
        assert str(exc.value) == message

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

            def leaves(self, p, subjects):
                subjects = list(subjects)
                self.probes += len(subjects)
                return super().leaves(p, subjects)

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

    def test_values_join_at_the_first_pattern_that_uses_them(self, monkeypatch):
        # the VALUES variable counts as bound when the patterns are ordered,
        # and a pattern on it is estimated by the listed terms' triples: a
        # star is cut at its second pattern, and a seed on the variable
        # matches the listed terms only
        sizes = []
        join_pattern = energyde.sparql._join_pattern

        def joining(solutions, pattern, graph):
            before = solutions.size
            join_pattern(solutions, pattern, graph)
            sizes.append((before, solutions.size))

        monkeypatch.setattr(energyde.sparql, "_join_pattern", joining)
        g = Graph()
        for i in range(40):
            s = IRI(EX + f"s{i}")
            g.insert(Triple(s, IRI(RDF_TYPE), IRI(EX + "C")))
            g.insert(Triple(s, IRI(EX + "type"), IRI(EX + f"T{i % 10}")))
            g.insert(Triple(s, IRI(EX + "year"), Literal(str(2020 + i % 2))))
        for where, joins in [
                # ex:year "2020" (20 triples) seeds, against 6 x 4 listed
                ('?s a ex:C . ?s ex:type ?t . ?s ex:year "2020" . '
                 'VALUES ?t { ex:T1 ex:T2 ex:T3 ex:T4 ex:T5 ex:T6 }',
                 [(1, 20), (20, 20), (12, 12)]),
                ('?s ex:year "2021" . ?s ex:type ?t . VALUES ?t { ex:T1 ex:T3 }',
                 [(2, 8), (8, 8)])]:
            sizes.clear()
            q = parse_query(self.PREFIX + f"SELECT ?s WHERE {{ {where} }}")
            assert bag(evaluate(q, g)) == brute_force(q, g)
            assert sizes == joins


# the characters the term grammar admits, excludes, or admits in one
# place only: ":" is no blank node character, "\u00b7" none that starts a
# label, and "\u2028" is a line separator
_TERM_ALPHABET = 'aZ09_-.:/#@ {|}^`\\<>"\t\u00e9\u00b7\u0300\u2028\x85\x00'
_TERM_MAKERS = {
    "IRI": IRI,
    "IRI after a scheme": lambda text: IRI(EX + text),
    "blank node": BlankNode,
    "lexical form": Literal,
    "language tag": lambda text: Literal("v", lang=text),
    "datatype": lambda text: Literal("v", EX + text),
}


@settings(max_examples=600)
@given(st.sampled_from(sorted(_TERM_MAKERS)), st.text(alphabet=_TERM_ALPHABET, max_size=10))
@example("blank node", "b\u00e9.1")
@example("language tag", "en-GB")
@example("IRI after a scheme", "{a}")
@example("blank node", "a b")
@example("blank node", "a:b")
@example("language tag", "en_GB")
def test_a_term_rdf_makes_is_read_back_from_its_text(kind, text):
    """Each constructor refuses the text, or the term it makes is written
    and read back as itself: as N-Triples, and in a query's VALUES block."""
    try:
        term = _TERM_MAKERS[kind](text)
    except RdfError:
        return
    triple = Triple(IRI(EX + "s"), IRI(EX + "p"), term)
    assert parse_ntriples(f"<{EX}s> <{EX}p> {format_term(term)} .\n") == Graph([triple])
    query = Query(projected=("x",), distinct=False,
                  patterns=(TriplePattern(Variable("x"), IRI(EX + "p"), Variable("y")),),
                  values=Values(Variable("x"), (term,)))
    assert parse_query(format_query(query)) == query


class _ProbeCountingGraph(Graph):
    """Counts how ``_match_bgp`` joins each pattern: through ``leaves`` on
    its bound subject column, for a constant object or for an object
    variable (the subjects passed), or through ``match_ids`` (the calls).
    ``joining`` is the encoded pattern being joined."""

    joining = None

    def __init__(self, triples, counts):
        super().__init__(triples)
        self.counts = counts

    def leaves(self, p, subjects):
        subjects = list(subjects)
        constant = isinstance(self.joining[2], int)
        self.counts["leaves, constant object" if constant
                    else "leaves, object variable"] += len(subjects)
        return super().leaves(p, subjects)

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
    def test_match_bgp_equals_nested_loop_oracle(self, monkeypatch):
        join_pattern = energyde.sparql._join_pattern

        def joining(solutions, pattern, graph):
            graph.joining = pattern
            return join_pattern(solutions, pattern, graph)

        monkeypatch.setattr(energyde.sparql, "_join_pattern", joining)
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
        assert min(counts["leaves, object variable"],
                   counts["leaves, constant object"]) >= 25, \
            counts
        assert counts["match_ids"] >= 400, counts
        assert min(shapes.values()) >= 30 and len(shapes) == 2, shapes


_WIDE_NODES = [IRI(f"{EX}n{i}") for i in range(6)]
_WIDE_OBJECTS = _WIDE_NODES + [Literal(str(i)) for i in range(3)]
# up to 50 predicates: a pattern that binds its subject but not its
# predicate reads every predicate's table
_wide_triple = st.builds(Triple, subject=st.sampled_from(_WIDE_NODES),
                         predicate=st.integers(0, 49).map(lambda i: IRI(f"{EX}p{i}")),
                         object=st.sampled_from(_WIDE_OBJECTS))


@settings(max_examples=150)
@given(st.lists(_wide_triple, min_size=1, max_size=80), st.data())
def test_bound_subject_with_a_variable_predicate_matches_brute_force(triples, data):
    """A subject bound by a constant or by an earlier pattern, with a
    variable predicate and a constant, variable or repeated object: the
    answer is the brute-force bag, and ``count_ids`` agrees with
    ``match_ids`` on the pattern's bound positions."""
    g = Graph(triples)
    subject = data.draw(st.sampled_from(_WIDE_NODES))
    obj = data.draw(st.sampled_from(_WIDE_OBJECTS))
    seed = TriplePattern(Variable("s"), data.draw(st.sampled_from(triples)).predicate,
                         Variable("x"))
    for s, o in [(subject, Variable("o")), (subject, obj), (subject, Variable("p")),
                 (Variable("s"), Variable("o")), (Variable("s"), obj),
                 (Variable("s"), Variable("x"))]:
        patterns = (TriplePattern(s, Variable("p"), o),)
        if isinstance(s, Variable):
            patterns = (seed,) + patterns
        names = tuple(sorted({v for pattern in patterns for v in pattern.variables()}))
        q = Query(projected=names, distinct=False, patterns=patterns)
        assert bag(evaluate(q, g)) == brute_force(q, g), format_query(q)
    sid, oid = g.term_id(subject), g.term_id(obj)
    for o in {None, oid} if sid is not None else ():
        assert g.count_ids(sid, None, o) == len(g.match_ids(sid, None, o)) == sum(
            t.subject == subject and (o is None or t.object == obj) for t in set(triples))


def _star_graph() -> Graph:
    """Stars with a multi-valued leaf (s0's ex:p), a shared object (s0 and
    s2 have ex:q equal to ex:p), a self-loop (s3), and link targets that
    are no subject of any triple (a literal, ex:nowhere)."""
    lines = """
        s0 type T . s1 type T . s2 type T . s3 type T . s4 type U .
        s0 p a . s0 p b . s0 p c . s1 p a . s2 p c . s3 p s3 . s4 p a .
        s0 q a . s1 q c . s2 q c . s3 q a .
        a r a . c r b . s5 r zzz .
        s0 link s1 . s1 link s2 . s2 link nowhere . s3 link a . s4 link s0 .
    """.split(" .")
    g = Graph()
    for line in filter(str.strip, lines):
        s, p, o = line.split()
        g.insert(Triple(IRI(EX + s), IRI(EX + p), IRI(EX + o)))
    g.insert(Triple(IRI(EX + "s1"), IRI(EX + "link"), Literal("lit")))
    return g


class TestColumnarJoin:
    PREFIX = "PREFIX ex: <http://example.org/>\n"

    @pytest.mark.parametrize("where, rows", [
        # a multi-valued leaf inside a star repeats its row per object
        ("?s ex:type ex:T . ?s ex:p ?x . ?s ex:q ?y .", 6),
        # a star cut to a VALUES block that lists a term twice
        ("?s ex:type ex:T . ?s ex:p ?x . ?s ex:q ?y . VALUES ?x { ex:a ex:c ex:a }", 6),
        ("?s ex:p ?x . VALUES ?s { ex:s0 ex:s0 ex:s9 ex:s4 }", 7),
        # an object bound by an earlier pattern of the star
        ("?s ex:p ?x . ?s ex:q ?x .", 2),
        ("?s ex:p ?x . ?s ex:q ?x . ?x ex:r ?x .", 1),
        # ?s ex:p ?s, as the seed and on a subject already bound
        ("?s ex:p ?s .", 1),
        ("?s ex:type ex:T . ?s ex:p ?s .", 1),
        # a subject first bound as an object; a literal, ex:nowhere and
        # ex:b are the subject of no triple
        ("?a ex:link ?s . ?s ex:p ?o .", 5),
        ("?a ex:link ?s . ?s ex:type ex:T .", 3),
        ("?a ex:link ?s . ?s ex:p ?o . ?o ex:r ?z .", 4),
        # an empty seed: ex:zzz is in the graph, but no ex:q triple has it
        ("?s ex:q ex:zzz . ?s ex:p ?x .", 0),
        ("?s ex:q ?x . ?s ex:r ex:zzz . ?s ex:p ?y .", 0),
    ])
    def test_matches_brute_force(self, where, rows):
        g = _star_graph()
        q = parse_query(self.PREFIX + "SELECT " + " ".join(
            sorted({f"?{v}" for v in parse_query(
                self.PREFIX + f"SELECT ?s WHERE {{ {where} }}").variables()}))
            + f" WHERE {{ {where} }}")
        got = bag(evaluate(q, g))
        assert got == brute_force(q, g), format_query(q)
        assert sum(got.values()) == rows

    def test_one_leaves_call_per_pattern_on_a_bound_subject(self):
        class Calls(Graph):
            calls = Counter()

            def leaves(self, p, subjects):
                self.calls["leaves"] += 1
                return super().leaves(p, subjects)

            def match_ids(self, s=None, p=None, o=None):
                self.calls["match_ids"] += 1
                return super().match_ids(s, p, o)

        g = Calls(_star_graph())
        q = parse_query(self.PREFIX + "SELECT ?s ?x ?y ?z WHERE { ?s ex:type ex:T . "
                        "?s ex:p ?x . ?s ex:q ?y . ?s ex:link ?w . ?x ex:r ?z . }")
        assert len(evaluate(q, g)) == 5 == sum(brute_force(q, g).values())
        # the seed is matched once; each of the four patterns on a bound
        # subject (three on ?s, one on ?x) reads its objects with one
        # leaves call, however many rows that call covers
        assert g.calls == {"match_ids": 1, "leaves": 4}, g.calls


_LIMIT_SCRIPT = """
import json, random
from energyde.connector.messages import CanonicalJSON, digest
from energyde.federation import federated_query, parse_catalog
from energyde.rdf import Graph, format_term
from energyde.sparql import evaluate, parse_query, solutions_to_json
from genutil import LocalClient, random_graph

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
                 "digest": digest(CanonicalJSON(solutions_to_json(central)))}
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


def results_doc(solutions: SolutionSequence) -> dict:
    """The W3C document ``energyde query`` prints, once the results text
    and the printed document have each matched their oracle."""
    assert solutions_to_json(solutions) == json.dumps(
        oracle_ids_document(solutions), sort_keys=True, separators=(",", ":"))
    doc = json.loads(serialize_results(solutions))
    assert doc == oracle_solutions_to_json(solutions)
    return doc


class TestResults:
    def test_empty_with_header(self):
        doc = results_doc(SolutionSequence(variables=["x"], rows=[]))
        assert doc == {"head": {"vars": ["x"]}, "results": {"bindings": []}}

    def test_single_iri_binding(self):
        doc = results_doc(SolutionSequence(
            variables=["x"], rows=[{"x": IRI("http://example.org/a")}]))
        assert doc["results"]["bindings"] == [
            {"x": {"type": "uri", "value": "http://example.org/a"}}]

    def test_sq2_fixture_answer_is_wind_power(self, fixture_dir):
        g = parse_ntriples((fixture_dir / "graphs" / "reference.nt").read_text())
        q = parse_query((fixture_dir / "queries" / "sq2.rq").read_text())
        doc = results_doc(evaluate(q, g))
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
        back = solutions_from_json(json.loads(solutions_to_json(sols)))
        assert bag(back) == bag(sols)
        g.insert(Triple(BlankNode("b0"), IRI("http://example.org/p0"),
                        Literal("x", lang="en")))
        sols = evaluate(parse_query("SELECT ?s ?p ?o WHERE { ?s ?p ?o . }"), g)
        back = solutions_from_json(json.loads(solutions_to_json(sols)))
        assert bag(back) == bag(sols)
        assert solutions_to_json(back) == solutions_to_json(sols)
        # one term object per distinct binding, shared by every row
        cells = [term for row in back.rows for term in row.values()]
        assert len({id(term) for term in cells}) == len(set(cells)) < len(cells)

    def test_typed_and_lang_literals(self):
        sols = SolutionSequence(variables=["v"], rows=[
            {"v": Literal("320", XSD_INTEGER)}])
        doc = results_doc(sols)
        assert doc["results"]["bindings"][0]["v"]["datatype"] == XSD_INTEGER
        sols = SolutionSequence(variables=["v"], rows=[
            {"v": Literal("ja", lang="de")}])
        doc = results_doc(sols)
        assert doc["results"]["bindings"][0]["v"]["xml:lang"] == "de"
