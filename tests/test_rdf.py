import gc
import hashlib
import itertools
import random
import re
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from energyde import rdf, sparql
from energyde.rdf import (BlankNode, Graph, IRI, Literal, NTriplesParseError,
                          RdfError, Triple, format_term, insert_ntriples, load_graph,
                          parse_ntriples, save_graph, serialize_ntriples)
from energyde.vocab import (AGG_YEAR, COUNTRY, ENERGY, GENERATION_CAPACITY, MEASURE,
                            PRODUCTION_TYPE, RDF_LANGSTRING, RDF_TYPE, XSD_DECIMAL,
                            XSD_INTEGER, XSD_STRING)
from genutil import oracle_escape, random_graph


def t(s, p, o):
    return Triple(IRI(s), IRI(p), o if isinstance(o, (IRI, Literal, BlankNode))
                  else Literal(o))


EX = "http://example.org/"


class TestTerms:
    def test_iri_requires_scheme(self):
        with pytest.raises(RdfError):
            IRI("no-scheme-here")

    def test_iri_rejects_whitespace(self):
        with pytest.raises(RdfError):
            IRI("http://example.org/a b")

    def test_plain_literal_defaults_to_xsd_string(self):
        assert Literal("hello").datatype == XSD_STRING

    def test_language_tag_implies_langstring(self):
        lit = Literal("hallo", lang="de")
        assert lit.datatype.endswith("langString")

    @pytest.mark.parametrize("make", [
        lambda: Literal("x", lang=""),
        lambda: Literal("x", RDF_LANGSTRING),
        lambda: Literal("x", RDF_LANGSTRING, ""),
    ], ids=["empty-tag", "langstring-without-tag", "both"])
    def test_language_string_needs_a_tag(self, make):
        # either form would print as "x"^^<...#langString>, which reads back
        # as neither
        with pytest.raises(RdfError, match="language tag"):
            make()
        assert Literal("x", RDF_LANGSTRING, "en") == Literal("x", lang="en")

    def test_no_value_space_coercion(self):
        assert Literal("2020") != Literal("2020",
                                          "http://www.w3.org/2001/XMLSchema#integer")
        assert Literal("01") != Literal("1")

    def test_literal_subject_rejected(self):
        with pytest.raises(RdfError):
            Triple(Literal("x"), IRI(EX + "p"), Literal("y"))

    def test_forbidden_iri_characters_on_every_code_point(self):
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        by_regex = set(rdf._IRI_FORBIDDEN.findall(every))
        # IRIREF's exclusions, and every other whitespace character
        assert by_regex == {c for c in every
                            if c <= " " or c.isspace() or c in '<>"{}|^`\\'
                            or "\ud800" <= c <= "\udfff"}

    @pytest.mark.parametrize("make", [lambda s: IRI(f"urn:a{s}"), lambda s: Literal(f"a{s}b"),
                                      lambda s: Literal("1", f"urn:t{s}")],
                             ids=["iri", "literal", "datatype"])
    @pytest.mark.parametrize("surrogate", ["\ud800", "\udbff", "\udc00", "\udfff"])
    def test_no_term_holds_a_surrogate(self, make, surrogate):
        # UTF-8 cannot encode a surrogate code point, so no such term could
        # be written; a character beyond U+FFFF is one code point and is kept
        with pytest.raises(RdfError, match="surrogate|forbidden character"):
            make(surrogate)
        g = Graph([Triple(IRI(EX + "s"), IRI(EX + "p"), make("\U0001F600"))])
        assert parse_ntriples(serialize_ntriples(g)) == g

    def test_blank_node_label_characters_on_every_code_point(self):
        # the grammar's own lists: PN_CHARS_BASE, then what PN_CHARS_U and
        # PN_CHARS add to it, with no ":" (SPARQL 1.1 section 19.8)
        base = [(0x41, 0x5A), (0x61, 0x7A), (0xC0, 0xD6), (0xD8, 0xF6), (0xF8, 0x2FF),
                (0x370, 0x37D), (0x37F, 0x1FFF), (0x200C, 0x200D), (0x2070, 0x218F),
                (0x2C00, 0x2FEF), (0x3001, 0xD7FF), (0xF900, 0xFDCF), (0xFDF0, 0xFFFD),
                (0x10000, 0xEFFFF)]
        first = base + [(0x5F, 0x5F), (0x30, 0x39)]
        last = first + [(0x2D, 0x2D), (0xB7, 0xB7), (0x300, 0x36F), (0x203F, 0x2040)]
        middle = last + [(0x2E, 0x2E)]
        label = rdf._LABEL_RE.fullmatch
        for ranges, make in [(first, "{}".format), (last, "a{}".format),
                             (middle, "a{}a".format)]:
            admitted = [False] * (sys.maxunicode + 1)
            for lo, hi in ranges:
                admitted[lo:hi + 1] = [True] * (hi - lo + 1)
            assert [label(make(chr(c))) is not None
                    for c in range(sys.maxunicode + 1)] == admitted

    def test_non_iri_predicate_rejected(self):
        with pytest.raises(RdfError):
            Triple(IRI(EX + "s"), Literal("p"), Literal("y"))
        with pytest.raises(RdfError):
            Triple(IRI(EX + "s"), BlankNode("b"), Literal("y"))


class TestGraph:
    def test_insert_into_empty(self):
        g = Graph()
        assert g.insert(t(EX + "s", EX + "p", "o")) == 1

    def test_insert_same_triple_twice(self):
        g = Graph()
        g.insert(t(EX + "s", EX + "p", "o"))
        assert g.insert(t(EX + "s", EX + "p", "o")) == 1

    def test_insert_idempotent_over_multiset(self):
        rng = random.Random(7)
        triples = [t(EX + f"s{rng.randrange(3)}", EX + f"p{rng.randrange(2)}",
                     str(rng.randrange(3))) for _ in range(100)]
        g = Graph(triples)
        assert len(g) == len(set(triples))

    def test_insert_idempotent_on_long_leaves(self):
        # one subject with many objects for a predicate, and one object with
        # many subjects
        triples = [t(EX + "s", EX + "p", str(i)) for i in range(50)] + \
                  [t(EX + f"s{i}", EX + "p", "0") for i in range(50)]
        g = Graph(triples)
        for triple in triples:
            assert g.insert(triple) == 100 and triple in g
        assert t(EX + "s1", EX + "p", "1") not in g
        assert g == Graph(reversed(triples))

    def test_insert_refuses_a_tuple(self):
        g = Graph()
        with pytest.raises(RdfError) as exc:
            g.insert((IRI("urn:s"), IRI("urn:p"), IRI("urn:o")))
        assert str(exc.value) == ("not a triple: "
                                  "(IRI('urn:s'), IRI('urn:p'), IRI('urn:o'))")
        assert len(g) == 0

    def test_format_term_refuses_a_string(self):
        with pytest.raises(RdfError) as exc:
            format_term("x")
        assert str(exc.value) == "not a term: 'x'"

    def test_a_graph_equals_no_other_type(self):
        assert Graph().__eq__(5) is NotImplemented
        assert (Graph() == 5) is False and Graph() != 5

    def test_match_unbound_returns_all(self):
        g = random_graph(random.Random(1), 50)
        assert len(g.match(None, None, None)) == len(g)

    def test_match_fully_bound_absent(self):
        g = Graph([t(EX + "s", EX + "p", "o")])
        assert g.match(IRI(EX + "s"), IRI(EX + "p"), Literal("other")) == []

    def test_match_equals_exhaustive_scan(self):
        rng = random.Random(42)
        g = random_graph(rng, 400)
        triples = list(g)
        for _ in range(30):
            base = rng.choice(triples)
            pattern = [x if rng.random() < 0.5 else None for x in base]
            expected = {tr for tr in triples
                        if all(b is None or b == v
                               for b, v in zip(pattern, tr))}
            assert set(g.match(*pattern)) == expected

    def test_id_lookups_agree_with_match(self):
        rng = random.Random(11)
        g = random_graph(rng, 300)
        triples = list(g)
        for base, keep in itertools.product(rng.sample(triples, 10),
                                            itertools.product((True, False), repeat=3)):
            pattern = [x if k else None for x, k in zip(base, keep)]
            ids = [None if x is None else g.term_id(x) for x in pattern]
            found = g.match_ids(*ids)
            assert g.count_ids(*ids) == len(found)
            assert {Triple(*(g.terms[i] for i in t)) for t in found} == set(g.match(*pattern))

    def test_equality_across_id_assignments(self):
        rng = random.Random(5)
        triples = list(random_graph(rng, 200))
        shuffled = triples[:]
        rng.shuffle(shuffled)
        g1, g2 = Graph(triples), Graph(reversed(shuffled))
        assert g1.terms != g2.terms         # the same terms, numbered differently
        assert g1 == g2 and g2 == g1
        assert all(t in g2 for t in triples)
        fewer = Graph(triples[1:])
        assert g1 != fewer and fewer != g1
        other = Graph(triples[1:] + [t(EX + "new", EX + "p", "o")])
        assert len(other) == len(g1)
        assert g1 != other and other != g1
        assert t(EX + "new", EX + "p", "o") not in g1

    def test_update_from_graph_merges_by_term(self):
        rng = random.Random(9)
        triples = list(random_graph(rng, 150))
        left, right = Graph(triples[:100]), Graph(reversed(triples[60:]))
        assert left.update(right) == len(triples)
        assert left == Graph(triples)

    def test_catalog_views(self):
        g = Graph([t(EX + "s", RDF_TYPE, IRI(EX + "C")), t(EX + "s", EX + "p", "x"),
                   t(EX + "u", RDF_TYPE, IRI(EX + "D")), t(EX + "u", EX + "p", "y")])
        assert sorted(p.value for p in g.predicates()) == [EX + "p", RDF_TYPE]
        assert sorted(o.value for o in g.objects(IRI(RDF_TYPE))) == [EX + "C", EX + "D"]
        assert g.objects(IRI(EX + "absent")) == []

    def test_type_match_on_fixture(self, fixture_dir):
        # oracle: linear scan over the serialized fixture file
        text = (fixture_dir / "graphs" / "tso.nt").read_text()
        expected = sum(1 for line in text.splitlines()
                       if RDF_TYPE in line and GENERATION_CAPACITY in line)
        g = parse_ntriples(text)
        found = g.match(None, IRI(RDF_TYPE), IRI(GENERATION_CAPACITY))
        assert len(found) == expected > 0


class TestNTriples:
    def test_empty_input(self):
        assert len(parse_ntriples("")) == 0

    def test_typed_literal_line(self):
        # hand-parsed: one triple whose literal datatype matches the ^^ IRI
        line = ('<http://example.org/s> <http://example.org/p> '
                '"320"^^<http://www.w3.org/2001/XMLSchema#decimal> .\n')
        g = parse_ntriples(line)
        assert len(g) == 1
        triple = next(iter(g))
        assert triple.object == Literal(
            "320", "http://www.w3.org/2001/XMLSchema#decimal")

    def test_missing_terminal_dot_names_line(self):
        text = ('<http://example.org/s> <http://example.org/p> "a" .\n'
                '<http://example.org/s> <http://example.org/p> "b"\n')
        with pytest.raises(NTriplesParseError) as exc:
            parse_ntriples(text)
        assert exc.value.line_no == 2

    def test_comments_and_blank_lines_skipped(self):
        g = parse_ntriples("# comment\n\n"
                           '<http://example.org/s> <http://example.org/p> "x" .\n')
        assert len(g) == 1

    @pytest.mark.parametrize("text", [
        "\x0c\n", "\u3000\n", "\x0b\n", "\u2028\n",
        "<urn:s> <urn:p> <urn:o> .\x0c# c\n",
        "<urn:s> <urn:p> <urn:o> .\u3000\n",
    ], ids=repr)
    def test_whitespace_is_only_space_and_tab(self, text):
        # N-Triples' whitespace is [ \t]; other characters str.isspace
        # accepts make neither a blank line nor the gap before a comment
        with pytest.raises(NTriplesParseError) as exc:
            parse_ntriples(text)
        assert exc.value.line_no == 1

    def test_blank_node_needs_its_prefix(self):
        with pytest.raises(NTriplesParseError) as exc:
            parse_ntriples("_x <urn:p> <urn:o> .\n")
        assert str(exc.value) == "line 1: expected blank node label (column 1)"

    def test_space_and_tab_are_whitespace(self):
        assert len(parse_ntriples(" \t\n\t# c\n<urn:s> <urn:p> <urn:o> . \t# c\n")) == 1

    def test_blank_node_and_lang_literal(self):
        g = parse_ntriples('_:b1 <http://example.org/p> "ja"@de .\n')
        triple = next(iter(g))
        assert triple.subject == BlankNode("b1")
        assert triple.object.lang == "de"

    @pytest.mark.parametrize("obj", [f'"x"^^<{RDF_LANGSTRING}>', '"x"@'])
    def test_language_string_without_tag_rejected(self, obj):
        with pytest.raises(NTriplesParseError, match="language tag") as exc:
            parse_ntriples(f'<{EX}s> <{EX}p> "a" .\n<{EX}s> <{EX}p> {obj} .\n')
        assert exc.value.line_no == 2

    def test_escapes_round_trip(self):
        lit = Literal('quote " backslash \\ newline \n tab \t')
        g = Graph([Triple(IRI(EX + "s"), IRI(EX + "p"), lit)])
        assert parse_ntriples(serialize_ntriples(g)) == g

    # int(..., 16) alone would also take a sign, spaces and underscores
    @pytest.mark.parametrize("body", [r"x\u+041y", r"x\u 041y", r"x\u0_41y",
                                      r"x\U+0000041y", r"x\U 0000041y", r"x\U0_000041y"])
    @pytest.mark.parametrize("where", ['<urn:s> <urn:p> "{}" .', "<urn:s> <urn:p> <urn:{}> ."],
                             ids=["literal", "iri"])
    def test_uchar_is_exactly_four_or_eight_hex_digits(self, where, body):
        with pytest.raises(NTriplesParseError, match=r"bad \\[uU] escape"):
            parse_ntriples(where.format(body) + "\n")

    @pytest.mark.parametrize("body, message", [("x\\", "dangling escape"),
                                               (r"x\qy", r"unknown escape \\q"),
                                               (r"x\u41y", r"bad \\u escape"),
                                               (r"x\U00110000y", r"bad \\U escape")])
    def test_escape_errors_name_the_escape(self, body, message):
        with pytest.raises(NTriplesParseError, match=message):
            parse_ntriples(f"<urn:s> <urn:p> <urn:{body}> .\n")

    @pytest.mark.parametrize("body, value", [(r"x\u0041y", "xAy"), (r"x\u00e9", "x\u00e9"),
                                             (r"\U0001F600", "\U0001F600"),
                                             (r"\t\b\n\r\f\"\'\\", "\t\b\n\r\f\"'\\")])
    def test_escapes_resolve(self, body, value):
        triple, = parse_ntriples(f'<urn:s> <urn:p> "{body}" .\n')
        assert triple.object == Literal(value)

    @pytest.mark.parametrize("line", ['<urn:s> <urn:p> "a\\uD800b" .',
                                      '<urn:s> <urn:p> "a\\uD83D\\uDE00b" .',
                                      "<urn:s> <urn:p> <urn:a\\uDFFF> .",
                                      '<urn:s> <urn:p> "a\ud800b" .'],
                             ids=["literal", "escaped-pair", "iri", "raw-literal"])
    def test_surrogate_is_a_parse_error(self, line):
        # a UCHAR is a code point, so "\uD83D\uDE00" is two lone surrogates
        with pytest.raises(NTriplesParseError, match="line 2: .*(surrogate|forbidden)"):
            parse_ntriples("<urn:s> <urn:p> <urn:o> .\n" + line + "\n")

    def test_empty_graph_serializes_empty(self):
        assert serialize_ntriples(Graph()) == ""

    def test_round_trip_fixpoint_random(self):
        for seed in range(5):
            g = random_graph(random.Random(seed), 120)
            assert parse_ntriples(serialize_ntriples(g)) == g

    def test_serialization_deterministic(self):
        rng = random.Random(3)
        g1 = random_graph(rng, 80)
        g2 = Graph(list(g1))
        assert serialize_ntriples(g1) == serialize_ntriples(g2)


_term = st.one_of(
    st.integers(0, 50).map(lambda i: IRI(f"{EX}n{i}")),
    st.text(min_size=0, max_size=20).map(Literal),
    st.from_regex(r"[A-Za-z][A-Za-z0-9]{0,5}", fullmatch=True).map(BlankNode),
)
_subject = st.one_of(st.integers(0, 50).map(lambda i: IRI(f"{EX}n{i}")),
                     st.from_regex(r"[A-Za-z][A-Za-z0-9]{0,5}",
                                   fullmatch=True).map(BlankNode))
_triple = st.builds(Triple,
                    subject=_subject,
                    predicate=st.integers(0, 10).map(lambda i: IRI(f"{EX}p{i}")),
                    object=_term)


# few subjects, predicates and objects: most SPO leaves start as a shared
# one-object tuple, and many are then promoted to a list
_promoting_triple = st.builds(
    Triple,
    subject=st.sampled_from([IRI(f"{EX}n{i}") for i in range(3)] + [BlankNode("b")]),
    predicate=st.sampled_from([IRI(f"{EX}p{i}") for i in range(2)]),
    object=st.sampled_from([IRI(f"{EX}n{i}") for i in range(3)]
                           + [Literal(str(i)) for i in range(3)]))


@given(st.lists(_triple, max_size=40) | st.lists(_promoting_triple, max_size=40))
def test_round_trip_property(triples):
    g = Graph(triples)
    assert parse_ntriples(serialize_ntriples(g)) == g
    assert len(g) == len(set(triples))


def _t(s, p, o) -> Triple:
    """A triple over the example namespace's nodes ``n<s>`` and ``p<p>``;
    ``o`` is a literal's text."""
    return Triple(IRI(f"{EX}n{s}"), IRI(f"{EX}p{p}"), Literal(o))


@settings(max_examples=300, deadline=None)
@given(st.lists(_triple, max_size=30), st.lists(_triple, max_size=8))
@example(old=[], new=[_t(2, 0, "a"), _t(1, 0, "a")])                 # empty text
@example(old=[_t(5, 0, "a"), _t(6, 0, "a")], new=[_t(1, 0, "a")])    # sorts first
@example(old=[_t(1, 0, "a"), _t(2, 0, "a")],                         # sorts last
         new=[Triple(BlankNode("z"), IRI(f"{EX}p0"), Literal("a")), _t(3, 0, "a")])
@example(old=[_t(1, 0, "a"), _t(3, 0, "a")],                         # one gap
         new=[_t(2, 1, "a"), _t(2, 0, "b"), _t(2, 0, "a\nb")])
def test_insert_ntriples_is_the_grown_graph_serialized(old, new):
    graph = Graph(old)
    text = serialize_ntriples(graph)
    added = [t for t in dict.fromkeys(new) if t not in graph]
    graph.update(added)
    assert insert_ntriples(text, graph, added) == serialize_ntriples(graph)


def assert_agrees_with_set(g: Graph, triples: set) -> None:
    """``g`` holds exactly ``triples``, as ``match_ids``, ``count_ids``,
    ``leaves``, ``==`` and ``serialize_ntriples`` each tell it."""
    assert len(g) == len(triples)
    assert g == Graph(sorted(triples, key=repr, reverse=True))
    assert serialize_ntriples(g) == "".join(sorted(
        f"{format_term(s)} {format_term(p)} {format_term(o)} .\n" for s, p, o in triples))
    assert parse_ntriples(serialize_ntriples(g)) == g
    positions = [[None] + sorted(set(terms), key=repr) for terms in zip(*triples)] \
        if triples else [[None]] * 3
    for pattern in itertools.product(*positions):
        ids = [None if x is None else g.term_id(x) for x in pattern]
        found = g.match_ids(*ids)
        assert g.count_ids(*ids) == len(found) == len(set(found)), pattern
        assert {Triple(*(g.terms[i] for i in tr)) for tr in found} == \
            {tr for tr in triples
             if all(x is None or x == y for x, y in zip(pattern, tr))}, pattern
    # every subject of the graph, and one term that is no subject
    subjects = positions[0][1:] + [IRI(EX + "nowhere")]
    ids = [g.term_id(s) for s in subjects]
    for p in positions[1][1:] + [IRI(EX + "nowhere")]:
        with g.lock:
            leaves = g.leaves(g.term_id(p), ids)
        assert len(leaves) == len(subjects)
        for s, objects in zip(subjects, leaves):
            assert sorted(objects) == sorted(g.term_id(tr.object) for tr in triples
                                             if tr.subject == s and tr.predicate == p)


class TestSharedLeaves:
    def test_a_second_object_replaces_the_shared_leaf(self):
        s1, s2, p = IRI(EX + "s1"), IRI(EX + "s2"), IRI(EX + "p")
        o, o2 = Literal("o"), Literal("o2")
        g = Graph([Triple(s1, p, o), Triple(s2, p, o)])
        g.insert(Triple(s1, p, o2))
        assert g.match(s2, p) == [Triple(s2, p, o)]
        assert set(g.match(s1, p)) == {Triple(s1, p, o), Triple(s1, p, o2)}
        assert_agrees_with_set(g, {Triple(s1, p, o), Triple(s2, p, o),
                                   Triple(s1, p, o2)})
        # a duplicate goes into neither leaf
        assert g.insert(Triple(s1, p, o2)) == g.insert(Triple(s2, p, o)) == 3
        assert g.match(s2, p) == [Triple(s2, p, o)]

    @settings(max_examples=200)
    @given(st.lists(_promoting_triple, max_size=30))
    def test_promoted_leaves_agree_with_a_set(self, triples):
        g = Graph(triples)
        assert_agrees_with_set(g, set(triples))
        copy = Graph()                      # insert_encoded, from another graph
        copy.update(g)
        assert_agrees_with_set(copy, set(triples))


# --- insert_encoded: per-predicate batches --------------------------------

_BATCH_SUBJECTS = [IRI(f"{EX}n{i}") for i in range(3)] + [BlankNode("b")]
_BATCH_PREDICATES = [IRI(f"{EX}p{i}") for i in range(3)]
_BATCH_OBJECTS = [IRI(f"{EX}n{i}") for i in range(3)] + [Literal(str(i)) for i in range(3)]
# the caller's term table: every subject twice, so two indexes name one term,
# and a term no triple uses
_BATCH_TERMS = (_BATCH_SUBJECTS + _BATCH_PREDICATES + _BATCH_OBJECTS
                + _BATCH_SUBJECTS + [IRI(EX + "unused")])
_S = [i for i, t in enumerate(_BATCH_TERMS) if t in _BATCH_SUBJECTS]
_P = [_BATCH_TERMS.index(t) for t in _BATCH_PREDICATES]
_O = [_BATCH_TERMS.index(t) for t in _BATCH_OBJECTS]


@st.composite
def _batches(draw):
    """Batches over few terms, so subjects and pairs repeat; a batch may
    reuse the subject column of the one before it."""
    batches = []
    for _ in range(draw(st.integers(0, 5))):
        if batches and draw(st.booleans()):
            subjects = batches[-1][1]
        else:
            subjects = draw(st.lists(st.sampled_from(_S), max_size=12))
        objects = draw(st.lists(st.sampled_from(_O), min_size=len(subjects),
                                max_size=len(subjects)))
        batches.append((draw(st.sampled_from(_P)), subjects, objects))
    return batches


# a shared one-object leaf, (o,) for n0 and n1, and then a second object for n0
_SHARED_THEN_SECOND = [(_P[0], [_S[0], _S[1], _S[0], _S[0]], [_O[3], _O[3], _O[4], _O[3]])]


@settings(max_examples=300, deadline=None)
@given(st.lists(_promoting_triple, max_size=12), _batches())
@example(before=[], batches=_SHARED_THEN_SECOND)
@example(before=[Triple(_BATCH_SUBJECTS[0], _BATCH_PREDICATES[0], _BATCH_OBJECTS[3]),
                 Triple(_BATCH_SUBJECTS[1], _BATCH_PREDICATES[0], _BATCH_OBJECTS[3])],
         batches=[(_P[0], [_S[1]], [_O[4]])] + _SHARED_THEN_SECOND)
def test_insert_encoded_matches_per_triple_insert(before, batches):
    """A batch insert builds the graph per-triple ``insert`` builds, for a
    predicate the graph holds already or not, and leaves the shared
    one-object leaves as they were."""
    graph, expected = Graph(before), Graph(before)
    shared = dict(graph._single)
    size = graph.insert_encoded(_BATCH_TERMS, batches)
    for p, subjects, objects in batches:
        for s, o in zip(subjects, objects):
            expected.insert(Triple(_BATCH_TERMS[s], _BATCH_TERMS[p], _BATCH_TERMS[o]))
    assert graph == expected and size == len(graph) == len(expected)
    assert serialize_ntriples(graph) == serialize_ntriples(expected)
    for p in _BATCH_PREDICATES:
        assert graph.count_ids(p=graph.term_id(p)) == expected.count_ids(p=expected.term_id(p))
    for o, leaf in graph._single.items():
        assert leaf == (o,)
        assert shared.get(o, leaf) is leaf
    for table in graph._predicates.values():
        assert all(leaf is graph._single[leaf[0]] for leaf in table.objects.values()
                   if type(leaf) is tuple)
    # a term gets an id only with a triple that uses it
    assert len(graph.terms) == len({term for triple in graph for term in triple})


# sha256 of the files generate_fixtures(1) writes and of tricky_graph()'s
# N-Triples, pinned from the serializer of the set-based graph this graph
# replaced: the output bytes must not change
FIXTURE_DIGESTS = {
    "capacity_defective.nt": "b2a6aa38c88622860e4ea2a2ff51c86825d3c239bc3abc0950d78aa919f26186",
    "forecast.nt": "3288953b396e3e87d3779214de2be58b1f3e43391f74f99e1955d48d04692a60",
    "producer.nt": "b834112e3c15babd714fc6da36b05d179af2f5af24f830c5a6d4e0d3fd2c43f8",
    "reference.nt": "b1a983f6bdcdeddfd757e722552b9e64a44859e1228960118047247b948787d9",
    "supplier.nt": "fce6e7ce4b3628f1535a8dc400e423418b002c0f4ab1e021b047351f966436fc",
    "tso.nt": "bfccc5373353475fa7af345c5dc1087e6f7fd3445d99992883defffcf7d1465d",
    "tso_load.nt": "1a1b7631744786ac75b3de199fd569bc5e623b453be1ac4fb5567803001f84de",
}
TRICKY_DIGEST = "0a8e129b3936d7d48c554b7d99fd20135f5e2696625b7aa6328b70b3d4b9eeba"
LEXICALS = ["plain", 'quote " in', "back\\slash", "new\nline", "tab\t", "cr\r",
            "nul\x00", "bell\x07", "nel\x85", "ls\u2028ps\u2029", "\u00e9 \u4e2d", ""]


def tricky_graph() -> Graph:
    g = Graph()
    for i, lexical in enumerate(LEXICALS):
        s = IRI(f"{EX}s{i % 3}")
        g.insert(Triple(s, IRI(EX + "p"), Literal(lexical)))
        g.insert(Triple(s, IRI(EX + "q"), Literal(lexical, lang="en")))
        g.insert(Triple(BlankNode(f"b{i}"), IRI(EX + "r"), Literal(lexical, XSD_INTEGER)))
    return g


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_serializer_bytes_pinned(fixture_dir):
    for name, want in FIXTURE_DIGESTS.items():
        text = (fixture_dir / "graphs" / name).read_text(encoding="utf-8")
        assert sha256(text) == want, name
        assert serialize_ntriples(parse_ntriples(text)) == text
    text = serialize_ntriples(tricky_graph())
    assert sha256(text) == TRICKY_DIGEST
    assert parse_ntriples(text) == tricky_graph()


def test_fast_path_takes_every_fixture_line(fixture_dir):
    for name in FIXTURE_DIGESTS:
        text = (fixture_dir / "graphs" / name).read_text(encoding="utf-8")
        assert all(rdf._NT_LINE.fullmatch(line) for line in text.splitlines())


def test_fast_path_regex_needs_no_python_3_11_syntax():
    # re accepts possessive quantifiers and atomic groups only from 3.11 on;
    # this holds for every regex built from the term grammar
    for regex in (rdf._NT_LINE, rdf._IRI_FORBIDDEN, rdf._LANGTAG_RE, rdf._LABEL_RE,
                  sparql._TOKEN_RE):
        assert not re.search(r"[*+?}]\+|\(\?>", regex.pattern), regex.pattern


# pieces of N-Triples lines, valid and not.  None holds a line separator,
# since parse_ntriples splits its input into lines first.
_NT_SUBJECTS = ["<http://ex.org/a>", "<urn:x>", "_:b1", "_:a.", "_:x-y", '"lit"',
                "<nocolon>", "<a b:c>", "_:", "<http://ex.org/\u00e9>", "_:\u00e9b"]
_NT_PREDICATES = ["<http://ex.org/p>", "<urn:p>", "_:p", '"p"', "<p>",
                  "<http://ex.org/\\u0041>"]
_NT_OBJECTS = [
    "<http://ex.org/o>", "_:o1", "_:o.", '"v"', '"a b"', '""', '"x"@en', '"x"@en-GB',
    '"x"@en-', '"x"@', '"x"@\u00e9', '"x"@en\u00e9', '"x"^^<urn:t>@en', '"x" "y"',
    '"1"^^<http://www.w3.org/2001/XMLSchema#integer>', '"1"^^<bad>', '"1"^^',
    '"1"^^<http://www.w3.org/2001/XMLSchema#string>', '"1"^^<a b:c>',
    '"q\\"q"', '"\\u0041"', '"\\q"', '"tab\\t"', '"\u00e9"', '"unterminated',
    "<http://ex.org/\\u0041>", "<http://ex.org/\u00e9>", "<nocolon>", "<a<b:c>",
]
_NT_GAPS = ["", " ", "\t ", "\u00a0"]
_NT_ENDS = [".", " .", "\t. # c", ".x", "", " . ", ". \u00a0#c", "..", " .#", ". \u00a0"]
_NT_PIECES = (_NT_SUBJECTS + _NT_PREDICATES + _NT_OBJECTS + _NT_GAPS + _NT_ENDS
              + ["<", ">", '"', "@", "^^", "#", "\\", "_:", "x", ":"])


def assert_fast_path_agrees(line: str) -> None:
    """A line the fast-path regex accepts, and whose tokens make terms, gives
    the scanner's triple; parse_ntriples gives the scanner's result or error
    on every line."""
    try:
        expected, error = rdf._scan_line(line, 1), None
    except NTriplesParseError as exc:
        expected, error = None, str(exc)
    match = rdf._NT_LINE.fullmatch(line)
    if match is not None:
        try:
            terms = [rdf._token_term(token) for token in match.groups()]
        except RdfError:
            terms = None        # the fast path declines; the scanner decides
        if terms is not None:
            assert error is None, line
            assert Triple(*terms) == expected, line
    try:
        graph = parse_ntriples(line)
    except NTriplesParseError as exc:
        assert str(exc) == error, line
    else:
        assert error is None, line
        assert graph == Graph([expected] if expected is not None else []), line


_nt_line = st.one_of(
    st.tuples(*(st.sampled_from(choices) for choices in (
        _NT_GAPS, _NT_SUBJECTS, _NT_GAPS, _NT_PREDICATES, _NT_GAPS, _NT_OBJECTS,
        _NT_ENDS))).map("".join),
    st.lists(st.sampled_from(_NT_PIECES), max_size=12).map("".join),
)


@settings(max_examples=500)
@given(_nt_line)
def test_fast_path_agrees_with_scanner(line):
    assert_fast_path_agrees(line)


def test_fast_path_agrees_with_scanner_on_every_combination():
    for s, p, o in itertools.product(_NT_SUBJECTS, _NT_PREDICATES, _NT_OBJECTS):
        for gap, end in [(" ", end) for end in _NT_ENDS] + [(g, ".") for g in _NT_GAPS]:
            assert_fast_path_agrees(f"{gap}{s}{gap}{p}{gap}{o}{end}")


# every character the escaper rewrites, its neighbours, and non-ASCII text
_ESCAPE_ALPHABET = ("".join(map(chr, range(0x21))) + '"\\\x7f\x84\x85\x86\xa0'
                    "\u2027\u2028\u2029\u202a\u00e9\u4e2d\U0001f600az")


@settings(max_examples=500)
@given(st.text(alphabet=_ESCAPE_ALPHABET, max_size=30) | st.text(max_size=30))
def test_escape_matches_the_character_loop(text):
    escaped = rdf._escape(text)
    assert escaped == oracle_escape(text)
    if escaped == text:
        assert escaped is text      # the fast path: nothing to rewrite
    assert parse_ntriples(f'<{EX}s> <{EX}p> "{escaped}" .\n') == \
        Graph([Triple(IRI(EX + "s"), IRI(EX + "p"), Literal(text))])


# --- load_graph: the file a line at a time --------------------------------

# the characters str.splitlines breaks a line at that N-Triples' EOL,
# [#xD#xA]+, does not
_NOT_EOL = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", _NOT_EOL, ids=lambda c: f"U+{ord(c):04X}")
def test_a_line_ends_only_at_cr_or_lf(tmp_path, char):
    """Each character inside a literal stays in it, through both readers,
    and between two statements it is no line break."""
    path = tmp_path / "g.nt"
    line = f'<urn:s> <urn:p> "a{char}b" .\n'
    expected = Graph([Triple(IRI("urn:s"), IRI("urn:p"), Literal(f"a{char}b"))])
    path.write_bytes(line.encode("utf-8"))
    assert parse_ntriples(line) == expected and len(expected) == 1
    assert load_graph(path) == expected
    two = f"<urn:s> <urn:p> <urn:o> .{char}<urn:s> <urn:p> <urn:q> .\n"
    path.write_bytes(two.encode("utf-8"))
    for parse in (lambda: parse_ntriples(two), lambda: load_graph(path)):
        with pytest.raises(NTriplesParseError) as exc:
            parse()
        assert exc.value.line_no == 1


_SEPARATORS = ["\n", "\r\n", "\r"]
_BAD_LINE = f'<{EX}s> <{EX}p> "unterminated'
_load_line = st.one_of(
    st.builds(lambda s, o: f"<{EX}s{s}> <{EX}p> {o} .", st.integers(0, 3),
              st.sampled_from(['"a"', '"\u00e9\u4e2d"', '"q\\"\\u00e9"', "_:b1",
                               f"<{EX}o>", '"x"@en']
                              + [f'"a{c}b"' for c in _NOT_EOL])),
    st.sampled_from(["", " ", "\t", "# comment", " # \u00e9", "# \u2028 \x85"]))


@pytest.fixture(scope="module")
def nt_file(tmp_path_factory):
    return tmp_path_factory.mktemp("load") / "g.nt"


def assert_loads_as_parsed(path, text: str) -> None:
    """``load_graph`` on ``text`` written to ``path`` gives the graph, or the
    error with its line number, that ``parse_ntriples(text)`` gives."""
    path.write_bytes(text.encode("utf-8"))
    try:
        expected, error = parse_ntriples(text), None
    except NTriplesParseError as exc:
        expected, error = None, exc
    try:
        loaded = load_graph(path)
    except NTriplesParseError as exc:
        assert error is not None and exc.line_no == error.line_no, (exc, error)
        assert str(exc) == str(error)
    else:
        assert error is None, error
        assert loaded == expected and len(loaded) == len(expected)


@settings(max_examples=300)
@given(lines=st.lists(st.tuples(_load_line, st.sampled_from(_SEPARATORS)), max_size=30),
       last_ends=st.booleans(), bad=st.none() | st.integers(0, 30),
       cache=st.integers(1, 4))
def test_load_graph_parses_as_parse_ntriples(nt_file, lines, last_ends, bad, cache):
    """Statement, blank and comment lines, joined by "\n", "\r\n" or "\r",
    with the characters that are no line break inside lines, and a small
    token table that is emptied often."""
    if bad is not None:
        lines.insert(min(bad, len(lines)), (_BAD_LINE, "\n"))
    pieces = [line + sep for line, sep in lines]
    if lines and not last_ends:
        pieces[-1] = lines[-1][0]
    with mock.patch.object(rdf, "_TOKEN_CACHE", cache):
        assert_loads_as_parsed(nt_file, "".join(pieces))


# many times the bytes a text file decodes at once (8 KiB), so a file of
# it is read in many chunks
_FILLER = 1 << 17


class TestLoadAcrossBuffers:
    """A file of many chunks, with a "\\r\\n" whose "\\r" is the last of
    ``_FILLER`` ASCII characters, so a chunk ends between the two."""

    def text(self, *tail: str) -> str:
        head = "".join(f"<{EX}s{i}> <{EX}p> \"{i}\" .\n" for i in range(100))
        pad = "#" * (_FILLER - len(head) - 1)
        text = head + pad + "\r\n" + "".join(line + "\n" for line in tail)
        assert text.index("\r") == _FILLER - 1
        return text

    def test_graph(self, tmp_path):
        text = self.text(f"<{EX}s> <{EX}p> \"after\" .", "", "# c")
        assert_loads_as_parsed(tmp_path / "g.nt", text)
        assert len(load_graph(tmp_path / "g.nt")) == 101

    def test_bad_line(self, tmp_path):
        text = self.text(f"<{EX}s> <{EX}p> \"after\" .", "", _BAD_LINE)
        assert_loads_as_parsed(tmp_path / "g.nt", text)
        with pytest.raises(NTriplesParseError) as exc:
            load_graph(tmp_path / "g.nt")
        assert exc.value.line_no == 104

    @pytest.mark.parametrize("tail", [[], [_BAD_LINE]], ids=["sound", "after-a-bad-line"])
    def test_byte_that_is_not_utf8(self, tmp_path, tail):
        # two fillers of comments before the byte: the parser meets the bad
        # line well before the byte is decoded
        filler = ("#" * 99 + "\n") * (2 * _FILLER // 100)
        data = (self.text(*tail) + filler).encode("utf-8") + b'<urn:s> <urn:p> "\xff" .\n'
        (tmp_path / "g.nt").write_bytes(data)
        at = data.index(0xFF)           # past the decoder's first chunk of bytes
        with pytest.raises(RdfError, match=r"g\.nt: cannot read: 'utf-8' codec can't "
                                           rf"decode byte 0xff in position {at}:") as exc:
            load_graph(tmp_path / "g.nt")
        assert not isinstance(exc.value, NTriplesParseError)


# --- memory -------------------------------------------------------------------

def capacity_graph(records: int) -> Graph:
    """Six triples per record, shaped as the pipeline's capacity records:
    a type, a country, a production type, a year and a source shared by
    many records, and a measure that two or three records share, as in the
    benchmark's TSO graph (4,451 distinct objects in 60,040 triples)."""
    graph = Graph()
    for i in range(records):
        s = IRI(f"{ENERGY}capacity/{i}")
        graph.insert(Triple(s, IRI(RDF_TYPE), IRI(GENERATION_CAPACITY)))
        graph.insert(Triple(s, IRI(COUNTRY), IRI(f"{ENERGY}country/C{i % 100}")))
        graph.insert(Triple(s, IRI(PRODUCTION_TYPE), IRI(f"{ENERGY}type/T{i % 20}")))
        graph.insert(Triple(s, IRI(AGG_YEAR), Literal(str(2018 + i % 5), XSD_INTEGER)))
        graph.insert(Triple(s, IRI(MEASURE), Literal(f"{i * 7 % 1459}.5", XSD_DECIMAL)))
        graph.insert(Triple(s, IRI(ENERGY + "sourceDataset"), IRI(ENERGY + "entsoe")))
    return graph


def traced_load(path) -> tuple[Graph, int, int]:
    """The graph at ``path``, the bytes its load left allocated, and the
    most it had allocated at once, by ``tracemalloc``."""
    gc.collect()
    tracemalloc.start()
    try:
        graph = load_graph(path)
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return graph, retained, peak


def test_load_memory_is_the_graph(tmp_path):
    """(a) the load's temporary memory is a buffer's lines and the token
    table, not the file's text; (b) the graph keeps one shared tuple per
    object, not a list per one-object leaf, and a table per predicate, not
    a dict per subject."""
    path = tmp_path / "capacity.nt"
    save_graph(capacity_graph(3400), path)
    size = path.stat().st_size
    graph, retained, peak = traced_load(path)
    assert len(graph) == 20400
    # measured: 0.23 of the file and 123 B per triple; a token table with
    # no bound takes 0.35, a list per one-object leaf 202 B, and a dict per
    # subject (subject-major SPO in place of one table per predicate) 145 B
    assert peak - retained < 0.3 * size, (peak - retained, size)
    assert retained / len(graph) < 135, retained / len(graph)
