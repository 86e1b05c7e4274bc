import hashlib
import itertools
import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from energyde import rdf
from energyde.rdf import (BlankNode, Graph, IRI, Literal, NTriplesParseError,
                          RdfError, Triple, parse_ntriples,
                          serialize_ntriples)
from energyde.vocab import (GENERATION_CAPACITY, RDF_LANGSTRING, RDF_TYPE,
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
        assert by_regex == {c for c in every if c.isspace() or c in '<>"'}

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


@given(st.lists(_triple, max_size=40))
def test_round_trip_property(triples):
    g = Graph(triples)
    assert parse_ntriples(serialize_ntriples(g)) == g
    assert len(g) == len(set(triples))


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
    # re accepts possessive quantifiers and atomic groups only from 3.11 on
    assert not re.search(r"[*+?}]\+|\(\?>", rdf._NT_LINE.pattern)


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
