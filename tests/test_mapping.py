import csv
import random
from pathlib import Path

import pytest

from energyde.mapping import (MappingError, apply_mapping, load_mapping,
                              parse_mapping, read_records)
from energyde.rdf import IRI, Literal, parse_ntriples, serialize_ntriples
from energyde.vocab import (GENERATION_CAPACITY, MEASURE, PRODUCTION_TYPE,
                            RDF_TYPE, WIND_POWER, XSD_DECIMAL)


@pytest.fixture()
def capacity_mapping(fixture_dir):
    return load_mapping(fixture_dir / "mappings" / "capacity.yaml")


def triples(graph):
    return {(t.subject, t.predicate, t.object) for t in graph}


class TestParse:
    def test_capacity_mapping_shape(self, capacity_mapping):
        assert len(capacity_mapping.maps) == 1
        m = capacity_mapping.maps[0]
        assert m.subject_class == GENERATION_CAPACITY
        assert len(m.predicate_objects) == 5

    def test_prefixed_names_expanded(self, capacity_mapping):
        preds = {p for p, _ in capacity_mapping.maps[0].predicate_objects}
        assert PRODUCTION_TYPE in preds
        assert MEASURE in preds

    def test_unknown_key_rejected_with_path(self):
        doc = """
        maps:
          - source: {path: x.csv, format: csv}
            subject: {template: "http://example.org/{id}"}
            po:
              - predicate: http://example.org/p
                feild: id
        """
        with pytest.raises(MappingError,
                           match=r"maps\[0\]\.po\[0\]: unknown keys \['feild'\]"):
            parse_mapping(doc, Path())

    @pytest.mark.parametrize("lines, message", [
        # read as no filter value, the filter would drop every record
        ('subject: {template: "http://example.org/{id}"}\n'
         '    filter: {field: year, equal: "2020"}',
         r"maps\[0\]\.filter: unknown keys \['equal'\]"),
        # read as no class, the rdf:type triple would be dropped
        ('subject: {template: "http://example.org/{id}", clas: ex:C}',
         r"maps\[0\]\.subject: unknown keys \['clas'\]"),
    ], ids=["filter-equal", "subject-clas"])
    def test_misspelled_key_in_a_map_section_rejected(self, lines, message):
        doc = ("maps:\n  - source: {path: x.csv, format: csv}\n    " + lines
               + "\n    po:\n      - {predicate: http://example.org/p, field: id}\n")
        with pytest.raises(MappingError, match=message):
            parse_mapping(doc, Path())

    def test_no_source_file_is_opened(self, tmp_path):
        # the fields a map reads are checked on its records, when it is applied
        (tmp_path / "d.csv").write_bytes(b"\xff\xfeid,name\n1,a\n")
        doc = """
        maps:
          - source: {path: d.csv, format: csv}
            subject: {template: "http://example.org/{absent}"}
            po:
              - predicate: http://example.org/p
                field: name
        """
        m = parse_mapping(doc, base_dir=tmp_path)
        assert m.maps[0].source.path == str(tmp_path / "d.csv")

    def test_po_needs_exactly_one_value_source(self):
        doc = """
        maps:
          - source: {path: x.csv, format: csv}
            subject: {template: "http://example.org/{id}"}
            po:
              - predicate: http://example.org/p
                field: id
                constant: http://example.org/c
        """
        with pytest.raises(MappingError, match="exactly one"):
            parse_mapping(doc, Path())

    @pytest.mark.parametrize("value", ["field: id", 'constant: \'"x"\''])
    def test_language_string_datatype_rejected(self, value):
        # a literal of that datatype needs a tag, which a mapping cannot give
        doc = f"""
        maps:
          - source: {{path: x.csv, format: csv}}
            subject: {{template: "http://example.org/{{id}}"}}
            po:
              - predicate: http://example.org/p
                {value}
                datatype: rdf:langString
        """
        with pytest.raises(MappingError,
                           match=r"maps\[0\]\.po\[0\]\.datatype: rdf:langString"):
            parse_mapping(doc, Path())

    def test_subject_template_that_renders_no_iri_rejected(self):
        # a value is percent-encoded, so no record could fill in the space
        doc = """
        maps:
          - source: {path: x.csv, format: csv}
            subject: {template: "http://example.org/a b/{id}"}
            po:
              - predicate: http://example.org/p
                field: id
        """
        with pytest.raises(MappingError, match=r"maps\[0\]\.subject\.template: "
                                               r"IRI contains forbidden character"):
            parse_mapping(doc, Path())

    @pytest.mark.parametrize("entry, message", [
        # no record's value can add the scheme's ':' that the text lacks
        ('template: "example.org/{v}"', r"template: IRI missing scheme separator"),
        ('template: "{v}"', r"template: IRI missing scheme separator"),
        ('template: "urn:x:{v}|"', r"template: IRI contains forbidden character"),
        ('template: "urn:x:{}{v}"', r"template: IRI contains forbidden character"),
        # a datatype only a literal object can carry
        ('template: "urn:x:{v}", datatype: xsd:integer',
         r"datatype: only a literal object has a datatype"),
        ("constant: urn:x:c, datatype: xsd:integer",
         r"datatype: only a literal object has a datatype"),
    ], ids=["no-scheme", "only-a-field", "bar", "empty-braces",
            "template-datatype", "iri-constant-datatype"])
    def test_object_that_is_no_literal_or_no_iri_rejected(self, entry, message):
        doc = ("maps:\n  - source: {path: x.csv, format: csv}\n"
               '    subject: {template: "urn:x:{v}"}\n'
               "    po:\n      - {predicate: urn:x:p, " + entry + "}\n")
        with pytest.raises(MappingError, match=r"maps\[0\]\.po\[0\]\." + message):
            parse_mapping(doc, Path())

    def test_unknown_prefix_rejected(self):
        doc = """
        maps:
          - source: {path: x.csv, format: csv}
            subject: {template: "http://example.org/{id}"}
            po:
              - predicate: nope:p
                field: id
        """
        with pytest.raises(MappingError, match="nope"):
            parse_mapping(doc, Path())


class TestApply:
    RECORD = {"country": "RS", "type": "WindPower", "year": "2020",
              "measure": "320"}

    def test_hand_applied_record(self, capacity_mapping):
        g = apply_mapping(capacity_mapping, lambda source: [self.RECORD])
        subj = IRI("http://w3id.org/energy/capacity/RS/WindPower/2020")
        assert len(g) == 6  # rdf:type + 5 property triples
        assert (subj, IRI(RDF_TYPE), IRI(GENERATION_CAPACITY)) in triples(g)
        assert (subj, IRI(PRODUCTION_TYPE), IRI(WIND_POWER)) in triples(g)
        measures = list(g.match(subject=subj, predicate=IRI(MEASURE)))
        assert measures[0].object == Literal("320", XSD_DECIMAL)

    def test_null_field_skips_triple_not_record(self, capacity_mapping):
        record = dict(self.RECORD, measure=None)
        g = apply_mapping(capacity_mapping, lambda source: [record])
        subj = IRI("http://w3id.org/energy/capacity/RS/WindPower/2020")
        assert not list(g.match(subject=subj, predicate=IRI(MEASURE)))
        assert list(g.match(subject=subj, predicate=IRI(RDF_TYPE)))

    def test_null_subject_field_skips_record(self, capacity_mapping):
        record = dict(self.RECORD, country=None)
        assert len(apply_mapping(capacity_mapping, lambda source: [record])) == 0

    # the first record a map is given names the fields it may read: for CSV
    # the header, for JSON-lines the first line's keys
    @pytest.mark.parametrize("name, text, format", [
        ("d.csv", "id,name\n1,a\n", "csv"),
        ("d.jsonl", '{"id": "1", "name": "a"}\n{"absent": "x"}\n', "json-lines")],
        ids=["csv", "json-lines"])
    def test_template_field_checked_against_first_record(self, tmp_path, name,
                                                         text, format):
        (tmp_path / name).write_text(text)
        doc = f"""
        maps:
          - source: {{path: {name}, format: {format}}}
            subject: {{template: "http://example.org/{{id}}"}}
            po:
              - {{predicate: http://example.org/p, field: name}}
          - source: {{path: {name}, format: {format}}}
            subject: {{template: "http://example.org/{{absent}}"}}
            po:
              - {{predicate: http://example.org/p, field: name}}
        """
        m = parse_mapping(doc, base_dir=tmp_path)
        with pytest.raises(MappingError,
                           match=r"^maps\[1\]: fields \['absent'\] not in "):
            apply_mapping(m)

    def test_map_given_no_records_is_not_checked(self):
        doc = """
        maps:
          - source: {path: x.csv, format: csv}
            subject: {template: "http://example.org/{absent}"}
            po:
              - {predicate: http://example.org/p, field: name}
        """
        assert len(apply_mapping(parse_mapping(doc, Path()), lambda source: [])) == 0

    @pytest.mark.parametrize("line, record", [
        ('{"flag": true, "off": false, "n": 1.5, "i": 7, "s": "x", "z": null}',
         {"flag": "true", "off": "false", "n": "1.5", "i": "7", "s": "x", "z": None}),
        ('{"s": "true", "e": 1E+3}', {"s": "true", "e": "1000.0"}),
        # xsd:decimal's lexical space has no exponent
        ('{"big": 1e20, "small": 0.00001, "n": 2.5}',
         {"big": "100000000000000000000", "small": "0.00001", "n": "2.5"})],
        ids=["scalars", "string-and-exponent", "floats-positional"])
    def test_json_lines_values_keep_json_spelling(self, tmp_path, line, record):
        from energyde.mapping import LogicalSource
        p = tmp_path / "r.jsonl"
        p.write_text(line + "\n", encoding="utf-8")
        assert read_records(LogicalSource(path=str(p), format="json-lines")) == [record]

    def test_template_values_percent_encoded(self):
        doc = """
        maps:
          - source: {path: x.csv, format: csv}
            subject: {template: "http://example.org/{id}"}
            po:
              - predicate: http://example.org/p
                field: id
        """
        m = parse_mapping(doc, Path())
        g = apply_mapping(m, lambda source: [{"id": "a b/c"}])
        assert {t.subject.value for t in g} == {"http://example.org/a%20b%2Fc"}

    def test_source_filter_selects_records(self, tmp_path):
        doc = """
        maps:
          - source: {path: r.csv, format: csv}
            filter: {field: kind, equals: a}
            subject: {template: "http://example.org/{id}"}
            po:
              - predicate: http://example.org/kind
                field: kind
        """
        m = parse_mapping(doc, tmp_path)
        records = [{"id": "1", "kind": "a"}, {"id": "2", "kind": "b"}]
        g = apply_mapping(m, lambda source: records)
        assert {t.subject.value for t in g} == {"http://example.org/1"}

    def test_csv_reader_blank_is_null(self, tmp_path, capacity_mapping):
        from energyde.mapping import LogicalSource
        p = tmp_path / "r.csv"
        p.write_text("a,b\n1,\n")
        source = LogicalSource(path=str(p), format="csv")
        assert read_records(source) == [{"a": "1", "b": None}]

    def test_csv_rows_read_as_dict_reader_reads_them(self, tmp_path):
        # a blank line is skipped, a short row's missing fields are None,
        # and a long row keeps its extra cells in a list under None
        from energyde.mapping import LogicalSource
        p = tmp_path / "r.csv"
        p.write_text('a,b,c\n1,,x\n\n2\n3,4,5,,7\n"",b2\n,,\n', encoding="utf-8")
        with open(p, encoding="utf-8") as fh:
            expected = [{k: (v if v != "" else None) for k, v in row.items()}
                        for row in csv.DictReader(fh)]
        assert expected == [{"a": "1", "b": None, "c": "x"},
                            {"a": "2", "b": None, "c": None},
                            {"a": "3", "b": "4", "c": "5", None: ["", "7"]},
                            {"a": None, "b": "b2", "c": None},
                            {"a": None, "b": None, "c": None}]
        records = read_records(LogicalSource(path=str(p), format="csv"))
        assert records == expected
        assert [list(r) for r in records] == [list(r) for r in expected]

    @pytest.mark.parametrize("text", ["", "\n", "a,a\n1,2\n3\n"], ids=repr)
    def test_csv_header_edges_read_as_dict_reader_reads_them(self, tmp_path, text):
        from energyde.mapping import LogicalSource
        p = tmp_path / "r.csv"
        p.write_text(text, encoding="utf-8")
        with open(p, encoding="utf-8") as fh:
            expected = [{k: (v if v != "" else None) for k, v in row.items()}
                        for row in csv.DictReader(fh)]
        assert read_records(LogicalSource(path=str(p), format="csv")) == expected

    def test_fixture_csv_mapping_counts(self, fixture_dir, capacity_mapping):
        source = capacity_mapping.maps[0].source
        records = read_records(source)
        # each record carries every field, so 6 triples apiece, all distinct
        assert len(apply_mapping(capacity_mapping)) == 6 * len(records)


class TestProperties:
    DOC = """
    maps:
      - source: {path: x.csv, format: csv}
        subject:
          template: "http://example.org/item/{id}"
          class: http://example.org/Item
        po:
          - predicate: http://example.org/kind
            field: kind
          - predicate: http://example.org/val
            field: val
    """

    def _random_records(self, rng, n):
        return [{"id": str(rng.randrange(1000)),
                 "kind": rng.choice(["a", "b", "c"]),
                 "val": str(rng.randrange(100)) if rng.random() > 0.2
                 else None}
                for _ in range(n)]

    def test_deterministic(self):
        m = parse_mapping(self.DOC, Path())
        records = self._random_records(random.Random(3), 50)
        g1 = apply_mapping(m, lambda source: records)
        g2 = apply_mapping(m, lambda source: records)
        assert triples(g1) == triples(g2)

    def test_monotone_in_records(self):
        m = parse_mapping(self.DOC, Path())
        records = self._random_records(random.Random(7), 40)
        full = apply_mapping(m, lambda source: records)
        sub = apply_mapping(m, lambda source: records[:20])
        assert triples(sub) <= triples(full)

    def test_triple_count_bound(self):
        # each record yields at most one type triple plus one per po entry
        m = parse_mapping(self.DOC, Path())
        records = self._random_records(random.Random(13), 60)
        g = apply_mapping(m, lambda source: records)
        assert len(g) <= len(records) * 3

    def test_serialization_round_trip(self, fixture_dir, capacity_mapping):
        g = apply_mapping(capacity_mapping)
        back = parse_ntriples(serialize_ntriples(g))
        assert triples(back) == triples(g)


# --- differential: the id-level mapping against the Term-level oracle --------

from hypothesis import example, given, settings, strategies as st

from energyde.mapping import (LogicalSource, ObjectSpec, TripleMap, _iri_template,
                              apply_triple_map)
from energyde.rdf import Graph, RdfError
from energyde.vocab import XSD_INTEGER

from genutil import _render_oracle, oracle_apply_triple_map

EX = "http://example.org/"
# values that need percent-encoding, repeat across records, or are not text
_values = st.sampled_from(["1", "2", "a b", "a/b", "é", "%", "{x}", "", "x:y",
                           '"q"', "<>", None, 7])
_records = st.lists(st.fixed_dictionaries({"a": _values, "b": _values,
                                           "c": st.sampled_from(["k", "m", None])}),
                    max_size=25)
_subject_templates = st.sampled_from([
    EX + "s/{a}", EX + "s/{a}/{b}", "urn:x:{b}-{a}", EX + "fixed", EX + "{nope}"])
_object_specs = st.sampled_from([
    ObjectSpec(field="a"),
    ObjectSpec(field="a", datatype=XSD_INTEGER),
    ObjectSpec(field="b", datatype=XSD_DECIMAL),
    ObjectSpec(constant=IRI(EX + "const")),
    ObjectSpec(constant=Literal("7", XSD_INTEGER)),
    ObjectSpec(template=EX + "o/{b}"),
    ObjectSpec(template=EX + "s/{a}"),
])
_triple_maps = st.builds(
    TripleMap,
    source=st.builds(LogicalSource, path=st.just("x.csv"), format=st.just("csv"),
                     filter_field=st.sampled_from([None, "c"]),
                     filter_equals=st.sampled_from(["k", "m"])),
    subject_template=_subject_templates,
    subject_class=st.sampled_from([None, EX + "C"]),
    predicate_objects=st.lists(
        st.tuples(st.sampled_from([EX + "p", EX + "q", RDF_TYPE]), _object_specs),
        min_size=1, max_size=5).map(tuple))


def _tmap(subject, po, class_=None, filter_equals=None):
    return TripleMap(source=LogicalSource(path="x.csv", format="csv",
                                          filter_field=filter_equals and "c",
                                          filter_equals=filter_equals),
                     subject_template=subject, subject_class=class_,
                     predicate_objects=tuple(po))


def _rows(*values):
    return [dict(zip("abc", row)) for row in values]


@settings(max_examples=300, deadline=None)
@given(st.lists(_triple_maps, min_size=1, max_size=3), _records,
       st.lists(st.integers(0, 24), max_size=5))
# no records, and a subject template with no field
@example(tmaps=[_tmap(EX + "fixed", [(EX + "p", ObjectSpec(constant=IRI(EX + "const")))],
                      class_=EX + "C")], records=[], repeats=[])
# a column that is all null, as a literal and in a template
@example(tmaps=[_tmap(EX + "s/{a}", [(EX + "p", ObjectSpec(field="b")),
                                     (EX + "q", ObjectSpec(template=EX + "o/{b}"))])],
         records=_rows(("1", None, "k"), ("2", None, None)), repeats=[0])
# null cells between values, in the subject and in two object columns
@example(tmaps=[_tmap(EX + "s/{a}", [(EX + "p", ObjectSpec(template=EX + "o/{b}")),
                                     (EX + "p", ObjectSpec(field="a")),
                                     (EX + "q", ObjectSpec(template=EX + "s/{a}"))]),
                _tmap("urn:x:{b}", [(EX + "p", ObjectSpec(field="a"))])],
         records=_rows(("1", None, None), (None, "2", None), ("3", "4", "k"),
                       ("5", None, None), (None, None, "m")), repeats=[2])
# a filter that keeps nothing
@example(tmaps=[_tmap(EX + "s/{a}", [(EX + "p", ObjectSpec(field="b"))],
                      class_=EX + "C", filter_equals="k")],
         records=_rows(("1", "2", "m"), ("3", "4", None)), repeats=[])
def test_apply_triple_map_matches_term_level_oracle(tmaps, records, repeats):
    # duplicate records, each a fresh dict with the same content
    records = records + [dict(records[i]) for i in repeats if i < len(records)]
    graph, expected = Graph(), Graph()
    for tmap in tmaps:
        apply_triple_map(tmap, records, graph)
        oracle_apply_triple_map(tmap, records, expected)
    assert graph == expected
    assert serialize_ntriples(graph) == serialize_ntriples(expected)
    # a term gets an id only with a triple that uses it
    assert len(graph.terms) == len({term for triple in graph for term in triple})


@settings(max_examples=100, deadline=None)
@given(_triple_maps, _records)
@example(tmap=_tmap(EX + "s/{c}", [(EX + "p", ObjectSpec(field="a")),
                                   (EX + "p", ObjectSpec(field="b"))]),
         records=_rows(("1", "2", "k"), ("3", "4", "k")))
def test_apply_triple_map_keeps_each_leaf_in_record_order(tmap, records):
    # a subject's objects of one predicate are in the order the records,
    # and within a record the po entries, give them
    graph, expected = Graph(), Graph()
    apply_triple_map(tmap, records, graph)
    oracle_apply_triple_map(tmap, records, expected)
    for s, p in {(t.subject, t.predicate) for t in expected}:
        assert graph.match(s, p) == expected.match(s, p)



# any text but a surrogate, with the characters that decide an IRI common;
# a fixed text is more often one that an IRI may hold, with a ':' up front
_texts = st.text(st.one_of(st.sampled_from(":{} /%<|"),
                           st.characters(blacklist_categories=("Cs",))), max_size=6)
_iri_texts = st.text(st.sampled_from("x:/%-é"), max_size=4)
_fixed_texts = st.tuples(st.one_of(st.sampled_from([EX, "urn:"]), _texts),
                         st.lists(st.one_of(_iri_texts, _iri_texts, _texts), max_size=3)
                         ).map(lambda parts: [parts[0], *parts[1]])


def _is_iri(text: str) -> bool:
    try:
        IRI(text)
    except RdfError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(_fixed_texts,
       st.lists(st.fixed_dictionaries({"a": _texts, "b": _texts, "c": _texts}),
                min_size=1, max_size=5))
@example(fixed=[EX, "/", ""], records=[{"a": "a b", "b": ":", "c": "}"}])
@example(fixed=["a b:", ""], records=[{"a": "x", "b": "y", "c": "z"}])
def test_a_template_renders_an_iri_for_every_record_or_for_none(fixed, records):
    # the fixed texts with a field between each two; a brace in a fixed text
    # may open another field, which no record holds
    template = fixed[0] + "".join(f"{{{name}}}{text}" for name, text in zip("abc", fixed[1:]))
    try:
        _iri_template(template)
        accepted = True
    except RdfError:
        accepted = False
    rendered = [text for text in (_render_oracle(template, record) for record in records)
                if text is not None]
    assert {_is_iri(text) for text in rendered} <= {accepted}
    if accepted:
        graph = Graph()
        apply_triple_map(_tmap(template, [(EX + "p", ObjectSpec(constant=IRI(EX + "o")))]),
                         records, graph)
        assert {t.subject for t in graph} == set(map(IRI, rendered))
