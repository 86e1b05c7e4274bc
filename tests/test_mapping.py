import random

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
        with pytest.raises(MappingError, match=r"maps\[0\]\.po\[0\]"):
            parse_mapping(doc)

    def test_template_field_checked_against_header(self, tmp_path):
        (tmp_path / "d.csv").write_text("id,name\n1,a\n")
        doc = """
        maps:
          - source: {path: d.csv, format: csv}
            subject: {template: "http://example.org/{absent}"}
            po:
              - predicate: http://example.org/p
                field: name
        """
        with pytest.raises(MappingError, match="absent"):
            parse_mapping(doc, base_dir=tmp_path)

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
            parse_mapping(doc)

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
            parse_mapping(doc)

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
            parse_mapping(doc)


class TestApply:
    RECORD = {"country": "RS", "type": "WindPower", "year": "2020",
              "measure": "320"}

    def test_hand_applied_record(self, capacity_mapping):
        result = apply_mapping(capacity_mapping, records=[self.RECORD])
        assert not result.errors
        g = result.graph
        subj = IRI("http://w3id.org/energy/capacity/RS/WindPower/2020")
        assert len(g) == 6  # rdf:type + 5 property triples
        assert (subj, IRI(RDF_TYPE), IRI(GENERATION_CAPACITY)) in triples(g)
        assert (subj, IRI(PRODUCTION_TYPE), IRI(WIND_POWER)) in triples(g)
        measures = list(g.match(subject=subj, predicate=IRI(MEASURE)))
        assert measures[0].object == Literal("320", XSD_DECIMAL)

    def test_null_field_skips_triple_not_record(self, capacity_mapping):
        record = dict(self.RECORD, measure=None)
        result = apply_mapping(capacity_mapping, records=[record])
        assert not result.errors
        subj = IRI("http://w3id.org/energy/capacity/RS/WindPower/2020")
        assert not list(result.graph.match(subject=subj,
                                           predicate=IRI(MEASURE)))
        assert list(result.graph.match(subject=subj,
                                       predicate=IRI(RDF_TYPE)))

    def test_null_subject_field_skips_record(self, capacity_mapping):
        record = dict(self.RECORD, country=None)
        result = apply_mapping(capacity_mapping, records=[record])
        assert not result.errors
        assert len(result.graph) == 0

    def test_template_values_percent_encoded(self):
        doc = """
        maps:
          - source: {path: x.csv, format: csv}
            subject: {template: "http://example.org/{id}"}
            po:
              - predicate: http://example.org/p
                field: id
        """
        m = parse_mapping(doc)
        result = apply_mapping(m, records=[{"id": "a b/c"}])
        assert {t.subject.value for t in result.graph} == \
            {"http://example.org/a%20b%2Fc"}

    def test_invalid_subject_recorded_and_continues(self):
        doc = """
        maps:
          - source: {path: x.csv, format: csv}
            subject: {template: "not an iri {id}"}
            po:
              - predicate: http://example.org/p
                field: id
        """
        m = parse_mapping(doc)
        result = apply_mapping(m, records=[{"id": "1"}, {"id": "2"}])
        assert len(result.errors) == 2
        assert result.errors[0][0] == 0 and result.errors[1][0] == 1
        assert len(result.graph) == 0

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
        m = parse_mapping(doc)
        records = [{"id": "1", "kind": "a"}, {"id": "2", "kind": "b"}]
        g = apply_mapping(m, records=records).graph
        assert {t.subject.value for t in g} == {"http://example.org/1"}

    def test_csv_reader_blank_is_null(self, tmp_path, capacity_mapping):
        from energyde.mapping import LogicalSource
        p = tmp_path / "r.csv"
        p.write_text("a,b\n1,\n")
        source = LogicalSource(path="r.csv", format="csv")
        assert read_records(source, tmp_path) == [{"a": "1", "b": None}]

    def test_fixture_csv_mapping_counts(self, fixture_dir, capacity_mapping):
        source = capacity_mapping.maps[0].source
        records = read_records(source, fixture_dir / "mappings")
        result = apply_mapping(capacity_mapping, records=records)
        assert not result.errors
        # each record carries every field, so 6 triples apiece, all distinct
        assert len(result.graph) == 6 * len(records)


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
        m = parse_mapping(self.DOC)
        records = self._random_records(random.Random(3), 50)
        g1 = apply_mapping(m, records=records).graph
        g2 = apply_mapping(m, records=records).graph
        assert triples(g1) == triples(g2)

    def test_monotone_in_records(self):
        m = parse_mapping(self.DOC)
        records = self._random_records(random.Random(7), 40)
        full = apply_mapping(m, records=records).graph
        sub = apply_mapping(m, records=records[:20]).graph
        assert triples(sub) <= triples(full)

    def test_triple_count_bound(self):
        # each record yields at most one type triple plus one per po entry
        m = parse_mapping(self.DOC)
        records = self._random_records(random.Random(13), 60)
        g = apply_mapping(m, records=records).graph
        assert len(g) <= len(records) * 3

    def test_serialization_round_trip(self, fixture_dir, capacity_mapping):
        g = apply_mapping(capacity_mapping,
                          base_dir=fixture_dir / "mappings").graph
        back = parse_ntriples(serialize_ntriples(g))
        assert triples(back) == triples(g)


# --- differential: the id-level mapping against the Term-level oracle --------

from hypothesis import given, settings, strategies as st

from energyde.mapping import LogicalSource, ObjectSpec, TripleMap, apply_triple_map
from energyde.rdf import Graph
from energyde.vocab import XSD_INTEGER

from genutil import oracle_apply_triple_map

EX = "http://example.org/"
# values that need percent-encoding, repeat across records, or are not text
_values = st.sampled_from(["1", "2", "a b", "a/b", "é", "%", "{x}", "", "x:y",
                           '"q"', "<>", None, 7])
_records = st.lists(st.fixed_dictionaries({"a": _values, "b": _values,
                                           "c": st.sampled_from(["k", "m", None])}),
                    max_size=25)
_subject_templates = st.sampled_from([
    EX + "s/{a}", EX + "s/{a}/{b}", "urn:x:{b}-{a}", EX + "fixed",
    "not an iri {a}", "{a}{b}", EX + "{nope}"])
_object_specs = st.sampled_from([
    ObjectSpec(field="a"),
    ObjectSpec(field="a", datatype=XSD_INTEGER),
    ObjectSpec(field="b", datatype=XSD_DECIMAL),
    ObjectSpec(constant=IRI(EX + "const")),
    ObjectSpec(constant=Literal("7", XSD_INTEGER)),
    ObjectSpec(template=EX + "o/{b}"),
    ObjectSpec(template=EX + "s/{a}"),
    ObjectSpec(template="bad {b}"),
    ObjectSpec(template="{a}"),
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


@settings(max_examples=300, deadline=None)
@given(st.lists(_triple_maps, min_size=1, max_size=3), _records,
       st.lists(st.integers(0, 24), max_size=5))
def test_apply_triple_map_matches_term_level_oracle(tmaps, records, repeats):
    # duplicate records, each a fresh dict with the same content
    records = records + [dict(records[i]) for i in repeats if i < len(records)]
    graph, errors = Graph(), []
    expected, expected_errors = Graph(), []
    for tmap in tmaps:
        apply_triple_map(tmap, records, graph, errors)
        oracle_apply_triple_map(tmap, records, expected, expected_errors)
    assert graph == expected
    assert serialize_ntriples(graph) == serialize_ntriples(expected)
    assert errors == expected_errors
    # a term gets an id only with a triple that uses it
    assert len(graph.terms) == len({term for triple in graph for term in triple})
