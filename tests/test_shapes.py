import json
import random

import pytest

from energyde.rdf import Graph, IRI, Literal, Triple, parse_ntriples
from energyde.shapes import (ShapesError, load_shapes, parse_shapes, validate)
from energyde.vocab import RDF_TYPE, XSD_DECIMAL

EX = "http://example.org/"


def g_with(*spo):
    g = Graph()
    for s, p, o in spo:
        g.insert(Triple(s, p, o))
    return g


@pytest.fixture()
def capacity_shapes(fixture_dir):
    return load_shapes(fixture_dir / "shapes" / "capacity.yaml")


class TestParse:
    def test_fixture_shape(self, capacity_shapes):
        assert len(capacity_shapes) == 1
        shape = capacity_shapes[0]
        assert shape.id == "GenerationCapacityShape"
        assert shape.target_class == "http://w3id.org/energy/GenerationCapacity"
        assert len(shape.constraints) == 5

    def test_min_above_max_rejected(self):
        doc = """
        shapes:
          - target_class: http://example.org/C
            properties:
              - {path: http://example.org/p, min_count: 3, max_count: 1}
        """
        with pytest.raises(ShapesError, match="min_count"):
            parse_shapes(doc)

    def test_unknown_constraint_key_rejected(self):
        doc = """
        shapes:
          - target_class: http://example.org/C
            properties:
              - {path: http://example.org/p, mincount: 1}
        """
        with pytest.raises(ShapesError, match="mincount"):
            parse_shapes(doc)

    def test_id_defaults_to_class_local_name(self):
        doc = """
        shapes:
          - target_class: http://example.org/Widget
            properties:
              - {path: http://example.org/p, min_count: 1}
        """
        assert parse_shapes(doc)[0].id == "Widget"


class TestInValues:
    """An ``in`` value reads as a mapping's ``constant`` does."""

    def shapes(self, values):
        return parse_shapes(f"""
        shapes:
          - target_class: http://example.org/C
            properties:
              - {{path: http://example.org/p, in: {json.dumps(values)}}}
        """)

    def test_an_iri_and_a_quoted_literal_with_a_colon(self):
        shapes = self.shapes(["urn:a", '"x:y"'])
        a, c = IRI(EX + "a"), IRI(EX + "C")
        for allowed in (IRI("urn:a"), Literal("x:y")):
            g = g_with((a, IRI(RDF_TYPE), c), (a, IRI(EX + "p"), allowed))
            assert validate(g, shapes).conforms, allowed
        for refused in (Literal("urn:a"), Literal('"x:y"'), IRI("urn:b")):
            g = g_with((a, IRI(RDF_TYPE), c), (a, IRI(EX + "p"), refused))
            assert [v.kind for v in validate(g, shapes).violations] == ["in"]


class TestValidate:
    SHAPE = """
    shapes:
      - target_class: http://example.org/C
        properties:
          - {path: http://example.org/p, min_count: 1, max_count: 2,
             datatype: http://www.w3.org/2001/XMLSchema#string}
    """

    def test_conforming_focus(self):
        shapes = parse_shapes(self.SHAPE)
        g = g_with((IRI(EX + "a"), IRI(RDF_TYPE), IRI(EX + "C")),
                   (IRI(EX + "a"), IRI(EX + "p"), Literal("x")))
        report = validate(g, shapes)
        assert report.conforms and not report.violations

    def test_min_count_violation(self):
        shapes = parse_shapes(self.SHAPE)
        g = g_with((IRI(EX + "a"), IRI(RDF_TYPE), IRI(EX + "C")))
        report = validate(g, shapes)
        assert [v.kind for v in report.violations] == ["min-count"]
        assert not report.conforms

    def test_max_count_violation(self):
        shapes = parse_shapes(self.SHAPE)
        g = g_with((IRI(EX + "a"), IRI(RDF_TYPE), IRI(EX + "C")),
                   (IRI(EX + "a"), IRI(EX + "p"), Literal("x")),
                   (IRI(EX + "a"), IRI(EX + "p"), Literal("y")),
                   (IRI(EX + "a"), IRI(EX + "p"), Literal("z")))
        assert [v.kind for v in validate(g, shapes).violations] == ["max-count"]

    def test_datatype_violation(self):
        shapes = parse_shapes(self.SHAPE)
        g = g_with((IRI(EX + "a"), IRI(RDF_TYPE), IRI(EX + "C")),
                   (IRI(EX + "a"), IRI(EX + "p"), Literal("5", XSD_DECIMAL)))
        assert [v.kind for v in validate(g, shapes).violations] == ["datatype"]

    def test_non_targets_ignored(self):
        shapes = parse_shapes(self.SHAPE)
        g = g_with((IRI(EX + "b"), IRI(EX + "q"), Literal("untyped, unchecked")))
        assert validate(g, shapes).conforms

    def test_empty_shapes_always_conform(self):
        g = g_with((IRI(EX + "a"), IRI(EX + "p"), Literal("x")))
        assert validate(g, []).conforms

    def test_empty_graph_conforms(self, capacity_shapes):
        assert validate(Graph(), capacity_shapes).conforms

    def test_node_kind_and_class(self):
        doc = """
        shapes:
          - target_class: http://example.org/C
            properties:
              - {path: http://example.org/ref, node_kind: IRI,
                 class: http://example.org/D}
        """
        shapes = parse_shapes(doc)
        g = g_with((IRI(EX + "a"), IRI(RDF_TYPE), IRI(EX + "C")),
                   (IRI(EX + "a"), IRI(EX + "ref"), IRI(EX + "d")))
        kinds = [v.kind for v in validate(g, shapes).violations]
        assert kinds == ["class"]  # right node kind, missing rdf:type
        g.insert(Triple(IRI(EX + "d"), IRI(RDF_TYPE), IRI(EX + "D")))
        assert validate(g, shapes).conforms

    def test_violations_sorted_deterministically(self):
        shapes = parse_shapes(self.SHAPE)
        g = Graph()
        for name in "zebra", "apple", "mango":
            g.insert(Triple(IRI(EX + name), IRI(RDF_TYPE), IRI(EX + "C")))
        focuses = [v.focus.value for v in validate(g, shapes).violations]
        assert focuses == sorted(focuses)


class TestFixtureDefects:
    def test_clean_fixture_graph_conforms(self, fixture_dir, capacity_shapes):
        g = parse_ntriples((fixture_dir / "graphs" / "tso.nt").read_text())
        report = validate(g, capacity_shapes)
        assert report.conforms, [v.to_dict() for v in report.violations]

    def test_seeded_defects_found_exactly(self, fixture_dir, capacity_shapes):
        g = parse_ntriples(
            (fixture_dir / "graphs" / "capacity_defective.nt").read_text())
        manifest = json.loads((fixture_dir / "defects.json").read_text())
        report = validate(g, capacity_shapes)
        found = {(v.kind, v.path, f"<{v.focus.value}>")
                 for v in report.violations}
        expected = {(d["kind"], d["path"], d["focus"]) for d in manifest}
        assert found == expected
        assert len(report.violations) == len(manifest)

    def test_report_json_shape(self, fixture_dir, capacity_shapes):
        g = parse_ntriples(
            (fixture_dir / "graphs" / "capacity_defective.nt").read_text())
        doc = json.loads(validate(g, capacity_shapes).to_json())
        assert doc["conforms"] is False
        assert {"focus", "shape", "kind", "path", "message"} <= \
            set(doc["violations"][0])


class TestProperties:
    def test_removing_focus_type_removes_its_violations(self):
        rng = random.Random(21)
        shapes = parse_shapes(TestValidate.SHAPE)
        g = Graph()
        names = [f"n{i}" for i in range(20)]
        for name in names:
            g.insert(Triple(IRI(EX + name), IRI(RDF_TYPE), IRI(EX + "C")))
            if rng.random() > 0.5:
                g.insert(Triple(IRI(EX + name), IRI(EX + "p"), Literal("x")))
        before = validate(g, shapes).violations
        victim = next(v.focus for v in before)
        g2 = Graph()
        for t in g:
            if not (t.subject == victim and t.predicate == IRI(RDF_TYPE)):
                g2.insert(t)
        after = validate(g2, shapes).violations
        assert {(v.focus, v.kind) for v in after} == \
            {(v.focus, v.kind) for v in before if v.focus != victim}


# --- differential: id-level validation against the Term-level oracle ---------

from hypothesis import example, given, settings, strategies as st

from energyde.rdf import BlankNode
from energyde.shapes import PropertyConstraint, Shape
from energyde.vocab import XSD_INTEGER, XSD_STRING

from genutil import oracle_validate

_nodes = [IRI(EX + f"n{i}") for i in range(4)] + [BlankNode("b0")]
_classes = [IRI(EX + "C"), IRI(EX + "D")]
_paths = [IRI(EX + "p"), IRI(EX + "q")]
_literals = [Literal("1"), Literal("1", XSD_INTEGER), Literal("x", lang="en"),
             Literal("2", XSD_DECIMAL)]
_triple = st.one_of(
    st.tuples(st.sampled_from(_nodes), st.just(IRI(RDF_TYPE)), st.sampled_from(_classes)),
    # a class as a path value links a node to the class by another predicate
    st.tuples(st.sampled_from(_nodes), st.sampled_from(_paths),
              st.sampled_from(_nodes + _literals + _classes)))
_in_values = st.lists(st.sampled_from([IRI(EX + "n0"), IRI(EX + "n2"), IRI(EX + "absent"),
                                       Literal("1"), Literal("1", XSD_INTEGER)]),
                      min_size=1, max_size=3).map(tuple)
_constraints = st.builds(
    PropertyConstraint,
    path=st.sampled_from([EX + "p", EX + "q", EX + "absent"]),
    min_count=st.sampled_from([None, 0, 1, 2]),
    max_count=st.sampled_from([None, 1, 2]),
    datatype=st.sampled_from([None, XSD_STRING, XSD_INTEGER]),
    node_kind=st.sampled_from([None, "IRI", "Literal"]),
    value_class=st.sampled_from([None, EX + "C", EX + "D", EX + "absent"]),
    in_values=st.one_of(st.none(), _in_values))
_shapes = st.lists(st.builds(Shape, id=st.sampled_from(["S1", "S2"]),
                             target_class=st.sampled_from([EX + "C", EX + "D",
                                                           EX + "absent"]),
                             constraints=st.lists(_constraints, min_size=1,
                                                  max_size=4).map(tuple)),
                   min_size=1, max_size=3)


def _typed(*names, cls="C"):
    return [(IRI(EX + n), IRI(RDF_TYPE), IRI(EX + cls)) for n in names]


def _p(subject, obj):
    return (IRI(EX + subject), IRI(EX + "p"), obj)


@settings(max_examples=300, deadline=None)
@given(st.lists(_triple, min_size=4, max_size=40), _shapes)
# one failing value shared by several focus nodes, for each value check
@example(_typed("n0", "n1", "n2") + [_p(n, Literal("1")) for n in ("n0", "n1", "n2")]
         + [_p("n3", Literal("1"))],
         [Shape("S1", EX + "C", (PropertyConstraint(
             EX + "p", datatype=XSD_INTEGER, node_kind="IRI", value_class=EX + "C",
             in_values=(IRI(EX + "n0"),)),))])
# one focus node with two failing values of one kind: value order
@example(_typed("n0", "n1") + [_p("n0", IRI(EX + "n3")), _p("n0", IRI(EX + "n2")),
                               _p("n0", IRI(EX + "n1")), _p("n1", IRI(EX + "n2"))],
         [Shape("S1", EX + "C", (PropertyConstraint(EX + "p", node_kind="Literal",
                                                    in_values=(IRI(EX + "n1"),)),))])
# two constraints of one shape on one path fail with one kind: constraint order
@example(_typed("n0", "n1") + [_p("n0", Literal("1")), _p("n0", Literal("1", XSD_INTEGER)),
                               _p("n1", Literal("2", XSD_DECIMAL))],
         [Shape("S1", EX + "C", (
             PropertyConstraint(EX + "p", max_count=1, datatype=XSD_INTEGER),
             PropertyConstraint(EX + "p", min_count=2, max_count=1, datatype=XSD_STRING)))])
# a constraint whose focus nodes all conform, beside one that fails
@example(_typed("n0", "n1", "n2") + _typed("n1", "n2", cls="D")
         + [_p(n, IRI(EX + "n1")) for n in ("n0", "n1", "n2")],
         [Shape("S1", EX + "C", (
             PropertyConstraint(EX + "p", min_count=1, max_count=1, node_kind="IRI",
                                value_class=EX + "D", in_values=(IRI(EX + "n1"),)),
             PropertyConstraint(EX + "q", min_count=1)))])
def test_validate_matches_term_level_oracle(spo, shapes):
    graph = g_with(*spo)
    assert validate(graph, shapes).to_json() == oracle_validate(graph, shapes).to_json()


@pytest.mark.parametrize("kind", ["min-count", "max-count", "datatype",
                                  "node-kind", "class", "in"])
def test_differential_graphs_reach_every_kind(kind):
    # the generator above can violate each kind; one hand-built case apiece
    shapes = [Shape("S", EX + "C", (PropertyConstraint(
        path=EX + "p", min_count=2, max_count=1 if kind == "max-count" else None,
        datatype=XSD_INTEGER if kind == "datatype" else None,
        node_kind="Literal" if kind == "node-kind" else None,
        value_class=EX + "D" if kind == "class" else None,
        in_values=(Literal("1"),) if kind == "in" else None),))]
    graph = g_with((IRI(EX + "n0"), IRI(RDF_TYPE), IRI(EX + "C")),
                   (IRI(EX + "n0"), IRI(EX + "p"), IRI(EX + "n1")),
                   (IRI(EX + "n0"), IRI(EX + "p"), IRI(EX + "n2")))
    if kind == "min-count":
        graph = g_with((IRI(EX + "n0"), IRI(RDF_TYPE), IRI(EX + "C")))
    if kind == "class":
        # linked to the class, but not by rdf:type
        graph.insert(Triple(IRI(EX + "n1"), IRI(EX + "q"), IRI(EX + "D")))
    report = validate(graph, shapes)
    assert kind in {v.kind for v in report.violations}
    assert report.to_json() == oracle_validate(graph, shapes).to_json()
