"""Integrity-constraint validation over a graph, with a violation report.

Shapes are a compact YAML dialect mirroring node-shape / property-shape
structure:

    shapes:
      - id: CapacityShape            # optional, defaults to target class local name
        target_class: energy:GenerationCapacity
        properties:
          - {path: energy:country, min_count: 1, max_count: 1, datatype: xsd:string}
          - {path: energy:productionType, min_count: 1, node_kind: IRI}
          - {path: energy:plant, class: cim:Plant}
          - {path: energy:agg_year, in: ["2019", "2020", "2021"]}
          - {path: energy:slot, in: ['"12:30"', energy:Peak]}

Checks implemented: min_count, max_count, datatype (literal datatype IRI
equality), node_kind (IRI | Literal), class (object has an explicit rdf:type
assertion in the same graph), in (object among the listed values).  An
``in`` value reads as a mapping's ``constant`` does: a value with a ``:`` is
an IRI or prefixed name unless it is quoted, and any other is a string
literal.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from itertools import chain, compress, filterfalse, repeat
from typing import Optional

from .config import (ConfigError, integer, load_document, one_of, read_document,
                     strings)
from .rdf import Graph, IRI, Literal, Term, format_term
from .vocab import PREFIXES, RDF_TYPE


class ShapesError(ConfigError):
    pass


@dataclass(frozen=True)
class PropertyConstraint:
    path: str
    min_count: Optional[int] = None
    max_count: Optional[int] = None
    datatype: Optional[str] = None
    node_kind: Optional[str] = None
    value_class: Optional[str] = None
    in_values: Optional[tuple[Term, ...]] = None


@dataclass(frozen=True)
class Shape:
    id: str
    target_class: str
    constraints: tuple[PropertyConstraint, ...]


@dataclass
class Violation:
    focus: Term
    shape: str
    kind: str
    path: str
    message: str

    def to_dict(self) -> dict:
        return {"focus": format_term(self.focus), "shape": self.shape,
                "kind": self.kind, "path": self.path, "message": self.message}


@dataclass
class ValidationReport:
    conforms: bool
    violations: list[Violation] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps({
            "conforms": self.conforms,
            "violations": [v.to_dict() for v in self.violations],
        }, indent=2) + "\n"


_RDF_TYPE = IRI(RDF_TYPE)


def parse_shapes(text: str) -> list[Shape]:
    doc = read_document(text, ShapesError)
    prefixes = doc.prefixes(PREFIXES)
    shapes = []
    for entry in doc.sections("shapes"):
        target = entry.iri("target_class", prefixes)
        shape_id = entry.get("id", default=None) or target.rsplit("/", 1)[-1]
        constraints = []
        for prop in entry.sections("properties", []):
            min_count = prop.get("min_count", integer, None)
            max_count = prop.get("max_count", integer, None)
            if (min_count is not None and max_count is not None
                    and min_count > max_count):
                raise ShapesError(f"{prop.where}: min_count > max_count")
            in_values = None
            if "in" in prop:
                raw = prop.get("in", strings)
                if not raw:
                    raise prop.fail("in", "must be a non-empty list")
                in_values = tuple(prop.term("in", v, prefixes) for v in raw)
            constraints.append(PropertyConstraint(
                path=prop.iri("path", prefixes),
                min_count=min_count, max_count=max_count,
                datatype=prop.iri("datatype", prefixes, None),
                node_kind=prop.get("node_kind", one_of("IRI", "Literal"), None),
                value_class=prop.iri("class", prefixes, None),
                in_values=in_values))
        shapes.append(Shape(id=shape_id, target_class=target,
                            constraints=tuple(constraints)))
    doc.done()
    return shapes


def load_shapes(path) -> list[Shape]:
    return load_document(path, parse_shapes)


def _violations(graph: Graph, shape: Shape, constraint: PropertyConstraint,
                focus_ids: list[int], type_id: Optional[int]) -> list[Violation]:
    """``constraint`` checked on each focus node, all by term id.  The
    values come off the path's PSO table with one ``Graph.leaves`` call.
    Counts are compared a column at a time; each value check is decided
    once per distinct value, into the set of those that fail it.  Only a
    failing check walks the focus nodes.  The caller holds ``graph.lock``."""
    terms = graph.terms
    values = graph.leaves(graph.term_id(IRI(constraint.path)), focus_ids)
    out = []

    def violation(focus: int, kind: str, message: str):
        out.append(Violation(focus=terms[focus], shape=shape.id, kind=kind,
                             path=constraint.path, message=message))

    low, high = constraint.min_count, constraint.max_count
    counts = list(map(len, values))
    if (low is not None and min(counts, default=low) < low) or \
            (high is not None and max(counts, default=high) > high):
        for focus, n in zip(focus_ids, counts):
            if low is not None and n < low:
                violation(focus, "min-count", f"found {n} values, need at least {low}")
            if high is not None and n > high:
                violation(focus, "max-count", f"found {n} values, allowed at most {high}")
    # each value check: its kind, the test a conforming value id passes,
    # and the end of its message
    checks = []
    datatype, node_kind = constraint.datatype, constraint.node_kind
    if datatype is not None:
        checks.append(("datatype", lambda o: isinstance(terms[o], Literal)
                       and terms[o].datatype == datatype, f"is not typed <{datatype}>"))
    if node_kind is not None:
        want = IRI if node_kind == "IRI" else Literal
        checks.append(("node-kind", lambda o: isinstance(terms[o], want),
                       f"is not a {node_kind}"))
    objects = list(set(chain.from_iterable(values)))
    if constraint.value_class is not None:
        class_id = graph.term_id(IRI(constraint.value_class))
        types = graph.leaves(type_id, objects)
        typed = set(compress(objects, map(operator.contains, types, repeat(class_id))))
        checks.append(("class", typed.__contains__,
                       f"lacks rdf:type <{constraint.value_class}>"))
    if constraint.in_values is not None:
        allowed = {graph.term_id(term) for term in constraint.in_values}
        checks.append(("in", allowed.__contains__, "not in allowed list"))
    for kind, conforms, message in checks:
        failing = set(filterfalse(conforms, objects))
        if failing:
            for focus, objs in zip(focus_ids, values):
                for o in objs:
                    if o in failing:
                        violation(focus, kind, f"value {format_term(terms[o])} {message}")
    return out


def validate(graph: Graph, shapes: list[Shape]) -> ValidationReport:
    """Validate every focus node (subjects with rdf:type target-class) against
    each shape's constraints, in declared order; report order is stable."""
    violations: list[Violation] = []
    with graph.lock:
        type_id = graph.term_id(_RDF_TYPE)
        for shape in shapes:
            class_id = graph.term_id(IRI(shape.target_class))
            focus_ids = [] if type_id is None or class_id is None else \
                [s for s, _, _ in graph.match_ids(None, type_id, class_id)]
            for constraint in shape.constraints:
                violations.extend(_violations(graph, shape, constraint,
                                              focus_ids, type_id))
    # one focus node's violations keep their shape, constraint and value order
    violations.sort(key=lambda v: (format_term(v.focus), v.path, v.kind))
    return ValidationReport(conforms=not violations, violations=violations)
