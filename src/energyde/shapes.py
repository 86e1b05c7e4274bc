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

Checks implemented: min_count, max_count, datatype (literal datatype IRI
equality), node_kind (IRI | Literal), class (object has an explicit rdf:type
assertion in the same graph), in (object among the listed values).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
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


_PROP_KEYS = {"path", "min_count", "max_count", "datatype", "node_kind",
              "class", "in"}
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
            prop.only(_PROP_KEYS)
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
                in_values = tuple(
                    IRI(prop.expand("in", v, prefixes)) if "://" in v or (
                        ":" in v and v.split(":", 1)[0] in prefixes)
                    else Literal(v)
                    for v in raw)
            constraints.append(PropertyConstraint(
                path=prop.iri("path", prefixes),
                min_count=min_count, max_count=max_count,
                datatype=prop.iri("datatype", prefixes, None),
                node_kind=prop.get("node_kind", one_of("IRI", "Literal"), None),
                value_class=prop.iri("class", prefixes, None),
                in_values=in_values))
        shapes.append(Shape(id=shape_id, target_class=target,
                            constraints=tuple(constraints)))
    return shapes


def load_shapes(path) -> list[Shape]:
    return load_document(path, parse_shapes)


def _check(focus: Term, constraint: PropertyConstraint, path: IRI,
           value_class: Optional[IRI], shape: Shape,
           graph: Graph) -> list[Violation]:
    objects = [t.object for t in graph.match(focus, path, None)]
    out = []

    def violation(kind: str, message: str):
        out.append(Violation(focus=focus, shape=shape.id, kind=kind,
                             path=constraint.path, message=message))

    if constraint.min_count is not None and len(objects) < constraint.min_count:
        violation("min-count",
                  f"found {len(objects)} values, need at least {constraint.min_count}")
    if constraint.max_count is not None and len(objects) > constraint.max_count:
        violation("max-count",
                  f"found {len(objects)} values, allowed at most {constraint.max_count}")
    if constraint.datatype is not None:
        for obj in objects:
            if not isinstance(obj, Literal) or obj.datatype != constraint.datatype:
                violation("datatype", f"value {format_term(obj)} is not typed "
                                      f"<{constraint.datatype}>")
    if constraint.node_kind is not None:
        want = IRI if constraint.node_kind == "IRI" else Literal
        for obj in objects:
            if not isinstance(obj, want):
                violation("node-kind",
                          f"value {format_term(obj)} is not a {constraint.node_kind}")
    if value_class is not None:
        for obj in objects:
            if not graph.match(obj, _RDF_TYPE, value_class):
                violation("class", f"value {format_term(obj)} lacks rdf:type "
                                   f"<{constraint.value_class}>")
    if constraint.in_values is not None:
        for obj in objects:
            if obj not in constraint.in_values:
                violation("in", f"value {format_term(obj)} not in allowed list")
    return out


def validate(graph: Graph, shapes: list[Shape]) -> ValidationReport:
    """Validate every focus node (subjects with rdf:type target-class) against
    each shape's constraints, in declared order; report order is stable."""
    violations: list[Violation] = []
    for shape in shapes:
        focus_nodes = sorted(
            {t.subject for t in graph.match(None, _RDF_TYPE,
                                            IRI(shape.target_class))},
            key=format_term)
        for constraint in shape.constraints:
            path = IRI(constraint.path)
            value_class = constraint.value_class and IRI(constraint.value_class)
            for focus in focus_nodes:
                violations.extend(_check(focus, constraint, path, value_class,
                                         shape, graph))
    violations.sort(key=lambda v: (format_term(v.focus), v.path, v.kind))
    return ValidationReport(conforms=not violations, violations=violations)
