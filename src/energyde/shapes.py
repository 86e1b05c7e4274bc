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

import yaml

from .rdf import Graph, IRI, Literal, Term, format_term
from .vocab import PREFIXES, RDF_TYPE, expand_iri


class ShapesError(ValueError):
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


def parse_shapes(text: str) -> list[Shape]:
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ShapesError(f"invalid YAML: {exc}") from None
    if not isinstance(doc, dict) or "shapes" not in doc:
        raise ShapesError("shapes document must have a top-level 'shapes' list")
    prefixes = dict(PREFIXES)
    prefixes.update(doc.get("prefixes") or {})
    shapes = []
    for i, entry in enumerate(doc["shapes"]):
        where = f"shapes[{i}]"
        if not isinstance(entry, dict) or "target_class" not in entry:
            raise ShapesError(f"{where}: missing 'target_class'")
        target = expand_iri(str(entry["target_class"]), prefixes, where,
                            ShapesError)
        shape_id = str(entry.get("id") or target.rsplit("/", 1)[-1])
        constraints = []
        for j, prop in enumerate(entry.get("properties") or []):
            pwhere = f"{where}.properties[{j}]"
            if not isinstance(prop, dict) or "path" not in prop:
                raise ShapesError(f"{pwhere}: missing 'path'")
            unknown = set(prop) - _PROP_KEYS
            if unknown:
                raise ShapesError(f"{pwhere}: unknown keys {sorted(unknown)}")
            min_count = prop.get("min_count")
            max_count = prop.get("max_count")
            if (min_count is not None and max_count is not None
                    and min_count > max_count):
                raise ShapesError(f"{pwhere}: min_count > max_count")
            node_kind = prop.get("node_kind")
            if node_kind is not None and node_kind not in ("IRI", "Literal"):
                raise ShapesError(f"{pwhere}: node_kind must be IRI or Literal")
            datatype = prop.get("datatype")
            if datatype is not None:
                datatype = expand_iri(str(datatype), prefixes, pwhere, ShapesError)
            value_class = prop.get("class")
            if value_class is not None:
                value_class = expand_iri(str(value_class), prefixes, pwhere,
                                         ShapesError)
            in_values = None
            if "in" in prop:
                raw = prop["in"]
                if not isinstance(raw, list) or not raw:
                    raise ShapesError(f"{pwhere}: 'in' must be a non-empty list")
                terms = []
                for v in raw:
                    text_v = str(v)
                    is_iri = "://" in text_v or (
                        ":" in text_v and text_v.split(":", 1)[0] in prefixes)
                    if is_iri:
                        terms.append(IRI(expand_iri(text_v, prefixes, pwhere,
                                                    ShapesError)))
                    else:
                        terms.append(Literal(text_v))
                in_values = tuple(terms)
            constraints.append(PropertyConstraint(
                path=expand_iri(str(prop["path"]), prefixes, pwhere, ShapesError),
                min_count=min_count, max_count=max_count, datatype=datatype,
                node_kind=node_kind, value_class=value_class,
                in_values=in_values))
        shapes.append(Shape(id=shape_id, target_class=target,
                            constraints=tuple(constraints)))
    return shapes


def load_shapes(path) -> list[Shape]:
    with open(path, encoding="utf-8") as fh:
        return parse_shapes(fh.read())


def _check(focus: Term, constraint: PropertyConstraint, shape: Shape,
           graph: Graph) -> list[Violation]:
    path_iri = IRI(constraint.path)
    objects = [t.object for t in graph.match(focus, path_iri, None)]
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
    if constraint.value_class is not None:
        for obj in objects:
            if not graph.match(obj, IRI(RDF_TYPE), IRI(constraint.value_class)):
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
            {t.subject for t in graph.match(None, IRI(RDF_TYPE),
                                            IRI(shape.target_class))},
            key=format_term)
        for focus in focus_nodes:
            for constraint in shape.constraints:
                violations.extend(_check(focus, constraint, shape, graph))
    violations.sort(key=lambda v: (format_term(v.focus), v.path, v.kind))
    return ValidationReport(conforms=not violations, violations=violations)
