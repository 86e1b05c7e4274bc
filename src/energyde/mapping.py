"""RDFizer: declarative mapping rules turning raw records into triples.

Mapping documents are a compact YAML dialect keeping the subject /
predicate-object structure of the usual mapping languages:

    prefixes:            # optional, label -> IRI base
      energy: http://w3id.org/energy/
    maps:
      - source: {path: capacity.csv, format: csv}      # format: csv | json-lines
        filter: {field: year, equals: "2020"}          # optional record filter
        subject:
          template: "http://w3id.org/energy/capacity/{country}/{type}"
          class: energy:GenerationCapacity             # optional rdf:type
        po:
          - {predicate: energy:country, field: country}
          - {predicate: energy:measure, field: measure, datatype: xsd:decimal}
          - {predicate: energy:source, constant: energy:transparency}
          - {predicate: energy:productionType, template: "http://w3id.org/energy/{type}"}
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

from .config import ConfigError, load_document, one_of, read_document
from .rdf import Graph, IRI, Literal, RdfError, Term, Triple
from .vocab import PREFIXES, RDF_TYPE, XSD_STRING
from urllib.parse import quote


class MappingError(ConfigError):
    pass


RawRecord = dict  # field name -> string value (None for missing)

source_format = one_of("csv", "json-lines")
_PLACEHOLDER_RE = re.compile(r"\{([^{}]+)\}")
_RDF_TYPE = IRI(RDF_TYPE)


@dataclass(frozen=True)
class LogicalSource:
    path: str
    format: str  # "csv" | "json-lines"
    filter_field: Optional[str] = None
    filter_equals: Optional[str] = None


@dataclass(frozen=True)
class ObjectSpec:
    field: Optional[str] = None
    constant: Optional[Term] = None
    template: Optional[str] = None
    datatype: Optional[str] = None


@dataclass(frozen=True)
class TripleMap:
    source: LogicalSource
    subject_template: str
    subject_class: Optional[str]
    predicate_objects: tuple[tuple[str, ObjectSpec], ...]

    def referenced_fields(self) -> set[str]:
        fields = set(_PLACEHOLDER_RE.findall(self.subject_template))
        for _, spec in self.predicate_objects:
            if spec.field:
                fields.add(spec.field)
            if spec.template:
                fields |= set(_PLACEHOLDER_RE.findall(spec.template))
        if self.source.filter_field:
            fields.add(self.source.filter_field)
        return fields


@dataclass(frozen=True)
class MappingDocument:
    maps: tuple[TripleMap, ...]


@dataclass
class MappingResult:
    graph: Graph
    errors: list  # (record index, message)

    @property
    def error_count(self) -> int:
        return len(self.errors)


_MAP_KEYS = {"source", "filter", "subject", "po"}
_PO_KEYS = {"predicate", "field", "constant", "template", "datatype"}


def parse_mapping(text: str, base_dir: Optional[Path] = None) -> MappingDocument:
    """Parse a mapping document.  When ``base_dir`` is given and a CSV source
    file is readable, template field references are checked against its header."""
    doc = read_document(text, MappingError)
    doc.only({"maps", "prefixes"})
    prefixes = doc.prefixes(PREFIXES)
    maps = []
    for entry in doc.sections("maps"):
        entry.only(_MAP_KEYS)
        src = entry.section("source")
        flt = entry.section("filter", required=False)
        source = LogicalSource(path=src.get("path"),
                               format=src.get("format", source_format, "csv"),
                               filter_field=flt.get("field", default=None),
                               filter_equals=flt.get("equals", default=None))
        subject = entry.section("subject")
        po_list = entry.sections("po")
        if not po_list:
            raise entry.fail("po", "must be a non-empty list")
        pos = []
        for po in po_list:
            po.only(_PO_KEYS)
            if sum(k in po for k in ("field", "constant", "template")) != 1:
                raise MappingError(
                    f"{po.where}: exactly one of field/constant/template required")
            datatype = po.iri("datatype", prefixes, None)
            constant: Optional[Term] = None
            if "constant" in po:
                raw = po.get("constant")
                if ":" in raw and not raw.startswith('"'):
                    constant = IRI(po.iri("constant", prefixes))
                else:
                    constant = Literal(raw.strip('"'), datatype or XSD_STRING)
            spec = ObjectSpec(field=po.get("field", default=None),
                              constant=constant,
                              template=po.get("template", default=None),
                              datatype=datatype)
            pos.append((po.iri("predicate", prefixes), spec))
        tmap = TripleMap(source=source,
                         subject_template=subject.get("template"),
                         subject_class=subject.iri("class", prefixes, None),
                         predicate_objects=tuple(pos))
        if base_dir is not None:
            _check_fields(tmap, Path(base_dir), entry.where)
        maps.append(tmap)
    return MappingDocument(maps=tuple(maps))


def load_mapping(path) -> MappingDocument:
    return load_document(path, parse_mapping, Path(path).parent)


def _source_header(source: LogicalSource, base_dir: Path) -> Optional[set[str]]:
    path = base_dir / source.path
    if not path.is_file():
        return None
    with open(path, encoding="utf-8") as fh:
        if source.format == "csv":
            return set(next(csv.reader(fh), []))
        first = fh.readline().strip()
        # an empty json-lines file has no schema to check
        return set(json.loads(first)) if first else None


def _check_fields(tmap: TripleMap, base_dir: Path, where: str) -> None:
    header = _source_header(tmap.source, base_dir)
    if header is None:
        return
    missing = tmap.referenced_fields() - header
    if missing:
        raise MappingError(
            f"{where}: fields {sorted(missing)} not present in source header of "
            f"{tmap.source.path}")


def read_records(source: LogicalSource, base_dir: Path) -> list[RawRecord]:
    path = Path(base_dir) / source.path
    records: list[RawRecord] = []
    with open(path, encoding="utf-8") as fh:
        if source.format == "csv":
            for row in csv.DictReader(fh):
                records.append({k: (v if v != "" else None) for k, v in row.items()})
        else:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                obj = json.loads(line)
                records.append({k: (None if v is None else str(v))
                                for k, v in obj.items()})
    return records


def _render_template(template: str, record: RawRecord) -> Optional[str]:
    """Render {field} placeholders, percent-encoding values; None if any
    referenced field is missing (skip-null)."""
    ok = True

    def sub(m):
        nonlocal ok
        value = record.get(m.group(1))
        if value is None:
            ok = False
            return ""
        return quote(str(value), safe="")

    rendered = _PLACEHOLDER_RE.sub(sub, template)
    return rendered if ok else None


def _accepts(source: LogicalSource, record: RawRecord) -> bool:
    if source.filter_field is None:
        return True
    return record.get(source.filter_field) == source.filter_equals


def apply_triple_map(tmap: TripleMap, records: Iterable[RawRecord],
                     graph: Graph, errors: list) -> None:
    subject_class = IRI(tmap.subject_class) if tmap.subject_class else None
    predicate_objects = [(IRI(p), spec) for p, spec in tmap.predicate_objects]
    for index, record in enumerate(records):
        if not _accepts(tmap.source, record):
            continue
        rendered = _render_template(tmap.subject_template, record)
        if rendered is None:
            continue  # skip-null subject: record contributes nothing for this map
        try:
            subject = IRI(rendered)
        except RdfError as exc:
            errors.append((index, f"invalid subject IRI: {exc}"))
            continue
        if subject_class:
            graph.insert(Triple(subject, _RDF_TYPE, subject_class))
        for predicate, spec in predicate_objects:
            obj: Optional[Term]
            if spec.constant is not None:
                obj = spec.constant
            elif spec.field is not None:
                value = record.get(spec.field)
                if value is None:
                    continue  # skip-null
                obj = Literal(str(value), spec.datatype) if spec.datatype \
                    else Literal(str(value))
            else:
                rendered_o = _render_template(spec.template, record)
                if rendered_o is None:
                    continue
                try:
                    obj = IRI(rendered_o)
                except RdfError as exc:
                    errors.append((index, f"invalid object IRI: {exc}"))
                    continue
            graph.insert(Triple(subject, predicate, obj))


def apply_mapping(doc: MappingDocument,
                  records: Optional[Iterable[RawRecord]] = None,
                  base_dir: Optional[Path] = None) -> MappingResult:
    """Apply every triple map.  With ``records`` given, all maps run over that
    stream; otherwise each map loads its own logical source under ``base_dir``."""
    graph = Graph()
    errors: list = []
    shared = list(records) if records is not None else None
    for tmap in doc.maps:
        if shared is not None:
            rows = shared
        else:
            if base_dir is None:
                raise MappingError("base_dir required to load logical sources")
            rows = read_records(tmap.source, base_dir)
        apply_triple_map(tmap, rows, graph, errors)
    return MappingResult(graph=graph, errors=errors)
