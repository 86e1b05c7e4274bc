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

A source ``path`` is relative to the mapping file's directory, and is joined
with it when the file is read, so a parsed ``LogicalSource`` names its file
wherever the program runs.  A ``constant`` with a ``:`` is an IRI or
prefixed name; quote it (``'"12:30"'``) to make it a literal.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional, Union

from .config import ConfigError, load_document, one_of, read_document
from .rdf import Graph, IRI, Literal, RdfError, Term
from .vocab import PREFIXES, RDF_LANGSTRING, RDF_TYPE, XSD_STRING
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


def parse_mapping(text: str, base_dir: Path) -> MappingDocument:
    """Parse a mapping document whose source paths are relative to
    ``base_dir``.  When a source file exists, the fields the map reads are
    checked against its header."""
    doc = read_document(text, MappingError)
    prefixes = doc.prefixes(PREFIXES)
    maps = []
    for entry in doc.sections("maps"):
        src = entry.section("source")
        flt = entry.section("filter", required=False)
        source = LogicalSource(path=str(base_dir / src.get("path")),
                               format=src.get("format", source_format, "csv"),
                               filter_field=flt.get("field", default=None),
                               filter_equals=flt.get("equals", default=None))
        subject = entry.section("subject")
        po_list = entry.sections("po")
        if not po_list:
            raise entry.fail("po", "must be a non-empty list")
        pos = []
        for po in po_list:
            predicate = po.iri("predicate", prefixes)
            datatype = po.iri("datatype", prefixes, None)
            objects = sum(k in po for k in ("field", "constant", "template"))
            po.done()
            if objects != 1:
                raise MappingError(
                    f"{po.where}: exactly one of field/constant/template required")
            if datatype == RDF_LANGSTRING:
                raise po.fail("datatype", "rdf:langString needs a language tag")
            constant = po.get("constant", default=None)
            if constant is not None:
                constant = po.term("constant", constant, prefixes,
                                   datatype or XSD_STRING)
            spec = ObjectSpec(field=po.get("field", default=None),
                              constant=constant,
                              template=po.get("template", default=None),
                              datatype=datatype)
            pos.append((predicate, spec))
        tmap = TripleMap(source=source,
                         subject_template=subject.get("template"),
                         subject_class=subject.iri("class", prefixes, None),
                         predicate_objects=tuple(pos))
        _check_fields(tmap, entry.where)
        maps.append(tmap)
    doc.done()
    return MappingDocument(maps=tuple(maps))


def load_mapping(path) -> MappingDocument:
    return load_document(path, parse_mapping, Path(path).parent)


def _json_object(line: str) -> Optional[dict]:
    """The JSON object ``line`` holds, or None if it holds none."""
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError):
        return None
    return obj if isinstance(obj, dict) else None


def _source_header(source: LogicalSource, where: str) -> Optional[set[str]]:
    path = Path(source.path)
    if not path.is_file():
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            if source.format == "csv":
                return set(next(csv.reader(fh), []))
            first = fh.readline().strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise MappingError(f"{where}.source: cannot read {path}: {exc}") from None
    if not first:
        return None  # an empty json-lines file has no schema to check
    header = _json_object(first)
    if header is None:
        raise MappingError(f"{where}.source: first line of {path} is not a "
                           f"JSON object")
    return set(header)


def _check_fields(tmap: TripleMap, where: str) -> None:
    header = _source_header(tmap.source, where)
    if header is None:
        return
    missing = tmap.referenced_fields() - header
    if missing:
        raise MappingError(
            f"{where}: fields {sorted(missing)} not present in source header of "
            f"{tmap.source.path}")


def read_records(source: LogicalSource) -> list[RawRecord]:
    path = source.path
    records: list[RawRecord] = []
    try:
        with open(path, encoding="utf-8") as fh:
            if source.format == "csv":
                for row in csv.DictReader(fh):
                    records.append({k: (v if v != "" else None)
                                    for k, v in row.items()})
            else:
                for number, line in enumerate(fh, 1):
                    line = line.strip()
                    if not line:
                        continue
                    obj = _json_object(line)
                    if obj is None:
                        raise MappingError(f"{path}: line {number}: not a JSON object")
                    records.append({k: (None if v is None else str(v))
                                    for k, v in obj.items()})
    except (OSError, UnicodeDecodeError) as exc:
        raise MappingError(f"{path}: cannot read: {exc}") from None
    return records


def _template_parts(template: str) -> tuple[str, tuple[str, ...]]:
    """A template as a ``str.format`` pattern and the fields that fill its
    ``{}`` slots, in order."""
    parts = _PLACEHOLDER_RE.split(template)
    pattern = "{}".join(part.replace("{", "{{").replace("}", "}}")
                        for part in parts[0::2])
    return pattern, tuple(parts[1::2])


class _Memo(dict):
    """``make(key)``, computed on the first lookup of each key."""

    def __init__(self, make: Callable):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def apply_triple_map(tmap: TripleMap, records: Iterable[RawRecord],
                     graph: Graph, errors: list) -> None:
    """Add the triples ``tmap`` makes of ``records`` to ``graph``.  A null
    field skips the triple it feeds (the whole record, for the subject), and
    an invalid rendered subject or object IRI appends ``(record index,
    message)`` to ``errors``.

    Work is done per distinct value, not per record: each field value is
    percent-encoded once, each rendered IRI built and checked once, and each
    literal built once per object spec.  Records become triples of indexes
    into this call's term table, which ``Graph.insert_encoded`` adds in one
    batch."""
    terms: list[Term] = []

    def add(term: Term) -> int:
        terms.append(term)
        return len(terms) - 1

    def iri(text: str) -> Union[int, str]:
        try:
            return add(IRI(text))
        except RdfError as exc:
            return str(exc)

    encoded = _Memo(lambda value: quote(value, safe=""))
    iris = _Memo(iri)                       # rendered text -> index, or its error

    def renderer(template: str) -> Callable:
        """Record -> the index of the IRI ``template`` renders, the text of
        the error that IRI raises, or None when a field it needs is null."""
        pattern, fields = _template_parts(template)

        def render(record):
            values = []
            for name in fields:
                value = record.get(name)
                if value is None:
                    return None
                values.append(encoded[str(value)])
            return iris[pattern.format(*values)]
        return render

    def literal(name: str, datatype: str) -> Callable:
        made = _Memo(lambda lexical: add(Literal(lexical, datatype)))

        def value(record):
            raw = record.get(name)
            return None if raw is None else made[str(raw)]
        return value

    def object_of(spec: ObjectSpec) -> Callable:
        if spec.constant is not None:
            index = add(spec.constant)
            return lambda record: index
        if spec.field is not None:
            return literal(spec.field, spec.datatype or XSD_STRING)
        return renderer(spec.template)

    subject = renderer(tmap.subject_template)
    typed = (add(_RDF_TYPE), add(IRI(tmap.subject_class))) \
        if tmap.subject_class else None
    objects = [(add(IRI(p)), object_of(spec)) for p, spec in tmap.predicate_objects]
    filter_field, filter_equals = tmap.source.filter_field, tmap.source.filter_equals
    triples: list[tuple[int, int, int]] = []
    for index, record in enumerate(records):
        if filter_field is not None and record.get(filter_field) != filter_equals:
            continue
        s = subject(record)
        if s is None:
            continue  # skip-null subject: record contributes nothing for this map
        if isinstance(s, str):
            errors.append((index, f"invalid subject IRI: {s}"))
            continue
        if typed:
            triples.append((s, *typed))
        for p, value_of in objects:
            o = value_of(record)
            if o is None:
                continue  # skip-null
            if isinstance(o, str):
                errors.append((index, f"invalid object IRI: {o}"))
            else:
                triples.append((s, p, o))
    graph.insert_encoded(terms, triples)


def apply_mapping(doc: MappingDocument,
                  records: Optional[Iterable[RawRecord]] = None) -> MappingResult:
    """Apply every triple map.  With ``records`` given, all maps run over that
    stream; otherwise each map loads its own logical source."""
    graph = Graph()
    errors: list = []
    shared = list(records) if records is not None else None
    for tmap in doc.maps:
        rows = shared if shared is not None else read_records(tmap.source)
        apply_triple_map(tmap, rows, graph, errors)
    return MappingResult(graph=graph, errors=errors)
