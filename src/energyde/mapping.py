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
prefixed name; quote it (``'"12:30"'``) to make it a literal.  Only a
literal object takes a ``datatype``.

A template's fields are percent-encoded as they fill it, so a value adds
neither a ``:`` nor any character an IRI forbids: the template's fixed text
alone decides whether each rendered text is an IRI, and a template that
renders none is refused when the mapping is read.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from decimal import Decimal
from itertools import chain, compress, repeat
from pathlib import Path
from typing import Callable, Iterable, Optional

from .config import ConfigError, load_document, one_of, read_document, scalar
from .rdf import _SURROGATE, Graph, IRI, Literal, Term
from .vocab import PREFIXES, RDF_LANGSTRING, RDF_TYPE, XSD_STRING
from urllib.parse import quote


class MappingError(ConfigError):
    pass


RawRecord = dict  # field name -> string value (None for missing)

source_format = one_of("csv", "json-lines")
_PLACEHOLDER_RE = re.compile(r"\{([^{}]+)\}")


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


def parse_mapping(text: str, base_dir: Path) -> MappingDocument:
    """Parse a mapping document whose source paths are relative to
    ``base_dir``.  No source file is opened: ``apply_mapping`` checks a
    map's fields against the records it is given."""
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
            template = po.get("template", _iri_template, None)
            if datatype and (template or isinstance(constant, IRI)):
                raise po.fail("datatype", "only a literal object has a datatype")
            spec = ObjectSpec(field=po.get("field", default=None),
                              constant=constant, template=template,
                              datatype=datatype)
            pos.append((predicate, spec))
        tmap = TripleMap(source=source,
                         subject_template=subject.get("template", _iri_template),
                         subject_class=subject.iri("class", prefixes, None),
                         predicate_objects=tuple(pos))
        maps.append(tmap)
    doc.done()
    return MappingDocument(maps=tuple(maps))


def _iri_template(value) -> str:
    """``value`` as a template, refused unless it renders an IRI: its fixed
    text, with every field empty, must be one."""
    template = scalar(value)
    pattern, fields = _template_parts(template)
    IRI(pattern.format(*[""] * len(fields)))
    return template


def load_mapping(path) -> MappingDocument:
    return load_document(path, parse_mapping, Path(path).parent)


def read_records(source: LogicalSource) -> list[RawRecord]:
    path = source.path
    records: list[RawRecord] = []
    try:
        with open(path, encoding="utf-8") as fh:
            if source.format == "csv":
                records = _csv_records(csv.reader(fh))
            else:
                for number, line in enumerate(fh, 1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        obj = json.loads(line)
                    except (ValueError, RecursionError):
                        obj = None
                    if not isinstance(obj, dict):
                        raise MappingError(f"{path}: line {number}: not a JSON object")
                    if any(isinstance(v, (list, dict)) for v in obj.values()):
                        raise MappingError(f"{path}: line {number}: a value is a "
                                           f"JSON array or object")
                    if any(isinstance(v, float) and not math.isfinite(v)
                           for v in obj.values()):
                        raise MappingError(f"{path}: line {number}: a value is not "
                                           f"a finite number")
                    # true and false keep their JSON spelling, XSD's boolean
                    # one, and a float has no exponent, as xsd:decimal needs
                    record = {k: (json.dumps(v) if isinstance(v, bool) else
                                  format(Decimal(repr(v)), "f") if isinstance(v, float)
                                  else None if v is None else str(v))
                              for k, v in obj.items()}
                    if _SURROGATE.search("".join(chain(record, filter(None, record.values())))):
                        raise MappingError(f"{path}: line {number}: a key or value "
                                           f"holds a surrogate code point")
                    records.append(record)
    except (OSError, UnicodeDecodeError) as exc:
        raise MappingError(f"{path}: cannot read: {exc}") from None
    return records


# an empty CSV cell reads as None; ``get(v, v)`` leaves every other cell as is
_EMPTY_IS_NULL = {"": None}


def _csv_records(reader) -> list[RawRecord]:
    """The records of CSV rows whose first row is the header, as
    ``csv.DictReader`` gives them, each empty cell None: a blank row is
    skipped, a short row's missing fields are None, and a long row keeps
    its extra cells, as they are, in a list under the key None."""
    header = next(reader, [])
    width = len(header)
    records = []
    for row in reader:
        if not row:
            continue
        record = dict(zip(header, map(_EMPTY_IS_NULL.get, row, row)))
        if len(row) < width:
            record.update(dict.fromkeys(header[len(row):]))
        elif len(row) > width:
            record[None] = row[width:]
        records.append(record)
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
                     graph: Graph) -> None:
    """Add the triples ``tmap`` makes of ``records`` to ``graph``.  A null
    field skips the triple it feeds (the whole record, for the subject).
    Each rendered text is an IRI: ``parse_mapping`` refused any template
    that renders none.

    The map runs a column at a time, not a record at a time.  Each field it
    reads is one column of every record's value, percent-encoded once per
    distinct value through a memo.  A template's texts are one C-level
    ``map`` of ``str.format`` over its fields' columns; each distinct text
    is built into an IRI once, and each distinct literal built once,
    through a memo, so a column of terms is one ``map`` of a memo over a
    column of values.  Nulls are found in the memos, once per distinct
    value; only a column that holds one is filtered cell by cell.  The
    subject column and each predicate's object columns, as indexes into
    this call's term table, go to ``Graph.insert_encoded`` as one
    ``(predicate, subjects, objects)`` batch per predicate."""
    terms: list[Term] = []

    def add(term: Term) -> int:
        terms.append(term)
        return len(terms) - 1

    iris = _Memo(lambda text: None if text is None else add(IRI(text)))

    rows = records if isinstance(records, list) else list(records)
    source = tmap.source
    if source.filter_field is not None:
        rows = [row for row in rows
                if row.get(source.filter_field) == source.filter_equals]

    def encoded(name: str) -> tuple[list, bool]:
        """Each row's value of field ``name``, percent-encoded, or None; and
        whether any is None."""
        memo = _Memo(lambda value: None if value is None else quote(str(value), safe=""))
        return list(map(memo.__getitem__, _column(rows, name))), None in memo

    def rendered(template: str) -> tuple[list, bool]:
        """Each row's index of the IRI ``template`` renders, or None when a
        field it needs is null; and whether any is None."""
        pattern, fields = _template_parts(template)
        columns, nulls = zip(*map(encoded, fields)) if fields else ((), ())
        if any(nulls):
            texts = [None if None in values else pattern.format(*values)
                     for values in zip(*columns)]
        else:
            texts = list(map(pattern.format, *columns)) if fields \
                else [pattern.format()] * len(rows)
        return list(map(iris.__getitem__, texts)), any(nulls)

    def literal(name: str, datatype: str) -> tuple[list, bool]:
        memo = _Memo(lambda raw: None if raw is None else add(Literal(str(raw), datatype)))
        return list(map(memo.__getitem__, _column(rows, name))), None in memo

    def object_column(spec: ObjectSpec) -> tuple[list, bool]:
        if spec.constant is not None:
            return [add(spec.constant)] * len(rows), False
        if spec.field is not None:
            return literal(spec.field, spec.datatype or XSD_STRING)
        return rendered(spec.template)

    subjects, nulls = rendered(tmap.subject_template)
    if nulls:                               # rows with no subject drop out
        keep = [subject is not None for subject in subjects]
        rows, subjects = list(compress(rows, keep)), list(compress(subjects, keep))
    # each predicate's object columns, each with which of its cells to keep
    by_predicate: dict[int, list] = {}
    predicates = _Memo(lambda p: add(IRI(p)))
    if tmap.subject_class:
        by_predicate[predicates[RDF_TYPE]] = [([add(IRI(tmap.subject_class))] * len(rows), None)]
    for p, spec in tmap.predicate_objects:
        objects, nulls = object_column(spec)
        keep = [cell is not None for cell in objects] if nulls else None
        by_predicate.setdefault(predicates[p], []).append((objects, keep))

    def interleave(parts: list) -> list:
        """The parts' cells row by row: a record's triples of one predicate
        keep their ``po`` order."""
        return parts[0] if len(parts) == 1 else list(chain.from_iterable(zip(*parts)))

    batches = []
    for p, parts in by_predicate.items():
        owners = interleave([subjects] * len(parts))
        objects = interleave([objects for objects, _ in parts])
        if any(keep is not None for _, keep in parts):
            keep = interleave([keep or [True] * len(rows) for _, keep in parts])
            owners, objects = list(compress(owners, keep)), list(compress(objects, keep))
        batches.append((p, owners, objects))
    graph.insert_encoded(terms, batches)


def _column(records: list, name: str) -> list:
    """The value of field ``name`` in each of ``records``, None where the
    record has none."""
    return list(map(dict.get, records, repeat(name)))


def apply_mapping(doc: MappingDocument,
                  records_of: Callable[[LogicalSource], list] = read_records) -> Graph:
    """The graph every triple map of ``doc`` makes of the records that
    ``records_of`` gives for its logical source.  Each field a map reads must
    be a key of the first of its records (for CSV, a column of the header),
    or ``MappingError`` names the map and the fields; a map given no
    records makes no triples and is not checked."""
    graph = Graph()
    for i, tmap in enumerate(doc.maps):
        records = records_of(tmap.source)
        missing = tmap.referenced_fields() - records[0].keys() if records else ()
        if missing:
            raise MappingError(f"maps[{i}]: fields {sorted(missing)} not in "
                               f"the records it is given")
        apply_triple_map(tmap, records, graph)
    return graph
