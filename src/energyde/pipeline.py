"""Materialized knowledge-graph creation: staging, preprocessing, mapping,
linking, validation, and load, with a provenance graph alongside the output."""

from __future__ import annotations

import hashlib
import json
import re
import shutil
from dataclasses import dataclass
from decimal import Context, Decimal, Inexact, localcontext
from pathlib import Path
from typing import Iterable, Optional

from .config import (ConfigError, Section, load_document, one_of, read_document,
                     scalar, strings, write_text)
from .connector.messages import format_rfc3339
from .mapping import (LogicalSource, RawRecord, apply_mapping, load_mapping,
                      read_records, source_format)
from .rdf import (Graph, IRI, Literal, Triple, insert_ntriples, load_graph,
                  save_graph, serialize_ntriples)
from .shapes import load_shapes, validate
from .vocab import OWL_SAMEAS, PREFIXES, PROV, RDF_TYPE, XSD_DATETIME


class PipelineError(ConfigError):
    pass


@dataclass(frozen=True)
class PreprocessStep:
    kind: str  # rename-field | scale-numeric | aggregate | drop-missing
    params: tuple

    @classmethod
    def read(cls, step: Section) -> "PreprocessStep":
        kind = step.get("kind")
        if kind == "rename-field":
            params = (step.get("from"), step.get("to"))
        elif kind == "scale-numeric":
            params = (step.get("field"), step.get("factor", _factor))
        elif kind == "aggregate":
            group_by = tuple(step.get("group_by", strings, ()))
            if not group_by:
                raise step.fail("group_by", "aggregate needs group_by fields")
            params = (group_by, step.get("sum"))
        elif kind == "drop-missing":
            params = (step.get("field"),)
        else:
            raise step.fail("kind", f"unknown preprocessing kind {kind!r}")
        return cls(kind, params)


def _factor(value) -> Decimal:
    factor = _finite(scalar(value))
    if not factor:
        raise ValueError(f"not a number, or zero: {value!r}")
    return factor


def _finite(value) -> Optional[Decimal]:
    """``value`` as a ``Decimal``, or None unless its text is a finite
    xsd:double lexical form (XML Schema 1.1 Part 2, 3.3.5) in ASCII, with an
    exponent of at most nine digits, so that ``Decimal`` reads it exactly."""
    text = str(value)
    number = re.fullmatch(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]{1,9})?", text)
    return Decimal(text) if number else None


def canonical_decimal(value: Decimal) -> str:
    """No exponent, trailing zeros trimmed, '.' separator."""
    text = format(value, "f")
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text or "0"


def preprocess(records: Iterable[RawRecord],
               steps: list) -> tuple[list[RawRecord], list[str]]:
    """Apply steps in order; returns (records, tally of record-level errors).
    The arithmetic is exact: a product that the 28-digit decimal context
    would round, or that overflows, drops its record, and such a group sum
    drops its group's row, each with an error."""
    rows = list(records)  # each step that changes a record makes a new one
    errors: list[str] = []
    # Overflow is an Inexact too, so this one trap covers both
    with localcontext(Context(traps=[Inexact])):
        for step in steps:
            if step.kind == "rename-field":
                old, new = step.params
                rows = [{(new if k == old else k): v for k, v in r.items()}
                        for r in rows]
            elif step.kind == "drop-missing":
                (fld,) = step.params
                rows = [r for r in rows if r.get(fld) is not None]
            elif step.kind == "scale-numeric":
                fld, factor = step.params
                out = []
                for i, r in enumerate(rows):
                    value = r.get(fld)
                    if value is None:
                        out.append(r)
                        continue
                    number = _finite(value)
                    if number is None:
                        errors.append(f"scale-numeric: record {i}: "
                                      f"non-numeric {fld}={value!r}")
                        continue
                    try:
                        number *= factor
                    except Inexact:
                        errors.append(f"scale-numeric: record {i}: {fld}={value!r} "
                                      f"scaled by {factor} is not exact")
                        continue
                    r = dict(r)
                    r[fld] = canonical_decimal(number)
                    out.append(r)
                rows = out
            elif step.kind == "aggregate":
                group_by, sum_field = step.params
                sums: dict[tuple, Decimal] = {}     # in the order groups first appear
                inexact: set[tuple] = set()
                for i, r in enumerate(rows):
                    value = r.get(sum_field)
                    amount = _finite(value)
                    if amount is None:
                        errors.append(f"aggregate: record {i}: "
                                      f"non-numeric {sum_field}={value!r}")
                        continue
                    key = tuple(r.get(g) for g in group_by)
                    if key in inexact:
                        continue
                    try:
                        sums[key] = sums.get(key, 0) + amount
                    except Inexact:
                        inexact.add(key)
                        errors.append(f"aggregate: group {dict(zip(group_by, key))}: "
                                      f"the sum of {sum_field} is not exact")
                rows = [{**dict(zip(group_by, key)), sum_field: canonical_decimal(total)}
                        for key, total in sums.items() if key not in inexact]
    return rows, errors


@dataclass(frozen=True)
class LinkingSpec:
    label_predicate: str
    reference_path: str
    link_predicate: str = OWL_SAMEAS


def link_entities(graph: Graph, reference: Graph,
                  spec: LinkingSpec) -> tuple[list[Triple], list]:
    """Exact-label linking: for each local node and reference node carrying an
    equal label, add a sameAs link into ``graph``.  Returns the links the
    graph did not hold yet, as triples in the order they went in, and the
    ambiguous labels (one local label matching several reference nodes)."""
    label = IRI(spec.label_predicate)
    by_label: dict[str, list] = {}
    for triple in reference.match(None, label, None):
        if isinstance(triple.object, Literal):
            by_label.setdefault(triple.object.lexical, []).append(triple.subject)
    links = []
    ambiguous = []
    link_pred = IRI(spec.link_predicate)
    for triple in list(graph.match(None, label, None)):
        if not isinstance(triple.object, Literal):
            continue
        matches = by_label.get(triple.object.lexical, [])
        if len(matches) > 1:
            ambiguous.append(triple.object.lexical)
        for target in matches:
            before = len(graph)
            link = Triple(triple.subject, link_pred, target)
            if graph.insert(link) > before:
                links.append(link)
    return links, sorted(set(ambiguous))


@dataclass
class PipelineConfig:
    sources: list            # [(LogicalSource, [PreprocessStep, ...]), ...]
    mapping_path: Path
    shapes_path: Path
    linking: Optional[LinkingSpec]
    output_path: Path
    run_id: str              # of ``output`` as the file writes it
    on_violation: str        # block | warn
    staging_dir: Path
    provenance_path: Path
    report_path: Optional[Path]


def load_pipeline_config(path) -> PipelineConfig:
    return load_document(path, _parse_pipeline_config, Path(path).parent)


def _parse_pipeline_config(text: str, base: Path) -> PipelineConfig:
    doc = read_document(text, PipelineError)
    policy = doc.get("on_violation", one_of("block", "warn"), "block")
    link = doc.section("linking", required=False)
    linking = LinkingSpec(
        label_predicate=link.iri("label_predicate", PREFIXES),
        reference_path=str(base / link.get("reference")),
        link_predicate=link.iri("link_predicate", PREFIXES, OWL_SAMEAS),
    ) if link.data else None
    sources = []
    for entry in doc.sections("sources", []):
        steps = [PreprocessStep.read(s) for s in entry.sections("preprocess", [])]
        sources.append((LogicalSource(
            path=str(base / entry.get("path")),
            format=entry.get("format", source_format, "csv")), steps))
    if not sources:
        raise doc.fail("sources", "pipeline config needs at least one source")
    written_output = doc.get("output")
    output = base / written_output
    report = doc.get("report", default=None)
    config = PipelineConfig(
        sources=sources,
        mapping_path=base / doc.get("mapping"),
        shapes_path=base / doc.get("shapes"),
        linking=linking,
        output_path=output,
        # deterministic, so re-runs of an unchanged config are idempotent,
        # and one id however the config's own path is written
        run_id=hashlib.sha256(written_output.encode()).hexdigest()[:12],
        on_violation=policy,
        staging_dir=base / doc.get("staging", default="staging"),
        provenance_path=base / (doc.get("provenance", default=None)
                                or output.with_suffix(".prov.nt").name),
        report_path=base / report if report else None)
    doc.done()
    for required in ([config.mapping_path, config.shapes_path]
                     + [source.path for source, _ in sources]
                     + ([Path(linking.reference_path)] if linking else [])):
        if not Path(required).is_file():
            raise PipelineError(f"referenced file does not exist: {required}")
    return config


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


class _RunRecord:
    """What a pipeline run leaves: its report, and a PROV-O graph in which
    each recorded stage is an ``Activity`` that used and generated content
    digests, and began when the stage before it ended."""

    BASE = "http://w3id.org/energy/prov/"

    def __init__(self, config: PipelineConfig):
        self.config = config
        self.report: dict = {"stages": {}, "errors": [], "aborted_stage": None,
                             "conforms": None, "loaded": False}
        self.prov = Graph()
        self.began = format_rfc3339()

    def stage(self, name: str, entry: dict, used: Optional[list] = None,
              generated: Iterable[str] = ()) -> None:
        """Record stage ``name`` as ended now: its report entry, and when
        ``used`` is given, its activity."""
        ended = format_rfc3339()
        self.report["stages"][name] = entry
        if used is not None:
            a = IRI(f"{self.BASE}{self.config.run_id}/{name}")
            entity = lambda digest: IRI(f"{self.BASE}entity/{digest}")
            for predicate, value in [
                    (RDF_TYPE, IRI(PROV + "Activity")),
                    (PROV + "startedAtTime", Literal(self.began, XSD_DATETIME)),
                    (PROV + "endedAtTime", Literal(ended, XSD_DATETIME)),
                    *((PROV + "used", entity(d)) for d in used),
                    *((PROV + "generated", entity(d)) for d in generated)]:
                self.prov.insert(Triple(a, IRI(predicate), value))
        self.began = ended

    def abort(self, name: str, exc: Exception) -> dict:
        """Stop the run at stage ``name`` with the error ``exc``."""
        self.report["aborted_stage"] = name
        self.report["errors"].append(str(exc))
        return self.finish()

    def finish(self) -> dict:
        """Write the PROV graph, and the report if one is configured."""
        save_graph(self.prov, self.config.provenance_path)
        self.report["provenance"] = str(self.config.provenance_path)
        if self.config.report_path is not None:
            write_text(self.config.report_path,
                       json.dumps(self.report, indent=2) + "\n")
        return self.report


def run_pipeline(config: PipelineConfig) -> dict:
    """Execute staging -> preprocessing -> mapping -> linking -> validation ->
    load.  Returns the run report (also written to ``report`` if configured)."""
    run = _RunRecord(config)

    # staging: content-addressed copies of the raw inputs
    staged = []
    try:
        config.staging_dir.mkdir(parents=True, exist_ok=True)
        for source, _ in config.sources:
            digest = _sha256_file(source.path)
            target = config.staging_dir / f"{digest}{Path(source.path).suffix}"
            if not target.exists():
                shutil.copyfile(source.path, target)
            staged.append({"source": source.path, "digest": digest})
    except OSError as exc:
        raise PipelineError(f"{config.staging_dir}: cannot stage: {exc}") from None
    staged_digests = [s["digest"] for s in staged]
    run.stage("staging", {"files": staged}, used=staged_digests,
              generated=staged_digests)

    # preprocessing
    records_by_path: dict[Path, list] = {}
    total_in = total_out = 0
    for source, steps in config.sources:
        rows = read_records(source)
        total_in += len(rows)
        rows, errors = preprocess(rows, steps)
        run.report["errors"].extend(errors)
        total_out += len(rows)
        records_by_path[Path(source.path).resolve()] = rows
    run.stage("preprocess", {"records_in": total_in, "records_out": total_out},
              used=staged_digests)

    # mapping
    def records_of(source) -> list:
        """The preprocessed records of a configured source; any other
        source's records as read."""
        rows = records_by_path.get(Path(source.path).resolve())
        return read_records(source) if rows is None else rows

    try:
        graph = apply_mapping(load_mapping(config.mapping_path), records_of)
    except ConfigError as exc:
        return run.abort("mapping", exc)
    mapped_text = serialize_ntriples(graph)
    mapped_digest = hashlib.sha256(mapped_text.encode()).hexdigest()
    run.stage("mapping", {"triples": len(graph)}, used=staged_digests,
              generated=[mapped_digest])

    # linking / enrichment
    links, ambiguous = [], []
    if config.linking is not None:
        reference = load_graph(config.linking.reference_path)
        links, ambiguous = link_entities(graph, reference, config.linking)
    # linking only adds triples: the linked text is the mapped text with the
    # links' lines put in place
    linked_text = insert_ntriples(mapped_text, graph, links)
    linked_digest = hashlib.sha256(linked_text.encode()).hexdigest()
    run.stage("linking", {"links": len(links), "ambiguous": ambiguous},
              used=[mapped_digest], generated=[linked_digest])

    # validation
    try:
        shape_list = load_shapes(config.shapes_path)
    except ConfigError as exc:
        return run.abort("validation", exc)
    validation = validate(graph, shape_list)
    run.report["conforms"] = validation.conforms
    run.stage("validation", validation.to_dict(), used=[linked_digest])

    # load
    if not validation.conforms and config.on_violation == "block":
        run.stage("load", {"skipped": True,
                           "reason": "validation failed, policy=block"})
    else:
        # the output file holds exactly the text linked_digest was taken over
        write_text(config.output_path, linked_text)
        run.report["loaded"] = True
        run.stage("load", {"skipped": False, "triples": len(graph),
                           "output": str(config.output_path),
                           "digest": linked_digest},
                  used=[linked_digest], generated=[linked_digest])
    return run.finish()
