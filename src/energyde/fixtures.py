"""Deterministic scenario fixtures: raw CSVs, mappings, shapes, contracts,
node configs, catalogs, queries, and the scripted multi-node scenario.

Everything is a pure function of the seed; the same seed yields
byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import random
from decimal import Decimal
from pathlib import Path

from . import vocab
from .config import write_text
from .mapping import load_mapping, apply_mapping
from .pipeline import LinkingSpec, canonical_decimal, link_entities
from .rdf import Graph, IRI, Literal, Triple, serialize_ntriples
from .vocab import (CIM, ENERGY, RDFS_LABEL, RDF_TYPE, XSD_DECIMAL, XSD_STRING)

# fixed listen ports for the shipped node configs; tests that cannot afford
# port collisions start nodes with port 0 instead
PORTS = {"tso": 39471, "supplier": 39472, "producer": 39473, "wiki": 39474}

LOAD_MEASUREMENT = ENERGY + "LoadMeasurement"
WEATHER_OBSERVATION = ENERGY + "WeatherObservation"
ZONE = ENERGY + "zone"
CIM_AMOUNT = CIM + "amount"
CIM_VALUE = CIM + "value"
CIM_STATUS = CIM + "status"

_OTHER_TYPES = ["Hydro", "Solar", "Gas", "Biomass"]
_COUNTRIES = ["RS", "DE", "AT", "HU"]
_ZONES = ["Z1", "Z2", "Z3"]


def _add(graph: Graph, s: str, p: str, o) -> None:
    """Insert one triple; ``o`` is a Literal or the text of an IRI."""
    graph.insert(Triple(IRI(s), IRI(p), o if isinstance(o, Literal) else IRI(o)))


def _capacity_rows(rng: random.Random) -> list[dict]:
    rows = [
        {"country": "RS", "type": "WindPower",
         "measure": str(rng.randrange(200, 500)), "year": "2020"},
        {"country": "RS", "type": "Coal",
         "measure": str(rng.randrange(2000, 5000)), "year": "2020"},
    ]
    for year in ("2019", "2021"):
        for _ in range(rng.randrange(2, 4)):
            rows.append({
                "country": rng.choice(_COUNTRIES),
                "type": rng.choice(_OTHER_TYPES),
                "measure": str(rng.randrange(50, 3000)),
                "year": year,
            })
    # keep (country, type, year) unique so capacity subjects are distinct
    unique: dict = {}
    for row in rows:
        unique.setdefault((row["country"], row["type"], row["year"]), row)
    return list(unique.values())


def _write_csv(path: Path, header: list, rows: list) -> None:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=header, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    write_text(path, buffer.getvalue())


_CAPACITY_MAPPING = """\
prefixes:
  energy: http://w3id.org/energy/
maps:
  - source: {path: ../raw/capacity.csv, format: csv}
    subject:
      template: "http://w3id.org/energy/capacity/{country}/{type}/{year}"
      class: energy:GenerationCapacity
    po:
      - {predicate: energy:productionType, template: "http://w3id.org/energy/{type}"}
      - {predicate: energy:country, field: country}
      - {predicate: energy:measure, field: measure, datatype: xsd:decimal}
      - {predicate: energy:agg_year, field: year}
      - {predicate: energy:sourceDataset, constant: energy:transparency-platform}
"""

_PIPELINE_MAPPING = _CAPACITY_MAPPING + """\
  - source: {path: ../raw/capacity.csv, format: csv}
    subject:
      template: "http://w3id.org/energy/{type}"
    po:
      - {predicate: rdfs:label, field: type}
"""

_CAPACITY_SHAPES = """\
prefixes:
  energy: http://w3id.org/energy/
shapes:
  - id: GenerationCapacityShape
    target_class: energy:GenerationCapacity
    properties:
      - {path: energy:productionType, min_count: 1, max_count: 1, node_kind: IRI}
      - {path: energy:country, min_count: 1, max_count: 1, datatype: xsd:string}
      - {path: energy:measure, min_count: 1, max_count: 1, datatype: xsd:decimal}
      - {path: energy:agg_year, min_count: 1, max_count: 1, datatype: xsd:string}
      - {path: energy:sourceDataset, min_count: 1, node_kind: IRI}
"""

_CONTRACT_WINDOW = "not_before: 2020-01-01T00:00:00Z\n    expiry: 2035-01-01T00:00:00Z"


def _contract(contract_id: str, provider: str, consumer: str, purpose: str,
              window: str = _CONTRACT_WINDOW) -> str:
    return (f"  - id: {contract_id}\n"
            f"    provider: {provider}\n"
            f"    consumer: {consumer}\n"
            f"    resource: {provider}-graph\n"
            f"    operations: [catalog, query]\n"
            f"    {window}\n"
            f"    purpose: {purpose}\n")


_CONTRACTS = "contracts:\n" + "".join([
    _contract("tso-supplier-2020", "supplier", "tso",
              "balancing plans, bids, forecasts, health monitoring"),
    _contract("tso-producer-2020", "producer", "tso", "load collection"),
    _contract("supplier-producer-2020", "producer", "supplier",
              "realization and meteorological data"),
    _contract("tso-self", "tso", "tso", "federated access to the local graph"),
    _contract("tso-wiki-2020", "wiki", "tso", "external reference lookups"),
    _contract("expired-2019", "supplier", "tso",
              "lapsed agreement kept for the negative scenario step",
              "not_before: 2019-01-01T00:00:00Z\n    expiry: 2019-12-31T00:00:00Z"),
])

_FEDERATED_QUERY = """\
PREFIX wd:     <http://www.wikidata.org/entity/>
PREFIX wdt:    <http://www.wikidata.org/prop/direct/>
PREFIX energy: <http://w3id.org/energy/>

SELECT DISTINCT ?country ?productionType ?measure
WHERE {
?genCapacity    a  energy:GenerationCapacity .
?genCapacity    energy:productionType ?productionType .
?genCapacity    energy:country        ?country .
?genCapacity    energy:measure        ?measure .
?genCapacity    energy:agg_year       "2020" .
?productionType wdt:P279              wd:Q12705 .
}
"""

# the published listing projects ?measure but binds ?g_measure; kept verbatim
_FEDERATED_QUERY_VERBATIM = _FEDERATED_QUERY.replace(
    "energy:measure        ?measure", "energy:measure        ?g_measure")

_SQ1 = """\
PREFIX energy: <http://w3id.org/energy/>
SELECT DISTINCT ?country ?productionType ?measure
WHERE {
?genCapacity    a  energy:GenerationCapacity .
?genCapacity    energy:productionType ?productionType .
?genCapacity    energy:country        ?country .
?genCapacity    energy:measure        ?measure .
?genCapacity    energy:agg_year       "2020" .
}
"""

_SQ2 = """\
PREFIX wd:  <http://www.wikidata.org/entity/>
PREFIX wdt: <http://www.wikidata.org/prop/direct/>

SELECT DISTINCT ?productionType
WHERE {
?productionType     wdt:P279  wd:Q12705 .
}
"""

_SCENARIO_QUERIES = {
    "balancing_plans.rq": """\
PREFIX cim: <http://w3id.org/energy/cim/>
PREFIX energy: <http://w3id.org/energy/>
SELECT ?plan ?zone WHERE { ?plan a cim:Agreement . ?plan energy:zone ?zone . }
""",
    "bids.rq": """\
PREFIX cim: <http://w3id.org/energy/cim/>
SELECT ?bid ?amount WHERE { ?bid a cim:ReserveReq . ?bid cim:amount ?amount . }
""",
    "load_points.rq": """\
PREFIX energy: <http://w3id.org/energy/>
SELECT ?point ?load WHERE { ?point a energy:LoadMeasurement . ?point energy:measure ?load . }
""",
    "realization.rq": """\
PREFIX cim: <http://w3id.org/energy/cim/>
PREFIX energy: <http://w3id.org/energy/>
SELECT ?f ?v WHERE { ?f a cim:ActivePower . ?f cim:value ?v . ?f energy:horizon ?h . }
""",
    "weather.rq": """\
PREFIX energy: <http://w3id.org/energy/>
SELECT ?obs ?temp WHERE { ?obs a energy:WeatherObservation . ?obs energy:temperature ?temp . }
""",
    "forecasts.rq": """\
PREFIX cim: <http://w3id.org/energy/cim/>
SELECT ?f ?v WHERE { ?f a cim:ActivePower . ?f cim:value ?v . }
""",
    "health.rq": """\
PREFIX cim: <http://w3id.org/energy/cim/>
SELECT ?asset ?status WHERE { ?asset a cim:PowerSystemResource . ?asset cim:status ?status . }
""",
    "rq4_federated.rq": """\
PREFIX cim: <http://w3id.org/energy/cim/>
PREFIX energy: <http://w3id.org/energy/>
SELECT DISTINCT ?zone ?load ?amount
WHERE {
?point a energy:LoadMeasurement .
?point energy:measure ?load .
?point energy:zone ?zone .
?bid a cim:ReserveReq .
?bid cim:amount ?amount .
?bid energy:zone ?zone .
}
""",
}

_SCENARIO = """\
steps:
  - {rq: RQ-1, kind: catalog, sender: tso, receiver: supplier, contract: tso-supplier-2020}
  - {rq: RQ-1, kind: query, sender: tso, receiver: supplier, contract: tso-supplier-2020, query: queries/balancing_plans.rq}
  - {rq: RQ-2, kind: query, sender: tso, receiver: supplier, contract: tso-supplier-2020, query: queries/bids.rq}
  - {rq: RQ-3, kind: query, sender: tso, receiver: producer, contract: tso-producer-2020, query: queries/load_points.rq}
  - {rq: RQ-4, kind: federated, sender: tso, catalog: catalog_full.yaml, query: queries/rq4_federated.rq}
  - {rq: RQ-5, kind: query, sender: supplier, receiver: producer, contract: supplier-producer-2020, query: queries/realization.rq}
  - {rq: RQ-6, kind: query, sender: supplier, receiver: producer, contract: supplier-producer-2020, query: queries/weather.rq}
  - {rq: RQ-7, kind: publish, sender: supplier, graph: graphs/forecast.nt}
  - {rq: RQ-7, kind: query, sender: tso, receiver: supplier, contract: tso-supplier-2020, query: queries/forecasts.rq}
  - {rq: RQ-8, kind: query, sender: tso, receiver: supplier, contract: tso-supplier-2020, query: queries/health.rq}
  - {rq: RQ-2, kind: query, sender: tso, receiver: supplier, contract: expired-2019, query: queries/bids.rq, expect: CONTRACT_EXPIRED}
"""

# each node's graph files, in the nodes file's order
_NODE_GRAPHS = {"tso": ["tso", "tso_load"], "supplier": ["supplier"],
                "producer": ["producer"], "wiki": ["reference"]}

_NODES_FILE = "nodes:\n" + "".join(f"  - nodes/{n}.yaml\n" for n in _NODE_GRAPHS)

_PIPELINE_CONFIG = """\
sources:
  - path: raw/capacity.csv
    format: csv
    preprocess:
      - {kind: drop-missing, field: country}
mapping: mappings/pipeline.yaml
shapes: shapes/capacity.yaml
linking:
  label_predicate: http://www.w3.org/2000/01/rdf-schema#label
  reference: graphs/reference.nt
output: graphs/tso.nt
staging: staging
provenance: graphs/tso.prov.nt
report: report.json
on_violation: block
"""


def _node_config(node_id: str, graphs: list) -> str:
    graph_lines = "\n".join(f"  - ../graphs/{g}.nt" for g in graphs)
    return (f"id: {node_id}\n"
            f"listen: {{host: 127.0.0.1, port: {PORTS[node_id]}}}\n"
            f"graphs:\n{graph_lines}\n"
            f"contracts: ../contracts/contracts.yaml\n"
            f"provenance_log: ../logs/{node_id}.jsonl\n"
            f"resource: {node_id}-graph\n")


_TSO_CATALOG_ENTRY = """\
  - id: tso
    endpoint: 127.0.0.1:{port}
    contract: tso-self
    classes: [energy:GenerationCapacity, energy:LoadMeasurement]
    predicates: [rdf:type, rdfs:label, owl:sameAs, energy:productionType,
                 energy:country, energy:measure, energy:agg_year,
                 energy:sourceDataset, energy:zone]
"""

_WIKI_CATALOG_ENTRY = """\
  - id: wiki
    endpoint: 127.0.0.1:{port}
    contract: tso-wiki-2020
    predicates: [wdt:P279, rdfs:label]
"""

_SUPPLIER_CATALOG_ENTRY = """\
  - id: supplier
    endpoint: 127.0.0.1:{port}
    contract: tso-supplier-2020
    classes: [cim:Agreement, cim:ReserveReq, cim:PowerSystemResource, cim:ActivePower]
    predicates: [rdf:type, cim:amount, cim:value, cim:status, energy:zone]
"""


def _catalog(*source_ids: str) -> str:
    entries = {"tso": _TSO_CATALOG_ENTRY, "wiki": _WIKI_CATALOG_ENTRY,
               "supplier": _SUPPLIER_CATALOG_ENTRY}
    return "client_id: tso\nsources:\n" + "".join(
        entries[i].format(port=PORTS[i]) for i in source_ids)


def _reference_graph() -> Graph:
    g = Graph()
    # exactly the wind-power production type is a subclass of renewable energy
    _add(g, vocab.WIND_POWER, vocab.SUBCLASS_OF, vocab.RENEWABLE_ENERGY)
    _add(g, ENERGY + "Coal", vocab.SUBCLASS_OF, vocab.WD + "Q24436")
    _add(g, ENERGY + "Hydro", vocab.SUBCLASS_OF, vocab.WD + "Q24436")
    # external entities carrying the labels used by exact-label linking
    _add(g, vocab.WD + "Q43302", RDFS_LABEL, Literal("WindPower"))
    _add(g, vocab.WD + "Q24489", RDFS_LABEL, Literal("Coal"))
    _add(g, vocab.WD + "Q80638", RDFS_LABEL, Literal("Hydro"))
    return g


def _supplier_graph(rng: random.Random) -> Graph:
    g = Graph()
    _add(g, ENERGY + "party/bsp1", RDF_TYPE, vocab.CIM_BALANCE_SUPPLIER)
    for i, zone in enumerate(_ZONES, start=1):
        plan = f"{ENERGY}plan/{i}"
        _add(g, plan, RDF_TYPE, vocab.CIM_AGREEMENT)
        _add(g, plan, ZONE, Literal(zone))
        _add(g, plan, CIM_AMOUNT,
             Literal(str(rng.randrange(100, 900)), XSD_DECIMAL))
        bid = f"{ENERGY}bid/{i}"
        _add(g, bid, RDF_TYPE, vocab.CIM_RESERVE_REQ)
        _add(g, bid, ZONE, Literal(zone))
        _add(g, bid, CIM_AMOUNT, Literal(str(rng.randrange(10, 90)), XSD_DECIMAL))
    for i in range(1, 4):
        asset = f"{ENERGY}asset/{i}"
        _add(g, asset, RDF_TYPE, vocab.CIM_POWER_SYSTEM_RESOURCE)
        _add(g, asset, CIM_STATUS, Literal(rng.choice(["OK", "OK", "DEGRADED"])))
    return g


def _producer_graph(rng: random.Random) -> Graph:
    g = Graph()
    for i, zone in enumerate(_ZONES, start=1):
        point = f"{ENERGY}loadpoint/{i}"
        _add(g, point, RDF_TYPE, LOAD_MEASUREMENT)
        _add(g, point, ZONE, Literal(zone))
        _add(g, point, vocab.MEASURE,
             Literal(str(rng.randrange(300, 1200)), XSD_DECIMAL))
    for i, horizon in enumerate(["short", "medium", "long"], start=1):
        f = f"{ENERGY}realization/{i}"
        _add(g, f, RDF_TYPE, vocab.CIM_ACTIVE_POWER)
        _add(g, f, CIM_VALUE, Literal(str(rng.randrange(50, 400)), XSD_DECIMAL))
        _add(g, f, ENERGY + "horizon", Literal(horizon))
    for i in range(1, 4):
        obs = f"{ENERGY}weather/{i}"
        _add(g, obs, RDF_TYPE, WEATHER_OBSERVATION)
        _add(g, obs, ENERGY + "temperature",
             Literal(canonical_decimal(Decimal(rng.randrange(-50, 300)) / 10),
                     XSD_DECIMAL))
    return g


def _tso_load_graph(rng: random.Random) -> Graph:
    g = Graph()
    for i, zone in enumerate(_ZONES, start=1):
        s = f"{ENERGY}load/{i}"
        _add(g, s, RDF_TYPE, LOAD_MEASUREMENT)
        _add(g, s, ZONE, Literal(zone))
        _add(g, s, vocab.MEASURE,
             Literal(str(rng.randrange(400, 1500)), XSD_DECIMAL))
    return g


def _forecast_graph(rng: random.Random) -> Graph:
    """Synthetic forecast payload: a seeded random walk over 24 hours."""
    g = Graph()
    value = Decimal(100)
    for hour in range(24):
        value += Decimal(rng.randrange(-50, 51)) / 10
        s = f"{ENERGY}forecast/h{hour:02d}"
        _add(g, s, RDF_TYPE, vocab.CIM_ACTIVE_POWER)
        _add(g, s, CIM_VALUE, Literal(canonical_decimal(value), XSD_DECIMAL))
        _add(g, s, ENERGY + "hour", Literal(f"{hour:02d}"))
    return g


def _seed_defects(graph: Graph) -> tuple[Graph, list]:
    """Three seeded defects on three distinct capacity records: a missing
    property, a wrong datatype, an extra value over max-count."""
    from .rdf import format_term
    subjects = sorted(
        {t.subject for t in graph.match(None, IRI(RDF_TYPE),
                                        IRI(vocab.GENERATION_CAPACITY))},
        key=format_term)
    assert len(subjects) >= 3
    defective = Graph()
    drop_country = subjects[0]
    retype_measure = subjects[1]
    extra_type = subjects[2]
    for t in graph:
        if t.subject == drop_country and t.predicate.value == vocab.COUNTRY:
            continue
        if t.subject == retype_measure and t.predicate.value == vocab.MEASURE:
            defective.insert(Triple(t.subject, t.predicate,
                                    Literal(t.object.lexical, XSD_STRING)))
            continue
        defective.insert(t)
    defective.insert(Triple(extra_type, IRI(vocab.PRODUCTION_TYPE),
                            IRI(ENERGY + "Extra")))
    manifest = [
        {"kind": "min-count", "path": vocab.COUNTRY,
         "focus": format_term(drop_country)},
        {"kind": "datatype", "path": vocab.MEASURE,
         "focus": format_term(retype_measure)},
        {"kind": "max-count", "path": vocab.PRODUCTION_TYPE,
         "focus": format_term(extra_type)},
    ]
    return defective, manifest


def generate_fixtures(seed: int, out_dir) -> Path:
    """Generate the full fixture set under ``out_dir``; pure function of seed."""
    out = Path(out_dir)
    rng = random.Random(seed)

    capacity_rows = _capacity_rows(rng)
    _write_csv(out / "raw" / "capacity.csv",
               ["country", "type", "measure", "year"], capacity_rows)
    production_rows = []
    for plant in ("P1", "P2"):
        for hour in range(24):
            production_rows.append({
                "plant": plant, "date": "2020-06-01", "hour": f"{hour:02d}",
                "measure": canonical_decimal(
                    Decimal(rng.randrange(0, 2000)) / 10)})
    _write_csv(out / "raw" / "plant_production.csv",
               ["plant", "date", "hour", "measure"], production_rows)

    write_text(out / "mappings" / "capacity.yaml", _CAPACITY_MAPPING)
    write_text(out / "mappings" / "pipeline.yaml", _PIPELINE_MAPPING)
    write_text(out / "shapes" / "capacity.yaml", _CAPACITY_SHAPES)
    write_text(out / "contracts" / "contracts.yaml", _CONTRACTS)

    reference = _reference_graph()
    write_text(out / "graphs" / "reference.nt", serialize_ntriples(reference))

    # materialize the TSO graph exactly as the pipeline would: mapping + linking
    doc = load_mapping(out / "mappings" / "pipeline.yaml")
    tso_graph = apply_mapping(doc)
    link_entities(tso_graph, reference,
                  LinkingSpec(label_predicate=RDFS_LABEL,
                              reference_path=str(out / "graphs" / "reference.nt")))
    write_text(out / "graphs" / "tso.nt", serialize_ntriples(tso_graph))

    capacity_only = apply_mapping(load_mapping(out / "mappings" / "capacity.yaml"))
    defective, manifest = _seed_defects(capacity_only)
    write_text(out / "graphs" / "capacity_defective.nt",
               serialize_ntriples(defective))
    write_text(out / "defects.json", json.dumps(manifest, indent=2) + "\n")

    # the graph builders draw from rng in this order
    for name, build in (("supplier", _supplier_graph), ("producer", _producer_graph),
                        ("tso_load", _tso_load_graph), ("forecast", _forecast_graph)):
        write_text(out / "graphs" / f"{name}.nt", serialize_ntriples(build(rng)))

    for node_id, graphs in _NODE_GRAPHS.items():
        write_text(out / "nodes" / f"{node_id}.yaml", _node_config(node_id, graphs))
    write_text(out / "nodes.yaml", _NODES_FILE)

    write_text(out / "catalog.yaml", _catalog("tso", "wiki"))
    write_text(out / "catalog_full.yaml", _catalog("tso", "wiki", "supplier"))

    write_text(out / "queries" / "federated.rq", _FEDERATED_QUERY)
    write_text(out / "queries" / "federated_verbatim.rq", _FEDERATED_QUERY_VERBATIM)
    write_text(out / "queries" / "sq1.rq", _SQ1)
    write_text(out / "queries" / "sq2.rq", _SQ2)
    for name, text in _SCENARIO_QUERIES.items():
        write_text(out / "queries" / name, text)

    write_text(out / "scenario.yaml", _SCENARIO)
    write_text(out / "pipeline.yaml", _PIPELINE_CONFIG)
    (out / "logs").mkdir(exist_ok=True)
    return out

