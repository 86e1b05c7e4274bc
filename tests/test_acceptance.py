"""End-to-end acceptance suite.  Each test prints one PASS/FAIL line;
tolerances are exact equality unless a time budget is stated."""

import json
import random
import shutil
import threading
import time
from datetime import datetime, timedelta, timezone

import pytest

import genutil
from genutil import LocalClient
from energyde.connector.contracts import authorize, load_contracts
from energyde.connector.messages import Message
from energyde.connector.node import NodeServer, NodeState, handle, load_node_config
from energyde.connector.provenance import read_log, replay_audit
from energyde.federation import (FederationCatalog, federated_query,
                                 load_catalog, plan_query)
from energyde.fixtures import PORTS
from energyde.mapping import apply_mapping, load_mapping, read_records
from energyde.pipeline import (link_entities, load_pipeline_config,
                               preprocess, run_pipeline)
from energyde.rdf import Graph, IRI, Literal, load_graph, parse_ntriples
from energyde.scenario import (NodeSet, REQUIRED_TAGS, coverage,
                               load_scenario, run_scenario)
from energyde.shapes import load_shapes, validate
from energyde.sparql import evaluate, format_query, parse_query
from energyde.vocab import WIND_POWER


def report(number: int, title: str, detail: str) -> None:
    print(f"ACCEPTANCE {number} ({title}): PASS — {detail}")


def triple_set(graph):
    return {(t.subject, t.predicate, t.object) for t in graph}


@pytest.fixture()
def live_nodes(fixture_dir):
    """The tso and wiki nodes from the seed-1 fixtures, on ephemeral ports."""
    servers = {}
    for name in ("tso", "wiki"):
        config = load_node_config(fixture_dir / "nodes" / f"{name}.yaml")
        servers[name] = NodeServer(NodeState.from_config(config)).start()
    yield servers
    for server in servers.values():
        server.stop()


def live_catalog(fixture_dir, servers, name="catalog.yaml"):
    from dataclasses import replace
    catalog = load_catalog(fixture_dir / name)
    catalog.sources = [
        replace(s, endpoint=servers[s.id].endpoint) if s.id in servers else s
        for s in catalog.sources]
    return catalog


def test_1_worked_example(fixture_dir, live_nodes):
    started = time.monotonic()
    text = (fixture_dir / "queries" / "federated.rq").read_text()
    catalog = live_catalog(fixture_dir, live_nodes)

    plan = plan_query(text, catalog).to_dict()
    assert sorted(sq["patterns"] for sq in plan["subqueries"]) == [1, 5]
    assert len(plan["joins"]) == 1
    assert plan["joins"][0]["vars"] == ["productionType"]

    result = federated_query(text, catalog)
    assert len(result) >= 1
    assert all(row["productionType"] == IRI(WIND_POWER)
               for row in result.rows)
    assert len(result) == 1  # one matching capacity statement in the fixtures
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    report(1, "worked example", f"1 row, ?productionType == wind-power IRI, "
                                f"plan 5+1 patterns joined on productionType, "
                                f"{elapsed:.2f}s < 5s")


def test_2_federation_matches_centralized():
    started = time.monotonic()
    catalog_text = """
    client_id: fed
    sources:
    %s
    """
    source_tpl = """
      - id: s%d
        endpoint: none
        predicates: [%s]
    """
    rng = random.Random(101)
    partitions = 0
    queries = 0
    while partitions < 20:
        graph = genutil.random_graph(rng, rng.randrange(200, 2000))
        ways = rng.choice([2, 3])
        preds = ", ".join(sorted({t.predicate.value for t in graph}))
        catalog = FederationCatalog.__new__(FederationCatalog)
        from energyde.federation import parse_catalog
        catalog = parse_catalog(catalog_text % "".join(
            source_tpl % (i, preds) for i in range(ways)))
        parts = [Graph() for _ in range(ways)]
        for t in graph:
            parts[rng.randrange(ways)].insert(t)
        clients = {f"s{i}": LocalClient(parts[i], source_id=f"s{i}")
                   for i in range(ways)}
        for _ in range(10):
            query = genutil.random_query(rng, graph)
            central = genutil.bag(evaluate(query, graph))
            federated = federated_query(format_query(query), catalog,
                                        clients=clients)
            assert genutil.bag(federated) == central, format_query(query)
            queries += 1
        partitions += 1
    elapsed = time.monotonic() - started
    assert queries >= 200 and partitions >= 20
    assert elapsed < 60.0
    report(2, "federation oracle", f"{queries} queries over {partitions} "
                                   f"partitions, 0 mismatches, "
                                   f"{elapsed:.1f}s < 60s")


def test_3_evaluator_matches_brute_force():
    rng = random.Random(202)
    queries = 0
    while queries < 500:
        graph = genutil.random_graph(rng, rng.randrange(50, 500))
        for _ in range(25):
            query = genutil.random_query(rng, graph)
            assert genutil.bag(evaluate(query, graph)) == \
                genutil.brute_force(query, graph), format_query(query)
            queries += 1
    report(3, "evaluator oracle", f"{queries} queries vs nested-loop brute "
                                  f"force, exact multiset equality")


def test_4_parser_fixpoint(fixture_dir):
    corpus = [p.read_text() for p in sorted((fixture_dir / "queries").iterdir())
              if p.name != "federated_verbatim.rq"]
    rng = random.Random(303)
    graph = genutil.random_graph(rng, 200)
    corpus += [format_query(genutil.random_query(rng, graph))
               for _ in range(300)]
    for text in corpus:
        q1 = parse_query(text)
        q2 = parse_query(format_query(q1))
        assert (q1.projected, q1.distinct, q1.patterns, q1.filters, q1.limit) \
            == (q2.projected, q2.distinct, q2.patterns, q2.filters, q2.limit)
    report(4, "parser fixpoint", f"{len(corpus)} queries "
                                 f"(fixture corpus + generated), 0 failures")


def test_5_mapping_round_trip(fixture_dir):
    doc = load_mapping(fixture_dir / "mappings" / "capacity.yaml")
    records = read_records(doc.maps[0].source)
    graph = apply_mapping(doc)

    # analytic triple count: one rdf:type per record plus one triple per
    # predicate-object entry whose referenced fields are all non-null
    expected = 0
    recovered = 0
    for record in records:
        expected += 1  # rdf:type (subject fields are never null here)
        for predicate, spec in doc.maps[0].predicate_objects:
            if spec.field is not None and record.get(spec.field) is None:
                continue
            expected += 1
    assert len(graph) == expected

    # every mapped non-null field value is recoverable by a one-pattern query
    for record in records:
        for predicate, spec in doc.maps[0].predicate_objects:
            if spec.field is None or record.get(spec.field) is None:
                continue
            query = parse_query(
                f"SELECT ?s WHERE {{ ?s <{predicate}> "
                f"\"{record[spec.field]}\""
                + (f"^^<{spec.datatype}>" if spec.datatype else "")
                + " . }")
            assert len(evaluate(query, graph)) >= 1
            recovered += 1
    report(5, "mapping round trip", f"{len(graph)} triples == analytic bound "
                                    f"{expected}, {recovered} field values "
                                    f"recovered by one-pattern queries")


def test_6_validation_exactness(fixture_dir):
    shapes = load_shapes(fixture_dir / "shapes" / "capacity.yaml")
    clean = parse_ntriples((fixture_dir / "graphs" / "tso.nt").read_text())
    assert validate(clean, shapes).conforms  # zero false positives

    defective = parse_ntriples(
        (fixture_dir / "graphs" / "capacity_defective.nt").read_text())
    manifest = json.loads((fixture_dir / "defects.json").read_text())
    violations = validate(defective, shapes).violations
    found = {(v.kind, v.path, f"<{v.focus.value}>") for v in violations}
    expected = {(d["kind"], d["path"], d["focus"]) for d in manifest}
    assert found == expected
    assert len(violations) == len(manifest)
    report(6, "validation exactness", f"{len(manifest)} seeded defects found "
                                      f"exactly, clean fixture conforms")


def test_7_sovereignty(fixture_dir, tmp_path):
    work = tmp_path / "work"
    shutil.copytree(fixture_dir, work)
    steps = load_scenario(work / "scenario.yaml")
    with NodeSet(work / "nodes.yaml", port_override=dict.fromkeys(PORTS, 0)) as nodes:
        transcript = run_scenario(steps, nodes)
    assert coverage(transcript) >= REQUIRED_TAGS

    contracts = load_contracts(work / "contracts" / "contracts.yaml")
    for node_id, server in [("tso", None), ("supplier", None),
                            ("producer", None), ("wiki", None)]:
        log_path = work / "logs" / f"{node_id}.jsonl"
        if not log_path.exists():
            continue
        records = read_log(log_path)
        config = load_node_config(work / "nodes" / f"{node_id}.yaml")
        findings = replay_audit(records, contracts, node_id, config.resource)
        assert findings == [], (node_id, findings)

    # fuzz: randomized contract ids, consumers, clock times and body field
    # types against a fresh node; a QueryResult may only ever appear when
    # authorize() allows, and a field of the wrong type is MALFORMED
    graph = Graph()
    from energyde.rdf import Triple
    graph.insert(Triple(IRI("http://example.org/s"),
                        IRI("http://example.org/p"), Literal("secret")))
    from conftest import make_node
    state = make_node(tmp_path, "fuzzed", graph, contracts=contracts)
    state = NodeState(node_id="tso", graph=graph, contracts=contracts,
                      provenance=state.provenance, resource="tso-graph")
    rng = random.Random(404)
    contract_ids = [c.id for c in contracts] + ["ghost", "", "tso-self "]
    consumers = ["tso", "supplier", "producer", "wiki", "intruder", ""]
    base = datetime(2015, 1, 1, tzinfo=timezone.utc)
    odd_values = [["tso-self"], {"id": "tso-self"}, 7, None]
    leaks = retyped = 0
    for n in range(1000):
        body = {"contractId": rng.choice(contract_ids),
                "query": "SELECT ?s WHERE { ?s ?p ?o . }"}
        for key in body:
            if rng.random() < 0.2:
                body[key] = rng.choice(odd_values)
        request = Message(
            type=rng.choice(["QueryRequest", "CatalogRequest"]),
            sender=rng.choice(consumers), body=body)
        now = base + timedelta(minutes=rng.randrange(0, 12 * 525600))
        response = handle(state, request, now=now)
        assert isinstance(response, Message)
        assert len(read_log(tmp_path / "fuzzed.jsonl")) == n + 1
        malformed = not isinstance(body["contractId"], (str, type(None))) or (
            request.type == "QueryRequest" and not isinstance(body["query"], str))
        if malformed:
            retyped += 1
            assert response.type == "Rejection"
            assert response.body["reason"] == "MALFORMED"
            continue
        operation = "catalog" if request.type == "CatalogRequest" else "query"
        decision = authorize(contracts, body["contractId"], request.sender,
                             operation, "tso", "tso-graph", now)
        if response.type in ("QueryResult", "CatalogResponse"):
            if decision is not None:
                leaks += 1
        else:
            assert decision is not None or response.body["reason"] == "MALFORMED"
    assert leaks == 0
    assert retyped >= 100
    records = read_log(tmp_path / "fuzzed.jsonl")
    assert len(records) == 1000  # one provenance record per decoded request
    findings = replay_audit(records, contracts, "tso", "tso-graph")
    assert findings == []
    report(7, "sovereignty", "scenario RQ-1..RQ-8 + 1000 fuzz requests "
                             f"({retyped} with a field of the wrong type): "
                             "0 leaks, 1000 provenance records, "
                             "replay audit clean")


def test_8_concurrency_determinism(fixture_dir, live_nodes, tmp_path):
    text = (fixture_dir / "queries" / "federated.rq").read_text()
    catalog = live_catalog(fixture_dir, live_nodes)

    def run_once():
        return genutil.bag(federated_query(text, catalog))

    for server in live_nodes.values():
        server.state.provenance.path.write_text("")
        server.state.provenance._next_id = 1

    serial = run_once()
    results, errors = [], []

    def worker():
        try:
            results.append(run_once())
        except Exception as exc:  # noqa: BLE001 - surfaced via assert below
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(50)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(results) == 50
    assert all(r == serial for r in results)

    # every execution sends one QueryRequest to each of the two sources
    total = sum(len(read_log(s.state.provenance.path))
                for s in live_nodes.values())
    assert total == 2 * 51
    report(8, "concurrency determinism", "50 concurrent == serial tuple sets, "
                                         f"{total} provenance records == "
                                         "2 sources x 51 executions")


def test_9_pipeline_idempotence(fixture_dir, tmp_path):
    work = tmp_path / "work"
    shutil.copytree(fixture_dir, work)
    config = load_pipeline_config(work / "pipeline.yaml")
    first = run_pipeline(config)
    second = run_pipeline(config)
    assert first["loaded"] and second["loaded"]
    assert first["stages"]["load"]["digest"] == \
        second["stages"]["load"]["digest"]

    # orchestrated output == manual stage composition
    from energyde.mapping import apply_triple_map
    source, steps = config.sources[0]
    rows, _ = preprocess(read_records(source), steps)
    doc = load_mapping(config.mapping_path)
    manual = Graph()
    for tmap in doc.maps:
        apply_triple_map(tmap, rows, manual)
    link_entities(manual, load_graph(config.linking.reference_path),
                  config.linking)
    loaded = load_graph(work / "graphs" / "tso.nt")
    assert triple_set(manual) == triple_set(loaded)
    report(9, "pipeline idempotence", "re-run digest identical, orchestrated "
                                      "output == manual stage composition "
                                      f"({len(loaded)} triples)")
