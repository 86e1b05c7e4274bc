import filecmp
import json
from pathlib import Path

import pytest

from energyde.fixtures import PORTS, generate_fixtures
from energyde.rdf import IRI, parse_ntriples
from energyde.scenario import (NodeSet, REQUIRED_TAGS, ScenarioError,
                               coverage, load_scenario, parse_scenario,
                               run_scenario)
from energyde.vocab import RENEWABLE_ENERGY, SUBCLASS_OF, WIND_POWER


def tree_files(root):
    return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())


class TestFixtures:
    def test_same_seed_byte_identical(self, tmp_path):
        a = generate_fixtures(7, tmp_path / "a")
        b = generate_fixtures(7, tmp_path / "b")
        files_a, files_b = tree_files(a), tree_files(b)
        assert files_a == files_b
        for rel in files_a:
            assert filecmp.cmp(a / rel, b / rel, shallow=False), rel

    def test_different_seed_differs(self, tmp_path):
        a = generate_fixtures(7, tmp_path / "a")
        b = generate_fixtures(8, tmp_path / "b")
        assert any(not filecmp.cmp(a / rel, b / rel, shallow=False)
                   for rel in tree_files(a) if (b / rel).exists())

    def test_exactly_one_wind_and_one_coal_2020_row(self, fixture_dir):
        rows = (fixture_dir / "raw" / "capacity.csv").read_text().splitlines()
        data = [r.split(",") for r in rows[1:]]
        header = rows[0].split(",")
        t, y = header.index("type"), header.index("year")
        in_2020 = [r[t] for r in data if r[y] == "2020"]
        assert sorted(in_2020) == ["Coal", "WindPower"]

    def test_reference_has_single_renewable_subclass_triple(self, fixture_dir):
        g = parse_ntriples((fixture_dir / "graphs" / "reference.nt").read_text())
        matches = list(g.match(None, IRI(SUBCLASS_OF), IRI(RENEWABLE_ENERGY)))
        assert len(matches) == 1
        assert matches[0].subject == IRI(WIND_POWER)

    def test_all_node_graphs_parse(self, fixture_dir):
        for nt in (fixture_dir / "graphs").glob("*.nt"):
            g = parse_ntriples(nt.read_text())
            assert len(g) > 0, nt.name


class TestParse:
    def test_fixture_scenario_parses(self, fixture_dir):
        steps = load_scenario(fixture_dir / "scenario.yaml")
        assert len(steps) >= 8
        assert {s.rq for s in steps} >= REQUIRED_TAGS
        assert any(s.expect != "allow" for s in steps)

    def test_empty_script_rejected(self):
        with pytest.raises(Exception):
            parse_scenario("steps: []", Path())

    def test_unknown_kind_rejected(self):
        with pytest.raises(Exception):
            parse_scenario("steps:\n  - {rq: RQ-1, kind: teleport, sender: a}", Path())


class TestRun:
    @pytest.fixture()
    def running_nodes(self, fixture_dir):
        with NodeSet(fixture_dir / "nodes.yaml", port_override=dict.fromkeys(PORTS, 0)) as nodes:
            yield nodes

    def test_full_scenario_covers_requirements(self, fixture_dir, tmp_path,
                                               running_nodes):
        steps = load_scenario(fixture_dir / "scenario.yaml")
        transcript_path = tmp_path / "transcript.jsonl"
        transcript = run_scenario(steps, running_nodes,
                                  transcript_path=transcript_path)
        assert len(transcript) == len(steps)
        assert coverage(transcript) >= REQUIRED_TAGS
        # the final step exercises the expired contract and must be rejected
        assert transcript[-1]["response"] == "Rejection"
        assert transcript[-1]["reason"] == "CONTRACT_EXPIRED"
        lines = [json.loads(l) for l in
                 transcript_path.read_text().splitlines()]
        assert lines == transcript

    def test_unexpected_rejection_fails_run(self, fixture_dir, running_nodes):
        steps = parse_scenario("""
        steps:
          - {rq: RQ-1, kind: query, sender: intruder, receiver: supplier,
             contract: tso-supplier-2020, query: queries/bids.rq}
        """, fixture_dir)
        with pytest.raises(ScenarioError, match="NOT_AUTHORIZED"):
            run_scenario(steps, running_nodes)

    def test_expected_rejection_reason_must_match(self, fixture_dir,
                                                  running_nodes):
        steps = parse_scenario("""
        steps:
          - {rq: RQ-1, kind: query, sender: tso, receiver: supplier,
             contract: no-such-contract, query: queries/bids.rq,
             expect: CONTRACT_EXPIRED}
        """, fixture_dir)
        with pytest.raises(ScenarioError, match="UNKNOWN_CONTRACT"):
            run_scenario(steps, running_nodes)

    def test_expected_rejection_of_a_served_step_fails_run(self, fixture_dir,
                                                           running_nodes):
        steps = parse_scenario("""
        steps:
          - {rq: RQ-1, kind: catalog, sender: tso, receiver: supplier,
             contract: tso-supplier-2020, expect: CONTRACT_EXPIRED}
        """, fixture_dir)
        with pytest.raises(ScenarioError) as exc:
            run_scenario(steps, running_nodes)
        assert str(exc.value) == ("step 0 (RQ-1): expected rejection "
                                  "CONTRACT_EXPIRED, got CatalogResponse")

    def test_step_to_a_node_that_is_not_running_fails_run(self, fixture_dir):
        steps = parse_scenario("""
        steps:
          - {rq: RQ-2, kind: query, sender: tso, receiver: supplier,
             contract: tso-supplier-2020, query: queries/bids.rq}
        """, fixture_dir)
        nodes = NodeSet(fixture_dir / "nodes.yaml")     # never started
        with pytest.raises(ScenarioError) as exc:
            run_scenario(steps, nodes)
        assert str(exc.value) == "no running node 'supplier'"

    def test_step_files_are_relative_to_the_script(self, fixture_dir, tmp_path,
                                                   running_nodes):
        # the script and its files sit apart from the nodes file, under
        # names that the nodes file's directory does not hold
        other = tmp_path / "other"
        for copy, original in (("queries/own_bids.rq", "queries/bids.rq"),
                               ("queries/own_rq4.rq", "queries/rq4_federated.rq"),
                               ("graphs/own.nt", "graphs/forecast.nt"),
                               ("own_catalog.yaml", "catalog_full.yaml")):
            (other / copy).parent.mkdir(parents=True, exist_ok=True)
            (other / copy).write_bytes((fixture_dir / original).read_bytes())
        (other / "scenario.yaml").write_text("""
        steps:
          - {rq: RQ-2, kind: query, sender: tso, receiver: supplier,
             contract: tso-supplier-2020, query: queries/own_bids.rq}
          - {rq: RQ-4, kind: federated, sender: tso, catalog: own_catalog.yaml,
             query: queries/own_rq4.rq}
          - {rq: RQ-7, kind: publish, sender: supplier, graph: graphs/own.nt}
        """)
        steps = load_scenario(other / "scenario.yaml")
        transcript = run_scenario(steps, running_nodes)
        assert [entry["response"] for entry in transcript] == \
            ["QueryResult", "QueryResult", "inserted"]
        assert transcript[0]["rows"] > 0 and transcript[1]["rows"] > 0

    def test_publish_then_query_sees_new_data(self, fixture_dir,
                                              running_nodes):
        steps = parse_scenario("""
        steps:
          - {rq: RQ-7, kind: query, sender: tso, receiver: supplier,
             contract: tso-supplier-2020, query: queries/forecasts.rq}
          - {rq: RQ-7, kind: publish, sender: supplier,
             graph: graphs/forecast.nt}
          - {rq: RQ-7, kind: query, sender: tso, receiver: supplier,
             contract: tso-supplier-2020, query: queries/forecasts.rq}
        """, fixture_dir)
        transcript = run_scenario(steps, running_nodes)
        assert transcript[0]["rows"] == 0
        assert transcript[2]["rows"] > 0
