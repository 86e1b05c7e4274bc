import json
import re
import shlex
import shutil
import socket
import struct
import threading
from pathlib import Path

import pytest

from energyde.cli import main
from energyde.connector.framing import encode_frame, recv_frame
from energyde.connector.messages import Message
from energyde.connector.node import NodeServer, load_node_config
from energyde.connector.node import NodeState
from energyde.rdf import IRI, Literal, load_graph
from energyde.vocab import ENERGY, RDFS_LABEL


@pytest.fixture()
def workdir(fixture_dir, tmp_path):
    work = tmp_path / "work"
    shutil.copytree(fixture_dir, work)
    return work


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_unknown_subcommand_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_missing_required_argument(self, capsys):
        code, _, _ = run_cli(capsys, "validate", "--graph", "x.nt")
        assert code == 2

    def test_missing_file_config_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "query",
                               "--graph", str(tmp_path / "none.nt"),
                               "--query", str(tmp_path / "none.rq"))
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("term", ["<http://example.org/{a}>", "_:a:b",
                                      '"x"@en_GB'])
    def test_term_outside_the_grammar_exits_2_with_its_line(self, capsys, tmp_path,
                                                             term):
        graph = tmp_path / "g.nt"
        graph.write_text("<http://example.org/s> <http://example.org/p> \"x\" .\n"
                         f"<http://example.org/s> <http://example.org/p> {term} .\n")
        (tmp_path / "q.rq").write_text("SELECT * WHERE { ?s ?p ?o . }")
        code, out, err = run_cli(capsys, "query", "--graph", str(graph),
                                 "--query", str(tmp_path / "q.rq"))
        assert code == 2 and out == ""
        assert re.search(r"^error: line 2: ", err, re.M), err

    def test_nonconforming_graph_domain_failure(self, capsys, workdir):
        code, out, _ = run_cli(
            capsys, "validate",
            "--graph", str(workdir / "graphs" / "capacity_defective.nt"),
            "--shapes", str(workdir / "shapes" / "capacity.yaml"))
        assert code == 1
        assert json.loads(out)["conforms"] is False

    def test_conforming_graph_succeeds(self, capsys, workdir):
        code, out, _ = run_cli(
            capsys, "validate",
            "--graph", str(workdir / "graphs" / "tso.nt"),
            "--shapes", str(workdir / "shapes" / "capacity.yaml"))
        assert code == 0
        assert json.loads(out)["conforms"] is True


class TestQuery:
    def test_local_query_json_output(self, capsys, workdir):
        code, out, _ = run_cli(
            capsys, "query",
            "--graph", str(workdir / "graphs" / "reference.nt"),
            "--query", str(workdir / "queries" / "sq2.rq"))
        assert code == 0
        doc = json.loads(out)
        assert doc["head"]["vars"] == ["productionType"]
        assert len(doc["results"]["bindings"]) == 1

    def test_output_deterministic(self, capsys, workdir):
        args = ("query", "--graph", str(workdir / "graphs" / "tso.nt"),
                "--query", str(workdir / "queries" / "sq1.rq"))
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


_JSON_LINES_ID_MAPPING = """
maps:
  - source: {path: data.jsonl, format: json-lines}
    subject: {template: "http://example.org/{id}"}
    po:
      - {predicate: http://example.org/id, field: id}
"""


class TestRdfize:
    def test_mapping_applied(self, capsys, workdir, tmp_path):
        out_path = tmp_path / "out.nt"
        code, out, _ = run_cli(
            capsys, "rdfize",
            "--mapping", str(workdir / "mappings" / "capacity.yaml"),
            "--output", str(out_path))
        assert code == 0
        assert out_path.read_text().count("\n") == json.loads(out)["triples"]

    @pytest.mark.parametrize("first_line", ["country,type,measure",  # a CSV file
                                            "42"],                   # a JSON scalar
                             ids=["csv", "json-scalar"])
    def test_json_lines_source_without_object_exits_2(self, capsys, tmp_path,
                                                      first_line):
        (tmp_path / "data.jsonl").write_text(first_line + "\nRS,Wind,3\n")
        mapping = tmp_path / "m.yaml"
        mapping.write_text("""
maps:
  - source: {path: data.jsonl, format: json-lines}
    subject: {template: "http://example.org/{country}"}
    po:
      - {predicate: http://example.org/type, field: type}
""")
        code, out, err = run_cli(capsys, "rdfize", "--mapping", str(mapping),
                                 "--output", str(tmp_path / "out.nt"))
        assert code == 2, (out, err)
        assert re.fullmatch(r"error: .*data\.jsonl: line 1: not a JSON object\n",
                            err), err
        assert "Traceback" not in err
        assert not (tmp_path / "out.nt").exists()

    @pytest.mark.parametrize("bad_line", ['{"id": ',     # not JSON
                                          "[1,2]"],      # JSON, not an object
                             ids=["not-json", "json-list"])
    def test_json_lines_record_not_an_object_exits_2(self, capsys, tmp_path,
                                                     bad_line):
        # the first line is an object; the third is not
        (tmp_path / "data.jsonl").write_text(
            '{"country": "RS", "type": "Wind"}\n\n' + bad_line + "\n")
        mapping = tmp_path / "m.yaml"
        mapping.write_text("""
maps:
  - source: {path: data.jsonl, format: json-lines}
    subject: {template: "http://example.org/{country}"}
    po:
      - {predicate: http://example.org/type, field: type}
""")
        code, out, err = run_cli(capsys, "rdfize", "--mapping", str(mapping),
                                 "--output", str(tmp_path / "out.nt"))
        assert code == 2, (out, err)
        assert re.fullmatch(r"error: .*data\.jsonl: line 3: not a JSON object\n",
                            err), err
        assert not (tmp_path / "out.nt").exists()

    @pytest.mark.parametrize("line", ['{"id": "a\\ud800b"}', '{"id": "a\\udfff"}',
                                      '{"id": "x", "a\\ud83d": "b"}'],
                             ids=["high", "low", "key"])
    def test_json_lines_surrogate_exits_2(self, capsys, tmp_path, line):
        (tmp_path / "data.jsonl").write_text('{"id": "ok"}\n' + line + "\n")
        mapping = tmp_path / "m.yaml"
        mapping.write_text(_JSON_LINES_ID_MAPPING)
        code, out, err = run_cli(capsys, "rdfize", "--mapping", str(mapping),
                                 "--output", str(tmp_path / "out.nt"))
        assert code == 2, (out, err)
        assert re.fullmatch(r"error: .*data\.jsonl: line 2: a key or value holds "
                            r"a surrogate code point\n", err), err
        assert not (tmp_path / "out.nt").exists()

    @pytest.mark.parametrize("value", ['[1, "b"]', '{"a": 1}'], ids=["array", "object"])
    def test_json_lines_array_or_object_value_exits_2(self, capsys, tmp_path, value):
        (tmp_path / "data.jsonl").write_text(
            '{"id": "ok", "flag": true}\n{"id": "x", "xs": %s}\n' % value)
        mapping = tmp_path / "m.yaml"
        mapping.write_text(_JSON_LINES_ID_MAPPING)
        code, out, err = run_cli(capsys, "rdfize", "--mapping", str(mapping),
                                 "--output", str(tmp_path / "out.nt"))
        assert code == 2, (out, err)
        assert re.fullmatch(r"error: .*data\.jsonl: line 2: a value is a JSON "
                            r"array or object\n", err), err
        assert not (tmp_path / "out.nt").exists()

    # Python's json reads these as floats that are no decimal number
    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_json_lines_number_that_is_not_finite_exits_2(self, capsys, tmp_path, value):
        (tmp_path / "data.jsonl").write_text('{"id": "ok", "m": 1.5}\n{"id": "x", "m": %s}\n'
                                             % value)
        mapping = tmp_path / "m.yaml"
        mapping.write_text(_JSON_LINES_ID_MAPPING)
        code, out, err = run_cli(capsys, "rdfize", "--mapping", str(mapping),
                                 "--output", str(tmp_path / "out.nt"))
        assert code == 2, (out, err)
        assert re.fullmatch(r"error: .*data\.jsonl: line 2: a value is not a finite "
                            r"number\n", err), err
        assert not (tmp_path / "out.nt").exists()

    def test_json_lines_surrogate_pair_is_one_character(self, capsys, tmp_path):
        (tmp_path / "data.jsonl").write_text('{"id": "a\\ud83d\\ude00b"}\n')
        mapping = tmp_path / "m.yaml"
        mapping.write_text(_JSON_LINES_ID_MAPPING)
        code, out, err = run_cli(capsys, "rdfize", "--mapping", str(mapping),
                                 "--output", str(tmp_path / "out.nt"))
        assert code == 0, (out, err)
        triple, = load_graph(tmp_path / "out.nt")
        assert triple.object == Literal("a\U0001F600b")

    def test_surrogate_constant_exits_2(self, capsys, tmp_path):
        (tmp_path / "data.jsonl").write_text('{"id": "ok"}\n')
        mapping = tmp_path / "m.yaml"
        mapping.write_text(_JSON_LINES_ID_MAPPING.replace(
            "field: id", 'constant: "\\ud800"'))
        code, out, err = run_cli(capsys, "rdfize", "--mapping", str(mapping),
                                 "--output", str(tmp_path / "out.nt"))
        assert code == 2, (out, err)
        assert re.search(r"^error: .*m\.yaml: maps\[0\]\.po\[0\]\.constant: "
                         r"literal contains a surrogate", err, re.M), err
        assert "Traceback" not in err
        assert not (tmp_path / "out.nt").exists()

    def test_input_file_feeds_every_map(self, capsys, workdir, tmp_path):
        # the fixture's pipeline mapping has two maps over one CSV source:
        # one triple per row and field from the first, a label per type
        # from the second, all from the given file's rows
        (tmp_path / "other.csv").write_text(
            "country,type,measure,year\nXX,Tidal,1.5,2030\nYY,Tidal,2,2031\n")
        out_path = tmp_path / "out.nt"
        code, out, _ = run_cli(
            capsys, "rdfize",
            "--mapping", str(workdir / "mappings" / "pipeline.yaml"),
            "--input", str(tmp_path / "other.csv"), "--output", str(out_path))
        assert code == 0
        graph = load_graph(out_path)
        assert json.loads(out) == {"triples": len(graph)}
        assert {t.object for t in graph.match(predicate=IRI(ENERGY + "country"))} == \
            {Literal("XX"), Literal("YY")}
        assert [t.subject for t in graph.match(predicate=IRI(RDFS_LABEL))] == \
            [IRI(ENERGY + "Tidal")]
        assert len(graph) == 2 * 6 + 1

    def test_input_without_a_mapped_field_exits_2(self, capsys, workdir, tmp_path):
        # the configured file has every field; the given one has no year
        (tmp_path / "other.csv").write_text("country,type,measure\nXX,Tidal,1.5\n")
        code, out, err = run_cli(
            capsys, "rdfize",
            "--mapping", str(workdir / "mappings" / "pipeline.yaml"),
            "--input", str(tmp_path / "other.csv"),
            "--output", str(tmp_path / "out.nt"))
        assert code == 2 and out == ""
        assert err == "error: maps[0]: fields ['year'] not in the records it is given\n"
        assert not (tmp_path / "out.nt").exists()


class TestPipeline:
    def test_run_reports_stages(self, capsys, workdir):
        code, out, _ = run_cli(capsys, "pipeline", "run",
                               "--config", str(workdir / "pipeline.yaml"))
        assert code == 0
        report = json.loads(out)
        assert report["loaded"] is True

    def test_renamed_field_is_mapped_under_its_new_name(self, capsys, workdir):
        config = workdir / "pipeline.yaml"
        config.write_text(_replace(
            "{kind: drop-missing, field: country}",
            "{kind: drop-missing, field: country}\n"
            "      - {kind: rename-field, from: country, to: nation}")(config.read_text()))
        mapping = workdir / "mappings" / "pipeline.yaml"
        text = _replace("capacity/{country}", "capacity/{nation}")(mapping.read_text())
        mapping.write_text(_replace("field: country}", "field: nation}")(text))
        code, out, _ = run_cli(capsys, *_pipeline(workdir))
        assert code == 0, out
        report = json.loads(out)
        assert report["aborted_stage"] is None
        assert report["conforms"] is True and report["loaded"] is True
        rows = (workdir / "raw" / "capacity.csv").read_text().splitlines()[1:]
        graph = load_graph(workdir / "graphs" / "tso.nt")
        assert {t.object.lexical for t in graph.match(predicate=IRI(ENERGY + "country"))} \
            == {row.split(",")[0] for row in rows if row.split(",")[0]}

    def test_scale_that_overflows_is_a_record_error(self, capsys, workdir):
        raw = workdir / "raw" / "capacity.csv"
        records = raw.read_text().count("\n") - 1
        raw.write_text(raw.read_text() + "RS,Hydro,9E999999,2021\n")
        config = workdir / "pipeline.yaml"
        config.write_text(_replace(
            "{kind: drop-missing, field: country}",
            "{kind: scale-numeric, field: measure, factor: 10}")(config.read_text()))
        code, out, err = run_cli(capsys, *_pipeline(workdir))
        assert code == 0 and err == "", err
        report = json.loads(out)
        assert report["stages"]["preprocess"] == {"records_in": records + 1,
                                                  "records_out": records}
        assert f"scale-numeric: record {records}: measure='9E999999' scaled by 10 " \
               "is not exact" in report["errors"]

    def test_json_lines_number_that_is_not_finite_exits_2(self, capsys, workdir):
        (workdir / "raw" / "capacity.jsonl").write_text(
            '{"country": "RS", "type": "Wind", "measure": 1, "year": "2020"}\n'
            '{"country": "RS", "type": "Coal", "measure": NaN, "year": "2020"}\n')
        config = workdir / "pipeline.yaml"
        config.write_text(_replace("path: raw/capacity.csv\n    format: csv",
                                   "path: raw/capacity.jsonl\n    format: json-lines")(
            config.read_text()))
        code, out, err = run_cli(capsys, *_pipeline(workdir))
        assert code == 2 and out == ""
        assert re.fullmatch(r"error: .*capacity\.jsonl: line 2: a value is not a "
                            r"finite number\n", err), err

    def _expect_mapping_aborted(self, capsys, workdir, message):
        for written in ("report.json", "graphs/tso.prov.nt"):
            (workdir / written).unlink(missing_ok=True)
        code, out, _ = run_cli(capsys, *_pipeline(workdir))
        assert code == 1
        report = json.loads(out)
        assert report["aborted_stage"] == "mapping" and report["loaded"] is False
        assert re.search(message, report["errors"][-1]), report["errors"]
        assert json.loads((workdir / "report.json").read_text()) == report
        prov = (workdir / "graphs" / "tso.prov.nt").read_text()
        assert "/preprocess>" in prov and "/mapping>" not in prov

    def test_field_an_aggregate_dropped_aborts_the_mapping_stage(self, capsys, workdir):
        # the aggregate keeps country, type and the measure sum; the map reads year
        config = workdir / "pipeline.yaml"
        config.write_text(_replace(
            "{kind: drop-missing, field: country}",
            "{kind: aggregate, group_by: [country, type], sum: measure}")(
                config.read_text()))
        self._expect_mapping_aborted(
            capsys, workdir, r"^maps\[0\]: fields \['year'\] not in the records")

    def test_unreadable_file_no_source_names_aborts_the_mapping_stage(self, capsys,
                                                                      workdir):
        # its header, and all of the first 8 KiB, decode; a later row does not
        (workdir / "raw" / "extra.csv").write_bytes(b"id\n" + b"1\n" * 8192 + b"\xff\n")
        mapping = workdir / "mappings" / "pipeline.yaml"
        mapping.write_text(mapping.read_text() + """
  - source: {path: ../raw/extra.csv, format: csv}
    subject: {template: "http://example.org/{id}"}
    po:
      - {predicate: http://example.org/id, field: id}
""")
        self._expect_mapping_aborted(capsys, workdir, r"extra\.csv: cannot read: ")


class TestFixtures:
    def test_generate_deterministic(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "fixtures", "generate",
                               "--seed", "3", "--out", str(tmp_path / "fx"))
        assert code == 0
        assert json.loads(out)["seed"] == 3
        assert (tmp_path / "fx" / "scenario.yaml").exists()


class TestFederate:
    @pytest.fixture()
    def live_catalog(self, workdir):
        servers = []
        endpoints = {}
        for name in ("tso", "wiki"):
            config = load_node_config(workdir / "nodes" / f"{name}.yaml")
            server = NodeServer(NodeState.from_config(config)).start()
            servers.append(server)
            endpoints[name] = server.endpoint
        text = (workdir / "catalog.yaml").read_text()
        for name, endpoint in endpoints.items():
            text = text.replace(f"127.0.0.1:{39471 if name == 'tso' else 39474}",
                                endpoint)
        catalog_path = workdir / "catalog_live.yaml"
        catalog_path.write_text(text)
        yield catalog_path
        for server in servers:
            server.stop()

    def test_plan_inspector(self, capsys, workdir):
        code, out, _ = run_cli(
            capsys, "federate", "--plan",
            "--catalog", str(workdir / "catalog.yaml"),
            "--query", str(workdir / "queries" / "federated.rq"))
        assert code == 0
        plan = json.loads(out)
        assert sorted(sq["patterns"] for sq in plan["subqueries"]) == [1, 5]
        assert plan["joins"][0]["vars"] == ["productionType"]

    def test_federated_execution_over_wire(self, capsys, live_catalog, workdir):
        code, out, _ = run_cli(
            capsys, "federate",
            "--catalog", str(live_catalog),
            "--query", str(workdir / "queries" / "federated.rq"))
        assert code == 0
        bindings = json.loads(out)["results"]["bindings"]
        assert len(bindings) == 1
        assert bindings[0]["productionType"]["value"] == \
            "http://w3id.org/energy/WindPower"

    @pytest.mark.parametrize("reply, problem", [
        (lambda request: struct.pack("!I", 8) + b"not json",
         "undecodable frame payload"),
        # past the interpreter's limit on the digits of an int it converts
        (lambda request: struct.pack("!I", 5000) + b"9" * 5000,
         "undecodable frame payload"),
        (lambda request: encode_frame([1, 2]), "message must be a JSON object"),
        (lambda request: encode_frame(Message(type="QueryResult", sender="fake",
                                              body={}).to_dict()),
         "correlation id mismatch"),
    ], ids=["not-json", "huge-int", "not-an-envelope", "other-correlation-id"])
    def test_bad_response_domain_failure(self, capsys, tmp_path, reply, problem):
        # a one-shot source that reads the request and sends ``reply`` to it
        server = socket.create_server(("127.0.0.1", 0))

        def answer():
            with server, server.accept()[0] as conn:
                conn.sendall(reply(recv_frame(conn)))

        thread = threading.Thread(target=answer, daemon=True)
        thread.start()
        (tmp_path / "catalog.yaml").write_text(
            "sources:\n  - id: fake\n"
            f"    endpoint: 127.0.0.1:{server.getsockname()[1]}\n"
            "    predicates: [http://example.org/p]\n")
        (tmp_path / "q.rq").write_text(
            "SELECT ?s WHERE { ?s <http://example.org/p> ?o . }")
        code, out, err = run_cli(capsys, "federate",
                                 "--catalog", str(tmp_path / "catalog.yaml"),
                                 "--query", str(tmp_path / "q.rq"))
        thread.join(5)
        assert (code, out) == (1, "")
        assert re.fullmatch(rf"error: source 'fake' sent a bad response: "
                            rf"{problem}.*\n", err), err

    def test_unreachable_source_domain_failure(self, capsys, workdir):
        code, _, err = run_cli(
            capsys, "federate",
            "--catalog", str(workdir / "catalog.yaml"),
            "--query", str(workdir / "queries" / "federated.rq"))
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("edit, message", [
        (lambda text: text.replace("endpoint:", "where:", 1), r"sources\[0\]\.endpoint"),
        (lambda text: text.replace("energy:", "nope:", 1), "unknown prefix 'nope'"),
        (lambda text: text + "\n  - [", "not valid YAML"),
        (lambda text: text.replace("contract:", "contrat:", 1),
         r"sources\[0\]: unknown keys \['contrat'\]"),
    ])
    def test_bad_catalog_config_error(self, capsys, workdir, edit, message):
        catalog = workdir / "catalog.yaml"
        catalog.write_text(edit(catalog.read_text()))
        for plan in (("--plan",), ()):
            code, _, err = run_cli(
                capsys, "federate", *plan, "--catalog", str(catalog),
                "--query", str(workdir / "queries" / "federated.rq"))
            assert code == 2
            assert re.search(message, err) and "Traceback" not in err

    def test_endpoint_without_port_exits_2(self, capsys, workdir):
        catalog = workdir / "catalog.yaml"
        catalog.write_text(re.sub(r"endpoint: 127\.0\.0\.1:\d+", "endpoint: localhost",
                                  catalog.read_text(), count=1))
        code, _, err = run_cli(
            capsys, "federate", "--catalog", str(catalog),
            "--query", str(workdir / "queries" / "federated.rq"))
        assert code == 2
        assert re.search(r"sources\[0\]\.endpoint: expected host:port, "
                         r"got 'localhost'", err), err
        assert "Traceback" not in err


def _ephemeral_ports(workdir):
    """Point every node config at port 0, so that no run waits for a fixed
    port that a socket in TIME-WAIT still holds; the scenario run rewrites
    catalog endpoints itself."""
    for config in (workdir / "nodes").glob("*.yaml"):
        config.write_text(re.sub(r"port: \d+", "port: 0", config.read_text()))


def _scenario(workdir):
    return ("scenario", "run", "--script", str(workdir / "scenario.yaml"),
            "--nodes", str(workdir / "nodes.yaml"))


def _rdfize(workdir):
    return ("rdfize", "--mapping", str(workdir / "mappings" / "capacity.yaml"),
            "--output", str(workdir / "out.nt"))


def _pipeline(workdir):
    return ("pipeline", "run", "--config", str(workdir / "pipeline.yaml"))


def _federate_plan(workdir):
    return ("federate", "--plan", "--catalog", str(workdir / "catalog.yaml"),
            "--query", str(workdir / "queries" / "bids.rq"))


def _validate(workdir):
    return ("validate", "--graph", str(workdir / "graphs" / "tso.nt"),
            "--shapes", str(workdir / "shapes" / "capacity.yaml"))


def _replace(old, new):
    def edit(text):
        assert old in text
        return text.replace(old, new, 1)
    return edit


_BAD_PREDICATE = _replace("predicate: energy:country",
                          'predicate: "energy:agg year"')


def _duplicate_first_contract(text):
    start = text.index("  - id: ")
    return text[:start] + text[start:text.index("  - id: ", start + 1)] + text[start:]


def _empty_po(text):
    return text[:text.index("    po:")] + "    po: []\n"


# no record's value could fill in the space: every rendered subject is no IRI
_BAD_TEMPLATE = _replace('template: "http://w3id.org/energy/capacity/{country}',
                         'template: "http://w3id.org/energy/a b/{country}')


class TestBadConfig:
    """One edit to one fixture file; every case gave a traceback before
    every YAML file went through one reader."""

    @pytest.mark.parametrize("path, edit, argv, message", [
        ("pipeline.yaml", _replace("output: graphs/tso.nt\n", ""), _pipeline,
         r"pipeline\.yaml: output: missing"),
        ("pipeline.yaml", lambda text: "- sources\n- output\n", _pipeline,
         r"pipeline\.yaml: top level: expected a mapping, got list"),
        ("pipeline.yaml", _replace("{kind: drop-missing, field: country}",
                                   "{kind: scale-numeric, field: measure, "
                                   "factor: abc}"), _pipeline,
         r"sources\[0\]\.preprocess\[0\]\.factor: not a number"),
        ("nodes/tso.yaml", _replace("id: tso", "id: ["), _scenario,
         r"nodes/tso\.yaml: not valid YAML"),
        ("nodes/tso.yaml", _replace("listen: {host: 127.0.0.1, port: 39471}",
                                    "listen: [1, 2]"), _scenario,
         r"nodes/tso\.yaml: listen: expected a mapping, got list"),
        ("contracts/contracts.yaml", _replace("    provider: supplier\n", ""),
         _scenario, r"contracts\.yaml: contracts\[0\]\.provider: missing"),
        ("contracts/contracts.yaml", _replace("expiry: 2035-01-01T00:00:00Z",
                                              "expiry: next year"),
         _scenario, r"contracts\[0\]\.expiry: .*next year"),
        ("scenario.yaml", lambda text: "steps:\n  - a plain string\n",
         _scenario, r"scenario\.yaml: steps\[0\]: expected a mapping, got str"),
        ("nodes.yaml", lambda text: "servers: []\n", _scenario,
         r"nodes\.yaml: nodes: missing"),
        ("shapes/capacity.yaml", _replace("min_count: 1", "min_count: one"),
         _validate, r"shapes\[0\]\.properties\[0\]\.min_count: "
                    r"expected an integer"),
        # a misspelled key is refused, not read as its default
        ("pipeline.yaml", _replace("on_violation: block", "on_violaton: warn"),
         _pipeline, r"pipeline\.yaml: top level: unknown keys \['on_violaton'\]"),
        ("pipeline.yaml", _replace("field: country}", "field: country, feild: zone}"),
         _pipeline, r"sources\[0\]\.preprocess\[0\]: unknown keys \['feild'\]"),
        ("contracts/contracts.yaml", _replace("    purpose: ", "    purpse: "),
         _scenario, r"contracts\.yaml: contracts\[0\]: unknown keys \['purpse'\]"),
        ("scenario.yaml", _replace("expect: CONTRACT_EXPIRED", "expected: CONTRACT_EXPIRED"),
         _scenario, r"scenario\.yaml: steps\[10\]: unknown keys \['expected'\]"),
        # a reason no node gives, and an expectation no request can meet
        ("scenario.yaml", _replace("expect: CONTRACT_EXPIRED", "expect: CONTRACT_EXPRIED"),
         _scenario, r"scenario\.yaml: steps\[10\]\.expect: must be one of allow, "
                    r".*got 'CONTRACT_EXPRIED'"),
        ("scenario.yaml", _replace("graph: graphs/forecast.nt}",
                                   "graph: graphs/forecast.nt, expect: allow}"),
         _scenario, r"scenario\.yaml: steps\[\d+\]\.expect: a publish step sends "
                    r"no request"),
        # an IRI object has no datatype; it was dropped without a word
        ("mappings/capacity.yaml", _replace('{type}"}', '{type}", datatype: xsd:string}'),
         _rdfize, r"capacity\.yaml: maps\[0\]\.po\[0\]\.datatype: only a literal "
                  r"object has a datatype"),
        ("nodes.yaml", lambda text: text + "start: all\n", _scenario,
         r"nodes\.yaml: top level: unknown keys \['start'\]"),
        # read as a shape without constraints, it would pass every graph
        ("shapes/capacity.yaml", _replace("properties:", "propertes:"), _validate,
         r"capacity\.yaml: shapes\[0\]: unknown keys \['propertes'\]"),
        # a value with a ':' is an IRI; a literal holding one is quoted
        ("shapes/capacity.yaml", _replace("datatype: xsd:string}",
                                          'datatype: xsd:string, in: ["12:30"]}'),
         _validate, r"shapes\[0\]\.properties\[\d\]\.in: unknown prefix '12'"),
        ("nodes/tso.yaml", _replace("port: 39471", "port: 70000"), _scenario,
         r"nodes/tso\.yaml: listen\.port: port 70000 is outside 0-65535"),
        ("contracts/contracts.yaml", _duplicate_first_contract, _scenario,
         r"contracts\.yaml: duplicate contract id tso-supplier-2020"),
        ("catalog.yaml", lambda text: "sources: []\n", _federate_plan,
         r"catalog\.yaml: catalog must list at least one source"),
        ("mappings/capacity.yaml", _empty_po, _rdfize,
         r"capacity\.yaml: maps\[0\]\.po: must be a non-empty list"),
        ("shapes/capacity.yaml", _replace("datatype: xsd:string}",
                                          "datatype: xsd:string, in: []}"),
         _validate, r"capacity\.yaml: shapes\[0\]\.properties\[\d\]\.in: must be a "
                    r"non-empty list"),
    ], ids=["pipeline-no-output", "pipeline-list", "factor-abc",
            "node-invalid-yaml", "node-listen-list", "contract-no-provider",
            "contract-expiry-text", "scenario-step-string", "nodes-no-nodes",
            "shape-min-count-text", "pipeline-unknown-key", "step-unknown-key",
            "contract-unknown-key", "scenario-unknown-key", "step-expect-unknown",
            "publish-step-expect", "template-datatype", "nodes-unknown-key",
            "shape-unknown-key", "shape-in-unknown-prefix", "node-port-70000",
            "contract-id-twice", "catalog-no-sources", "mapping-po-empty",
            "shape-in-empty"])
    def test_exits_2_with_the_key_path(self, capsys, workdir, path, edit,
                                       argv, message):
        target = workdir / path
        target.write_text(edit(target.read_text()))
        code, out, err = run_cli(capsys, *argv(workdir))
        assert code == 2, (out, err)
        assert re.search(r"^error: .*" + message, err, re.M), err
        assert "Traceback" not in err

    def test_bad_predicate_is_a_config_error(self, capsys, workdir, tmp_path):
        mapping = workdir / "mappings" / "capacity.yaml"
        mapping.write_text(_BAD_PREDICATE(mapping.read_text()))
        code, _, err = run_cli(capsys, "rdfize", "--mapping", str(mapping),
                               "--output", str(tmp_path / "out.nt"))
        assert code == 2
        assert re.search(r"capacity\.yaml: maps\[0\]\.po\[1\]\.predicate: "
                         r"IRI contains forbidden character", err), err
        assert not (tmp_path / "out.nt").exists()

    def test_template_that_renders_no_iri_is_a_config_error(self, capsys, workdir,
                                                            tmp_path):
        mapping = workdir / "mappings" / "capacity.yaml"
        mapping.write_text(_BAD_TEMPLATE(mapping.read_text()))
        code, _, err = run_cli(capsys, "rdfize", "--mapping", str(mapping),
                               "--output", str(tmp_path / "out.nt"))
        assert code == 2
        assert re.search(r"capacity\.yaml: maps\[0\]\.subject\.template: "
                         r"IRI contains forbidden character", err), err
        assert not (tmp_path / "out.nt").exists()

    def test_template_that_renders_no_iri_aborts_the_pipeline_at_mapping(
            self, capsys, workdir):
        mapping = workdir / "mappings" / "pipeline.yaml"
        mapping.write_text(_BAD_TEMPLATE(mapping.read_text()))
        code, out, _ = run_cli(capsys, *_pipeline(workdir))
        assert code == 1
        report = json.loads(out)
        assert report["aborted_stage"] == "mapping"
        assert "maps[0].subject.template" in report["errors"][-1]

    def test_bad_predicate_aborts_the_pipeline_at_mapping(self, capsys,
                                                          workdir):
        mapping = workdir / "mappings" / "pipeline.yaml"
        mapping.write_text(_BAD_PREDICATE(mapping.read_text()))
        for written in ("report.json", "graphs/tso.prov.nt"):
            (workdir / written).unlink(missing_ok=True)
        code, out, _ = run_cli(capsys, *_pipeline(workdir))
        assert code == 1
        report = json.loads(out)
        assert report["aborted_stage"] == "mapping"
        assert "po[1].predicate" in report["errors"][-1]
        assert json.loads((workdir / "report.json").read_text()) == report
        assert "/mapping>" not in (workdir / "graphs" / "tso.prov.nt").read_text()
        assert "/preprocess>" in (workdir / "graphs" / "tso.prov.nt").read_text()

    def test_bad_shapes_abort_the_pipeline_at_validation(self, capsys, workdir):
        shapes = workdir / "shapes" / "capacity.yaml"
        shapes.write_text(_replace("min_count: 1", "min_count: one")(shapes.read_text()))
        for written in ("report.json", "graphs/tso.prov.nt"):
            (workdir / written).unlink(missing_ok=True)
        code, out, _ = run_cli(capsys, *_pipeline(workdir))
        assert code == 1
        report = json.loads(out)
        assert report["aborted_stage"] == "validation"
        assert "min_count: expected an integer" in report["errors"][-1]
        assert report["loaded"] is False
        assert json.loads((workdir / "report.json").read_text()) == report
        prov = (workdir / "graphs" / "tso.prov.nt").read_text()
        assert "/linking>" in prov and "/validation>" not in prov

    @pytest.mark.parametrize("path, argv, message", [
        ("raw/capacity.csv",
         lambda work: ("rdfize", "--mapping", str(work / "mappings" / "capacity.yaml"),
                       "--output", str(work / "out.nt")),
         r"capacity\.csv: cannot read: "),
        ("raw/extra.csv",
         lambda work: ("rdfize", "--mapping", str(work / "mappings" / "capacity.yaml"),
                       "--input", str(work / "raw" / "extra.csv"),
                       "--output", str(work / "out.nt")),
         r"extra\.csv: cannot read: "),
        ("graphs/tso.nt", _validate, r"tso\.nt: cannot read: "),
        ("queries/sq2.rq",
         lambda work: ("query", "--graph", str(work / "graphs" / "reference.nt"),
                       "--query", str(work / "queries" / "sq2.rq")),
         r"sq2\.rq: cannot read: "),
    ], ids=["mapping-source", "mapping-source-records", "graph", "query"])
    def test_input_that_is_not_utf8_exits_2(self, capsys, workdir, path, argv,
                                            message):
        source = workdir / "raw" / "capacity.csv"
        target = workdir / path
        text = (target if target.exists() else source).read_bytes()
        target.write_bytes(b"\xff\xfe" + text)
        code, out, err = run_cli(capsys, *argv(workdir))
        assert code == 2, (out, err)
        assert re.search(r"^error: .*" + message + "'utf-8' codec can't decode "
                         r"byte 0xff in position 0", err, re.M), err
        assert "Traceback" not in err
        assert not (workdir / "out.nt").exists()

    @pytest.mark.parametrize("argv", [
        lambda work: ("query", "--graph", str(work / "graphs"),
                      "--query", str(work / "queries" / "sq2.rq")),
        lambda work: ("serve", "--config", str(work / "nodes" / "tso.yaml")),
    ], ids=["query", "serve"])
    def test_graph_path_that_is_a_directory_exits_2(self, capsys, workdir, argv):
        config = workdir / "nodes" / "tso.yaml"
        config.write_text(_replace("../graphs/tso.nt", "../graphs")(config.read_text()))
        code, out, err = run_cli(capsys, *argv(workdir))
        assert code == 2 and out == ""
        assert re.fullmatch(r"error: \S*graphs: cannot read: .*\n", err), err

    @pytest.mark.parametrize("edit, argv, path", [
        (None, lambda work: ("rdfize", "--mapping",
                             str(work / "mappings" / "capacity.yaml"),
                             "--input", str(work / "raw"),
                             "--output", str(work / "out.nt")), "raw"),
        (_replace("query: queries/balancing_plans.rq", "query: queries"),
         _scenario, "queries"),
        (_replace("query: queries/rq4_federated.rq", "query: queries"),
         _scenario, "queries"),
    ], ids=["rdfize-input", "scenario-query", "scenario-federated"])
    def test_input_path_that_is_a_directory_exits_2(self, capsys, workdir, edit,
                                                    argv, path):
        script = workdir / "scenario.yaml"
        if edit is not None:
            script.write_text(edit(script.read_text()))
        _ephemeral_ports(workdir)
        code, out, err = run_cli(capsys, *argv(workdir))
        assert code == 2 and out == "", (out, err)
        assert re.fullmatch(rf"error: \S*{path}: cannot read: .*\n", err), err
        assert not (workdir / "out.nt").exists()

    @pytest.mark.parametrize("argv", [
        lambda work: ("rdfize", "--mapping", str(work / "mappings" / "capacity.yaml"),
                      "--output", str(work / "graphs")),
        lambda work: _validate(work) + ("--report", str(work / "graphs")),
        lambda work: _pipeline(work),
        lambda work: ("fixtures", "generate", "--seed", "1",
                      "--out", str(work / "graphs" / "tso.nt")),
        lambda work: _scenario(work) + ("--transcript", str(work / "graphs")),
    ], ids=["rdfize", "validate", "pipeline", "fixtures", "scenario-transcript"])
    def test_output_path_that_cannot_be_written_exits_2(self, capsys, workdir, argv):
        # a directory where a file goes, or a file where a directory goes
        config = workdir / "pipeline.yaml"
        config.write_text(_replace("output: graphs/tso.nt", "output: graphs")(
            config.read_text()))
        _ephemeral_ports(workdir)
        code, out, err = run_cli(capsys, *argv(workdir))
        assert code == 2 and out == "", (out, err)
        assert re.fullmatch(r"error: \S*graphs\S*: cannot write: .*\n", err), err

    _LOG_UNDER_A_FILE = _replace("provenance_log: ../logs/tso.jsonl",
                                 "provenance_log: ../catalog.yaml/tso.jsonl")

    @pytest.mark.parametrize("path, edit, argv, message", [
        ("pipeline.yaml", _replace("staging: staging", "staging: pipeline.yaml"),
         _pipeline, r"pipeline\.yaml: cannot stage: "),
        ("nodes/tso.yaml", _LOG_UNDER_A_FILE,
         lambda work: ("serve", "--config", str(work / "nodes" / "tso.yaml")),
         r"tso\.jsonl: cannot create: "),
        ("nodes/tso.yaml", _LOG_UNDER_A_FILE, _scenario, r"tso\.jsonl: cannot create: "),
    ], ids=["pipeline-staging", "serve-provenance-log", "scenario-provenance-log"])
    def test_a_file_where_a_directory_goes_exits_2(self, capsys, workdir, path,
                                                   edit, argv, message):
        target = workdir / path
        target.write_text(edit(target.read_text()))
        _ephemeral_ports(workdir)
        code, out, err = run_cli(capsys, *argv(workdir))
        assert code == 2 and out == "", (out, err)
        assert re.fullmatch(rf"error: \S*{message}.*\n", err), err

    def test_scenario_rejection_mismatch_is_a_domain_failure(self, capsys,
                                                            workdir):
        script = workdir / "scenario.yaml"
        script.write_text(_replace("expect: CONTRACT_EXPIRED",
                                   "expect: NOT_AUTHORIZED")(script.read_text()))
        _ephemeral_ports(workdir)
        code, _, err = run_cli(capsys, *_scenario(workdir))
        assert code == 1
        assert "expected NOT_AUTHORIZED, got CONTRACT_EXPIRED" in err

class TestProvenance:
    def test_show_after_scenario(self, capsys, workdir, tmp_path):
        _ephemeral_ports(workdir)
        code, out, _ = run_cli(
            capsys, "scenario", "run",
            "--script", str(workdir / "scenario.yaml"),
            "--nodes", str(workdir / "nodes.yaml"),
            "--transcript", str(tmp_path / "t.jsonl"))
        assert code == 0
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert {e["rq"] for e in lines} >= {f"RQ-{i}" for i in range(1, 9)}
        log = next((workdir / "logs").glob("*.jsonl"))
        code, out, _ = run_cli(capsys, "provenance", "show",
                               "--log", str(log))
        assert code == 0
        records = [json.loads(l) for l in out.strip().splitlines()]
        assert [r["id"] for r in records] == list(range(1, len(records) + 1))


    def test_audit_after_scenario(self, capsys, workdir):
        _ephemeral_ports(workdir)
        code, _, _ = run_cli(capsys, *_scenario(workdir))
        assert code == 0
        audit = ("provenance", "audit", "--node-config",
                 str(workdir / "nodes" / "tso.yaml"))
        code, out, err = run_cli(capsys, *audit)
        assert (code, out, err) == (0, "", "")

        # served records edited to name a consumer no contract covers, and
        # to carry a timestamp that is not one
        log = workdir / "logs" / "tso.jsonl"
        records = [json.loads(line) for line in log.read_text().splitlines()]
        first, second = [r for r in records if r["kind"] == "query-served"][:2]
        first["consumer"] = "mallory"
        second["timestamp"] = "yesterday"
        log.write_text("".join(json.dumps(r, sort_keys=True) + "\n"
                               for r in records))
        code, out, _ = run_cli(capsys, *audit)
        assert code == 1
        assert [json.loads(line) for line in out.splitlines()] == [
            {"node": "tso", "finding": f"record {first['id']}: served query "
             "for mallory but contract check now denies: NOT_AUTHORIZED"},
            {"node": "tso", "finding": f"record {second['id']}: unreadable "
             "timestamp 'yesterday'"}]

        with log.open("a") as fh:
            fh.write("not a record\n")
        code, _, err = run_cli(capsys, *audit)
        assert code == 2
        assert re.search(rf"^error: .*tso\.jsonl: line {len(records) + 1}: "
                         r"not a provenance record", err, re.M), err
        code, _, err = run_cli(capsys, "provenance", "audit", "--node-config",
                               str(workdir / "nodes" / "none.yaml"))
        assert code == 2
        assert re.search(r"^error: .*none\.yaml: cannot read", err, re.M), err


    @pytest.mark.parametrize("change, code, message", [
        # no UTC offset: read as no timestamp, not compared with an aware one
        ({"timestamp": "2024-01-01T00:00:00"}, 1,
         r"record 1: unreadable timestamp '2024-01-01T00:00:00'"),
        ({"id": "1"}, 2,
         r"^error: .*tso\.jsonl: line 1: not a provenance record: .*id"),
    ], ids=["naive-timestamp", "string-id"])
    def test_audit_of_a_bad_record(self, capsys, workdir, change, code, message):
        # a record the node's own contract covers, but for the change
        record = {"id": 1, "kind": "query-served", "consumer": "tso",
                  "contract": "tso-self", "requestDigest": "0" * 64,
                  "resultDigest": "0" * 64,
                  "timestamp": "2024-01-01T00:00:00Z", **change}
        log = workdir / "logs" / "tso.jsonl"
        log.parent.mkdir(exist_ok=True)
        log.write_text(json.dumps(record) + "\n")
        got, out, err = run_cli(capsys, "provenance", "audit", "--node-config",
                                str(workdir / "nodes" / "tso.yaml"))
        assert got == code, (out, err)
        assert re.search(message, out + err, re.M), (out, err)
        assert "Traceback" not in err


class TestReadme:
    README = Path(__file__).resolve().parents[1] / "README.md"

    def walkthrough(self) -> list:
        """The ``energyde`` commands of the README walkthrough, as argv lists."""
        text = self.README.read_text(encoding="utf-8")
        block = text.split("## Command line walkthrough", 1)[1]
        block = block.split("```sh\n", 1)[1].split("```", 1)[0]
        return [shlex.split(line, comments=True)[1:]
                for line in block.splitlines() if line.startswith("energyde ")]

    def test_offline_walkthrough_exits_zero(self, capsys, tmp_path,
                                            monkeypatch):
        # every step that needs no running node, exactly as written
        monkeypatch.chdir(tmp_path)
        ran = []
        for argv in self.walkthrough():
            if argv[0] in ("fixtures", "pipeline", "validate", "query",
                           "rdfize") or "--plan" in argv:
                code, _, err = run_cli(capsys, *argv)
                assert code == 0, (argv, err)
                ran.append(argv[0])
        assert ran == ["fixtures", "pipeline", "validate", "query", "rdfize",
                       "federate"]
