"""Single entry-point command line tool.

Exit codes: 0 success, 1 domain failure (non-conforming validation, rejected
request, failed scenario), 2 usage or configuration error.  Machine output
goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import federation, fixtures, pipeline, scenario
from .config import ConfigError, read_text, write_text
from .connector.client import (BadResponseError, RejectionError,
                               SourceUnreachableError)
from .connector.contracts import load_contracts
from .connector.node import load_node_config, serve
from .connector.provenance import read_log, replay_audit
from .mapping import apply_mapping, load_mapping, read_records
from .rdf import RdfError, load_graph, save_graph
from .shapes import load_shapes, validate
from .sparql import QueryParseError, evaluate, parse_query, serialize_results


def _err(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def cmd_rdfize(args) -> int:
    doc = load_mapping(args.mapping)
    if args.input and doc.maps:
        # every map reads the given file, with the first map's source settings
        records = read_records(replace(doc.maps[0].source, path=args.input))
        graph = apply_mapping(doc, lambda source: records)
    else:
        graph = apply_mapping(doc)
    save_graph(graph, args.output)
    print(json.dumps({"triples": len(graph)}))
    return 0


def cmd_validate(args) -> int:
    graph = load_graph(args.graph)
    shape_list = load_shapes(args.shapes)
    report = validate(graph, shape_list)
    text = report.to_json()
    if args.report:
        write_text(args.report, text)
    sys.stdout.write(text)
    return 0 if report.conforms else 1


def cmd_pipeline_run(args) -> int:
    config = pipeline.load_pipeline_config(args.config)
    report = pipeline.run_pipeline(config)
    print(json.dumps(report, indent=2))
    if report["aborted_stage"] or (report["conforms"] is False
                                   and config.on_violation == "block"):
        return 1
    return 0


def cmd_serve(args) -> int:
    config = load_node_config(args.config)
    server = serve(config)
    print(f"node {config.id} listening on {server.endpoint}", file=sys.stderr)
    try:
        server._thread.join()
    except KeyboardInterrupt:
        server.stop()
    return 0


def cmd_query(args) -> int:
    graph = load_graph(args.graph)
    query = parse_query(read_text(args.query))
    sys.stdout.write(serialize_results(evaluate(query, graph)))
    return 0


def cmd_federate(args) -> int:
    catalog = federation.load_catalog(args.catalog)
    text = read_text(args.query)
    if args.plan:
        plan = federation.plan_query(text, catalog)
        print(json.dumps(plan.to_dict(), indent=2))
        return 0
    solutions = federation.federated_query(text, catalog)
    sys.stdout.write(serialize_results(solutions))
    return 0


def cmd_scenario_run(args) -> int:
    steps = scenario.load_scenario(args.script)
    with scenario.NodeSet(args.nodes) as nodes:
        transcript = scenario.run_scenario(steps, nodes,
                                           transcript_path=args.transcript)
    for entry in transcript:
        print(json.dumps(entry, sort_keys=True))
    missing = scenario.REQUIRED_TAGS - scenario.coverage(transcript)
    if missing and transcript:
        print(f"warning: requirement tags not covered: {sorted(missing)}",
              file=sys.stderr)
    return 0


def cmd_fixtures_generate(args) -> int:
    out = fixtures.generate_fixtures(args.seed, args.out)
    print(json.dumps({"out": str(out), "seed": args.seed}))
    return 0


def cmd_provenance_show(args) -> int:
    for record in read_log(args.log):
        print(json.dumps(record.to_dict(), sort_keys=True))
    return 0


def cmd_provenance_audit(args) -> int:
    config = load_node_config(args.node_config)
    findings = replay_audit(read_log(config.provenance_path),
                            load_contracts(config.contracts_path),
                            config.id, config.resource)
    for finding in findings:
        print(json.dumps({"node": config.id, "finding": finding}))
    return 1 if findings else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="energyde",
        description="Energy data ecosystem: knowledge graphs, connectors, "
                    "and federated queries")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rdfize", help="apply a mapping document to raw data")
    p.add_argument("--mapping", required=True)
    p.add_argument("--input", help="override the logical source file")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_rdfize)

    p = sub.add_parser("validate", help="validate a graph against shapes")
    p.add_argument("--graph", required=True)
    p.add_argument("--shapes", required=True)
    p.add_argument("--report")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("pipeline", help="knowledge-graph creation pipeline")
    psub = p.add_subparsers(dest="pipeline_command", required=True)
    pr = psub.add_parser("run")
    pr.add_argument("--config", required=True)
    pr.set_defaults(func=cmd_pipeline_run)

    p = sub.add_parser("serve", help="run a connector node")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("query", help="evaluate a query against a local graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--query", required=True)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("federate", help="run a federated query")
    p.add_argument("--catalog", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--plan", action="store_true",
                   help="print the decomposition plan instead of executing")
    p.set_defaults(func=cmd_federate)

    p = sub.add_parser("scenario", help="scripted multi-node scenario")
    ssub = p.add_subparsers(dest="scenario_command", required=True)
    sr = ssub.add_parser("run")
    sr.add_argument("--script", required=True)
    sr.add_argument("--nodes", required=True)
    sr.add_argument("--transcript")
    sr.set_defaults(func=cmd_scenario_run)

    p = sub.add_parser("fixtures", help="deterministic fixture generation")
    fsub = p.add_subparsers(dest="fixtures_command", required=True)
    fg = fsub.add_parser("generate")
    fg.add_argument("--seed", type=int, required=True)
    fg.add_argument("--out", required=True)
    fg.set_defaults(func=cmd_fixtures_generate)

    p = sub.add_parser("provenance", help="inspect a provenance log")
    prsub = p.add_subparsers(dest="provenance_command", required=True)
    ps = prsub.add_parser("show")
    ps.add_argument("--log", required=True)
    ps.set_defaults(func=cmd_provenance_show)
    pa = prsub.add_parser("audit", help="re-check a node's log against its contracts")
    pa.add_argument("--node-config", required=True)
    pa.set_defaults(func=cmd_provenance_audit)

    return parser


# a bad catalog is both a config and a federation error: it exits 2
_CONFIG_ERRORS = (ConfigError, QueryParseError, RdfError, FileNotFoundError)
_DOMAIN_ERRORS = (RejectionError, SourceUnreachableError, BadResponseError,
                  federation.FederationError, scenario.ScenarioError)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        _err(str(exc))
        return 2
    except _DOMAIN_ERRORS as exc:
        _err(str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
