"""Per-layer metrics, computed from the traced run's span summaries.

Per-request node metrics are medians over requests of one kind.  A flagship
query sends one subquery to each node, so its per-query node metrics add
the tso and wiki medians.  Per-run pipeline metrics are medians over the
run's pipeline executions.
"""

from __future__ import annotations

import statistics

from spans import TraceSummary

FLAGSHIP = ("flagship@tso", "flagship@wiki")
REQUEST_KINDS = FLAGSHIP + ("lookup", "catalog", "rejected")

# name -> unit, in the order they are reported
UNITS = {
    "rdf.parse_us_per_triple": "us",
    "rdf.serialize_ms": "ms",
    "rdf.serialize_calls": "count",
    "rdf.match_calls": "count",
    "rdf.graph_bytes_per_triple": "B",
    "sparql.evaluate_ms": "ms",
    "sparql.rows_examined_per_row": "ratio",
    "sparql.results_json_ms": "ms",
    "sparql.parse_query_us": "us",
    "sparql.evaluate_lookup_us": "us",
    "connector.handle_flagship_ms": "ms",
    "connector.digest_ms": "ms",
    "connector.frame_bytes": "B",
    "connector.frame_codec_ms": "ms",
    "connector.decode_results_ms": "ms",
    "connector.handle_lookup_us": "us",
    "connector.handle_rejected_us": "us",
    "connector.transport_us": "us",
    "connector.provenance_append_us": "us",
    "connector.handle_catalog_ms": "ms",
    "connector.node_cpu_ms_per_request": "ms",
    "connector.provenance_records_per_request": "count",
    "federation.plan_ms": "ms",
    "federation.subquery_ms": "ms",
    "federation.rows_shipped": "count",
    "federation.bytes_shipped": "B",
    "federation.join_ms": "ms",
    "federation.join_yield": "ratio",
    "mapping.read_records_ms": "ms",
    "mapping.apply_ms": "ms",
    "shapes.validate_ms": "ms",
    "shapes.focus_nodes": "count",
    "pipeline.staging_ms": "ms",
    "pipeline.preprocess_ms": "ms",
    "pipeline.link_ms": "ms",
    "pipeline.digest_ms": "ms",
}


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(bench: TraceSummary, node: TraceSummary, extra: dict) -> dict:
    def per_query(name: str) -> float:
        return sum(node.ms(kind, name) for kind in FLAGSHIP)

    def per_query_count(name: str) -> float:
        return sum(node.counted(kind, name) for kind in FLAGSHIP)

    def per_trace(summary, kinds, value) -> float:
        return _median([value(t) for kind in kinds for t in summary.by_kind.get(kind, ())])

    flagship_rows = sum(node.total(kind, "sparql.rows_out") for kind in FLAGSHIP)
    values = {
        "rdf.parse_us_per_triple": per_trace(
            node, ["load@tso"],
            lambda t: t["ms"]["rdf.parse"] * 1000 / t["counts"]["rdf.triples_parsed"]),
        "rdf.serialize_ms": bench.ms("pipeline", "rdf.serialize")
        + bench.ms("pipeline", "pipeline.digest_serialize"),
        "rdf.serialize_calls": bench.counted("pipeline", "rdf.serialize_calls"),
        "rdf.match_calls": per_query_count("rdf.match_calls"),
        "rdf.graph_bytes_per_triple": _median(extra["graph_bytes_per_triple"]),
        "sparql.evaluate_ms": per_query("sparql.evaluate"),
        "sparql.rows_examined_per_row": sum(
            node.total(kind, "rdf.match_triples") for kind in FLAGSHIP)
        / max(flagship_rows, 1),
        "sparql.results_json_ms": per_query("sparql.results_json"),
        "sparql.parse_query_us": node.ms("lookup", "sparql.parse_query") * 1000,
        "sparql.evaluate_lookup_us": node.ms("lookup", "sparql.evaluate") * 1000,
        "connector.handle_flagship_ms": sum(node.ms(kind, kind) for kind in FLAGSHIP),
        "connector.digest_ms": per_query("connector.digest"),
        "connector.frame_bytes": per_query_count("connector.request_bytes")
        + per_query_count("connector.response_bytes"),
        "connector.frame_codec_ms": per_query("connector.encode_frame"),
        "connector.decode_results_ms": bench.ms("federated", "connector.decode_results"),
        "connector.handle_lookup_us": node.ms("lookup", "lookup") * 1000,
        "connector.handle_rejected_us": node.ms("rejected", "rejected") * 1000,
        "connector.transport_us": (bench.ms("lookup-client", "client.query")
                                   - node.ms("lookup", "lookup")) * 1000,
        "connector.provenance_append_us": per_trace(
            node, REQUEST_KINDS,
            lambda t: t["ms"].get("connector.provenance_append", 0.0)) * 1000,
        "connector.handle_catalog_ms": node.ms("catalog", "catalog"),
        "connector.node_cpu_ms_per_request": extra["node_cpu_s_per_request"] * 1000,
        "connector.provenance_records_per_request":
            extra["provenance_records_per_request"],
        "federation.plan_ms": bench.ms("federated", "federation.plan"),
        "federation.subquery_ms": bench.max_ms("federated", "client.query"),
        "federation.rows_shipped": bench.counted("federated", "federation.rows_shipped"),
        "federation.bytes_shipped": per_query_count("connector.response_bytes"),
        "federation.join_ms": bench.ms("federated", "federation.join"),
        "federation.join_yield": per_trace(
            bench, ["federated"],
            lambda t: t["counts"].get("federation.rows_out", 0)
            / max(t["counts"].get("federation.rows_shipped", 0), 1)),
        "mapping.read_records_ms": bench.ms("pipeline", "mapping.read_records"),
        "mapping.apply_ms": bench.ms("pipeline", "mapping.apply"),
        "shapes.validate_ms": bench.ms("pipeline", "shapes.validate"),
        "shapes.focus_nodes": bench.counted("pipeline", "shapes.focus_nodes"),
        "pipeline.staging_ms": bench.counted("pipeline", "pipeline.staging_us") / 1000,
        "pipeline.preprocess_ms": bench.ms("pipeline", "pipeline.preprocess"),
        "pipeline.link_ms": bench.ms("pipeline", "pipeline.link"),
        "pipeline.digest_ms": bench.ms("pipeline", "pipeline.digest_serialize")
        + bench.ms("pipeline", "pipeline.sha256"),
    }
    return {name: (values[name], unit) for name, unit in UNITS.items()}
