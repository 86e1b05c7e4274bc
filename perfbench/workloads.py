"""The three workloads, their oracles, and their end-to-end metrics.

Every run builds a fresh seeded corpus in its own workspace, so provenance
logs start empty.  All loops are closed: a client sends its next request
only when the previous reply has arrived.

- ``flagship``: one client runs the paper's federated query through
  ``federation.federated_query`` against the tso and wiki nodes.
- ``lookups``: one client sends a fixed mix of point lookups, catalog
  requests, and requests under an expired contract to the tso node.
- ``pipeline-build``: repeated ``pipeline.run_pipeline`` on the scaled CSV.

After its loop every workload sends the same short probe (catalog requests,
lookups, refused requests, one flagship query) to nodes serving its corpus,
checks the answers, and audits the node's provenance log.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import json
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Optional

from energyde import federation, pipeline
from energyde.connector.client import NodeClient, RejectionError
from energyde.connector.contracts import load_contracts
from energyde.connector.provenance import read_log, replay_audit
from energyde.rdf import IRI, Graph, Literal, load_graph
from energyde.sparql import evaluate, parse_query
from energyde.vocab import MEASURE, XSD_DECIMAL

import instrument
from corpus import (EXPIRED_CONTRACT, FLAGSHIP_YEAR, TSO_CLASSES, TSO_PREDICATES,
                    Corpus, copy_workspace, generate_corpus)
from spans import TraceSummary

HERE = Path(__file__).resolve().parent
WORKLOADS = ("flagship", "lookups", "pipeline-build")
NODES = ("tso", "wiki")
# one cycle of the lookups client: 8 lookups, 1 catalog request, 1 refused request
LOOKUP_MIX = ("lookup",) * 4 + ("catalog",) + ("lookup",) * 4 + ("rejected",)
PROBE = ("catalog",) * 30 + ("lookup",) * 20 + ("rejected",) * 5
NODE_START_TIMEOUT_S = 150
SETUPS = 3          # set-ups per run; setup_s is their median
WORK_DIR = HERE.parent / ".bench_work"


@dataclasses.dataclass
class Settings:
    seed: int
    seconds: float
    countries: int = 100
    node_cpu: Optional[int] = None


def split_cpus() -> Optional[int]:
    """Pin this process to the first CPU and return the last one, for the
    node process.  Unpinned, threads of both processes migrate between the
    CPUs of a small machine, and latencies spread wider from run to run
    (README.md has the figures)."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    os.sched_setaffinity(0, {cpus[0]})
    return cpus[-1]


class Run:
    """What one workload run measured and how many of its operations failed."""

    def __init__(self):
        self.attempted = 0
        self.samples = 0                        # operations timed in the loop
        self.failures: list[str] = []
        self.metrics: dict[str, tuple] = {}     # end-to-end: name -> (value, unit)
        self.layers: dict[str, tuple] = {}      # per layer, traced runs only

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# --- node process ------------------------------------------------------------

class NodeProcess:
    """A ``nodeproc.py`` child serving the given node configs.  ``setup_s``
    runs from launching it until every node accepts a connection."""

    def __init__(self, configs, cpu=None, trace_dir=None):
        command = [sys.executable, str(HERE / "nodeproc.py")]
        if trace_dir is not None:
            command += ["--trace", str(trace_dir)]
        command += [str(c) for c in configs]
        self.trace_dir = trace_dir
        start = time.perf_counter()
        self.proc = subprocess.Popen(command, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        if cpu is not None:
            os.sched_setaffinity(self.proc.pid, {cpu})
        watchdog = threading.Timer(NODE_START_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(f"node process exited with {self.proc.wait()}")
            self.nodes = json.loads(line)["nodes"]
            for info in self.nodes.values():
                host, _, port = info["endpoint"].rpartition(":")
                socket.create_connection((host, int(port)), timeout=10).close()
        except BaseException:
            self.stop()
            raise
        finally:
            watchdog.cancel()
        self.setup_s = time.perf_counter() - start

    def endpoint(self, node_id: str) -> str:
        return self.nodes[node_id]["endpoint"]

    def cpu_s(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Close stdin, which tells the process to stop, and wait for it."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def summary(self) -> TraceSummary:
        """The trace summary a traced process wrote when it stopped."""
        path = Path(self.trace_dir) / f"node-{self.proc.pid}.summary.json"
        return TraceSummary.from_json(json.loads(path.read_text(encoding="utf-8")))


# --- requests and their oracles ----------------------------------------------

def lookup_query(corpus: Corpus, key: tuple) -> str:
    return (f"{instrument.LOOKUP_PREFIX} <{corpus.capacity_iri(*key)}> "
            f"<{MEASURE}> ?measure . }}")


def answer_counter(solutions) -> Counter:
    return Counter(tuple(row.get(v) for v in solutions.variables)
                   for row in solutions.rows)


def expected_flagship(corpus: Corpus) -> Counter:
    """The flagship answer worked out from the generated records."""
    return Counter(
        (Literal(country), IRI(f"http://w3id.org/energy/{ptype}"),
         Literal(measure, XSD_DECIMAL))
        for (country, ptype, year), measure in corpus.measures.items()
        if year == FLAGSHIP_YEAR and ptype in corpus.renewable)


class Requester:
    """Sends the non-federated requests and checks each reply."""

    def __init__(self, corpus: Corpus, nodes: NodeProcess, tracer):
        endpoint = nodes.endpoint("tso")
        self.corpus = corpus
        self.keys = sorted(corpus.measures)
        self.tracer = tracer
        self.served = NodeClient(endpoint, "tso", "tso-self", source_id="tso")
        self.refused = NodeClient(endpoint, "tso", EXPIRED_CONTRACT, source_id="tso")

    def send(self, kind: str, rng: random.Random):
        """One request; returns (seconds, what went wrong or None)."""
        start = time.perf_counter()
        try:
            with self.tracer.trace(f"{kind}-client"):
                if kind == "lookup":
                    key = rng.choice(self.keys)
                    rows = self.served.query(lookup_query(self.corpus, key)).rows
                    elapsed = time.perf_counter() - start
                    want = Literal(self.corpus.measures[key], XSD_DECIMAL)
                    if len(rows) == 1 and rows[0].get("measure") == want:
                        return elapsed, None
                    return elapsed, f"lookup {key}: got {rows!r}"
                if kind == "catalog":
                    source = self.served.catalog()
                    elapsed = time.perf_counter() - start
                    if (set(source["classes"]) == TSO_CLASSES
                            and set(source["predicates"]) == TSO_PREDICATES):
                        return elapsed, None
                    return elapsed, f"catalog: got {source!r}"
                try:
                    self.refused.query(lookup_query(self.corpus, rng.choice(self.keys)))
                except RejectionError as exc:
                    if exc.reason == "CONTRACT_EXPIRED":
                        return time.perf_counter() - start, None
                    return time.perf_counter() - start, f"refused with {exc.reason}"
                return time.perf_counter() - start, "expired contract was served"
        except Exception as exc:  # any other failure is a failed operation
            return time.perf_counter() - start, f"{kind}: {exc!r}"


# --- the workloads -------------------------------------------------------------

class Workload:
    def __init__(self, name: str, settings: Settings, tracer, trace_dir=None):
        self.name = name
        self.settings = settings
        self.tracer = tracer
        self.trace_dir = trace_dir
        self.run = Run()
        self.sent = Counter()             # requests sent, per node
        self.catalog_s: list[float] = []
        self.extra: dict = {}             # inputs to the per-layer metrics
        self.summaries = []               # node trace summaries

    # common steps

    def build(self, root: Path, corpus: Corpus, digest=None):
        """One ``run_pipeline`` on the workspace at ``root``; checked."""
        config = pipeline.load_pipeline_config(root / "pipeline.yaml")
        start = time.perf_counter()
        with self.tracer.trace("pipeline") as current:
            report = pipeline.run_pipeline(config)
        elapsed = time.perf_counter() - start
        if current is not None:
            instrument.record_staging(self.tracer, current, config.provenance_path)
        load = report["stages"].get("load", {})
        self.run.op(bool(report["conforms"] and report["loaded"]
                         and load.get("triples") == corpus.expected_tso_triples
                         and (digest is None or load.get("digest") == digest)),
                    f"pipeline run: conforms={report['conforms']} "
                    f"loaded={report['loaded']} triples={load.get('triples')} "
                    f"digest={load.get('digest')} want {digest}")
        return elapsed, load.get("digest")

    def start_nodes(self, root: Path) -> NodeProcess:
        nodes = NodeProcess([root / "nodes" / f"{n}.yaml" for n in NODES],
                            self.settings.node_cpu, self.trace_dir)
        info = nodes.nodes["tso"]
        self.extra.setdefault("graph_bytes_per_triple", []).append(
            info["rss_delta_bytes"] / info["triples"])
        return nodes

    def stop_nodes(self, nodes: NodeProcess) -> None:
        nodes.stop()
        if self.trace_dir is not None:
            self.summaries.append(nodes.summary())

    def catalog(self, corpus: Corpus, nodes: NodeProcess):
        catalog = federation.load_catalog(corpus.path("catalog.yaml"))
        return dataclasses.replace(catalog, sources=[
            dataclasses.replace(s, endpoint=nodes.endpoint(s.id))
            for s in catalog.sources])

    def flagship_query(self, catalog, text: str):
        """One federated query; returns (seconds, answer or None)."""
        start = time.perf_counter()
        try:
            with self.tracer.trace("federated"):
                answer = federation.federated_query(text, catalog)
        except Exception as exc:  # any failure is a failed operation
            self.run.op(False, f"flagship query: {exc!r}")
            return time.perf_counter() - start, None
        finally:
            self.sent.update(NODES)
        return time.perf_counter() - start, answer

    def probe(self, corpus: Corpus, nodes: NodeProcess, cpu_before: float) -> None:
        """The probe every workload ends with, then the node's CPU per request
        since ``cpu_before`` and its peak memory."""
        requester = Requester(corpus, nodes, self.tracer)
        rng = random.Random(f"{self.settings.seed}-probe")
        for kind in PROBE:
            elapsed, error = requester.send(kind, rng)
            self.sent["tso"] += 1
            if self.run.op(error is None, error) and kind == "catalog":
                self.catalog_s.append(elapsed)
        _, answer = self.flagship_query(self.catalog(corpus, nodes),
                                        corpus.path("queries/federated.rq").read_text())
        if answer is not None:
            self.run.op(answer_counter(answer) == expected_flagship(corpus),
                        "probe flagship answer differs from the generated records")
        self.run.metric("catalog_p50_ms", statistics.median(self.catalog_s) * 1000, "ms")
        self.extra["node_cpu_s_per_request"] = \
            (nodes.cpu_s() - cpu_before) / sum(self.sent.values())
        self.run.metric("node_peak_rss_mb", nodes.peak_rss_mb(), "MB")

    def audit(self, corpus: Corpus) -> None:
        """One provenance record per request sent and a clean replay audit,
        per node."""
        contracts = load_contracts(corpus.path("contracts/contracts.yaml"))
        records_total = 0
        for node_id in NODES:
            records = read_log(corpus.path(f"logs/{node_id}.jsonl"))
            records_total += len(records)
            self.run.op(len(records) == self.sent[node_id],
                        f"{node_id}: {len(records)} provenance records for "
                        f"{self.sent[node_id]} requests")
            findings = replay_audit(records, contracts, node_id, f"{node_id}-graph")
            self.run.op(not findings, f"{node_id} replay audit: {findings[:3]}")
        self.extra["provenance_records_per_request"] = \
            records_total / sum(self.sent.values())

    def execute(self) -> Run:
        work = WORK_DIR / f"{self.name}-{self.settings.seed}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            corpus = generate_corpus(self.settings.seed, work / "corpus",
                                     self.settings.countries)
            if self.name == "pipeline-build":
                self.pipeline_build(corpus, work)
            else:
                self.served(corpus)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return self.run

    def loop_until(self, deadline: float):
        while time.perf_counter() < deadline:
            yield

    # flagship and lookups

    def served(self, corpus: Corpus) -> None:
        elapsed, _ = self.build(corpus.root, corpus)
        self.run.metric("pipeline_us_per_triple",
                        elapsed / corpus.expected_tso_triples * 1e6, "us")
        setups = []
        for i in range(SETUPS):
            nodes = self.start_nodes(corpus.root)
            setups.append(nodes.setup_s)
            if i < SETUPS - 1:
                self.stop_nodes(nodes)
        try:
            self.run.metric("setup_s", statistics.median(setups), "s")
            cpu_before = nodes.cpu_s()
            if self.name == "flagship":
                latencies, elapsed = self.flagship_loop(corpus, nodes)
            else:
                latencies, elapsed = self.lookups_loop(corpus, nodes)
            self.latency_metrics(latencies, elapsed)
            self.probe(corpus, nodes, cpu_before)
        finally:
            self.stop_nodes(nodes)
        self.audit(corpus)

    def latency_metrics(self, latencies: list, elapsed: float) -> None:
        if not latencies:
            raise RuntimeError(f"{self.name}: no operation completed")
        ms = [s * 1000 for s in latencies]
        self.run.metric("latency_p50_ms", statistics.median(ms), "ms")
        self.run.metric("latency_p80_ms", percentile(ms, 80), "ms")
        self.run.metric("throughput_rps", len(latencies) / elapsed, "1/s")
        self.run.samples = len(latencies)

    def flagship_loop(self, corpus: Corpus, nodes: NodeProcess):
        text = corpus.path("queries/federated.rq").read_text()
        catalog = self.catalog(corpus, nodes)
        central = self.central_answer(corpus, text)
        gc.collect()  # the union graph is garbage now; keep it out of the loop
        latencies = []
        start = time.perf_counter()
        for _ in self.loop_until(start + self.settings.seconds):
            seconds, answer = self.flagship_query(catalog, text)
            if answer is not None:
                latencies.append(seconds)
                self.run.op(answer_counter(answer) == central,
                            "flagship answer differs from central evaluation")
        return latencies, time.perf_counter() - start

    def central_answer(self, corpus: Corpus, text: str) -> Counter:
        """Evaluation of the flagship query over the union of the node graphs."""
        union = Graph()
        for path in ("graphs/tso.nt", "graphs/tso_load.nt", "graphs/reference.nt"):
            union.update(load_graph(corpus.path(path)))
        central = answer_counter(evaluate(parse_query(text), union))
        self.run.op(central == expected_flagship(corpus)
                    and sum(central.values()) == corpus.expected_flagship_rows,
                    "central flagship answer differs from the generated records")
        return central

    def lookups_loop(self, corpus: Corpus, nodes: NodeProcess):
        requester = Requester(corpus, nodes, self.tracer)
        rng = random.Random(f"{self.settings.seed}-lookups")
        latencies = []
        start = time.perf_counter()
        for kind, _ in zip(itertools.cycle(LOOKUP_MIX),
                           self.loop_until(start + self.settings.seconds)):
            seconds, error = requester.send(kind, rng)
            self.sent["tso"] += 1
            if self.run.op(error is None, error):
                latencies.append(seconds)
                if kind == "catalog":
                    self.catalog_s.append(seconds)
        return latencies, time.perf_counter() - start

    # pipeline-build

    def pipeline_build(self, corpus: Corpus, work: Path) -> None:
        setups = []
        digest = None
        for i in range(SETUPS):
            workspace = copy_workspace(corpus, work / f"cold-{i}")
            seconds, digest = self.build(workspace.root, workspace, digest)
            setups.append(seconds)
        self.run.metric("setup_s", statistics.median(setups), "s")
        latencies = []
        start = time.perf_counter()
        for _ in self.loop_until(start + self.settings.seconds):
            seconds, _ = self.build(workspace.root, workspace, digest)
            latencies.append(seconds)
        elapsed = time.perf_counter() - start
        self.latency_metrics(latencies, elapsed)
        self.run.metric("pipeline_us_per_triple",
                        statistics.median(latencies) / corpus.expected_tso_triples * 1e6,
                        "us")
        # the built graph must load: the node holds it plus the fixture's load
        # measurements
        nodes = self.start_nodes(workspace.root)
        try:
            load_triples = len(load_graph(workspace.path("graphs/tso_load.nt")))
            got = nodes.nodes["tso"]["triples"]
            self.run.op(got == corpus.expected_tso_triples + load_triples,
                        f"tso node loaded {got} triples")
            cpu_before = nodes.cpu_s()
            self.probe(workspace, nodes, cpu_before)
        finally:
            self.stop_nodes(nodes)
        self.audit(workspace)
