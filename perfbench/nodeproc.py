"""Node process: serves energyde nodes on loopback until its stdin closes.

    python3 perfbench/nodeproc.py [--trace DIR] NODE_CONFIG...

Every node listens on a free loopback port.  Once all of them accept
connections it prints one JSON line, ``{"nodes": {id: {"endpoint": ...,
"triples": ..., "rss_delta_bytes": ...}}}``.  With ``--trace`` it records
spans around the node's layers and, on exit, writes them to
``DIR/node-<pid>.jsonl.gz`` and their per-request summary to
``DIR/node-<pid>.summary.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from energyde.connector.node import NodeServer, NodeState, load_node_config  # noqa: E402

import instrument  # noqa: E402
from spans import Tracer  # noqa: E402


def rss_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", help="directory for the trace output")
    parser.add_argument("configs", nargs="+")
    args = parser.parse_args(argv)
    tracer = None
    if args.trace:
        tracer = Tracer("node")
        instrument.node_side(tracer)

    servers = []
    ready = {}
    try:
        for path in args.configs:
            config = load_node_config(path)
            before = rss_bytes()
            with tracer.trace(f"load@{config.id}") if tracer else nullcontext():
                state = NodeState.from_config(config)
            rss_delta = rss_bytes() - before
            server = NodeServer(state, config.host, 0).start()
            servers.append(server)
            ready[config.id] = {"endpoint": server.endpoint,
                                "triples": len(state.graph),
                                "rss_delta_bytes": rss_delta}
        print(json.dumps({"nodes": ready}), flush=True)
        sys.stdin.read()
    finally:
        for server in servers:
            server.stop()
    if tracer is not None:
        out = Path(args.trace)
        tracer.dump(out / f"node-{os.getpid()}.jsonl.gz")
        (out / f"node-{os.getpid()}.summary.json").write_text(
            json.dumps(tracer.summary().to_json()), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
