import sys
from datetime import datetime, timezone
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from energyde.connector.contracts import Contract, ContractStore
from energyde.connector.node import NodeServer, NodeState
from energyde.connector.provenance import ProvenanceLog
from energyde.fixtures import generate_fixtures


@pytest.fixture(scope="session")
def fixture_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("fixtures") / "seed1"
    generate_fixtures(1, out)
    return out


def open_contract(contract_id: str, provider: str, consumer: str,
                  resource: str, operations=("catalog", "query")) -> Contract:
    return Contract(id=contract_id, provider=provider, consumer=consumer,
                    resource=resource, operations=frozenset(operations),
                    not_before=datetime(2020, 1, 1, tzinfo=timezone.utc),
                    expiry=datetime(2035, 1, 1, tzinfo=timezone.utc))


def make_node(tmp_path: Path, node_id: str, graph, contracts=None) -> NodeState:
    if contracts is None:
        contracts = ContractStore([open_contract(
            f"{node_id}-open", node_id, "fed", f"{node_id}-graph")])
    return NodeState(
        node_id=node_id, graph=graph, contracts=contracts,
        provenance=ProvenanceLog(tmp_path / f"{node_id}.jsonl"),
        resource=f"{node_id}-graph")


@pytest.fixture
def start_node(tmp_path):
    servers = []

    def _start(node_id, graph, **kwargs) -> NodeServer:
        state = make_node(tmp_path, node_id, graph, **kwargs)
        server = NodeServer(state).start()
        servers.append(server)
        return server

    yield _start
    for server in servers:
        server.stop()
