"""Usage contracts and the authorization decision."""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Optional

from ..config import ConfigError, Section, load_document, read_document, scalar, strings
from .messages import parse_rfc3339


class ContractError(ConfigError):
    pass


@dataclass(frozen=True)
class Contract:
    id: str
    provider: str
    consumer: str
    resource: str
    operations: frozenset  # subset of {"catalog", "query"}
    not_before: datetime
    expiry: datetime
    purpose: str = ""

    def __post_init__(self):
        if not (self.id and self.provider and self.consumer and self.resource):
            raise ContractError("contract ids and parties must be non-empty")
        if not self.not_before < self.expiry:
            raise ContractError(f"contract {self.id}: not_before must precede expiry")
        bad = self.operations - {"catalog", "query"}
        if bad:
            raise ContractError(f"contract {self.id}: unknown operations {sorted(bad)}")


class ContractStore:
    def __init__(self, contracts=()):
        self._by_id: dict[str, Contract] = {}
        for c in contracts:
            if c.id in self._by_id:
                raise ContractError(f"duplicate contract id {c.id}")
            self._by_id[c.id] = c

    def get(self, contract_id: str) -> Optional[Contract]:
        return self._by_id.get(contract_id)

    def __iter__(self):
        return iter(self._by_id.values())

    def __len__(self):
        return len(self._by_id)


def _timestamp(value) -> datetime:
    return parse_rfc3339(scalar(value))


def _contract(entry: Section) -> Contract:
    return Contract(
        id=entry.get("id"),
        provider=entry.get("provider"),
        consumer=entry.get("consumer"),
        resource=entry.get("resource"),
        operations=frozenset(entry.get("operations", strings,
                                       ["catalog", "query"])),
        not_before=entry.get("not_before", _timestamp),
        expiry=entry.get("expiry", _timestamp),
        purpose=entry.get("purpose", default=""),
    )


def parse_contracts(text: str) -> ContractStore:
    doc = read_document(text, ContractError)
    store = ContractStore(map(_contract, doc.sections("contracts")))
    doc.done()
    return store


def load_contracts(path) -> ContractStore:
    return load_document(path, parse_contracts)


def authorize(contracts: ContractStore, contract_id: Optional[str], consumer: str,
              operation: str, node_id: str, resource: str, now: datetime):
    """Decide whether ``consumer`` may run ``operation`` (``"catalog"`` or
    ``"query"``) on ``resource`` at ``node_id`` under ``contract_id`` at
    ``now``.  Returns ``None`` to allow, else ``(reason, text)`` with the most
    specific rejection reason (unknown < consumer mismatch < window <
    operation)."""
    contract = contracts.get(contract_id) if contract_id else None
    if contract is None:
        return ("UNKNOWN_CONTRACT", f"no contract {contract_id!r}")
    if contract.consumer != consumer or contract.provider != node_id \
            or contract.resource != resource:
        return ("NOT_AUTHORIZED",
                f"contract {contract.id} does not grant {consumer!r} "
                f"access to {resource!r} at {node_id!r}")
    if now < contract.not_before:
        return ("CONTRACT_NOT_YET_VALID",
                f"contract {contract.id} valid from {contract.not_before.isoformat()}")
    if now >= contract.expiry:
        return ("CONTRACT_EXPIRED",
                f"contract {contract.id} expired {contract.expiry.isoformat()}")
    if operation not in contract.operations:
        return ("OPERATION_NOT_PERMITTED",
                f"contract {contract.id} does not permit {operation!r}")
    return None
