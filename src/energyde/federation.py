"""Federated query engine: metadata-driven source selection, decomposition
into per-source subqueries, remote execution, and join of the results."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional

from .config import ConfigError, Section, load_document, read_document, strings
from .rdf import IRI
from .sparql import (AnswerTerms, Query, ResultsFormatError, SolutionSequence,
                     TriplePattern, Values, Variable, apply_modifiers,
                     format_pattern_term, format_query, parse_query)
from .vocab import PREFIXES, RDF_TYPE


class FederationError(RuntimeError):
    pass


class CatalogError(FederationError, ConfigError):
    """A catalog that cannot be used as written."""


class MalformedAnswerError(FederationError):
    """A source answered with a document that is not SPARQL JSON results."""

    def __init__(self, source_id: str, detail: str):
        super().__init__(f"source {source_id!r} sent a malformed answer: {detail}")
        self.source_id = source_id


class UnanswerablePatternError(FederationError):
    def __init__(self, pattern: TriplePattern):
        text = " ".join(format_pattern_term(t) for t in pattern)
        super().__init__(f"no source in the catalog can answer pattern: {text}")
        self.pattern = pattern


@dataclass(frozen=True)
class SourceDescription:
    id: str
    endpoint: str
    classes: frozenset
    predicates: frozenset
    contract: Optional[str] = None      # default contract for this source

    def __post_init__(self):
        if not self.predicates:
            raise CatalogError(f"source {self.id!r}: empty predicate set")


@dataclass
class FederationCatalog:
    sources: list
    client_id: str = "federator"

    def __post_init__(self):
        if not self.sources:
            raise CatalogError("catalog must list at least one source")
        ids = [s.id for s in self.sources]
        if len(set(ids)) != len(ids):
            raise CatalogError("duplicate source ids in catalog")


def _source(entry: Section, prefixes: dict) -> SourceDescription:
    return SourceDescription(
        id=entry.get("id"),
        endpoint=entry.get("endpoint"),
        classes=frozenset(entry.expand("classes", c, prefixes)
                          for c in entry.get("classes", strings, [])),
        predicates=frozenset(entry.expand("predicates", p, prefixes)
                             for p in entry.get("predicates", strings, [])),
        contract=entry.get("contract", default=None),
    )


def parse_catalog(text: str) -> FederationCatalog:
    doc = read_document(text, CatalogError)
    prefixes = doc.prefixes(PREFIXES)
    catalog = FederationCatalog(
        sources=[_source(entry, prefixes) for entry in doc.sections("sources")],
        client_id=doc.get("client_id", default="federator"))
    doc.done()
    return catalog


def load_catalog(path) -> FederationCatalog:
    return load_document(path, parse_catalog)


def select_sources(query: Query, catalog: FederationCatalog) -> dict[int, set[str]]:
    """Relevant sources per triple pattern.  A source answers a pattern iff the
    pattern's predicate is in its capabilities; rdf:type patterns go by the
    class object instead; variable predicates match every source."""
    selection: dict[int, set[str]] = {}
    for i, pattern in enumerate(query.patterns):
        relevant: set[str] = set()
        predicate = pattern.predicate
        for source in catalog.sources:
            if isinstance(predicate, Variable):
                relevant.add(source.id)
            elif predicate.value == RDF_TYPE and isinstance(pattern.object, IRI):
                if pattern.object.value in source.classes \
                        or RDF_TYPE in source.predicates:
                    relevant.add(source.id)
            elif predicate.value in source.predicates:
                relevant.add(source.id)
        if not relevant:
            raise UnanswerablePatternError(pattern)
        selection[i] = relevant
    return selection


@dataclass
class Subquery:
    sources: tuple  # source ids this subquery is dispatched to (results unioned)
    query: Query
    join_on: tuple = ()     # the variables its answer is joined on, sorted

    @property
    def bind_on(self) -> Optional[str]:
        """The variable its bound join sends values of: the first of
        ``join_on``, or None."""
        return self.join_on[0] if self.join_on else None


@dataclass
class DecomposedQuery:
    query: Query             # the federated query (projection/distinct/limit)
    subqueries: list
    order: list              # subquery indexes in dispatch order

    def to_dict(self) -> dict:
        return {
            "subqueries": [{
                "sources": list(sq.sources),
                "patterns": len(sq.query.patterns),
                "projection": list(sq.query.projected),
                "query": format_query(sq.query),
                "bindOn": sq.bind_on,
            } for sq in self.subqueries],
            # the hash joins execute_federated runs, in order: each answer
            # but the first joins the rows before it, and the first joins
            # the query's VALUES rows, if it has any
            "joins": [{
                "left": self.order[:k], "right": i,
                "vars": list(self.subqueries[i].join_on),
                "cartesian": not self.subqueries[i].join_on,
            } for k, i in enumerate(self.order)
                if k or self.query.values is not None],
            "order": list(self.order),
        }


def decompose(query: Query, selection: dict[int, set[str]]) -> DecomposedQuery:
    """Group patterns into per-source subqueries.

    Patterns answerable by exactly one source merge into that source's
    subquery (fewest subqueries).  A pattern answerable by several sources
    becomes its own subquery, dispatched to each and unioned, so that data
    split across sources is still found.
    """
    exclusive: dict[str, list[int]] = {}
    multi: list[tuple[int, tuple]] = []
    for i in sorted(selection):
        sources = selection[i]
        if len(sources) == 1:
            exclusive.setdefault(next(iter(sources)), []).append(i)
        else:
            multi.append((i, tuple(sorted(sources))))

    groups: list[tuple[tuple, tuple]] = []  # (source ids, pattern indexes)
    for source_id in sorted(exclusive):
        groups.append(((source_id,), tuple(exclusive[source_id])))
    for i, sources in multi:
        groups.append((sources, (i,)))

    # variables needed above each subquery: the federated projection, every
    # cross-subquery join variable, filter variables and the VALUES variable
    group_vars = []
    for _, indexes in groups:
        vars_here: set[str] = set()
        for i in indexes:
            vars_here |= query.patterns[i].variables()
        group_vars.append(vars_here)
    shared_anywhere: set[str] = set()
    for a in range(len(groups)):
        for b in range(a + 1, len(groups)):
            shared_anywhere |= group_vars[a] & group_vars[b]
    filter_vars = {f.variable.name for f in query.filters}
    needed = set(query.projected) | shared_anywhere | filter_vars | _inline(query)

    subqueries = []
    for (sources, indexes), vars_here in zip(groups, group_vars):
        patterns = tuple(query.patterns[i] for i in indexes)
        # a filter whose variable is bound here is pushed into the subquery
        pushed = tuple(f for f in query.filters if f.variable.name in vars_here)
        # without DISTINCT every variable is kept, so each subquery row is
        # one BGP solution and only the final projection makes duplicates
        kept = needed & vars_here if query.distinct else vars_here
        projected = tuple(sorted(kept or vars_here))
        subqueries.append(Subquery(
            sources=sources,
            query=Query(projected=projected, distinct=True, patterns=patterns,
                        filters=pushed)))
    return DecomposedQuery(query=query, subqueries=subqueries,
                           order=_bind_order(subqueries, _inline(query)))


def _inline(query: Query) -> set[str]:
    """The variable of the query's VALUES block, if it has one."""
    return set() if query.values is None else {query.values.variable.name}


def _bind_order(subqueries: list, joined: set[str]) -> list[int]:
    """The dispatch order, from the query alone (FedX's variable counting):
    next comes a subquery that shares a variable with those before it, or
    with ``joined``, the variables bound before the first; then the one
    with fewest variables not yet joined; then the lowest index.  Each
    subquery gets ``join_on``, the projected variables it shares with the
    rows joined before it: what its answer is hash joined on."""
    order: list[int] = []
    joined = set(joined)
    remaining = list(range(len(subqueries)))

    def cost(i):
        variables = subqueries[i].query.variables()
        return not variables & joined, len(variables - joined), i

    while remaining:
        best = min(remaining, key=cost)
        remaining.remove(best)
        projected = set(subqueries[best].query.projected)
        subqueries[best].join_on = tuple(sorted(joined & projected))
        joined |= projected
        order.append(best)
    return order


def hash_join(left: SolutionSequence, right: SolutionSequence,
              shared: Iterable[str]) -> SolutionSequence:
    """Join two solution sequences on their shared variables.  ``left``,
    the rows joined so far, is the hash table, keyed by its cells for the
    sorted ``shared``, and each row of ``right`` probes it.  With no shared
    variable every key is empty, so the join is the Cartesian product.
    Rows stay ids: both sides are put in one ``AnswerTerms``, so that equal
    ids are equal terms.  The output has ``left``'s columns, then those of
    ``right``'s variables that ``left`` lacks."""
    table = AnswerTerms.common([left, right])
    key_vars = sorted(shared)
    left_vars = list(dict.fromkeys(left.variables))
    new_vars = [v for v in dict.fromkeys(right.variables) if v not in left_vars]
    built: dict[tuple, list[tuple]] = {}
    for key, row in zip(table.cells_of(left, key_vars), table.cells_of(left, left_vars)):
        built.setdefault(key, []).append(row)
    rows = [match + row for key, row in zip(table.cells_of(right, key_vars),
                                            table.cells_of(right, new_vars))
            for match in built.get(key, ())]
    return SolutionSequence(left_vars + new_vars, cells=rows, terms=table)


def execute_federated(plan: DecomposedQuery, clients: dict) -> SolutionSequence:
    """Dispatch the subqueries one after another in the plan's order, union
    each multi-source answer, and hash join each answer to the rows joined
    so far on its ``join_on``; the query's VALUES block, if it has one, is
    the first rows.  An answer whose variables are not its subquery's
    projection is malformed, so the plan's joins are the ones that run.
    Then apply the query's solution modifiers as local evaluation does.  A
    subquery with ``bind_on`` is a bound join: it goes out with a VALUES
    block of the distinct values the rows joined so far hold for that
    variable, so each source ships only rows the join can keep.  The block
    may be empty.  Rows stay ids throughout; ``rows`` of the answer decodes
    them when it is first read."""
    for sq in plan.subqueries:
        for source_id in sq.sources:
            if source_id not in clients:
                raise FederationError(f"no client for source {source_id!r}")

    def run_subquery(sq: Subquery, query: Query) -> SolutionSequence:
        text = format_query(query)
        answers = []
        for source_id in sq.sources:
            try:
                answer = clients[source_id].query(text)
            except ResultsFormatError as exc:
                raise MalformedAnswerError(source_id, str(exc)) from None
            if set(answer.variables) != set(sq.query.projected):
                raise MalformedAnswerError(
                    source_id, f"head.vars {answer.variables} are not the "
                               f"projection {list(sq.query.projected)}")
            answers.append(answer)
        if len(answers) == 1:
            return answers[0]  # the source applied the subquery's modifiers
        # the subquery's DISTINCT makes this a union of the sources' rows
        table = AnswerTerms.common(answers)
        cells = [row for answer in answers
                 for row in table.cells_of(answer, sq.query.projected)]
        return apply_modifiers(SolutionSequence(sq.query.projected, cells=cells,
                                                terms=table), sq.query)

    values = plan.query.values
    joined = None if values is None else SolutionSequence(
        [values.variable.name], rows=[{values.variable.name: term}
                                      for term in values.terms])
    for index in plan.order:
        sq = plan.subqueries[index]
        query = sq.query if sq.bind_on is None else _bound(sq.query, sq.bind_on, joined)
        answer = run_subquery(sq, query)
        joined = answer if joined is None else hash_join(joined, answer, sq.join_on)
    if joined is None:          # no patterns: the empty BGP's one solution
        joined = SolutionSequence([], rows=[{}])
    return apply_modifiers(joined, plan.query)


def _bound(query: Query, variable: str, joined: SolutionSequence) -> Query:
    """``query`` with a VALUES block of the distinct values ``joined`` binds
    ``variable`` to, in the order they first appear."""
    column = joined.variables.index(variable)
    cells = dict.fromkeys(row[column] for row in joined.cells)
    terms = joined.terms
    return replace(query, values=Values(Variable(variable), tuple(
        terms[cell] for cell in cells if cell is not None)))


def build_clients(catalog: FederationCatalog) -> dict:
    """Clients that speak the connector wire protocol using each source's
    endpoint, which must be ``host:port``, and default contract."""
    from .connector.client import NodeClient
    clients = {}
    for i, source in enumerate(catalog.sources):
        try:
            clients[source.id] = NodeClient(
                endpoint=source.endpoint, sender_id=catalog.client_id,
                contract_id=source.contract or "", source_id=source.id)
        except ValueError as exc:
            raise CatalogError(f"sources[{i}].endpoint: {exc}") from None
    return clients


def plan_query(text: str, catalog: FederationCatalog) -> DecomposedQuery:
    query = parse_query(text)
    selection = select_sources(query, catalog)
    return decompose(query, selection)


def federated_query(text: str, catalog: FederationCatalog,
                    clients: Optional[dict] = None) -> SolutionSequence:
    """parse -> select_sources -> decompose -> execute_federated."""
    plan = plan_query(text, catalog)
    if clients is None:
        clients = build_clients(catalog)
    return execute_federated(plan, clients)
