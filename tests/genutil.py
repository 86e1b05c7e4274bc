"""Random graph/query generation and the brute-force evaluation oracle used
to cross-check the evaluator and the federation engine."""

from __future__ import annotations

import random
from collections import Counter

from energyde.rdf import Graph, IRI, Literal, Triple, format_term
from energyde.sparql import (Comparison, Query, TriplePattern, Variable,
                             _filter_ok)
from energyde.vocab import RDF_TYPE, XSD_INTEGER

BASE = "http://example.org/"


def random_graph(rng: random.Random, size: int) -> Graph:
    subjects = [IRI(f"{BASE}s{i}") for i in range(max(4, size // 10))]
    predicates = [IRI(f"{BASE}p{i}") for i in range(5)] + [IRI(RDF_TYPE)]
    classes = [IRI(f"{BASE}C{i}") for i in range(3)]
    literals = [Literal(str(i)) for i in range(8)] + \
               [Literal(str(i), XSD_INTEGER) for i in range(8)]
    graph = Graph()
    while len(graph) < size:
        s = rng.choice(subjects)
        p = rng.choice(predicates)
        if p.value == RDF_TYPE:
            o = rng.choice(classes)
        else:
            o = rng.choice(subjects + literals if rng.random() < 0.7
                           else literals)
        graph.insert(Triple(s, p, o))
    return graph


def random_query(rng: random.Random, graph: Graph, max_patterns: int = 4,
                 max_vars: int = 3, allow_filters: bool = True) -> Query:
    triples = list(graph)
    variables = [Variable(f"v{i}") for i in range(max_vars)]
    patterns = []
    n_patterns = rng.randrange(1, max_patterns + 1)
    for _ in range(n_patterns):
        # seed positions from a real triple so results are often non-empty
        base = rng.choice(triples)
        terms = []
        for position, value in zip("spo", base):
            if rng.random() < 0.5:
                terms.append(rng.choice(variables))
            else:
                terms.append(value)
        if not isinstance(terms[1], (Variable, IRI)):
            terms[1] = base.predicate
        patterns.append(TriplePattern(*terms))
    used = sorted({v for p in patterns for v in p.variables()})
    if not used:
        # keep at least one variable so the query projects something
        p0 = patterns[0]
        patterns[0] = TriplePattern(variables[0], p0.predicate, p0.object)
        used = [variables[0].name]
    projected = tuple(sorted(rng.sample(used, rng.randrange(1, len(used) + 1))))
    filters = ()
    if allow_filters and rng.random() < 0.3:
        var = rng.choice(used)
        op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
        const = rng.choice([Literal(str(rng.randrange(8))),
                            Literal(str(rng.randrange(8)), XSD_INTEGER)])
        filters = (Comparison(Variable(var), op, const),)
    limit = rng.randrange(0, 6) if rng.random() < 0.3 else None
    return Query(projected=projected, distinct=rng.random() < 0.5,
                 patterns=tuple(patterns), filters=filters, limit=limit)


def bag(solutions) -> Counter:
    """Projected rows as a multiset of tuples (None for unbound)."""
    return Counter(tuple(row.get(v) for v in solutions.variables)
                   for row in solutions.rows)


def brute_force(query: Query, graph: Graph) -> Counter:
    """Nested-loop evaluation by linear scan, no indexes, no reordering.
    Returns the multiset of projected tuples; LIMIT keeps the tuples that
    sort first by their terms' N-Triples text (unbound first)."""
    triples = list(graph)

    def extend(pattern: TriplePattern, binding: dict) -> list:
        out = []
        for triple in triples:
            candidate = dict(binding)
            ok = True
            for term, value in zip(pattern, triple):
                if isinstance(term, Variable):
                    if term.name in candidate and candidate[term.name] != value:
                        ok = False
                        break
                    candidate[term.name] = value
                elif term != value:
                    ok = False
                    break
            if ok:
                out.append(candidate)
        return out

    rows = [{}]
    for pattern in query.patterns:
        rows = [ext for row in rows for ext in extend(pattern, row)]
    rows = [r for r in rows
            if all(_filter_ok(r, f) for f in query.filters)]
    tuples = [tuple(r.get(v) for v in query.projected) for r in rows]
    if query.distinct:
        tuples = list(dict.fromkeys(tuples))
    if query.limit is not None:
        tuples.sort(key=lambda t: ["" if x is None else format_term(x)
                                   for x in t])
        tuples = tuples[:query.limit]
    return Counter(tuples)
