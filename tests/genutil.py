"""Random graph/query generation and the brute-force evaluation oracle used
to cross-check the evaluator and the federation engine, plus Term-level
oracles for query results, mapping, shape validation and N-Triples
escaping."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace

from energyde.mapping import _PLACEHOLDER_RE
from energyde.rdf import (BlankNode, Graph, IRI, Literal, RdfError, Term,
                          Triple, format_term)
from energyde.shapes import ValidationReport, Violation
from energyde.sparql import (Comparison, Query, SolutionSequence, TriplePattern,
                             Values, Variable, _compare, _match_bgp)
from energyde.vocab import RDF_TYPE, XSD, XSD_INTEGER
from urllib.parse import quote

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


def with_values(rng: random.Random, graph: Graph, query: Query) -> Query:
    """``query`` with a VALUES block on one of its pattern variables: up to
    five of the graph's terms, some listed twice, and sometimes a term the
    graph does not hold, or no term at all."""
    pool = sorted({term for triple in graph for term in triple}, key=format_term)
    terms = rng.sample(pool, min(len(pool), rng.randrange(6)))
    terms += rng.sample(terms, rng.randrange(len(terms) + 1))
    if rng.random() < 0.2:
        terms.append(Literal("absent"))
    rng.shuffle(terms)
    variable = Variable(rng.choice(sorted(query.variables())))
    return replace(query, values=Values(variable, tuple(terms)))


def _filter_ok(row: dict[str, Term], comparison: Comparison) -> bool:
    value = row.get(comparison.variable.name)
    if value is None:
        return False
    return _compare(value, comparison.op, comparison.constant)


def bag(solutions) -> Counter:
    """Projected rows as a multiset of tuples (None for unbound)."""
    return Counter(tuple(row.get(v) for v in solutions.variables)
                   for row in solutions.rows)


def brute_force(query: Query, graph: Graph) -> Counter:
    """Nested-loop evaluation by linear scan, no indexes, no reordering,
    then the join with the VALUES block.  Returns the multiset of projected
    tuples; LIMIT keeps the tuples that sort first by their terms'
    N-Triples text (unbound first)."""
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
    if query.values is not None:
        # a join with the listed terms: one copy of a row per listing
        name = query.values.variable.name
        rows = [r for r in rows for term in query.values.terms if r[name] == term]
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


# --- Term-level oracles for mapping and validation --------------------------
# These follow the definitions one record and one focus node at a time, with
# a Term and a Triple per value, as the library did before it worked on ids.

def _render_oracle(template: str, record: dict):
    ok = True

    def sub(m):
        nonlocal ok
        value = record.get(m.group(1))
        if value is None:
            ok = False
            return ""
        return quote(str(value), safe="")

    rendered = _PLACEHOLDER_RE.sub(sub, template)
    return rendered if ok else None


def oracle_apply_triple_map(tmap, records, graph: Graph, errors: list) -> None:
    source = tmap.source
    rdf_type = IRI(RDF_TYPE)
    subject_class = IRI(tmap.subject_class) if tmap.subject_class else None
    for index, record in enumerate(records):
        if (source.filter_field is not None
                and record.get(source.filter_field) != source.filter_equals):
            continue
        rendered = _render_oracle(tmap.subject_template, record)
        if rendered is None:
            continue
        try:
            subject = IRI(rendered)
        except RdfError as exc:
            errors.append((index, f"invalid subject IRI: {exc}"))
            continue
        if subject_class:
            graph.insert(Triple(subject, rdf_type, subject_class))
        for predicate, spec in tmap.predicate_objects:
            if spec.constant is not None:
                obj = spec.constant
            elif spec.field is not None:
                value = record.get(spec.field)
                if value is None:
                    continue
                obj = Literal(str(value), spec.datatype) if spec.datatype \
                    else Literal(str(value))
            else:
                rendered_o = _render_oracle(spec.template, record)
                if rendered_o is None:
                    continue
                try:
                    obj = IRI(rendered_o)
                except RdfError as exc:
                    errors.append((index, f"invalid object IRI: {exc}"))
                    continue
            graph.insert(Triple(subject, IRI(predicate), obj))


def _check_oracle(focus, constraint, shape, graph: Graph) -> list:
    objects = [t.object for t in graph.match(focus, IRI(constraint.path), None)]
    out = []

    def violation(kind: str, message: str):
        out.append(Violation(focus=focus, shape=shape.id, kind=kind,
                             path=constraint.path, message=message))

    if constraint.min_count is not None and len(objects) < constraint.min_count:
        violation("min-count",
                  f"found {len(objects)} values, need at least {constraint.min_count}")
    if constraint.max_count is not None and len(objects) > constraint.max_count:
        violation("max-count",
                  f"found {len(objects)} values, allowed at most {constraint.max_count}")
    if constraint.datatype is not None:
        for obj in objects:
            if not isinstance(obj, Literal) or obj.datatype != constraint.datatype:
                violation("datatype", f"value {format_term(obj)} is not typed "
                                      f"<{constraint.datatype}>")
    if constraint.node_kind is not None:
        want = IRI if constraint.node_kind == "IRI" else Literal
        for obj in objects:
            if not isinstance(obj, want):
                violation("node-kind",
                          f"value {format_term(obj)} is not a {constraint.node_kind}")
    if constraint.value_class is not None:
        for obj in objects:
            if not graph.match(obj, IRI(RDF_TYPE), IRI(constraint.value_class)):
                violation("class", f"value {format_term(obj)} lacks rdf:type "
                                   f"<{constraint.value_class}>")
    if constraint.in_values is not None:
        for obj in objects:
            if obj not in constraint.in_values:
                violation("in", f"value {format_term(obj)} not in allowed list")
    return out


def oracle_validate(graph: Graph, shapes: list) -> ValidationReport:
    violations = []
    for shape in shapes:
        focus_nodes = sorted(
            {t.subject for t in graph.match(None, IRI(RDF_TYPE),
                                            IRI(shape.target_class))},
            key=format_term)
        for constraint in shape.constraints:
            for focus in focus_nodes:
                violations.extend(_check_oracle(focus, constraint, shape, graph))
    violations.sort(key=lambda v: (format_term(v.focus), v.path, v.kind))
    return ValidationReport(conforms=not violations, violations=violations)


# --- Term-level oracle for query results -------------------------------------
# Evaluation and the results document as they were before rows stayed term
# ids: every row decoded into a term dict after the BGP, the modifiers over
# those dicts, and one binding dict per distinct term object.

def oracle_evaluate(query: Query, graph: Graph) -> SolutionSequence:
    columns, rows = _match_bgp(query, graph)
    read = set(query.projected) | {f.variable.name for f in query.filters}
    decode = [(name, i) for i, name in enumerate(columns) if name in read]
    terms = graph.terms
    return oracle_apply_modifiers(
        [{name: terms[row[i]] for name, i in decode} for row in rows], query)


def oracle_apply_modifiers(rows: list, query: Query) -> SolutionSequence:
    for comparison in query.filters:
        rows = [r for r in rows if _filter_ok(r, comparison)]
    projected = [{v: r[v] for v in query.projected if v in r} for r in rows]
    if query.distinct:
        seen = set()
        deduped = []
        for r in projected:
            key = tuple(r.get(v) for v in query.projected)
            if key not in seen:
                seen.add(key)
                deduped.append(r)
        projected = deduped
    if query.limit is not None:
        projected.sort(key=_oracle_sort_key(query.projected))
        projected = projected[:query.limit]
    return SolutionSequence(variables=list(query.projected), rows=projected)


def _oracle_entry(term: Term) -> dict:
    if isinstance(term, IRI):
        return {"type": "uri", "value": term.value}
    if isinstance(term, BlankNode):
        return {"type": "bnode", "value": term.label}
    entry = {"type": "literal", "value": term.lexical}
    if term.lang:
        entry["xml:lang"] = term.lang
    elif term.datatype != XSD + "string":
        entry["datatype"] = term.datatype
    return entry


def _oracle_sort_key(variables):
    def key(row):
        return tuple("" if row.get(v) is None else format_term(row[v])
                     for v in variables)
    return key


def oracle_solutions_to_json(solutions: SolutionSequence) -> dict:
    rows = sorted(solutions.rows, key=_oracle_sort_key(solutions.variables))
    return {
        "head": {"vars": list(solutions.variables)},
        "results": {"bindings": [
            {v: _oracle_entry(row[v]) for v in solutions.variables if v in row}
            for row in rows
        ]},
    }


# --- Term-level oracle for N-Triples escaping --------------------------------

def oracle_escape(text: str) -> str:
    """The body of an N-Triples literal, one character at a time."""
    out = []
    for c in text:
        if c == "\\":
            out.append("\\\\")
        elif c == '"':
            out.append('\\"')
        elif c == "\n":
            out.append("\\n")
        elif c == "\r":
            out.append("\\r")
        elif c == "\t":
            out.append("\\t")
        elif ord(c) < 0x20 or c in "\x85\u2028\u2029":
            out.append(f"\\u{ord(c):04X}")
        else:
            out.append(c)
    return "".join(out)
