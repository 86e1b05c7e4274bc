"""Parser and evaluator for the SPARQL subset used here.

Grammar: PREFIX declarations; SELECT [DISTINCT] var-list; WHERE { dot-separated
triple patterns, optional FILTER(var op constant) }; optional LIMIT n.
Prefixed names are expanded at parse time; no prefixes survive into the algebra.

Evaluation is late-materializing: rows stay tuples of the graph's term ids
from the BGP through FILTER, projection, DISTINCT and LIMIT until the response
is written.  A cell is decoded only where a FILTER or the LIMIT sort reads
it, and the results document is written once per distinct term: its
N-Triples sort text, its binding entry and that entry's JSON text.
"""

from __future__ import annotations

import json
import operator
import re
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Optional, Sequence, Union

from .rdf import Graph, IRI, Literal, BlankNode, RdfError, Term, format_term
from .vocab import (RDF_TYPE, XSD, XSD_DECIMAL, XSD_INTEGER)


class QueryParseError(ValueError):
    """Syntax error; carries position and an expected-token message."""


class UndeclaredPrefixError(QueryParseError):
    def __init__(self, prefix: str):
        super().__init__(f"undeclared prefix: {prefix!r}")
        self.prefix = prefix


@dataclass(frozen=True, slots=True)
class Variable:
    name: str

    def __repr__(self):
        return f"?{self.name}"


PatternTerm = Union[Term, Variable]

_COMPARE_OPS = {"=": operator.eq, "!=": operator.ne, "<=": operator.le,
                ">=": operator.ge, "<": operator.lt, ">": operator.gt}


@dataclass(frozen=True, slots=True)
class TriplePattern:
    subject: PatternTerm
    predicate: PatternTerm
    object: PatternTerm

    def variables(self) -> set[str]:
        return {t.name for t in (self.subject, self.predicate, self.object)
                if isinstance(t, Variable)}

    def __iter__(self):
        return iter((self.subject, self.predicate, self.object))


@dataclass(frozen=True, slots=True)
class Comparison:
    variable: Variable
    op: str
    constant: Term


@dataclass(frozen=True)
class Query:
    projected: tuple[str, ...]
    distinct: bool
    patterns: tuple[TriplePattern, ...]
    filters: tuple[Comparison, ...] = ()
    limit: Optional[int] = None
    prefixes: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        bound = set()
        for p in self.patterns:
            bound |= p.variables()
        for f in self.filters:
            bound.add(f.variable.name)
        for v in self.projected:
            if v not in bound:
                raise QueryParseError(
                    f"projected variable ?{v} appears in no pattern or filter")

    def variables(self) -> set[str]:
        out = set()
        for p in self.patterns:
            out |= p.variables()
        return out


# --- tokenizer -------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<WS>\s+|\#[^\n]*)
  | (?P<IRIREF><[^<>"{}|^`\\\s]*>)
  | (?P<VAR>[?$][A-Za-z_][A-Za-z0-9_]*)
  | (?P<STRING>"(?:[^"\\\n]|\\.)*")
  | (?P<DTYPE>\^\^)
  | (?P<LANGTAG>@[A-Za-z]+(?:-[A-Za-z0-9]+)*)
  | (?P<NUMBER>[+-]?[0-9]+(?:\.[0-9]+)?)
  | (?P<PNAME>[A-Za-z_][A-Za-z0-9_.-]*?:[A-Za-z0-9_][A-Za-z0-9_.-]*|[A-Za-z_][A-Za-z0-9_.-]*?:)
  | (?P<NAME>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<OP>!=|<=|>=|=|<|>)
  | (?P<PUNCT>[{}().;,*])
""", re.VERBOSE)

_KEYWORDS = {"prefix", "select", "distinct", "where", "filter", "limit"}


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise QueryParseError(f"unexpected character {text[pos]!r} at offset {pos}")
        pos = m.end()
        kind = m.lastgroup
        if kind == "WS":
            continue
        tokens.append((kind, m.group(), m.start()))
    tokens.append(("EOF", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.prefixes: dict[str, str] = {}

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, expected: str):
        kind, value, offset = self.peek()
        got = value if value else "end of input"
        raise QueryParseError(f"at offset {offset}: expected {expected}, got {got!r}")

    def keyword(self) -> Optional[str]:
        kind, value, _ = self.peek()
        if kind == "NAME" and value.lower() in _KEYWORDS:
            return value.lower()
        return None

    def expect_keyword(self, word: str):
        if self.keyword() != word:
            self.error(word.upper())
        self.next()

    def expect_punct(self, ch: str):
        kind, value, _ = self.peek()
        if (kind in ("PUNCT", "OP") and value == ch):
            self.next()
            return
        self.error(repr(ch))

    def parse(self) -> Query:
        while self.keyword() == "prefix":
            self.next()
            kind, value, _ = self.peek()
            if kind != "PNAME" or not value.endswith(":"):
                self.error("prefix label")
            label = self.next()[1][:-1]
            kind, value, _ = self.peek()
            if kind != "IRIREF":
                self.error("IRI")
            self.prefixes[label] = self.next()[1][1:-1]
        self.expect_keyword("select")
        distinct = False
        if self.keyword() == "distinct":
            self.next()
            distinct = True
        projected = []
        star = False
        if self.peek()[:2] == ("PUNCT", "*"):
            self.next()
            star = True
        else:
            while self.peek()[0] == "VAR":
                projected.append(self.next()[1][1:])
            if not projected:
                self.error("projected variable or *")
        if self.keyword() == "where":
            self.next()
        self.expect_punct("{")
        patterns: list[TriplePattern] = []
        filters: list[Comparison] = []
        while True:
            kind, value, _ = self.peek()
            if kind == "PUNCT" and value == "}":
                self.next()
                break
            if self.keyword() == "filter":
                self.next()
                filters.append(self.parse_filter())
            else:
                s = self.pattern_term(position="subject")
                p = self.pattern_term(position="predicate")
                o = self.pattern_term(position="object")
                try:
                    patterns.append(TriplePattern(s, p, o))
                except RdfError as exc:
                    raise QueryParseError(str(exc)) from None
            kind, value, _ = self.peek()
            if kind == "PUNCT" and value == ".":
                self.next()
        limit = None
        if self.keyword() == "limit":
            self.next()
            kind, value, _ = self.peek()
            if kind != "NUMBER" or not value.isdigit():
                self.error("non-negative integer")
            limit = int(self.next()[1])
        if self.peek()[0] != "EOF":
            self.error("end of query")
        if star:
            projected = sorted({v for p in patterns for v in p.variables()})
        return Query(projected=tuple(projected), distinct=distinct,
                     patterns=tuple(patterns), filters=tuple(filters),
                     limit=limit, prefixes=dict(self.prefixes))

    def parse_filter(self) -> Comparison:
        self.expect_punct("(")
        kind, value, _ = self.peek()
        if kind != "VAR":
            self.error("variable")
        var = Variable(self.next()[1][1:])
        kind, value, _ = self.peek()
        if kind != "OP" or value not in _COMPARE_OPS:
            self.error("comparison operator")
        op = self.next()[1]
        const = self.constant_term()
        self.expect_punct(")")
        return Comparison(var, op, const)

    def expand_pname(self, pname: str) -> IRI:
        label, _, local = pname.partition(":")
        if label not in self.prefixes:
            raise UndeclaredPrefixError(label)
        return IRI(self.prefixes[label] + local)

    def constant_term(self) -> Term:
        kind, value, _ = self.peek()
        if kind == "IRIREF":
            self.next()
            try:
                return IRI(value[1:-1])
            except RdfError as exc:
                raise QueryParseError(str(exc)) from None
        if kind == "PNAME":
            self.next()
            return self.expand_pname(value)
        if kind == "STRING":
            self.next()
            lexical = _unquote(value)
            kind2, value2, _ = self.peek()
            if kind2 == "DTYPE":
                self.next()
                kind3, value3, _ = self.peek()
                if kind3 == "IRIREF":
                    self.next()
                    return Literal(lexical, value3[1:-1])
                if kind3 == "PNAME":
                    self.next()
                    return Literal(lexical, self.expand_pname(value3).value)
                self.error("datatype IRI")
            if kind2 == "LANGTAG":
                self.next()
                return Literal(lexical, lang=value2[1:])
            return Literal(lexical)
        if kind == "NUMBER":
            self.next()
            dt = XSD_DECIMAL if "." in value else XSD_INTEGER
            return Literal(value, dt)
        self.error("RDF term")

    def pattern_term(self, position: str) -> PatternTerm:
        kind, value, _ = self.peek()
        if kind == "VAR":
            return Variable(self.next()[1][1:])
        if kind == "NAME" and value == "a" and position == "predicate":
            self.next()
            return IRI(RDF_TYPE)
        if kind == "PNAME" and value.startswith("_:"):
            self.next()
            return BlankNode(value[2:])
        return self.constant_term()


def _unquote(raw: str) -> str:
    # raw includes the surrounding quotes; resolve the same escapes N-Triples uses
    from .rdf import _unescape
    return _unescape(raw[1:-1], 0)


def parse_query(text: str) -> Query:
    return _Parser(text).parse()


def format_pattern_term(term: PatternTerm) -> str:
    if isinstance(term, Variable):
        return f"?{term.name}"
    return format_term(term)


def format_query(query: Query) -> str:
    """Canonical text form of a query; all IRIs fully written out.
    ``parse_query(format_query(parse_query(t))) == parse_query(t)``."""
    head = "SELECT " + ("DISTINCT " if query.distinct else "")
    head += " ".join(f"?{v}" for v in query.projected) if query.projected \
        else "*"
    lines = [head, "WHERE {"]
    for p in query.patterns:
        lines.append("  " + " ".join(format_pattern_term(t) for t in p) + " .")
    for f in query.filters:
        lines.append(f"  FILTER(?{f.variable.name} {f.op} {format_term(f.constant)})")
    lines.append("}")
    if query.limit is not None:
        lines.append(f"LIMIT {query.limit}")
    return "\n".join(lines) + "\n"


# --- evaluation ------------------------------------------------------------

class SolutionSequence:
    """A bag of solutions over ``variables``, kept positionally: each of
    ``cells`` is a tuple aligned with ``variables``, None where a variable is
    unbound.  A cell is an index into ``terms`` (local evaluation keeps the
    graph's term ids and its term table) or, when ``terms`` is None, the
    term itself.  ``rows`` is the same bag as term dicts, decoded when it is
    first read; a sequence built from ``rows`` gets its cells the same way."""

    def __init__(self, variables, rows: Optional[list[dict[str, Term]]] = None,
                 cells: Optional[list[tuple]] = None,
                 terms: Optional[Sequence[Term]] = None):
        self.variables = list(variables)
        self.terms = terms
        self._rows = rows
        self._cells = [] if rows is None and cells is None else cells

    def __len__(self):
        return len(self._cells if self._cells is not None else self._rows)

    @property
    def cells(self) -> list[tuple]:
        if self._cells is None:
            variables = self.variables
            self._cells = [tuple(map(row.get, variables)) for row in self._rows]
        return self._cells

    @property
    def rows(self) -> list[dict[str, Term]]:
        if self._rows is None:
            decode = self.decoder()
            variables = self.variables
            self._rows = [{v: decode(cell) for v, cell in zip(variables, row)
                           if cell is not None} for row in self._cells]
        return self._rows

    def decoder(self) -> Callable[[object], Term]:
        """The term of a bound cell."""
        return _same if self.terms is None else self.terms.__getitem__


def _same(term: Term) -> Term:
    return term


_NUMERIC_DATATYPES = {
    XSD + name for name in (
        "integer", "decimal", "double", "float", "long", "int", "short", "byte",
        "nonNegativeInteger", "nonPositiveInteger", "negativeInteger",
        "positiveInteger", "unsignedLong", "unsignedInt", "unsignedShort",
        "unsignedByte",
    )
}


def _lexical_value(term: Term) -> str:
    if isinstance(term, IRI):
        return term.value
    if isinstance(term, Literal):
        return term.lexical
    return term.label


def _compare(value: Term, op: str, constant: Term) -> bool:
    # numeric XSD datatypes compare exactly in value space, everything else
    # lexically; an unparseable number, or an ordering against NaN, is False
    compare = _COMPARE_OPS[op]
    if (isinstance(value, Literal) and isinstance(constant, Literal)
            and value.datatype in _NUMERIC_DATATYPES
            and constant.datatype in _NUMERIC_DATATYPES):
        try:
            return compare(Decimal(value.lexical), Decimal(constant.lexical))
        except InvalidOperation:
            return False
    return compare(_lexical_value(value), _lexical_value(constant))


def _order_patterns(patterns: list, graph: Graph) -> list:
    """Greedy join order over encoded patterns (a term id or a variable name
    per position): most bound positions first, then the fewest triples
    matching the pattern's constants."""
    if len(patterns) < 2:
        return patterns
    remaining = [(p, graph.count_ids(*[x if isinstance(x, int) else None for x in p]))
                 for p in patterns]
    ordered = []
    known: set[str] = set()

    def score(item):
        pattern, estimate = item
        return (-sum(1 for x in pattern if isinstance(x, int) or x in known), estimate)

    while remaining:
        best = min(remaining, key=score)
        remaining.remove(best)
        ordered.append(best[0])
        known.update(x for x in best[0] if isinstance(x, str))
    return ordered


def _match_bgp(query: Query, graph: Graph) -> tuple[list[str], list[tuple]]:
    """The BGP's solutions as rows of term ids, one column per variable.
    Pattern constants are resolved to ids once; a constant the graph does not
    hold matches nothing.  The graph's lock is held once for the whole BGP."""
    patterns = []
    for pattern in query.patterns:
        encoded = []
        for term in pattern:
            tid = term.name if isinstance(term, Variable) else graph.term_id(term)
            if tid is None:
                return [], []
            encoded.append(tid)
        patterns.append(encoded)
    columns: list[str] = []
    rows: list[tuple] = [()]
    with graph.lock:
        for pattern in _order_patterns(patterns, graph):
            rows = _join_pattern(rows, columns, pattern, graph)
            if not rows:
                break
    return columns, rows


def _join_pattern(rows: list[tuple], columns: list[str], pattern: list,
                  graph: Graph) -> list[tuple]:
    """``rows`` extended by one encoded pattern; the pattern's new variables
    are appended to ``columns``.  A subject already bound by a column with a
    constant predicate probes one index leaf per row: the SPO leaf for a new
    object variable, the OSP leaf for a constant object.  Any other pattern
    goes through ``match_ids``."""
    s, p, o = pattern
    if s in columns and isinstance(p, int) and (isinstance(o, int) or o not in columns):
        col = columns.index(s)
        if isinstance(o, int):
            linked = graph.leaf(p, o)
            return [row for row in rows if p in linked(row[col])]
        objects = graph.leaf(p)
        columns.append(o)
        return [row + (x,) for row in rows for x in objects(row[col])]
    lookup = []         # per position: (constant id, None) or (None, column)
    take = []           # positions whose variable gets a new column
    same = []           # (position, first position) of a repeated new variable
    for i, x in enumerate(pattern):
        if isinstance(x, int):
            lookup.append((x, None))
        elif x in columns:
            lookup.append((None, columns.index(x)))
        else:
            lookup.append((None, None))
            first = pattern.index(x)
            if first == i:
                take.append(i)
            else:
                same.append((i, first))
    columns += [pattern[i] for i in take]
    next_rows = []
    for row in rows:
        ids = [row[col] if col is not None else const for const, col in lookup]
        for triple in graph.match_ids(*ids):
            if same and any(triple[i] != triple[j] for i, j in same):
                continue
            next_rows.append(row + tuple([triple[i] for i in take]))
    return next_rows


def evaluate(query: Query, graph: Graph) -> SolutionSequence:
    """Standard BGP semantics over one graph, then ``apply_modifiers``.  Rows
    stay term ids: a cell is decoded when a FILTER, the LIMIT sort or the
    results document reads it."""
    columns, rows = _match_bgp(query, graph)
    return apply_modifiers(SolutionSequence(columns, cells=rows, terms=graph.terms),
                           query)


def apply_modifiers(solutions: SolutionSequence, query: Query) -> SolutionSequence:
    """The solution modifiers over a bag of solutions, shared by local and
    federated evaluation: FILTER, projection, DISTINCT, then LIMIT.  They
    work on positional rows.  FILTER and the LIMIT sort decode each distinct
    cell they read once; DISTINCT compares cells, which are ints on the local
    path.  A LIMIT keeps the first rows in the order ``solutions_to_json``
    sorts by, so the answer does not depend on hash order."""
    rows = solutions.cells
    decode = solutions.decoder()
    columns = solutions.variables
    at = {v: i for i, v in enumerate(columns)}
    for comparison in query.filters:
        i = at.get(comparison.variable.name)
        if i is None:
            rows = []           # the variable is never bound
            continue
        keep = {cell: cell is not None and _compare(decode(cell), comparison.op,
                                                    comparison.constant)
                for cell in {row[i] for row in rows}}
        rows = [row for row in rows if keep[row[i]]]
    picks = [at.get(v) for v in query.projected]
    if picks != list(range(len(columns))):
        if None in picks or len(picks) < 2:
            rows = [tuple([None if i is None else row[i] for i in picks])
                    for row in rows]
        else:
            rows = list(map(operator.itemgetter(*picks), rows))
    if query.distinct:
        rows = list(dict.fromkeys(rows))
    if query.limit is not None:
        rows = _sorted_rows(rows, decode)[0][:query.limit]
    return SolutionSequence(query.projected, cells=rows, terms=solutions.terms)


# --- SPARQL JSON results ---------------------------------------------------

def _binding_entry(term: Term) -> dict:
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


def _entry_text(entry: dict) -> str:
    """A binding entry's canonical JSON text.  Its keys sort as datatype,
    type, value, xml:lang, and it has at most one of the outer two."""
    text = '"type":' + _quote(entry["type"]) + ',"value":' + _quote(entry["value"])
    if "datatype" in entry:
        text = '"datatype":' + _quote(entry["datatype"]) + "," + text
    elif "xml:lang" in entry:
        text += ',"xml:lang":' + _quote(entry["xml:lang"])
    return "{" + text + "}"


def _sorted_rows(rows: list[tuple], decode: Callable) -> tuple[list[tuple], dict]:
    """``rows`` sorted by their cells' N-Triples text, and that text per
    distinct cell, each formatted once; an unbound cell is "", which sorts
    first."""
    texts = {cell: format_term(decode(cell)) for cell in set().union(*rows)
             if cell is not None}
    texts[None] = ""
    return sorted(rows, key=lambda row: tuple(map(texts.__getitem__, row))), texts


class ResultsJSON(dict):
    """A results document that carries its canonical JSON text, ``text``:
    sorted keys and no whitespace, as ``json.dumps(doc, sort_keys=True,
    separators=(",", ":"))`` writes it."""

    __slots__ = ("text",)


def solutions_to_json(solutions: SolutionSequence) -> ResultsJSON:
    """The W3C SPARQL JSON results document, rows sorted by their cells'
    N-Triples text.  Work is done per distinct cell, once per call: its
    term, its text, its binding entry dict, which every row that binds it
    shares, and the entry's JSON text.  The document's canonical text is
    joined from those fragments, with no JSON encoder run over the rows."""
    variables = solutions.variables
    decode = solutions.decoder()
    rows, texts = _sorted_rows(solutions.cells, decode)
    entries = {cell: _binding_entry(decode(cell)) for cell in texts if cell is not None}
    fragments = {cell: _entry_text(entry) for cell, entry in entries.items()}
    # a variable projected twice binds one key, from its first column
    slots = [(v, variables.index(v)) for v in dict.fromkeys(variables)]
    keyed = [(_quote(v) + ":", i) for v, i in sorted(slots)]
    doc = ResultsJSON(
        head={"vars": list(variables)},
        results={"bindings": [{v: entries[row[i]] for v, i in slots
                               if row[i] is not None} for row in rows]})
    doc.text = ('{"head":{"vars":[' + ",".join(map(_quote, variables))
                + ']},"results":{"bindings":['
                + ",".join(["{" + ",".join([key + fragments[row[i]] for key, i in keyed
                                            if row[i] is not None]) + "}"
                            for row in rows])
                + "]}}")
    return doc


def serialize_results(solutions: SolutionSequence) -> str:
    """W3C SPARQL Query Results JSON Format; rows sorted lexicographically by
    projected values for determinism."""
    return json.dumps(solutions_to_json(solutions), indent=2, sort_keys=True) + "\n"


def _entry_term(entry: dict) -> Term:
    if entry["type"] == "uri":
        return IRI(entry["value"])
    if entry["type"] == "bnode":
        return BlankNode(entry["value"])
    return Literal(entry["value"], entry.get("datatype", XSD + "string"),
                   entry.get("xml:lang"))


def solutions_from_json(doc: dict) -> SolutionSequence:
    """Rows of a SPARQL JSON results document.  Each distinct binding is
    turned into a term, and checked, once; rows share the term objects."""
    variables = list(doc["head"]["vars"])
    terms: dict[tuple, Term] = {}
    rows = []
    for binding in doc["results"]["bindings"]:
        row: dict[str, Term] = {}
        for var, entry in binding.items():
            key = (entry["type"], entry["value"], entry.get("datatype"),
                   entry.get("xml:lang"))
            term = terms.get(key)
            if term is None:
                term = terms[key] = _entry_term(entry)
            row[var] = term
        rows.append(row)
    return SolutionSequence(variables=variables, rows=rows)
