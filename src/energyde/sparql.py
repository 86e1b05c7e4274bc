"""Parser and evaluator for the SPARQL subset used here.

Grammar: PREFIX declarations; SELECT [DISTINCT] var-list; WHERE { dot-separated
triple patterns, optional FILTER(var op constant), at most one
VALUES var { constant ... } }; optional LIMIT n.  Prefixed names are
expanded at parse time; no prefixes survive into the algebra.

Evaluation is late-materializing: rows stay tuples of the graph's term ids
from the BGP through FILTER, projection, DISTINCT and LIMIT until the response
is written.  A cell is decoded only where a FILTER or the LIMIT sort reads
it.  What the results document needs of a term, its N-Triples sort text, its
binding entry and that entry's JSON text, comes from the term table's memo
(``rdf.TermTexts``).  The memo is lazy: a term's texts are made the first
time a response emits it, so it never holds more entries than the table has
terms and nothing is made when a graph loads.  It is never invalidated, as
it needs not be: a graph only grows, ids are never reused and terms are
immutable.

The federator's side is late-materializing too.  ``solutions_from_json``
reads a results document a column at a time into cells over an
``AnswerTerms`` table, making one term, and one id, per distinct term
however it was spelled.  Unions and joins work on those ids, and
``SolutionSequence.rows`` decodes them when it is first read.
"""

from __future__ import annotations

import json
import operator
import re
from collections import Counter
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from itertools import repeat
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Optional, Union

from .rdf import (Graph, IRI, Literal, BlankNode, RdfError, Term, TermTexts,
                  format_term)
from .vocab import (RDF_TYPE, XSD, XSD_DECIMAL, XSD_INTEGER, XSD_STRING)


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


@dataclass(frozen=True, slots=True)
class Values:
    """Inline data for one variable, ``VALUES ?v { ... }``: the solutions
    are those in which ``?v`` is one of ``terms``, once per time it is
    listed."""
    variable: Variable
    terms: tuple[Term, ...]


@dataclass(frozen=True)
class Query:
    projected: tuple[str, ...]
    distinct: bool
    patterns: tuple[TriplePattern, ...]
    filters: tuple[Comparison, ...] = ()
    limit: Optional[int] = None
    prefixes: dict = field(default_factory=dict, compare=False)
    values: Optional[Values] = None

    def __post_init__(self):
        in_patterns = self.variables()
        bound = in_patterns | {f.variable.name for f in self.filters}
        for v in self.projected:
            if v not in bound:
                raise QueryParseError(
                    f"projected variable ?{v} appears in no pattern or filter")
        if self.values is not None and self.values.variable.name not in in_patterns:
            raise QueryParseError(f"VALUES variable ?{self.values.variable.name} "
                                  "appears in no pattern")

    def variables(self) -> set[str]:
        out = set()
        for p in self.patterns:
            out |= p.variables()
        return out


# --- tokenizer -------------------------------------------------------------

_IRIREF = r'<[^<>"{}|^`\\\s]*>'
_LANGTAG = r"@[A-Za-z]+(?:-[A-Za-z0-9]+)*"
_LOCAL = r"[A-Za-z0-9_][A-Za-z0-9_.-]*"
_STRING = r'"(?:[^"\\\n]|\\.)*"'
_TOKEN_RE = re.compile(rf"""
    (?P<WS>\s+|\#[^\n]*)
  | (?P<IRIREF>{_IRIREF})
  | (?P<VAR>[?$][A-Za-z_][A-Za-z0-9_]*)
  | (?P<STRING>{_STRING})
  | (?P<DTYPE>\^\^)
  | (?P<LANGTAG>{_LANGTAG})
  | (?P<NUMBER>[+-]?[0-9]+(?:\.[0-9]+)?)
  | (?P<PNAME>[A-Za-z_][A-Za-z0-9_.-]*?:{_LOCAL}|[A-Za-z_][A-Za-z0-9_.-]*?:)
  | (?P<NAME>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<OP>!=|<=|>=|=|<|>)
  | (?P<PUNCT>[{{}}().;,*])
""", re.VERBOSE)

_KEYWORDS = {"prefix", "select", "distinct", "where", "filter", "limit", "values"}


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
        values = None
        while True:
            kind, value, _ = self.peek()
            if kind == "PUNCT" and value == "}":
                self.next()
                break
            if self.keyword() == "filter":
                self.next()
                filters.append(self.parse_filter())
            elif self.keyword() == "values":
                if values is not None:
                    self.error("one VALUES block at most")
                self.next()
                values = self.parse_values()
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
                     limit=limit, prefixes=dict(self.prefixes), values=values)

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

    def parse_values(self) -> Values:
        """``?v { term ... }``: the terms are the constants a pattern may
        hold."""
        if self.peek()[0] != "VAR":
            self.error("variable")
        var = Variable(self.next()[1][1:])
        self.expect_punct("{")
        terms = []
        while self.peek()[:2] != ("PUNCT", "}"):
            if self.peek()[0] == "VAR":
                self.error("RDF term")
            terms.append(self.pattern_term(position="object"))
        self.next()
        return Values(var, tuple(terms))

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
            datatype, lang = XSD_STRING, None
            if kind2 == "DTYPE":
                self.next()
                kind3, value3, _ = self.peek()
                if kind3 == "IRIREF":
                    datatype = value3[1:-1]
                elif kind3 == "PNAME":
                    datatype = self.expand_pname(value3).value
                else:
                    self.error("datatype IRI")
                self.next()
            elif kind2 == "LANGTAG":
                self.next()
                lang = value2[1:]
            try:
                return Literal(lexical, datatype, lang)
            except RdfError as exc:
                raise QueryParseError(str(exc)) from None
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


# the text ``format_term`` writes for a term the tokenizer reads back as it
_WRITTEN_TERM = re.compile(
    rf"{_IRIREF}|_:(?:{_LOCAL})?|{_STRING}(?:\^\^{_IRIREF}|{_LANGTAG})?")


def writable(term: Term) -> bool:
    """Whether a query can hold ``term``: ``rdf`` accepts some IRIs, blank
    node labels and language tags that the query syntax cannot spell."""
    return _WRITTEN_TERM.fullmatch(format_term(term)) is not None


def format_query(query: Query) -> str:
    """Canonical text form of a query; all IRIs fully written out.
    ``parse_query(format_query(parse_query(t))) == parse_query(t)``."""
    head = "SELECT " + ("DISTINCT " if query.distinct else "")
    head += " ".join(f"?{v}" for v in query.projected) if query.projected \
        else "*"
    lines = [head, "WHERE {"]
    for p in query.patterns:
        lines.append("  " + " ".join(format_pattern_term(t) for t in p) + " .")
    if query.values is not None:
        lines.append(f"  VALUES ?{query.values.variable.name} {{ "
                     + "".join(format_term(t) + " " for t in query.values.terms) + "}")
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
    unbound.  A cell is an id in ``terms``, a term table: the graph's, for
    local evaluation, or the ``AnswerTerms`` of answers the federator
    decoded and joined.  When ``terms`` is None the cells are the terms
    themselves.  ``rows`` is the same bag as term dicts, decoded when it is
    first read; a sequence built from ``rows`` gets its cells the same way."""

    def __init__(self, variables, rows: Optional[list[dict[str, Term]]] = None,
                 cells: Optional[list[tuple]] = None,
                 terms: Optional[TermTexts] = None):
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

    def texts(self, make: Callable[[Term], object], cells) -> dict:
        """``make`` of the term of each of ``cells`` (bound cells), by cell:
        the term table's memo, or made here when the cells are terms."""
        if self.terms is None:
            return {cell: make(cell) for cell in cells}
        return self.terms.texts(make, cells)


def _same(term: Term) -> Term:
    return term


class ResultsFormatError(ValueError):
    """A SPARQL JSON results document that cannot be read."""


class AnswerTerms(TermTexts, list):
    """The term table of answers the federator decoded, unioned and joined:
    ``table[id]`` is the term.  Each term has one id, however the answers
    spelled it, so ids compare as their terms do and the federator joins
    and deduplicates ids.  Like a graph's table it is append-only and keeps
    a lazy memo of derived text; unlike one, the federator may add the terms
    of other answers to it (``cells_of``), one thread at a time: each answer
    gets its own table, and a union or join adds to the table of its own
    inputs only."""

    __slots__ = ("_ids", "_memos")

    def __init__(self):
        super().__init__()
        self._ids: dict[Term, int] = {}
        self._memos: dict = {}

    def add(self, term: Term) -> int:
        """The id of ``term``, appended if it is new."""
        i = self._ids.setdefault(term, len(self))
        if i == len(self):
            self.append(term)
        return i

    def cells_of(self, solutions: SolutionSequence) -> list[tuple]:
        """The cells of ``solutions`` as ids of this table, adding the terms
        it lacks; each distinct cell is looked up once."""
        cells = solutions.cells
        if solutions.terms is self:
            return cells
        decode = solutions.decoder()
        ids = {cell: self.add(decode(cell))
               for cell in set().union(*cells) if cell is not None}
        ids[None] = None
        return [tuple(map(ids.__getitem__, row)) for row in cells]

    @staticmethod
    def common(sequences) -> "AnswerTerms":
        """The table to put ``sequences`` in together: the largest
        ``AnswerTerms`` among theirs, or a new one.  A graph's table is
        never added to."""
        tables = [s.terms for s in sequences if isinstance(s.terms, AnswerTerms)]
        return max(tables, key=len) if tables else AnswerTerms()


def _picks(variables: list[str], wanted) -> list[Optional[int]]:
    """The column of each of ``wanted`` in ``variables`` (its first, if
    listed twice), or None."""
    at: dict[str, int] = {}
    for i, v in enumerate(variables):
        at.setdefault(v, i)
    return [at.get(v) for v in wanted]


def _project(rows: list[tuple], picks: list[Optional[int]]) -> list[tuple]:
    """Each row cut to the columns ``picks`` lists, in that order; a None
    pick is an unbound cell."""
    if not rows or picks == list(range(len(rows[0]))):
        return rows
    if None in picks:
        return [tuple([None if i is None else row[i] for i in picks]) for row in rows]
    if len(picks) > 1:
        return list(map(operator.itemgetter(*picks), rows))
    if picks:
        return list(zip(map(operator.itemgetter(*picks), rows)))
    return [()] * len(rows)


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
    """The BGP's solutions, joined with the query's VALUES, as rows of term
    ids, one column per variable.  Pattern constants and VALUES terms are
    resolved to ids once; a constant the graph does not hold matches
    nothing.  The rows are cut to the VALUES as soon as a pattern binds
    their variable.  The graph's lock is held once for the whole BGP."""
    patterns = []
    for pattern in query.patterns:
        encoded = []
        for term in pattern:
            tid = term.name if isinstance(term, Variable) else graph.term_id(term)
            if tid is None:
                return [], []
            encoded.append(tid)
        patterns.append(encoded)
    restrict, listed = None, None
    if query.values is not None:
        restrict = query.values.variable.name
        ids = map(graph.term_id, query.values.terms)
        listed = Counter(tid for tid in ids if tid is not None)
        if not listed:
            return [], []
    columns: list[str] = []
    rows: list[tuple] = [()]
    with graph.lock:
        for pattern in _order_patterns(patterns, graph):
            rows = _join_pattern(rows, columns, pattern, graph)
            if restrict in columns:
                rows = _restrict(rows, columns.index(restrict), listed)
                restrict = None
            if not rows:
                break
    return columns, rows


def _restrict(rows: list[tuple], column: int, listed: Counter) -> list[tuple]:
    """The rows whose cell in ``column`` is listed, each once per listing."""
    return [row for row in rows if row[column] in listed
            for _ in range(listed[row[column]])]


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
    for comparison in query.filters:
        i = _picks(columns, [comparison.variable.name])[0]
        if i is None:
            rows = []           # the variable is never bound
            continue
        keep = {cell: cell is not None and _compare(decode(cell), comparison.op,
                                                    comparison.constant)
                for cell in {row[i] for row in rows}}
        rows = [row for row in rows if keep[row[i]]]
    rows = _project(rows, _picks(columns, query.projected))
    if query.distinct:
        rows = list(dict.fromkeys(rows))
    if query.limit is not None:
        rows = _sorted_rows(rows, solutions.texts)[0][:query.limit]
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
    elif term.datatype != XSD_STRING:
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


def _binding_text(term: Term) -> str:
    return _entry_text(_binding_entry(term))


def _sorted_rows(rows: list[tuple], texts: Callable) -> tuple[list[tuple], set]:
    """``rows`` sorted by their cells' N-Triples text, which ``texts`` (a
    ``SolutionSequence.texts``) gives per distinct cell; an unbound cell is
    "", which sorts first.  Also returns the distinct bound cells.  The sort
    keys are built a column at a time."""
    cells = set().union(*rows)
    unbound = None in cells
    cells.discard(None)
    ntriples = texts(format_term, cells)
    if unbound:
        ntriples = {cell: ntriples[cell] for cell in cells}
        ntriples[None] = ""
    if not rows or not rows[0]:
        return rows, cells
    keys = list(zip(*[map(ntriples.__getitem__, column) for column in zip(*rows)]))
    return [rows[i] for i in sorted(range(len(rows)), key=keys.__getitem__)], cells


class ResultsJSON(dict):
    """A results document that carries its canonical JSON text, ``text``:
    sorted keys and no whitespace, as ``json.dumps(doc, sort_keys=True,
    separators=(",", ":"))`` writes it."""

    __slots__ = ("text",)


def solutions_to_json(solutions: SolutionSequence) -> ResultsJSON:
    """The W3C SPARQL JSON results document, rows sorted by their cells'
    N-Triples text.  A cell's text, its binding entry dict (which every row
    and every response that binds it shares) and the entry's JSON text come
    from the term table's memo, so they are made once per term, not per
    response.  The document's canonical text is joined from those
    fragments, with no JSON encoder run over the rows."""
    variables = solutions.variables
    rows, cells = _sorted_rows(solutions.cells, solutions.texts)
    entries = solutions.texts(_binding_entry, cells)
    fragments = solutions.texts(_binding_text, cells)
    # a variable projected twice binds one key, from its first column
    slots = [(v, variables.index(v)) for v in dict.fromkeys(variables)]
    keyed = sorted(slots)
    # a row that binds every key is written through one format string
    row_format = "{" + ",".join(_quote(v).replace("%", "%%") + ":%s"
                                for v, _ in keyed) + "}"
    doc = ResultsJSON(
        head={"vars": list(variables)},
        results={"bindings": [{v: entries[row[i]] for v, i in slots
                               if row[i] is not None} for row in rows]})
    doc.text = ('{"head":{"vars":[' + ",".join(map(_quote, variables))
                + ']},"results":{"bindings":['
                + ",".join([row_format % tuple(map(fragments.__getitem__, row))
                            if None not in row else
                            "{" + ",".join([_quote(v) + ":" + fragments[cell]
                                            for (v, _), cell in zip(keyed, row)
                                            if cell is not None]) + "}"
                            for row in _project(rows, [i for _, i in keyed])])
                + "]}}")
    return doc


def serialize_results(solutions: SolutionSequence) -> str:
    """W3C SPARQL Query Results JSON Format; rows sorted lexicographically by
    projected values for determinism."""
    return json.dumps(solutions_to_json(solutions), indent=2, sort_keys=True) + "\n"


# the entry fields a term is read from, in ``_entry_term``'s argument order
_ENTRY_FIELDS = ("type", "value", "datatype", "xml:lang")
# what a binding without the variable reads as: no results document spells it
_UNBOUND_TYPE = object()
_UNBOUND = {"type": _UNBOUND_TYPE}


def _entry_term(kind, value, datatype, lang) -> Term:
    """The term a binding entry's fields spell.  Fields of the wrong JSON
    type raise ``ResultsFormatError`` here; the term's constructor checks
    the rest."""
    if not isinstance(value, str):
        raise ResultsFormatError("value is not a string")
    if kind == "literal":
        if lang is None:
            return Literal(value, XSD_STRING if datatype is None else datatype)
        if not isinstance(lang, str):
            raise ResultsFormatError("xml:lang is not a string")
        return Literal(value, lang=lang)
    if kind == "uri":
        return IRI(value)
    if kind == "bnode":
        return BlankNode(value)
    raise ResultsFormatError(f"unknown type {kind!r}")


def _column(table: AnswerTerms, bindings: list[dict], var: str) -> list:
    """One variable's cells.  The rows' entries are read field by field, a
    column at a time, and the term of each distinct spelling is made, and
    added to ``table``, once; spellings of one term get one id.  When every
    entry has one type, datatype and language, as in a typed column, a
    spelling is known by its value alone."""
    entries = list(map(dict.get, bindings, repeat(var), repeat(_UNBOUND)))
    try:
        fields = [list(map(dict.get, entries, repeat(name))) for name in _ENTRY_FIELDS]
        kinds, values, datatypes, langs = fields
        if len(set(kinds)) == len(set(datatypes)) == len(set(langs)) == 1:
            spellings = values
            spelled = {value: (kinds[0], value, datatypes[0], langs[0])
                       for value in set(values)}
        else:
            spellings = list(zip(*fields))
            spelled = {spelling: spelling for spelling in set(spellings)}
        ids = {spelling: None if full[0] is _UNBOUND_TYPE
               else table.add(_entry_term(*full)) for spelling, full in spelled.items()}
    except TypeError:           # an entry that is not an object, or holds one
        raise ResultsFormatError(f"binding of ?{var}: not an object of "
                                 "strings") from None
    except ValueError as exc:   # a ResultsFormatError, or a term's RdfError
        raise ResultsFormatError(f"binding of ?{var}: {exc}") from None
    return list(map(ids.__getitem__, spellings))


def _results_parts(doc) -> tuple[list, list]:
    if not isinstance(doc, dict):
        raise ResultsFormatError("the results are not a JSON object")
    head, results = doc.get("head"), doc.get("results")
    variables = head.get("vars") if isinstance(head, dict) else None
    bindings = results.get("bindings") if isinstance(results, dict) else None
    if not (isinstance(variables, list) and all(isinstance(v, str) for v in variables)):
        raise ResultsFormatError("head.vars is not a list of variable names")
    if not (isinstance(bindings, list) and all(map(isinstance, bindings, repeat(dict)))):
        raise ResultsFormatError("results.bindings is not a list of objects")
    return variables, bindings


def solutions_from_json(doc) -> SolutionSequence:
    """The solutions of a SPARQL JSON results document, as cells over a new
    ``AnswerTerms``.  Cells are read a column at a time, and each distinct
    spelling is turned into a term, and checked, once.  A binding of a
    variable that ``head.vars`` does not list is ignored.  A document that
    is not a results document raises ``ResultsFormatError``."""
    variables, bindings = _results_parts(doc)
    names = list(dict.fromkeys(variables))
    table = AnswerTerms()
    columns = [_column(table, bindings, var) for var in names]
    cells = list(zip(*columns)) if names else [()] * len(bindings)
    # a variable listed twice binds each of its columns
    return SolutionSequence(variables, cells=_project(cells, _picks(names, variables)),
                            terms=table)
