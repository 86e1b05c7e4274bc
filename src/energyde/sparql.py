"""Parser and evaluator for the SPARQL subset used here.

Grammar: PREFIX declarations; SELECT [DISTINCT] var-list; WHERE { dot-separated
triple patterns, optional FILTER(var op constant), at most one
VALUES var { constant ... } }; optional LIMIT n.  Prefixed names are
expanded at parse time; no prefixes survive into the algebra.

Evaluation is late-materializing: the BGP is joined a column of the
graph's term ids at a time and then zipped into rows, which stay tuples of
ids through FILTER, projection, DISTINCT and LIMIT until the response is
written.  A cell is decoded only where a FILTER or the LIMIT sort reads
it.  What a results document needs of a term, its N-Triples sort text and
its binding entry's JSON text, comes from the term table's memo
(``rdf.TermTable``).  The memo is lazy: a term's texts are made the first
time a response emits it, so it never holds more entries than the table has
terms and nothing is made when a graph loads.  It is never invalidated, as
it needs not be: a graph only grows, ids are never reused and terms are
immutable.

``solutions_to_json`` writes the one results document, which nodes send
and the federator reads.  After HDT's dictionary plus id triples, it lists
each distinct term's binding entry once, ranked by N-Triples text, then the
rows, sorted by those ranks, as indexes into that list:
``{"head":{"vars":[...]},"rows":[[0,1],[2,null]],"terms":[...]}``.
The W3C SPARQL JSON results that the command line prints are read off it.

The federator's side is late-materializing too.  ``solutions_from_json``
reads the wire's document into cells over an ``AnswerTerms`` table, making
each listed entry a term once, so that entries spelling one term share one
id.  Unions and joins work on those ids, and ``SolutionSequence.rows``
decodes them when it is first read.
"""

from __future__ import annotations

import json
import operator
import re
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from itertools import chain, compress, repeat
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional, Union

from .rdf import (BLANK_NODE_LABEL, IRIREF, LANGTAG, Graph, IRI, Literal,
                  BlankNode, RdfError, Term, TermTable, _unescape, format_term)
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

# the ASCII subset of SPARQL's PN_PREFIX and PN_LOCAL: a prefix label starts
# with a letter, and neither a label nor a local name ends in "."
_PREFIX = r"[A-Za-z](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?"
_LOCAL = r"[A-Za-z0-9_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?"
_TOKEN_RE = re.compile(rf"""
    (?P<WS>\s+|\#[^\n]*)
  | (?P<IRIREF>{IRIREF})
  | (?P<VAR>[?$][A-Za-z_][A-Za-z0-9_]*)
  | (?P<STRING>"(?:[^"\\\n]|\\.)*")
  | (?P<DTYPE>\^\^)
  | (?P<LANGTAG>@{LANGTAG})
  | (?P<NUMBER>[+-]?[0-9]+(?:\.[0-9]+)?)
  | (?P<BLANK>{BLANK_NODE_LABEL})
  | (?P<PNAME>{_PREFIX}:(?:{_LOCAL})?)
  | (?P<NAME>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<OP>!=|<=|>=|=|<|>)
  | (?P<PUNCT>[{{}}().;,*])
""", re.VERBOSE)

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


# the most digits a LIMIT may have: the default of the interpreter's bound
# on converting text to int (Python 3.10.7 and later), past which int()
# raises a plain ValueError.  The parser refuses a longer LIMIT itself,
# whatever that bound is set to.
_LIMIT_DIGITS = 4300


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.prefixes: dict[str, str] = {}

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[str]:
        """The next token's text, consumed, if the token is of ``kind`` (and
        spells ``text``, if given); otherwise None, and nothing is consumed.
        Every token the parser takes goes through here."""
        token = self.tokens[self.i]
        if token[0] == kind and (text is None or token[1] == text):
            self.i += 1
            return token[1]
        return None

    def expect(self, kind: str, what: str, text: Optional[str] = None) -> str:
        """``accept``, where the only alternative is the fault ``expected
        <what>`` at the next token."""
        value = self.accept(kind, text)
        if value is None:
            self.error(what)
        return value

    def error(self, expected: str, at: Optional[int] = None):
        """The fault ``expected <expected>, got '<token>'``, placed at the
        next token, or at token number ``at``."""
        _, value, offset = self.tokens[self.i if at is None else at]
        got = value if value else "end of input"
        raise QueryParseError(f"at offset {offset}: expected {expected}, got {got!r}")

    def keyword(self) -> Optional[str]:
        """The next token's text in lower case, if it is a name."""
        kind, value, _ = self.tokens[self.i]
        return value.lower() if kind == "NAME" else None

    def accept_keyword(self, word: str) -> bool:
        """Whether the next token is the keyword ``word``, in any case; it
        is consumed if so."""
        return self.keyword() == word and self.accept("NAME") is not None

    def parse(self) -> Query:
        while self.accept_keyword("prefix"):
            label = self.expect("PNAME", "prefix label")
            if not label.endswith(":"):
                self.error("prefix label", at=self.i - 1)
            self.prefixes[label[:-1]] = self.expect("IRIREF", "IRI")[1:-1]
        if not self.accept_keyword("select"):
            self.error("SELECT")
        distinct = self.accept_keyword("distinct")
        star = self.accept("PUNCT", "*") is not None
        projected = [] if star else [
            name[1:] for name in iter(lambda: self.accept("VAR"), None)]
        if not (star or projected):
            self.error("projected variable or *")
        self.accept_keyword("where")
        self.expect("PUNCT", "'{'", "{")
        patterns, filters, values = [], [], None
        while self.accept("PUNCT", "}") is None:
            if self.accept_keyword("filter"):
                filters.append(self.parse_filter())
            elif self.accept_keyword("values"):
                if values is not None:
                    self.error("one VALUES block at most", at=self.i - 1)
                values = self.parse_values()
            else:
                patterns.append(TriplePattern(self.pattern_term(position="subject"),
                                              self.pattern_term(position="predicate"),
                                              self.pattern_term(position="object")))
            self.accept("PUNCT", ".")
        limit = None
        if self.accept_keyword("limit"):
            digits = self.expect("NUMBER", "non-negative integer")
            if not digits.isdigit():
                self.error("non-negative integer", at=self.i - 1)
            if len(digits) > _LIMIT_DIGITS:
                raise QueryParseError(f"at offset {self.tokens[self.i - 1][2]}: "
                                      f"LIMIT has more than {_LIMIT_DIGITS} digits")
            limit = int(digits)
        self.expect("EOF", "end of query")
        if star:
            projected = sorted({v for p in patterns for v in p.variables()})
        return Query(projected=tuple(projected), distinct=distinct,
                     patterns=tuple(patterns), filters=tuple(filters),
                     limit=limit, values=values)

    def parse_filter(self) -> Comparison:
        self.expect("PUNCT", "'('", "(")
        var = Variable(self.expect("VAR", "variable")[1:])
        op = self.expect("OP", "comparison operator")
        const = self.constant_term()
        self.expect("PUNCT", "')'", ")")
        return Comparison(var, op, const)

    def parse_values(self) -> Values:
        """``?v { term ... }``: the terms are the constants a pattern may
        hold."""
        var = Variable(self.expect("VAR", "variable")[1:])
        self.expect("PUNCT", "'{'", "{")
        terms = []
        while self.accept("PUNCT", "}") is None:
            terms.append(self.pattern_term(position="value"))
        return Values(var, tuple(terms))

    def iri(self) -> Optional[IRI]:
        """The IRI at the next token, written out or as a prefixed name;
        None if the token is neither."""
        text = self.accept("IRIREF")
        if text is not None:
            return IRI(text[1:-1])
        text = self.accept("PNAME")
        if text is None:
            return None
        label, _, local = text.partition(":")
        if label not in self.prefixes:
            raise UndeclaredPrefixError(label)
        return IRI(self.prefixes[label] + local)

    def constant_term(self) -> Term:
        """The IRI or literal at the next token.  A term ``rdf`` refuses,
        or a bad escape, is a fault at the offset of the term's token."""
        start = self.i
        try:
            return self._constant_term()
        except RdfError as exc:
            raise QueryParseError(f"at offset {self.tokens[start][2]}: {exc}") from None

    def _constant_term(self) -> Term:
        iri = self.iri()
        if iri is not None:
            return iri
        text = self.accept("STRING")
        if text is not None:
            lexical = _unescape(text[1:-1])     # the escapes N-Triples resolves
            if self.accept("DTYPE") is None:
                lang = self.accept("LANGTAG")
                return Literal(lexical, lang=lang and lang[1:])
            datatype = self.iri()
            if datatype is None:
                self.error("datatype IRI")
            return Literal(lexical, datatype.value)
        text = self.expect("NUMBER", "RDF term")
        return Literal(text, XSD_DECIMAL if "." in text else XSD_INTEGER)

    def pattern_term(self, position: str) -> PatternTerm:
        """The term at the next token in ``position``: "subject",
        "predicate", "object", or "value", a VALUES term, which is no
        variable."""
        if position != "value":
            name = self.accept("VAR")
            if name is not None:
                return Variable(name[1:])
        if position == "predicate" and self.accept("NAME", "a") is not None:
            return IRI(RDF_TYPE)
        label = self.accept("BLANK")
        if label is not None:
            return BlankNode(label[2:])
        return self.constant_term()


def parse_query(text: str) -> Query:
    """The query ``text`` spells.  Every fault, including a term that
    ``rdf`` refuses, such as a prefixed name whose expansion is no IRI,
    raises ``QueryParseError``."""
    try:
        return _Parser(text).parse()
    except RdfError as exc:
        raise QueryParseError(str(exc)) from None


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
    unbound and otherwise an id in ``terms``, a term table: the graph's, for
    local evaluation, or the ``AnswerTerms`` of answers the federator
    decoded and joined.  ``rows`` is the same bag as term dicts, decoded
    when it is first read.  Give either ``cells`` with their ``terms``, or
    ``rows``, whose terms are interned into a new ``AnswerTerms``."""

    def __init__(self, variables, rows: Optional[list[dict[str, Term]]] = None,
                 cells: Optional[list[tuple]] = None,
                 terms: Optional[TermTable] = None):
        self.variables = list(variables)
        self._rows = rows
        if cells is None:
            terms = AnswerTerms()
            add = terms.add
            cells = [tuple([None if term is None else add(term)
                            for term in map(row.get, self.variables)])
                     for row in rows or ()]
        self.cells = cells
        self.terms = terms

    def __len__(self):
        return len(self.cells)

    @property
    def rows(self) -> list[dict[str, Term]]:
        if self._rows is None:
            terms = self.terms
            variables = self.variables
            self._rows = [{v: terms[cell] for v, cell in zip(variables, row)
                           if cell is not None} for row in self.cells]
        return self._rows


class ResultsFormatError(ValueError):
    """A SPARQL JSON results document that cannot be read."""


class AnswerTerms(TermTable):
    """The term table of answers the federator decoded, unioned and joined:
    ``table[id]`` is the term.  Each term has one id, however the answers
    spelled it, so ids compare as their terms do and the federator joins
    and deduplicates ids.  The federator picks an answer's columns into a
    table with ``cells_of``, which adds their terms, one thread at a time:
    each answer gets its own table, and a union or join adds to the table
    of its own inputs only."""

    __slots__ = ()

    def cells_of(self, solutions: SolutionSequence, variables) -> list[tuple]:
        """The columns of ``solutions`` for ``variables``, in that order (None
        for a variable it lacks), as ids of this table, adding the terms it
        lacks; each distinct cell is looked up once."""
        cells = _project(solutions.cells, _picks(solutions.variables, variables))
        terms = solutions.terms
        if terms is self:
            return cells
        ids = {cell: self.add(terms[cell])
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


def _order_patterns(patterns: list, graph: Graph,
                    restrict: Optional[str] = None,
                    listed: Optional[Counter] = None) -> list:
    """Greedy join order over encoded patterns (a term id or a variable name
    per position): most bound positions first, then the fewest triples
    matching the pattern's constants.  The VALUES variable ``restrict``
    counts as bound, and a pattern that uses it is estimated by the triples
    matching each ``listed`` term, once per listing."""
    if len(patterns) < 2:
        return patterns

    def matching(pattern):
        ids = [x if isinstance(x, int) else None for x in pattern]
        if restrict not in pattern:
            return graph.count_ids(*ids)
        return sum(times * graph.count_ids(*[term if x == restrict else i
                                             for x, i in zip(pattern, ids)])
                   for term, times in listed.items())

    remaining = [(p, matching(p)) for p in patterns]
    ordered = []
    known = {restrict}      # None, without a VALUES block, matches no position

    def score(item):
        pattern, estimate = item
        return (-sum(1 for x in pattern if isinstance(x, int) or x in known), estimate)

    while remaining:
        best = min(remaining, key=score)
        remaining.remove(best)
        ordered.append(best[0])
        known.update(x for x in best[0] if isinstance(x, str))
    return ordered


class _Columns:
    """A BGP's solutions while they are joined, a column at a time:
    ``columns[i]`` holds the term id that variable ``names[i]`` takes in
    each of ``size`` rows."""

    __slots__ = ("names", "columns", "size")

    def __init__(self):
        self.names: list[str] = []
        self.columns: list[list[int]] = []
        self.size = 1           # one empty row: the identity of the join

    def add(self, name: str, column: list[int]) -> None:
        self.names.append(name)
        self.columns.append(column)

    def keep(self, counts: list[int]) -> None:
        """Each row kept ``counts[i]`` times, in order: 0 drops it.  A run
        of 0s and 1s is a ``compress``; more takes an index per kept row."""
        if counts.count(1) == self.size:
            return
        if max(counts, default=0) <= 1:
            def pick(column):
                return list(compress(column, counts))
        else:
            index = list(chain.from_iterable(map(repeat, range(self.size), counts)))

            def pick(column):
                return list(map(column.__getitem__, index))
        self.columns = list(map(pick, self.columns))
        self.size = sum(counts)

    def rows(self) -> list[tuple]:
        return list(zip(*self.columns)) if self.columns else [()] * self.size


def _match_bgp(query: Query, graph: Graph) -> tuple[list[str], list[tuple]]:
    """The BGP's solutions, joined with the query's VALUES, as rows of term
    ids, one column per variable.  Pattern constants and VALUES terms are
    resolved to ids once; a constant the graph does not hold matches
    nothing.  The solutions grow one pattern at a time, kept as columns
    (``_Columns``) and zipped into rows at the end.  The VALUES block joins
    where the pattern order first reaches its variable: a pattern on an
    already bound subject cuts its new column to the listed terms, and any
    other pattern is matched once per listed term.  The graph's lock is
    held once for the whole BGP."""
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
    solutions = _Columns()
    with graph.lock:
        for pattern in _order_patterns(patterns, graph, restrict, listed):
            if restrict in pattern and not _on_bound_subject(pattern, solutions):
                terms = list(listed.elements())
                column = terms * solutions.size
                solutions.keep([len(terms)] * solutions.size)
                solutions.add(restrict, column)
                restrict = None
            _join_pattern(solutions, pattern, graph)
            if restrict in solutions.names:
                column = solutions.columns[solutions.names.index(restrict)]
                solutions.keep(list(map(listed.get, column, repeat(0))))
                restrict = None
            if not solutions.size:
                break
    return solutions.names, solutions.rows()


def _on_bound_subject(pattern: list, solutions: _Columns) -> bool:
    """Whether ``_join_pattern`` joins ``pattern`` through ``Graph.leaves``:
    a constant predicate on a subject some column binds."""
    return pattern[0] in solutions.names and isinstance(pattern[1], int)


def _join_pattern(solutions: _Columns, pattern: list, graph: Graph) -> None:
    """``solutions`` joined with one encoded pattern in place; the
    pattern's new variables get new columns.

    A constant predicate on a bound subject reads each row's objects off
    the predicate's PSO table with one ``Graph.leaves`` call over the
    subject column, so each pattern of a star costs one C-level ``map``.
    A constant or bound object keeps the rows whose objects hold it; a new
    object variable takes the objects as its column, repeating a row per
    object where a subject has more than one.  Any other pattern calls
    ``match_ids`` once per row."""
    s, p, o = pattern
    names, columns = solutions.names, solutions.columns
    if _on_bound_subject(pattern, solutions):
        objects = graph.leaves(p, columns[names.index(s)])
        if isinstance(o, int):
            solutions.keep(list(map(operator.contains, objects, repeat(o))))
        elif o in names:
            solutions.keep(list(map(operator.contains, objects,
                                      columns[names.index(o)])))
        else:
            solutions.keep(list(map(len, objects)))
            solutions.add(o, list(chain.from_iterable(objects)))
        return
    lookup = []         # per position: the ids it is matched with, row by row
    take = []           # positions whose variable gets a new column
    same = []           # (position, first position) of a repeated new variable
    for i, x in enumerate(pattern):
        if isinstance(x, int):
            lookup.append(repeat(x, solutions.size))
        elif x in names:
            lookup.append(columns[names.index(x)])
        else:
            lookup.append(repeat(None, solutions.size))
            first = pattern.index(x)
            if first == i:
                take.append(i)
            else:
                same.append((i, first))
    counts = []
    new = [[] for _ in take]
    for ids in zip(*lookup):
        found = graph.match_ids(*ids)
        if same:
            found = [t for t in found if all(t[i] == t[j] for i, j in same)]
        counts.append(len(found))
        for column, i in zip(new, take):
            column.extend(map(operator.itemgetter(i), found))
    solutions.keep(counts)
    for i, column in zip(take, new):
        solutions.add(pattern[i], column)


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
    writes, ``_sorted_rows``', so the answer does not depend on hash order."""
    rows = solutions.cells
    terms = solutions.terms
    columns = solutions.variables
    for comparison in query.filters:
        i = _picks(columns, [comparison.variable.name])[0]
        if i is None:
            rows = []           # the variable is never bound
            continue
        keep = {cell: cell is not None and _compare(terms[cell], comparison.op,
                                                    comparison.constant)
                for cell in {row[i] for row in rows}}
        rows = [row for row in rows if keep[row[i]]]
    rows = _project(rows, _picks(columns, query.projected))
    if query.distinct:
        rows = list(dict.fromkeys(rows))
    if query.limit is not None:
        rows = _sorted_rows(rows, terms)[0][:query.limit]
    return SolutionSequence(query.projected, cells=rows, terms=terms)


# --- SPARQL JSON results ---------------------------------------------------

def _binding_text(term: Term) -> str:
    """A term's binding entry as canonical JSON text.  Its keys sort as
    datatype, type, value, xml:lang, and it has at most one of the outer
    two."""
    if isinstance(term, IRI):
        return '{"type":"uri","value":' + _quote(term.value) + "}"
    if isinstance(term, BlankNode):
        return '{"type":"bnode","value":' + _quote(term.label) + "}"
    text = '"type":"literal","value":' + _quote(term.lexical)
    if term.lang:
        return "{" + text + ',"xml:lang":' + _quote(term.lang) + "}"
    if term.datatype != XSD_STRING:
        return '{"datatype":' + _quote(term.datatype) + "," + text + "}"
    return "{" + text + "}"


def _sorted_rows(rows: list[tuple], terms: TermTable) -> tuple[list[tuple], list]:
    """``rows`` sorted by their cells' N-Triples text, from the memo of
    ``terms``, and the distinct bound cells in that order.  Each cell is
    ranked once, by its place in that order, and an unbound one ranks -1,
    first; the rows sort by their tuples of ranks, built a column at a time."""
    cells = set().union(*rows)
    cells.discard(None)
    order = sorted(cells, key=terms.texts(format_term, cells).__getitem__)
    rank = dict(zip(order, range(len(order))))
    rank[None] = -1
    if rows and rows[0]:
        keys = list(zip(*[map(rank.__getitem__, column) for column in zip(*rows)]))
        rows = [rows[i] for i in sorted(range(len(rows)), key=keys.__getitem__)]
    return rows, order


def solutions_to_json(solutions: SolutionSequence) -> str:
    """The solutions as the results document, ``{"head":{"vars":[...]},
    "rows":[...],"terms":[...]}``, in canonical JSON text (sorted keys, no
    whitespace).  ``terms`` lists each distinct cell's binding entry once,
    and each row holds one index into ``terms``, or null where unbound, per
    distinct name of ``head.vars``; both are in ``_sorted_rows``' order, by
    N-Triples text.  So the text does not depend on how the term table
    numbered its terms.  Both texts of a cell come from the term table's
    memo, and the document is joined from those fragments with no JSON
    encoder run over the rows."""
    variables = solutions.variables
    rows, order = _sorted_rows(solutions.cells, solutions.terms)
    fragments = solutions.terms.texts(_binding_text, order)
    index = dict(zip(order, map(str, range(len(order)))))
    index[None] = "null"
    # one column per distinct name, from its first column
    names = dict.fromkeys(variables)
    # every row through one format string, with one "%s" per cell
    row_format = "[" + ",".join(["%s"] * len(names)) + "]"
    return ('{"head":{"vars":[' + ",".join(map(_quote, variables)) + ']},"rows":['
            + ",".join([row_format] * len(rows))
            % tuple(map(index.__getitem__, chain.from_iterable(
                _project(rows, _picks(variables, names)))))
            + '],"terms":[' + ",".join(map(fragments.__getitem__, order)) + "]}")


def serialize_results(solutions: SolutionSequence) -> str:
    """The W3C SPARQL 1.1 Query Results JSON that ``energyde query`` and
    ``energyde federate`` print, read off the results document: each row,
    in order, binds each distinct name of ``head.vars`` to the entry in
    ``terms`` its cell indexes, unless the cell is null."""
    doc = json.loads(solutions_to_json(solutions))
    names, terms = dict.fromkeys(doc["head"]["vars"]), doc["terms"]
    bindings = [{name: terms[i] for name, i in zip(names, row) if i is not None}
                for row in doc["rows"]]
    return json.dumps({"head": doc["head"], "results": {"bindings": bindings}},
                      indent=2, sort_keys=True) + "\n"


_STRING_OR_NULL = (str, type(None))


def _entry_term(entry) -> Term:
    """The term a binding entry spells.  An entry that is not an object, or
    a field of the wrong JSON type, raises ``ResultsFormatError`` here; the
    term's constructor checks the rest."""
    if not isinstance(entry, dict):
        raise ResultsFormatError("not an object of strings")
    kind, value = entry.get("type"), entry.get("value")
    datatype, lang = entry.get("datatype"), entry.get("xml:lang")
    if not isinstance(value, str):
        raise ResultsFormatError("value is not a string")
    if not (isinstance(datatype, _STRING_OR_NULL) and isinstance(lang, _STRING_OR_NULL)):
        raise ResultsFormatError("not an object of strings")
    if kind == "literal":
        if lang is None:
            return Literal(value, XSD_STRING if datatype is None else datatype)
        return Literal(value, lang=lang)
    if kind == "uri":
        return IRI(value)
    if kind == "bnode":
        return BlankNode(value)
    raise ResultsFormatError(f"unknown type {kind!r}")


def solutions_from_json(doc) -> SolutionSequence:
    """The solutions of a results document, as ``solutions_to_json`` writes
    it, as cells over a new ``AnswerTerms``.  A document that is not one raises
    ``ResultsFormatError``: a row that is not a list, or not one cell per
    distinct name of ``head.vars``, or a cell that is neither null nor an
    int indexing ``terms``, or an entry that spells no term."""
    if not isinstance(doc, dict):
        raise ResultsFormatError("the results are not a JSON object")
    head, rows, entries = doc.get("head"), doc.get("rows"), doc.get("terms")
    variables = head.get("vars") if isinstance(head, dict) else None
    if not (isinstance(variables, list) and all(isinstance(v, str) for v in variables)):
        raise ResultsFormatError("head.vars is not a list of variable names")
    if not isinstance(rows, list):
        raise ResultsFormatError("rows is not a list")
    if not isinstance(entries, list):
        raise ResultsFormatError("terms is not a list")
    names = list(dict.fromkeys(variables))
    width = len(names)
    if not set(map(type, rows)) <= {list}:
        raise ResultsFormatError("a row is not a list")
    if not set(map(len, rows)) <= {width}:
        raise ResultsFormatError(f"a row does not hold {width} cells, one per "
                                 "distinct variable")
    flat = list(chain.from_iterable(rows))
    # exactly int or null: JSON true and 1.0 would look up index 1
    if not set(map(type, flat)) <= {int, type(None)}:
        raise ResultsFormatError("a cell is neither null nor an index into terms")
    # each entry is made a term once; entries spelling one term share an id
    table = AnswerTerms()
    ids = {None: None}
    for i, entry in enumerate(entries):
        try:
            ids[i] = table.add(_entry_term(entry))
        except ValueError as exc:   # a ResultsFormatError, or a term's RdfError
            raise ResultsFormatError(f"terms[{i}]: {exc}") from None
    try:
        cells = list(map(ids.__getitem__, flat))
    except KeyError as exc:
        raise ResultsFormatError(f"cell {exc} is not an index into terms") from None
    cells = list(zip(*[iter(cells)] * width)) if width else [()] * len(rows)
    # a variable listed twice binds each of its columns
    return SolutionSequence(variables, cells=_project(cells, _picks(names, variables)),
                            terms=table)
