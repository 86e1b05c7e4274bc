"""RDF terms, triples, and an id-encoded in-memory graph with N-Triples I/O."""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from itertools import filterfalse
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar, Union

from .vocab import RDF_LANGSTRING, XSD_STRING


class RdfError(ValueError):
    pass


class NTriplesParseError(RdfError):
    """Syntax error in N-Triples input; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


# for str patterns \s is exactly the characters str.isspace() accepts
_IRI_FORBIDDEN = re.compile(r'[\s<>"]')


def _check_iri(value: str) -> None:
    if ":" not in value:
        raise RdfError(f"IRI missing scheme separator: {value!r}")
    if _IRI_FORBIDDEN.search(value):
        raise RdfError(f"IRI contains forbidden character: {value!r}")


@dataclass(frozen=True, slots=True)
class IRI:
    value: str

    def __post_init__(self):
        _check_iri(self.value)

    def __repr__(self):
        return f"IRI({self.value!r})"


@dataclass(frozen=True, slots=True)
class Literal:
    lexical: str
    datatype: str = XSD_STRING
    lang: Optional[str] = None

    def __post_init__(self):
        # a language tag implies the language-string datatype, and that
        # datatype needs a tag: either alone would print as a term that
        # reads back as another
        if self.lang is not None:
            if not self.lang:
                raise RdfError("empty language tag")
            object.__setattr__(self, "datatype", RDF_LANGSTRING)
        elif self.datatype == RDF_LANGSTRING:
            raise RdfError("rdf:langString literal without a language tag")
        _check_iri(self.datatype)

    def __repr__(self):
        if self.lang:
            return f"Literal({self.lexical!r}, lang={self.lang!r})"
        return f"Literal({self.lexical!r}, {self.datatype!r})"


@dataclass(frozen=True, slots=True)
class BlankNode:
    label: str


Term = Union[IRI, Literal, BlankNode]


@dataclass(frozen=True, slots=True)
class Triple:
    subject: Term
    predicate: Term
    object: Term

    def __post_init__(self):
        if isinstance(self.subject, Literal):
            raise RdfError("triple subject must not be a literal")
        if not isinstance(self.predicate, IRI):
            raise RdfError("triple predicate must be an IRI")

    def __iter__(self):
        return iter((self.subject, self.predicate, self.object))


IdTriple = tuple[int, int, int]

_NO_ENTRIES = MappingProxyType({})

_Derived = TypeVar("_Derived")


class TermTexts:
    """A lazy memo of what is derived from a term table's terms, such as
    each term's N-Triples text: ``texts(make, ids)`` maps an id to
    ``make(self[id])``, made the first time some caller asks for that id
    and kept for as long as the table lives.  So a memo never holds more
    entries than the table has terms, and nothing is made at load.

    A table that mixes this in is append-only: an id is never reused or
    renumbered and a term never changes, so a kept text is never stale and
    nothing is ever invalidated.  Two threads that fill the same id write
    equal values; each store is one dict assignment."""

    __slots__ = ()

    def texts(self, make: Callable[[Term], _Derived],
              ids: Iterable[int]) -> dict[int, _Derived]:
        """The memo of ``make``, filled for at least ``ids``.  Read it; do
        not modify it or what it holds."""
        memo = self._memos.get(make)
        if memo is None:
            memo = self._memos.setdefault(make, {})
        for i in list(filterfalse(memo.__contains__, ids)):
            memo[i] = make(self[i])
        return memo


class TermTable(TermTexts, list):
    """A graph's term dictionary: ``table[id]`` is the term.  The graph
    appends to it; nothing else may modify it."""

    __slots__ = ("_memos",)

    def __init__(self):
        super().__init__()
        self._memos: dict = {}


def _push(index: dict, a: int, b: int, c: int) -> None:
    inner = index.get(a)
    if inner is None:
        index[a] = {b: [c]}
        return
    leaf = inner.get(b)
    if leaf is None:
        inner[b] = [c]
    else:
        leaf.append(c)


class Graph:
    """Set of triples, stored as ids into a term dictionary.

    Each distinct term gets an int id once (``terms[id]`` is the term), and
    every triple is kept in three nested indexes over ids, in the spirit of
    HDT's bitmap triples: ``_spo[s][p]`` lists the objects, ``_pos[p][o]``
    the subjects and ``_osp[o][s]`` the predicates.  Any combination of bound
    positions is at most two dict hops away.  The OSP leaf, the predicates
    that link one subject to one object, is the one the duplicate check
    scans, since it is the shortest in practice.

    One lock guards the indexes.  Each read takes it and materializes its
    result, so iteration stays stable while other threads insert.  A reader
    that probes many times, such as a BGP evaluated row by row, holds
    ``lock`` once around all its ``leaf`` probes instead.

    Writes come one ``Triple`` at a time through ``insert``, or in a batch
    at the id level through ``insert_encoded``: the caller numbers its own
    terms, once each, and hands over triples of those numbers.  The batch
    takes the lock once, and each term is hashed into the dictionary once,
    by the first triple that uses it.  So no ``Triple`` is built per row,
    and ``term_id`` still knows only terms that some triple uses.

    The term table keeps a memo of each term's derived text (``TermTexts``):
    its N-Triples text, and its SPARQL JSON binding and that binding's JSON
    text.  The memo is lazy: a term's text is made the first time a
    response or a serialization emits it, never at load, so it holds at
    most one entry per term.  It is never invalidated, and needs not be:
    the graph only grows, ids are never reused and terms are immutable.
    """

    def __init__(self, triples: Iterable[Triple] = ()):
        self._terms = TermTable()
        self._ids: dict[Term, int] = {}
        self._spo: dict[int, dict[int, list[int]]] = {}
        self._pos: dict[int, dict[int, list[int]]] = {}
        self._osp: dict[int, dict[int, list[int]]] = {}
        self._size = 0
        self._lock = threading.RLock()
        self.update(triples)

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Triple]:
        with self._lock:
            return iter(self._decode(self._id_triples()))

    def __contains__(self, triple: Triple) -> bool:
        ids = [self._ids.get(term) for term in triple]
        return None not in ids and self._has(*ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        with other._lock:
            theirs = list(other._id_triples())
            terms = list(other._terms)
        if len(theirs) != len(self):
            return False
        # the two graphs number their terms independently
        ours = [self._ids.get(term) for term in terms]
        with self._lock:
            return all(None not in (ours[s], ours[p], ours[o])
                       and self._has(ours[s], ours[p], ours[o])
                       for s, p, o in theirs)

    @property
    def terms(self) -> TermTable:
        """The term dictionary, indexed by id, with its memo of derived
        text.  Ids are never reused or renumbered; callers must not modify
        the list."""
        return self._terms

    @property
    def lock(self) -> threading.RLock:
        """The lock every read and write takes.  Hold it for a consistent
        view across several reads."""
        return self._lock

    def term_id(self, term: Term) -> Optional[int]:
        """The id of ``term``, or None if no triple of the graph uses it."""
        return self._ids.get(term)

    def insert(self, triple: Triple) -> int:
        """Insert one triple (set semantics); returns the new graph size."""
        if not isinstance(triple, Triple):
            raise RdfError(f"not a triple: {triple!r}")
        with self._lock:
            self._add(self._intern(triple.subject), self._intern(triple.predicate),
                      self._intern(triple.object))
            return self._size

    def insert_encoded(self, terms: Sequence[Term],
                       triples: Iterable[IdTriple]) -> int:
        """Insert triples given as ``(s, p, o)`` indexes into ``terms``, the
        caller's own term table, under one lock (set semantics).  Each term
        is interned when the first triple that uses it goes in.  Each triple
        must be one ``Triple`` accepts: no literal subject, an IRI
        predicate.  Returns the new graph size."""
        ids: list[Optional[int]] = [None] * len(terms)
        intern = self._intern
        with self._lock:
            for a, b, c in triples:
                s = ids[a]
                if s is None:
                    s = ids[a] = intern(terms[a])
                p = ids[b]
                if p is None:
                    p = ids[b] = intern(terms[b])
                o = ids[c]
                if o is None:
                    o = ids[c] = intern(terms[c])
                self._add(s, p, o)
            return self._size

    def update(self, triples: Iterable[Triple]) -> int:
        if isinstance(triples, Graph):
            # the other graph's ids index its own term table
            with triples._lock:
                terms = list(triples._terms)
                theirs = list(triples._id_triples())
            return self.insert_encoded(terms, theirs)
        for t in triples:
            self.insert(t)
        return self._size

    def match(self, subject: Optional[Term] = None, predicate: Optional[Term] = None,
              object: Optional[Term] = None) -> list[Triple]:
        """All triples matching the bound positions."""
        ids = []
        for term in (subject, predicate, object):
            tid = None if term is None else self._ids.get(term)
            if term is not None and tid is None:
                return []
            ids.append(tid)
        return self._decode(self.match_ids(*ids))

    def match_ids(self, s: Optional[int] = None, p: Optional[int] = None,
                  o: Optional[int] = None) -> list[IdTriple]:
        """``match`` over term ids: the id triples matching the bound ids."""
        with self._lock:
            if s is not None and o is not None:
                return [(s, x, o) for x in self._osp.get(o, _NO_ENTRIES).get(s, ())
                        if p is None or x == p]
            if s is not None:
                by_p = self._spo.get(s, _NO_ENTRIES)
                if p is not None:
                    return [(s, p, x) for x in by_p.get(p, ())]
                return [(s, x, y) for x, ys in by_p.items() for y in ys]
            if p is not None:
                by_o = self._pos.get(p, _NO_ENTRIES)
                if o is not None:
                    return [(x, p, o) for x in by_o.get(o, ())]
                return [(y, p, x) for x, ys in by_o.items() for y in ys]
            if o is not None:
                return [(x, y, o) for x, ys in self._osp.get(o, _NO_ENTRIES).items()
                        for y in ys]
            return list(self._id_triples())

    def leaf(self, p: int, o: Optional[int] = None) -> Callable[[int], Sequence[int]]:
        """One index leaf per subject id, for a caller that binds the subject
        row by row: with ``o`` None, ``s`` maps to the objects of ``(s, p)``
        (its SPO leaf); with ``o``, to the predicates that link ``s`` to
        ``o`` (its OSP leaf), so ``(s, p, o)`` holds iff ``p`` is in it.  An
        absent leaf is ``()``.  Call it under ``lock`` and do not modify
        what it returns."""
        if o is not None:
            by_s = self._osp.get(o, _NO_ENTRIES)
            return lambda s: by_s.get(s, ())
        spo = self._spo
        return lambda s: spo.get(s, _NO_ENTRIES).get(p, ())

    def count_ids(self, s: Optional[int] = None, p: Optional[int] = None,
                  o: Optional[int] = None) -> int:
        """How many id triples ``match_ids`` would return, without building
        them (the join-order estimate).  Must agree with ``match_ids``; a
        test checks the two on every combination of bound positions."""
        with self._lock:
            if s is not None and o is not None:
                leaf = self._osp.get(o, _NO_ENTRIES).get(s, ())
                return len(leaf) if p is None else leaf.count(p)
            if s is not None:
                by_p = self._spo.get(s, _NO_ENTRIES)
                return len(by_p.get(p, ())) if p is not None \
                    else sum(map(len, by_p.values()))
            if p is not None:
                by_o = self._pos.get(p, _NO_ENTRIES)
                return len(by_o.get(o, ())) if o is not None \
                    else sum(map(len, by_o.values()))
            if o is not None:
                return sum(map(len, self._osp.get(o, _NO_ENTRIES).values()))
            return self._size

    def predicates(self) -> list[Term]:
        """Every distinct predicate, read off the POS index."""
        with self._lock:
            return [self._terms[p] for p in self._pos]

    def objects(self, predicate: Term) -> list[Term]:
        """Every distinct object of ``predicate``, read off the POS index."""
        pid = self._ids.get(predicate)
        with self._lock:
            return [self._terms[o] for o in self._pos.get(pid, ())]

    def _intern(self, term: Term) -> int:
        tid = self._ids.get(term)
        if tid is None:
            tid = self._ids[term] = len(self._terms)
            self._terms.append(term)
        return tid

    def _has(self, s: int, p: int, o: int) -> bool:
        return p in self._osp.get(o, _NO_ENTRIES).get(s, ())

    def _add(self, s: int, p: int, o: int) -> None:
        """Add one id triple unless the graph already holds it.  Callers hold
        the lock."""
        if self._has(s, p, o):
            return
        _push(self._osp, o, s, p)
        _push(self._spo, s, p, o)
        _push(self._pos, p, o, s)
        self._size += 1

    def _id_triples(self) -> Iterator[IdTriple]:
        return ((s, p, o) for s, by_p in self._spo.items()
                for p, objects in by_p.items() for o in objects)

    def _decode(self, id_triples: Iterable[IdTriple]) -> list[Triple]:
        terms = self._terms
        return [Triple(terms[s], terms[p], terms[o]) for s, p, o in id_triples]


# --- N-Triples -------------------------------------------------------------

_ESCAPES = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
            '"': '"', "'": "'", "\\": "\\"}


def _unescape(raw: str, line_no: int) -> str:
    if "\\" not in raw:
        return raw
    out = []
    i = 0
    while i < len(raw):
        c = raw[i]
        if c != "\\":
            out.append(c)
            i += 1
            continue
        if i + 1 >= len(raw):
            raise NTriplesParseError(line_no, "dangling escape")
        e = raw[i + 1]
        if e in _ESCAPES:
            out.append(_ESCAPES[e])
            i += 2
        elif e == "u" or e == "U":
            width = 4 if e == "u" else 8
            hexpart = raw[i + 2:i + 2 + width]
            if len(hexpart) != width:
                raise NTriplesParseError(line_no, f"bad \\{e} escape")
            try:
                out.append(chr(int(hexpart, 16)))
            except ValueError:
                raise NTriplesParseError(line_no, f"bad \\{e} escape") from None
            i += 2 + width
        else:
            raise NTriplesParseError(line_no, f"unknown escape \\{e}")
    return "".join(out)


# exactly the characters N-Triples output escapes: the two that end or
# start an escape, and the control and line-separator characters that would
# break the one-statement-per-line framing
_NEEDS_ESCAPE = re.compile(r'[\\"\x00-\x1f\x85\u2028\u2029]')
_SHORT_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _escape_char(match: re.Match) -> str:
    c = match.group()
    return _SHORT_ESCAPES.get(c) or f"\\u{ord(c):04X}"


def _escape(text: str) -> str:
    """``text`` as the body of an N-Triples literal; text with nothing to
    escape is returned as is."""
    return _NEEDS_ESCAPE.sub(_escape_char, text)


class _LineScanner:
    def __init__(self, line: str, line_no: int):
        self.line = line
        self.pos = 0
        self.line_no = line_no

    def error(self, msg: str):
        raise NTriplesParseError(self.line_no, f"{msg} (column {self.pos + 1})")

    def skip_ws(self):
        while self.pos < len(self.line) and self.line[self.pos] in " \t":
            self.pos += 1

    def at_end(self) -> bool:
        return self.pos >= len(self.line)

    def term(self) -> Term:
        self.skip_ws()
        if self.at_end():
            self.error("expected term")
        c = self.line[self.pos]
        if c == "<":
            end = self.line.find(">", self.pos)
            if end < 0:
                self.error("unterminated IRI")
            value = self.line[self.pos + 1:end]
            self.pos = end + 1
            try:
                return IRI(_unescape(value, self.line_no))
            except RdfError as exc:
                self.error(str(exc))
        if c == "_":
            if not self.line.startswith("_:", self.pos):
                self.error("expected blank node label")
            i = self.pos + 2
            while i < len(self.line) and (self.line[i].isalnum() or self.line[i] in "_-."):
                i += 1
            label = self.line[self.pos + 2:i]
            if not label:
                self.error("empty blank node label")
            self.pos = i
            return BlankNode(label)
        if c == '"':
            i = self.pos + 1
            while i < len(self.line):
                if self.line[i] == "\\":
                    i += 2
                    continue
                if self.line[i] == '"':
                    break
                i += 1
            else:
                self.error("unterminated literal")
            lexical = _unescape(self.line[self.pos + 1:i], self.line_no)
            self.pos = i + 1
            if self.line.startswith("^^<", self.pos):
                end = self.line.find(">", self.pos + 3)
                if end < 0:
                    self.error("unterminated datatype IRI")
                datatype = self.line[self.pos + 3:end]
                self.pos = end + 1
                try:
                    return Literal(lexical, datatype)
                except RdfError as exc:
                    self.error(str(exc))
            if self.line.startswith("@", self.pos):
                i = self.pos + 1
                while i < len(self.line) and (self.line[i].isalnum() or self.line[i] == "-"):
                    i += 1
                lang = self.line[self.pos + 1:i]
                if not lang:
                    self.error("empty language tag")
                self.pos = i
                return Literal(lexical, lang=lang)
            return Literal(lexical)
        self.error(f"unexpected character {c!r}")


def _scan_line(line: str, line_no: int) -> Optional[Triple]:
    """The general line parser: any escape, and every error message.  None
    for a blank or comment line."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    scanner = _LineScanner(line, line_no)
    s = scanner.term()
    p = scanner.term()
    o = scanner.term()
    scanner.skip_ws()
    if scanner.at_end() or scanner.line[scanner.pos] != ".":
        raise NTriplesParseError(line_no, 'missing terminal "."')
    scanner.pos += 1
    scanner.skip_ws()
    if not scanner.at_end() and not scanner.line[scanner.pos:].lstrip().startswith("#"):
        raise NTriplesParseError(line_no, "trailing content after terminal \".\"")
    try:
        return Triple(s, p, o)
    except RdfError as exc:
        raise NTriplesParseError(line_no, str(exc)) from None


# The fast path: a statement with no escape, so every term is its text.  A
# subject is an IRI or blank node, a predicate an IRI.  A blank node label
# must run to the end of its character class (the lookahead), so that the
# regex never accepts a split the scanner would not make: the scanner reads
# "_:b." as the label "b.".
_NT_IRI = r'<[^<>"\s\\]*>'
_NT_BLANK = r"_:[A-Za-z0-9_.-]+(?![A-Za-z0-9_.-])"
_NT_LITERAL = rf'"[^"\\]*"(?:\^\^{_NT_IRI}|@[A-Za-z0-9-]+)?'
_NT_LINE = re.compile(
    rf"[ \t]*({_NT_IRI}|{_NT_BLANK})[ \t]*({_NT_IRI})"
    rf"[ \t]*({_NT_IRI}|{_NT_BLANK}|{_NT_LITERAL})[ \t]*\.[ \t]*(?:#.*)?")


def _token_term(token: str) -> Term:
    """The term a fast-path token denotes; raises RdfError when the scanner
    would reject it."""
    return _LineScanner(token, 0).term()


def parse_ntriples(text: str) -> Graph:
    """Parse N-Triples text, one statement per line.  Fails fast on the first
    syntax error, reporting its line number.

    Lines the fast-path regex accepts go straight to term ids: each distinct
    token text is turned into a term, checked and interned once.  Every other
    line, and every error, goes through ``_scan_line``."""
    graph = Graph()                 # no other thread sees it yet: no lock
    ids: dict[str, int] = {}        # token text -> term id
    fast_line = _NT_LINE.fullmatch
    for line_no, line in enumerate(text.splitlines(), start=1):
        match = fast_line(line)
        if match is not None:
            try:
                s, p, o = [ids[token] if token in ids
                           else ids.setdefault(token, graph._intern(_token_term(token)))
                           for token in match.groups()]
            except RdfError:
                match = None
        if match is None:
            triple = _scan_line(line, line_no)
            if triple is None:
                continue
            s, p, o = (graph._intern(term) for term in triple)
        graph._add(s, p, o)
    return graph


def format_term(term: Term) -> str:
    if isinstance(term, IRI):
        return f"<{term.value}>"
    if isinstance(term, BlankNode):
        return f"_:{term.label}"
    if isinstance(term, Literal):
        body = f'"{_escape(term.lexical)}"'
        if term.lang:
            return f"{body}@{term.lang}"
        if term.datatype != XSD_STRING:
            return f"{body}^^<{term.datatype}>"
        return body
    raise RdfError(f"not a term: {term!r}")


def serialize_ntriples(graph: Graph) -> str:
    """Deterministic N-Triples output: one line per triple, lexicographically
    sorted.  ``parse_ntriples(serialize_ntriples(g)) == g``.  Each term's
    text comes from the term table's memo, so it is formatted once per
    graph, however often the graph is written."""
    with graph._lock:
        texts = graph._terms.texts(format_term, range(len(graph._terms)))
        lines = [f"{texts[s]} {texts[p]} {texts[o]} ." for s, p, o in graph._id_triples()]
    lines.sort()
    return "\n".join(lines) + "\n" if lines else ""


def load_graph(path) -> Graph:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise RdfError(f"{path}: cannot read: {exc}") from None
    return parse_ntriples(text)


def save_graph(graph: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_ntriples(graph))
