"""RDF terms, triples, and an id-encoded in-memory graph with N-Triples I/O."""

from __future__ import annotations

import io
import re
import threading
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, filterfalse, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar, Union

from .vocab import RDF_LANGSTRING, XSD_STRING


class RdfError(ValueError):
    pass


class NTriplesParseError(RdfError):
    """Syntax error in N-Triples input; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


# The term grammar, written once: W3C RDF 1.1 N-Triples section 7 and
# SPARQL 1.1 section 19.8.  The N-Triples parser, the query tokenizer and
# the term constructors are all built from these patterns, so a term that
# can be made can be written and read back by both.  Where the two grammars
# differ, the narrower rule holds: a blank node label has no ":" (SPARQL's
# PN_CHARS_U), and an IRI has no whitespace at all.  So serialized text
# holds no line break but "\n", not even one str.splitlines sees, such as
# \x85 or \u2028.

# the characters an IRI may not hold; for str patterns \s is exactly the
# characters str.isspace() accepts.  No term holds a surrogate code point
# (U+D800-U+DFFF): UTF-8 cannot encode one, so no such term can be written.
_SURROGATES = r"\uD800-\uDFFF"
_IRI_EXCLUDED = r'\x00-\x20<>"{}|^`\\\s' + _SURROGATES
IRIREF = rf"<[^{_IRI_EXCLUDED}]*>"
LANGTAG = r"[A-Za-z]+(?:-[A-Za-z0-9]+)*"
# BLANK_NODE_LABEL is (PN_CHARS_U | [0-9]) ((PN_CHARS | ".")* PN_CHARS)?,
# written here as one class of what PN_CHARS and "." leave out, with the
# first and last characters checked around it.  The grammar lists the
# characters it admits, but a class of those ranges takes re several
# milliseconds to compile and every process compiles it at import; the
# class of the gaps between them takes a fraction of that.
_NOT_LABEL_CHARS = (r"\x00-\x2C\x2F\x3A-\x40\x5B-\x5E\x60\x7B-\xB6\xB8-\xBF\xD7\xF7"
                    r"\u037E\u2000-\u200B\u200E-\u203E\u2041-\u206F\u2190-\u2BFF"
                    r"\u2FF0-\u3000\uD800-\uF8FF\uFDD0-\uFDEF\uFFFE\uFFFF"
                    r"\U000F0000-\U0010FFFF")
_LABEL = rf"(?![-.\u00B7\u0300-\u036F\u203F\u2040])[^{_NOT_LABEL_CHARS}]+(?<!\.)"
BLANK_NODE_LABEL = "_:" + _LABEL

_IRI_FORBIDDEN = re.compile(f"[{_IRI_EXCLUDED}]")
_SURROGATE = re.compile(f"[{_SURROGATES}]")
_LANGTAG_RE = re.compile(LANGTAG)
_LABEL_RE = re.compile(_LABEL)


def _check_iri(value: str) -> None:
    if ":" not in value:
        raise RdfError(f"IRI missing scheme separator: {value!r}")
    if _IRI_FORBIDDEN.search(value):
        raise RdfError(f"IRI contains forbidden character: {value!r}")


# a graph or an answer holds a handful of distinct datatypes, so each is
# checked once; the bound keeps an answer's choice of datatypes from growing
# the cache without limit
_check_datatype = lru_cache(maxsize=256)(_check_iri)


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
            if not _LANGTAG_RE.fullmatch(self.lang):
                raise RdfError(f"invalid language tag: {self.lang!r}")
            object.__setattr__(self, "datatype", RDF_LANGSTRING)
        elif self.datatype == RDF_LANGSTRING:
            raise RdfError("rdf:langString literal without a language tag")
        _check_datatype(self.datatype)
        if not self.lexical.isascii() and _SURROGATE.search(self.lexical):
            raise RdfError(f"literal contains a surrogate code point: {self.lexical!r}")

    def __repr__(self):
        if self.lang:
            return f"Literal({self.lexical!r}, lang={self.lang!r})"
        return f"Literal({self.lexical!r}, {self.datatype!r})"


@dataclass(frozen=True, slots=True)
class BlankNode:
    label: str

    def __post_init__(self):
        if not _LABEL_RE.fullmatch(self.label):
            raise RdfError(f"invalid blank node label: {self.label!r}")


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
# a predicate and its subjects' and objects' columns, as ids or indexes
IdBatch = tuple[int, Sequence[int], Sequence[int]]

_Derived = TypeVar("_Derived")


class TermTable(list):
    """A term dictionary: ``table[id]`` is the term, and ``add`` gives each
    distinct term one id, the next free one when the term is new.  It is
    append-only: an id is never reused or renumbered and a term never
    changes.

    It keeps a lazy memo of what is derived from its terms, such as each
    term's N-Triples text: ``texts(make, ids)`` maps an id to
    ``make(self[id])``, made the first time some caller asks for that id
    and kept for as long as the table lives.  So a memo never holds more
    entries than the table has terms, nothing is made when a term is
    added, and a kept text is never stale, so nothing is ever invalidated.
    Two threads that fill the same id write equal values; each store is
    one dict assignment."""

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


class _Predicate:
    """One predicate's triples, as ids: ``objects[s]`` lists the objects of
    subject ``s`` (its PSO table), ``subjects[o]`` the subjects of object
    ``o`` (its POS table), and ``size`` counts the triples."""

    __slots__ = ("objects", "subjects", "size")

    def __init__(self):
        self.objects: dict[int, Sequence[int]] = {}
        self.subjects: dict[int, list[int]] = {}
        self.size = 0

    def columns(self) -> tuple[list[int], list[int]]:
        """The triples as a subject column and an object column."""
        leaves = self.objects.values()
        return (list(chain.from_iterable(map(repeat, self.objects, map(len, leaves)))),
                list(chain.from_iterable(leaves)))

    def holds(self, s: int, o: int) -> bool:
        # the triple is in both its leaves, so scan the shorter one: a
        # subject may have many objects, and an object many subjects
        objects = self.objects.get(s, ())
        subjects = self.subjects.get(o, ())
        return o in objects if len(objects) <= len(subjects) else s in subjects


# the tables of a predicate the graph does not hold; nothing writes to it
_NO_TRIPLES = _Predicate()


class Graph:
    """Set of triples, stored as ids into a term dictionary.

    Each distinct term gets an int id once (``terms[id]`` is the term).
    The triples are partitioned by predicate, the vertical partitioning of
    Abadi et al. (VLDB 2007): each predicate keeps a table from subject to
    objects (PSO), one from object to subjects (POS), in the spirit of
    HDT's bitmap triples, and its triple count (``_Predicate``), so no dict
    is kept per subject.  A pattern with a constant predicate reads its
    tables.  One that binds its subject or object but not its predicate
    probes every predicate's table in turn; that is the accepted trade-off,
    since a graph has few predicates, and star joins, lookups and shapes
    all name theirs.  A pattern that binds its object along with its
    subject scans the PSO leaf, which holds one object in practice.  The
    duplicate check scans the shorter of the triple's PSO and POS leaves.

    Leaves are read-only sequences to every reader; ``_add`` is the one
    writer, but for ``_fill``, which builds a new predicate's tables whole.
    Most subjects have one object per predicate, so a PSO leaf that holds
    one object is a 1-tuple shared by every leaf that holds just that
    object, kept in one dict per graph (``_single``), as HDT's compact
    triples share what repeats.  ``_add`` replaces such a leaf with a list
    when a second object arrives; it never modifies a tuple.  POS leaves
    stay lists: one that holds one subject is rare, and a subject seldom
    shares it, so sharing them would not pay.

    One lock guards the indexes.  Each read takes it and materializes its
    result, so iteration stays stable while other threads insert.  A reader
    that probes many times, such as a BGP evaluated a column at a time,
    holds ``lock`` once around all its reads instead, and reads one
    predicate's objects for a whole column of subjects with one ``leaves``
    call.

    Writes come one ``Triple`` at a time through ``insert``, or a column at
    a time through ``insert_encoded``: the caller numbers its own terms,
    once each, and hands over one ``(predicate, subjects, objects)`` batch
    per predicate, two columns of those numbers.  The call takes the lock
    once, each distinct number is hashed into the dictionary once, by the
    first batch that uses it, and each batch fills its predicate's tables
    in one loop over its distinct pairs (or, for a new predicate with
    distinct subjects, builds them whole).  So no ``Triple`` or id triple
    is built per row, and ``term_id`` still knows only terms that some
    triple uses.  ``update`` from another graph hands over that graph's
    tables as such batches.

    The term table keeps a memo of each term's derived text (``TermTable.texts``):
    its N-Triples text, and its SPARQL JSON binding and that binding's JSON
    text.  The memo is lazy: a term's text is made the first time a
    response or a serialization emits it, never at load, so it holds at
    most one entry per term.  It is never invalidated, and needs not be:
    the graph only grows, ids are never reused and terms are immutable.
    """

    def __init__(self, triples: Iterable[Triple] = ()):
        self._terms = TermTable()
        self._predicates: dict[int, _Predicate] = {}
        # object id -> the shared PSO leaf that holds that object alone
        self._single: dict[int, tuple[int]] = {}
        self._lock = threading.RLock()
        self.update(triples)

    def __len__(self) -> int:
        return sum(table.size for table in self._predicates.values())

    def __iter__(self) -> Iterator[Triple]:
        with self._lock:
            return iter(self._decode(self._id_triples()))

    def __contains__(self, triple: Triple) -> bool:
        ids = [self.term_id(term) for term in triple]
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
        ours = [self.term_id(term) for term in terms]
        with self._lock:
            return all(None not in (ours[s], ours[p], ours[o])
                       and self._has(ours[s], ours[p], ours[o])
                       for s, p, o in theirs)

    @property
    def terms(self) -> TermTable:
        """The term dictionary, indexed by id, with its memo of derived
        text.  The graph adds to it; nothing else may."""
        return self._terms

    @property
    def lock(self) -> threading.RLock:
        """The lock every read and write takes.  Hold it for a consistent
        view across several reads."""
        return self._lock

    def term_id(self, term: Term) -> Optional[int]:
        """The id of ``term``, or None if no triple of the graph uses it."""
        return self._terms._ids.get(term)

    def insert(self, triple: Triple) -> int:
        """Insert one triple (set semantics); returns the new graph size."""
        if not isinstance(triple, Triple):
            raise RdfError(f"not a triple: {triple!r}")
        add = self._terms.add
        with self._lock:
            self._add(add(triple.subject), add(triple.predicate), add(triple.object))
            return len(self)

    def insert_encoded(self, terms: Sequence[Term],
                       batches: Iterable[IdBatch]) -> int:
        """Insert batches of triples given as indexes into ``terms``, the
        caller's own term table, under one lock (set semantics).  A batch
        ``(p, subjects, objects)`` holds the triples ``(subjects[i], p,
        objects[i])``.  Each distinct index is interned once, when the
        first batch that uses it goes in, so ``term_id`` still knows only
        terms that some triple uses.  Each triple must be one ``Triple``
        accepts: no literal subject, an IRI predicate.  Returns the new
        graph size."""
        ids: dict[int, int] = {}
        add = self._terms.add

        def intern(column: Sequence[int]) -> list[int]:
            for i in filterfalse(ids.__contains__, dict.fromkeys(column)):
                ids[i] = add(terms[i])
            return list(map(ids.__getitem__, column))

        with self._lock:
            owners: tuple = (None, None)    # batches often share a subject column
            for p, subjects, objects in batches:
                if subjects:
                    if subjects is not owners[0]:
                        owners = subjects, intern(subjects)
                    self._fill(intern((p,))[0], owners[1], intern(objects))
            return len(self)

    def update(self, triples: Iterable[Triple]) -> int:
        if isinstance(triples, Graph):
            # the other graph's ids index its own term table, and each of its
            # predicates is one batch
            with triples._lock:
                terms = list(triples._terms)
                batches = [(p, *table.columns())
                           for p, table in triples._predicates.items()]
            return self.insert_encoded(terms, batches)
        for t in triples:
            self.insert(t)
        return len(self)

    def match(self, subject: Optional[Term] = None, predicate: Optional[Term] = None,
              object: Optional[Term] = None) -> list[Triple]:
        """All triples matching the bound positions."""
        ids = []
        for term in (subject, predicate, object):
            tid = None if term is None else self.term_id(term)
            if term is not None and tid is None:
                return []
            ids.append(tid)
        return self._decode(self.match_ids(*ids))

    def match_ids(self, s: Optional[int] = None, p: Optional[int] = None,
                  o: Optional[int] = None) -> list[IdTriple]:
        """``match`` over term ids: the id triples matching the bound ids."""
        with self._lock:
            tables = self._predicates.items() if p is None \
                else [(p, self._predicates.get(p, _NO_TRIPLES))]
            if s is not None:
                return [(s, x, y) for x, table in tables
                        for y in table.objects.get(s, ()) if o is None or y == o]
            if o is not None:
                return [(y, x, o) for x, table in tables
                        for y in table.subjects.get(o, ())]
            return [(y, x, z) for x, table in tables
                    for y, objects in table.objects.items() for z in objects]

    def leaves(self, p: Optional[int], subjects: Iterable[int]) -> list[Sequence[int]]:
        """The objects predicate ``p`` gives each of ``subjects``, in order:
        empty where the graph holds no such triple.  One C-level ``map`` of
        the predicate's PSO table over the subjects, with no Python call
        per subject, for a caller that binds a column of subjects, such as
        a BGP's star join.  Call it under ``lock`` and do not modify what
        it returns."""
        objects = self._predicates.get(p, _NO_TRIPLES).objects
        return list(map(objects.get, subjects, repeat(())))

    def count_ids(self, s: Optional[int] = None, p: Optional[int] = None,
                  o: Optional[int] = None) -> int:
        """How many id triples ``match_ids`` would return, without building
        them (the join-order estimate).  Must agree with ``match_ids``; a
        test checks the two on every combination of bound positions."""
        with self._lock:
            tables = self._predicates.values() if p is None \
                else [self._predicates.get(p, _NO_TRIPLES)]
            if s is not None:
                leaves = [table.objects.get(s, ()) for table in tables]
                return sum(map(len, leaves)) if o is None \
                    else sum(leaf.count(o) for leaf in leaves)
            if o is not None:
                return sum(len(table.subjects.get(o, ())) for table in tables)
            return sum(table.size for table in tables)

    def predicates(self) -> list[Term]:
        """Every distinct predicate."""
        with self._lock:
            return [self._terms[p] for p in self._predicates]

    def objects(self, predicate: Term) -> list[Term]:
        """Every distinct object of ``predicate``, read off its POS table."""
        pid = self.term_id(predicate)
        with self._lock:
            return [self._terms[o]
                    for o in self._predicates.get(pid, _NO_TRIPLES).subjects]

    def _has(self, s: int, p: int, o: int) -> bool:
        return self._predicates.get(p, _NO_TRIPLES).holds(s, o)

    def _add(self, s: int, p: int, o: int) -> None:
        """Add one id triple unless the graph already holds it.  Callers hold
        the lock."""
        table = self._predicates.get(p)
        if table is None:
            table = self._predicates[p] = _Predicate()
        objects = table.objects.get(s)
        if objects is None:
            table.objects[s] = self._single.get(o) or self._single.setdefault(o, (o,))
        elif table.holds(s, o):
            return
        elif type(objects) is tuple:
            table.objects[s] = [objects[0], o]
        else:
            objects.append(o)
        subjects = table.subjects.get(o)
        if subjects is None:
            table.subjects[o] = [s]
        else:
            subjects.append(s)
        table.size += 1

    def _fill(self, p: int, subjects: Sequence[int], objects: Sequence[int]) -> None:
        """Add the id triples ``(subjects[i], p, objects[i])``, each pair
        once, with ``_add``.  The tables of a predicate the graph does not
        hold yet, given distinct subjects, are built whole instead, with no
        Python loop per triple, to what ``_add`` would build.  Callers hold
        the lock."""
        if p not in self._predicates:
            pso = dict(zip(subjects, objects))
            if len(pso) == len(subjects):
                single = self._single
                leaf = {o: single.get(o) or single.setdefault(o, (o,))
                        for o in dict.fromkeys(objects)}
                pso.update(zip(subjects, map(leaf.__getitem__, objects)))
                pos = {o: [] for o in leaf}
                # pos[o].append(s) for each triple, as one C-level map
                deque(map(list.append, map(pos.__getitem__, objects), subjects), 0)
                table = self._predicates[p] = _Predicate()
                table.objects, table.subjects, table.size = pso, pos, len(subjects)
                return
        for s, o in dict.fromkeys(zip(subjects, objects)):
            self._add(s, p, o)

    def _id_triples(self) -> Iterator[IdTriple]:
        return ((s, p, o) for p, table in self._predicates.items()
                for s, objects in table.objects.items() for o in objects)

    def _decode(self, id_triples: Iterable[IdTriple]) -> list[Triple]:
        terms = self._terms
        return [Triple(terms[s], terms[p], terms[o]) for s, p, o in id_triples]


# --- N-Triples -------------------------------------------------------------

_ESCAPES = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
            '"': '"', "'": "'", "\\": "\\"}
# UCHAR is exactly four or eight hex digits; any other character after a
# backslash is an ECHAR or an error, and a lone backslash is an error
_ESCAPE_RE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.?))", re.DOTALL)


def _unescape(raw: str) -> str:
    if "\\" not in raw:
        return raw

    def resolve(match: re.Match) -> str:
        digits, e = match.group(1) or match.group(2), match.group(3)
        if digits is not None:
            try:
                return chr(int(digits, 16))
            except ValueError:      # beyond U+10FFFF
                raise RdfError("bad \\U escape") from None
        if e in _ESCAPES:
            return _ESCAPES[e]
        if not e:
            raise RdfError("dangling escape")
        raise RdfError(f"bad \\{e} escape" if e in "uU" else f"unknown escape \\{e}")
    return _ESCAPE_RE.sub(resolve, raw)


# exactly the characters N-Triples output escapes: the two that end or
# start an escape, and the control and line-separator characters, so output
# holds no line break but "\n" (str.splitlines also breaks at \x85,
# \u2028 and \u2029)
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

    def lexeme(self, pattern: re.Pattern, what: str) -> str:
        match = pattern.match(self.line, self.pos)
        if match is None:
            self.error(f"expected {what}")
        self.pos = match.end()
        return match.group()

    def iri(self) -> str:
        """The value of the IRI that starts at ``pos``, escapes resolved."""
        end = self.line.find(">", self.pos)
        if end < 0:
            self.error("unterminated IRI")
        value = _unescape(self.line[self.pos + 1:end])
        self.pos = end + 1
        return value

    def term(self) -> Term:
        self.skip_ws()
        if self.at_end():
            self.error("expected term")
        try:
            return self._term(self.line[self.pos])
        except NTriplesParseError:
            raise
        except RdfError as exc:     # a term's constructor refused it
            self.error(str(exc))

    def _term(self, c: str) -> Term:
        if c == "<":
            return IRI(self.iri())
        if c == "_":
            if not self.line.startswith("_:", self.pos):
                self.error("expected blank node label")
            self.pos += 2
            return BlankNode(self.lexeme(_LABEL_RE, "blank node label"))
        if c != '"':
            self.error(f"unexpected character {c!r}")
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
        lexical = _unescape(self.line[self.pos + 1:i])
        self.pos = i + 1
        if self.line.startswith("^^<", self.pos):
            self.pos += 2
            return Literal(lexical, self.iri())
        if self.line.startswith("@", self.pos):
            self.pos += 1
            return Literal(lexical, lang=self.lexeme(_LANGTAG_RE, "language tag"))
        return Literal(lexical)


def _scan_line(line: str, line_no: int) -> Optional[Triple]:
    """The general line parser: any escape, and every error message.  None
    for a blank or comment line.  Whitespace is space and tab, as in the
    N-Triples grammar; any other character is content."""
    stripped = line.strip(" \t")
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
    if not scanner.at_end() and not scanner.line.startswith("#", scanner.pos):
        raise NTriplesParseError(line_no, "trailing content after terminal \".\"")
    try:
        return Triple(s, p, o)
    except RdfError as exc:
        raise NTriplesParseError(line_no, str(exc)) from None


# The fast path: a statement with no escape, so every term is its text.  A
# subject is an IRI or blank node, a predicate an IRI.  The tokens are those
# of the term grammar, so the regex never splits a line where the scanner
# would not.
_NT_LITERAL = rf'"[^"\\]*"(?:\^\^{IRIREF}|@{LANGTAG})?'
_NT_LINE = re.compile(
    rf"[ \t]*({IRIREF}|{BLANK_NODE_LABEL})[ \t]*({IRIREF})"
    rf"[ \t]*({IRIREF}|{BLANK_NODE_LABEL}|{_NT_LITERAL})[ \t]*\.[ \t]*(?:#.*)?")


def _token_term(token: str) -> Term:
    """The term a fast-path token denotes; raises RdfError when the scanner
    would reject it."""
    return _LineScanner(token, 0).term()


# how many token texts the parser remembers the term ids of: a token
# repeats mostly on nearby lines (a subject) or on many lines (a predicate,
# a class), so the table is emptied when full, which bounds the load's
# memory whatever the number of distinct terms
_TOKEN_CACHE = 4096


def _parse_lines(stream) -> Graph:
    """The graph of the N-Triples text stream ``stream``, read with
    universal newlines: its lines end at "\n", "\r\n" or "\r", N-Triples'
    EOL, and at nothing else.  Fails fast on the first syntax error,
    reporting its line number.

    Lines the fast-path regex accepts go straight to term ids: a token text
    is turned into a term, checked and interned once while it stays in the
    token table.  Every other line, and every error, goes through
    ``_scan_line``."""
    graph = Graph()                 # no other thread sees it yet: no lock
    add = graph.terms.add
    ids: dict[str, int] = {}        # token text -> term id, at most _TOKEN_CACHE

    def token_id(token: str) -> int:
        if len(ids) >= _TOKEN_CACHE:
            ids.clear()
        tid = ids[token] = add(_token_term(token))
        return tid

    fast_line = _NT_LINE.fullmatch
    lines = map(str.removesuffix, stream, repeat("\n"))
    for line_no, line in enumerate(lines, start=1):
        match = fast_line(line)
        if match is not None:
            try:
                s, p, o = [ids[token] if token in ids else token_id(token)
                           for token in match.groups()]
            except RdfError:
                match = None
        if match is None:
            triple = _scan_line(line, line_no)
            if triple is None:
                continue
            s, p, o = map(add, triple)
        graph._add(s, p, o)
    return graph


def parse_ntriples(text: str) -> Graph:
    """Parse N-Triples text, one statement per line; a line ends at "\n",
    "\r\n" or "\r"."""
    return _parse_lines(io.StringIO(text, newline=None))


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


def insert_ntriples(text: str, graph: Graph, triples: Iterable[Triple]) -> str:
    """``serialize_ntriples(graph)``, given ``text``, what it returned before
    ``triples``, none of which ``graph`` held then, went in.  Each new line
    is put in its place by bisection over the offsets of ``text``, keyed by
    the line holding each offset, so ``text`` is never split into lines.
    The terms' texts come from the term table's memo."""
    with graph._lock:
        ids = [graph.term_id(term) for term in chain.from_iterable(triples)]
        texts = graph._terms.texts(format_term, ids)
    lines = sorted(" ".join(map(texts.__getitem__, ids[i:i + 3])) + " ."
                   for i in range(0, len(ids), 3))

    def line_at(offset: int) -> str:
        return text[text.rfind("\n", 0, offset) + 1:text.find("\n", offset)]

    pieces = []
    start = 0
    for line in lines:
        at = bisect_left(range(len(text)), line, start, key=line_at)
        pieces += (text[start:at], line, "\n")
        start = at
    pieces.append(text[start:])
    return "".join(pieces)


def load_graph(path) -> Graph:
    """The graph of the N-Triples file at ``path``, parsed a line at a time
    as ``parse_ntriples`` parses its text.  An ``RdfError`` names the file
    when it cannot be opened or read, or holds a byte that is not UTF-8,
    even after a syntax error."""
    try:
        with open(path, encoding="utf-8") as fh:
            try:
                return _parse_lines(fh)
            except NTriplesParseError:
                for _ in fh:                # an undecodable byte outranks it
                    pass
                raise
    except OSError as exc:
        error = exc
    except UnicodeDecodeError as exc:
        # the decoder counts a byte's position from the chunk it was given;
        # the file's bytes, decoded whole, give the byte's place in the file
        error = exc
        try:
            Path(path).read_bytes().decode("utf-8")
        except (OSError, UnicodeDecodeError) as whole:
            error = whole
    raise RdfError(f"{path}: cannot read: {error}") from None


def save_graph(graph: Graph, path) -> None:
    """Write ``graph`` to the file at ``path`` as ``serialize_ntriples``
    writes it.  An ``RdfError`` names the file when it cannot be written."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize_ntriples(graph))
    except OSError as exc:
        raise RdfError(f"{path}: cannot write: {exc}") from None
