"""How a configuration document is read: every YAML document goes through
``read_document``.  A problem raises ``ConfigError``, or the loader's subclass
of it, as ``<where>: <problem>``.  ``<where>`` is a key path such as
``sources[0].endpoint``, after the file path when ``load_document`` read it.
A parser calls ``Section.done`` on the document after its reads, and a key
that it never asked for, at any depth, is refused as unknown."""

from __future__ import annotations

from datetime import date
from pathlib import Path
from typing import Callable

import yaml

from .rdf import IRI, Literal, RdfError, Term
from .vocab import XSD_STRING


class ConfigError(ValueError):
    """A configuration document that cannot be used as written."""


_REQUIRED = object()


def expand_iri(value: str, prefixes: dict, where: str, error: type) -> str:
    """Expand a prefixed name against ``prefixes``; a full ``http://``,
    ``https://`` or ``urn:`` IRI passes through.  Anything else raises
    ``error`` with a message that starts at ``where``."""
    if value.startswith(("http://", "https://", "urn:")):
        return value
    label, sep, local = value.partition(":")
    if sep and label in prefixes:
        return prefixes[label] + local
    if sep:
        raise error(f"{where}: unknown prefix {label!r}")
    raise error(f"{where}: not an IRI or prefixed name: {value!r}")


def _expect(value, kind, name: str):
    if not isinstance(value, kind) or isinstance(value, bool) and kind is int:
        raise TypeError(f"expected {name}, got {type(value).__name__}")
    return value


def scalar(value) -> str:
    """A single value (string, number, boolean or timestamp) as text."""
    return str(_expect(value, (str, int, float, date), "a single value"))


def integer(value) -> int:
    return _expect(value, int, "an integer")


def tcp_port(value) -> int:
    if not 0 <= integer(value) <= 65535:
        raise ValueError(f"port {value} is outside 0-65535")
    return value


def one_of(*choices: str) -> Callable:
    """A converter that accepts only ``choices``."""
    def check(value) -> str:
        if scalar(value) not in choices:
            raise ValueError(f"must be one of {', '.join(choices)}, got {value!r}")
        return str(value)
    return check


def strings(value) -> list[str]:
    """A list of single values, each as text."""
    return [scalar(item) for item in _expect(value, list, "a list")]


class Section:
    """One mapping of a config document, with the key path that leads to it
    and the error type its problems raise.  A null value counts as absent.
    It remembers each key it was asked for, by ``get`` or ``in``, and each
    section it handed out, so that ``done`` can refuse the keys nobody read."""

    def __init__(self, data: dict, where: str, error: type):
        self.data, self.where, self.error = data, where, error
        self.asked: set = set()
        self.children: list[Section] = []

    def __contains__(self, key) -> bool:
        self.asked.add(key)
        return self.data.get(key) is not None

    def path(self, key) -> str:
        if isinstance(key, int):
            return f"{self.where}[{key}]"
        return f"{self.where}.{key}" if self.where else key

    def fail(self, key, problem: str) -> ConfigError:
        return self.error(f"{self.path(key)}: {problem}")

    def done(self) -> None:
        """Refuse any key of this section, or of a section read from it,
        that the parser never asked for."""
        unknown = set(self.data) - self.asked
        if unknown:
            raise self.error(f"{self.where or 'top level'}: unknown keys "
                             f"{sorted(unknown, key=str)}")
        for child in self.children:
            child.done()

    def get(self, key, kind: Callable = scalar, default=_REQUIRED):
        """The value at ``key`` converted by ``kind``; ``default`` when it is
        absent, which without a default is an error."""
        self.asked.add(key)
        value = self.data.get(key)
        if value is None:
            if default is _REQUIRED:
                raise self.fail(key, "missing")
            return default
        try:
            return kind(value)
        except (TypeError, ValueError) as exc:
            raise self.fail(key, str(exc)) from None

    def section(self, key, required: bool = True) -> Section:
        """The mapping at ``key``; an optional absent one reads as empty."""
        value = self.get(key, lambda v: _expect(v, dict, "a mapping"),
                         _REQUIRED if required else {})
        self.children.append(Section(value, self.path(key), self.error))
        return self.children[-1]

    def sections(self, key, default=_REQUIRED) -> list[Section]:
        """The mappings listed at ``key``."""
        items = self.get(key, lambda v: _expect(v, list, "a list"), default)
        listing = Section(dict(enumerate(items)), self.path(key), self.error)
        self.children.append(listing)
        return [listing.section(i) for i in listing.data]

    def iri(self, key, prefixes: dict, default=_REQUIRED):
        """The IRI or prefixed name at ``key``, expanded."""
        value = self.get(key, scalar, default)
        return value if value is default else self.expand(key, value, prefixes)

    def expand(self, key, value: str, prefixes: dict) -> str:
        """``value``, read at ``key``, as a full IRI that a term accepts."""
        full = expand_iri(value, prefixes, self.path(key), self.error)
        try:
            return IRI(full).value
        except RdfError as exc:
            raise self.fail(key, str(exc)) from None

    def term(self, key, value: str, prefixes: dict, datatype: str = XSD_STRING) -> Term:
        """``value``, read at ``key``, as an RDF term: a value with a ``:``
        that does not start with ``"`` is an IRI, expanded as ``expand``
        does; any other is a ``datatype`` literal of its text between the
        quotes, so a quoted value is a literal even when it holds a ``:``."""
        if ":" in value and not value.startswith('"'):
            return IRI(self.expand(key, value, prefixes))
        try:
            return Literal(value.strip('"'), datatype)
        except RdfError as exc:
            raise self.fail(key, str(exc)) from None

    def prefixes(self, base: dict) -> dict:
        """``base`` and the document's own ``prefixes`` mapping."""
        declared = self.section("prefixes", required=False)
        return {**base, **{label: declared.get(label) for label in declared.data}}


def read_document(document: str, error: type = ConfigError) -> Section:
    try:
        doc = yaml.safe_load(document)
    # ValueError: a value PyYAML cannot build, such as 2035-02-30
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
        raise error(f"not valid YAML: {exc}") from None
    if not isinstance(doc, dict):
        raise error(f"top level: expected a mapping, got {type(doc).__name__}")
    return Section(doc, "", error)


def read_text(path) -> str:
    """The UTF-8 text of the file at ``path``; a ``ConfigError`` that names
    the file when it is missing, unreadable or not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}: cannot read: {exc}") from None


def write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8 to the file at ``path``, making its missing
    parent directories; a ``ConfigError`` that names the file when it
    cannot be written."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot write: {exc}") from None


def load_document(path, parse: Callable, *args):
    """``parse(text, *args)`` over the file at ``path``, whose path then
    leads the message of any ``ConfigError``."""
    text = read_text(path)
    try:
        return parse(text, *args)
    except ConfigError as exc:
        raise type(exc)(f"{path}: {exc}") from None
