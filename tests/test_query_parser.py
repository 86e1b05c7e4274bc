"""The query parser's contract at its edges: the exact text of each parse
error, and that no text makes it raise anything but ``QueryParseError``.

A node answers a query that does not parse with the error's text, and
catches ``QueryParseError`` only, so any other exception would leave a
request with no response and no provenance record.
"""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from energyde.sparql import QueryParseError, parse_query


@pytest.mark.parametrize("text, message", [
    ("WHERE { ?s ?p ?o }", "at offset 0: expected SELECT, got 'WHERE'"),
    ("SELECT ?s WHERE { ?s ?p ?o FILTER ?o > 1 }",
     "at offset 34: expected '(', got '?o'"),
    ("SELECT ?s WHERE { ?s ?p ?o FILTER(?o > 1 ?s }",
     "at offset 41: expected ')', got '?s'"),
    ("PREFIX", "at offset 6: expected prefix label, got 'end of input'"),
    ("SELECT ?s WHERE { ?s ?p ?o } LIMIT",
     "at offset 34: expected non-negative integer, got 'end of input'"),
    ('SELECT ?s WHERE { ?s ?p "1"^^nope:t }', "undeclared prefix: 'nope'"),
    ("SELECT ?s WHERE { ?s ?p ?o } LIMIT " + "9" * 5000,
     "at offset 35: LIMIT has more than 4300 digits"),
], ids=["select", "open-paren", "close-paren", "prefix-label-at-end",
        "limit-at-end", "datatype-prefix", "limit-digits"])
def test_parse_error_text(text, message):
    with pytest.raises(QueryParseError) as exc:
        parse_query(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("max_digits", [None, 0, 10000])
def test_limit_digits_bound_is_the_parsers(max_digits):
    """A LIMIT of 4,300 digits parses and one of 4,301 is a parse error,
    whatever the interpreter's bound on int conversion is set to (0 lifts
    it)."""
    text = "SELECT ?s WHERE { ?s ?p ?o } LIMIT "
    before = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if max_digits is not None:
        if before is None:
            pytest.skip("this Python has no bound on int conversion")
        sys.set_int_max_str_digits(max_digits)
    try:
        assert parse_query(text + "9" * 4300).limit == 10 ** 4300 - 1
        with pytest.raises(QueryParseError, match="more than 4300 digits"):
            parse_query(text + "9" * 4301)
    finally:
        if before is not None:
            sys.set_int_max_str_digits(before)


# every kind of token the tokenizer knows, a few spellings each, and
# characters it refuses
TOKENS = [
    "PREFIX", "prefix", "SELECT", "select", "DISTINCT", "WHERE", "FILTER",
    "LIMIT", "VALUES", "a", "b", "?x", "?y", "$x", "?o",
    "<http://example.org/p>", "<urn:x>", "<no-scheme>",
    "ex:", "ex:p", "ex:a.b", "nope:x",
    '"x"', '"a\\qb"', '"\\u0041"', '"\\uD800"', "^^", "@en", "@en-GB",
    "1", "0", "1.5", "-2", "+3", "_:b",
    "=", "!=", "<", ">", "<=", ">=",
    "{", "}", "(", ")", ".", ";", ",", "*", "!", "#c\n", ":",
]


_SOUP = st.lists(st.sampled_from(TOKENS), max_size=12)


@settings(max_examples=500, deadline=None)
@given(st.lists(_SOUP, min_size=3, max_size=3), st.sampled_from([" ", ""]),
       st.booleans(), st.booleans())
def test_any_token_sequence_parses_or_is_a_parse_error(soups, space, declared,
                                                       shaped):
    # a shaped text puts the soups where a query's projection, patterns and
    # modifiers go, so that more of them get past the first token
    head, body, tail = (space.join(soup) for soup in soups)
    text = (f"SELECT {head} WHERE {{ {body} }} {tail}" if shaped
            else space.join([head, body, tail]))
    if declared:
        text = "PREFIX ex: <http://example.org/> " + text
    try:
        parse_query(text)
    except QueryParseError:
        pass
