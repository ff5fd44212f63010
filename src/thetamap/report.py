"""Uniform pass/fail check records shared by the verification modules, and
the one JSON writer of the program's output.

Failures are data, not exceptions: every verifier returns a report whose
checks name the property verified and, on failure, a witness.
"""

from __future__ import annotations

import json
from collections.abc import Iterator, Sequence
from itertools import chain, repeat
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import NamedTuple


class Check(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


class CheckReport:
    __slots__ = ("checks",)

    def __init__(self):
        self.checks: list[Check] = []

    def add(self, name: str, passed: bool, detail: str = "") -> Check:
        c = Check(name, passed, detail)
        self.checks.append(c)
        return c

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def records(self) -> list[dict]:
        """The checks as JSON-ready {"name", "pass", "detail"} records."""
        return [{"name": c.name, "pass": c.passed, "detail": c.detail}
                for c in self.checks]


HOLE = "\0"                    # a template's stand-in for an item's own value
_HOLE_TEXT = json.dumps(HOLE)  # as the encoder writes it: "\u0000"


class TemplatedRecords(Sequence):
    """A list of records that share a few shapes, written as a JSON list
    without a dict per item.

    ``templates()`` gives one record per shape, with HOLE where an item's
    own values go; ``fills()`` gives, for each item in list order, the index
    of its template and the JSON texts of those values, in the order of the
    holes in the template's text.
    """

    def templates(self):
        raise NotImplementedError

    def fills(self):
        raise NotImplementedError


PIECE = 1 << 16        # characters in a batch of templated items


def json_pieces(obj):
    """The text of ``json.dumps(obj, indent=2) + "\n"`` as a stream of
    pieces, built by the C encoder, with a ``TemplatedRecords`` or an
    iterator written as the list of its items.

    ``indent`` makes ``json.dumps`` fall back to the pure-Python encoder,
    which yields a chunk per token.  Here each container is one call of the
    C encoder, whose item separator is a comma, a newline and the indent
    of the container's items; the brackets are then moved onto lines of
    their own.  A list of non-empty dicts of scalars is one call for all
    its items, at their depth: their boundaries ``}<sep>{`` are then
    re-indented by one ``str.replace``.  A container holding other
    containers is encoded with each of them replaced by 0, and that 0 by
    the container's own text.  Raw newlines never occur inside a JSON
    string, so every splice is exact, and the keys and scalars are all
    written by the C encoder: one it cannot encode raises TypeError, as in
    ``json.dumps``.  ``obj`` must be a tree: no container in itself.

    A ``TemplatedRecords`` renders each template once, at its items' depth,
    and each item as that text with its fills in place of the holes: one
    rendered record per shape (for the order battery, per Frobenius orbit),
    one ``str.format`` per item, in batches of PIECE characters or more.
    An iterator's items are written one piece each, as they come.
    """
    yield from _json_pieces(obj, 0, [])
    yield "\n"


_CONTAINERS = (dict, list, tuple, TemplatedRecords, Iterator)


def _encoder(sep: str):
    """An encode function with item separator ``sep``, as JSONEncoder's.

    The C encoder is made here once, where ``JSONEncoder.encode`` would
    make it again at every call; without it, that is the fallback.
    """
    enc = json.JSONEncoder(separators=(sep, ": "))
    if c_make_encoder is None:
        return enc.encode
    c_encode = c_make_encoder({}, enc.default, encode_basestring_ascii, None,
                              ": ", sep, False, False, True)
    return lambda value: "".join(c_encode(value, 0))


def _records(items) -> bool:
    """All of ``items`` are non-empty dicts whose values are all scalars."""
    return (all(map(isinstance, items, repeat(dict))) and all(items)
            and not any(map(isinstance,
                            chain.from_iterable(map(dict.values, items)),
                            repeat(_CONTAINERS))))


def _json_pieces(value, depth: int, levels: list):
    """The text of ``value``, a container at ``depth`` or the whole
    document, as pieces.

    ``levels[d]`` caches, for depth d, the encoder, the separator of its
    items (a comma, a newline and their indent) and the newline and indent
    of its closing bracket.
    """
    while len(levels) <= depth + 1:
        close = "\n" + "  " * len(levels)
        sep = "," + close + "  "
        levels.append((_encoder(sep), sep, close))
    encode, sep, close = levels[depth]
    if isinstance(value, TemplatedRecords):
        yield from _templated_pieces(value, depth, levels)
        return
    if isinstance(value, Iterator):        # a list, an item a piece
        head = "[" + sep[1:]
        for item in value:
            yield head + "".join(_json_pieces(item, depth + 1, levels))
            head = sep
        yield close + "]" if head is sep else "[]"
        return
    if isinstance(value, dict):
        values = value.values()
    elif isinstance(value, (list, tuple)):
        values = value
    else:
        yield encode(value)
        return
    nested = list(map(isinstance, values, repeat(_CONTAINERS)))
    if not any(nested):
        s = encode(value)
        yield s[0] + sep[1:] + s[1:-1] + close + s[-1] if value else s
        return
    if not isinstance(value, dict) and _records(value):
        # "[{a,<isep>b},<isep>{c}]" from the items' encoder: each item's
        # braces go on lines of their own, indented like this list's items
        item_encode, item_sep, item_close = levels[depth + 1]
        s = item_encode(value)
        yield from (s[0], sep[1:], "{", item_sep[1:],
                    s[2:-2].replace("}" + item_sep + "{", item_close + "}"
                                    + sep + "{" + item_sep[1:]),
                    item_close, "}", close, s[-1])
        return
    if isinstance(value, dict):
        flat = {k: 0 if n else v for (k, v), n in zip(value.items(), nested)}
    else:
        flat = [0 if n else v for v, n in zip(value, nested)]
    s = encode(flat)
    head = s[0] + sep[1:]
    for item, v, n in zip(s[1:-1].split(sep), values, nested):
        if n:
            yield head + item[:-1]
            yield from _json_pieces(v, depth + 1, levels)
        else:
            yield head + item
        head = sep
    yield close + s[-1]


def _templated_pieces(value: TemplatedRecords, depth: int, levels: list):
    """The text of ``value`` at ``depth`` as the list branch of
    ``_json_pieces`` writes a list of containers: each item's text at
    depth+1, after the list's item separator, the first after "[" instead;
    the items in batches of PIECE characters or more, the last excepted.

    Each template is rendered once by ``_json_pieces`` and made a format
    string: its braces doubled, each HOLE's text made a field.  A template's
    strings other than HOLE hold no NUL, so no other text matches a hole.
    """
    if not len(value):
        yield "[]"
        return
    _, sep, close = levels[depth]
    forms = [(sep[1:] + "".join(_json_pieces(record, depth + 1, levels)))
             .replace("{", "{{").replace("}", "}}").replace(_HOLE_TEXT, "{}")
             .format for record in value.templates()]
    head, batch, size = "[", [], 0
    for i, texts in value.fills():
        text = forms[i](*texts)
        batch.append(text)
        size += len(text)
        if size >= PIECE:
            yield head + ",".join(batch)
            head, batch, size = ",", [], 0
    if batch:
        yield head + ",".join(batch)
    yield close + "]"
