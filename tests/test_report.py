"""The JSON writer of the program's output against json.dumps(indent=2)."""

import json
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from thetamap import report
from thetamap.cli import _dickson_job, _orders_job, _structure_job
from thetamap.report import json_pieces


def dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def json_text(obj) -> str:
    return "".join(json_pieces(obj))


# quotes, backslashes, control characters, DEL and non-ASCII (BMP and
# astral, which ensure_ascii writes as surrogate pairs) in keys and values
ESCAPES = '"\\/\b\f\n\r\t\x00\x01\x1f\x7f aZ\xe9 €\U0001f600'
texts = st.text(max_size=6) | st.text(alphabet=ESCAPES, max_size=6)
finite = st.floats(allow_nan=False, allow_infinity=False)
scalars = st.none() | st.booleans() | st.integers() | finite | texts
keys = texts | st.integers() | st.booleans() | st.none() | finite


def containers(children):
    return (st.lists(children, max_size=4)
            | st.lists(children, max_size=3).map(tuple)
            | st.dictionaries(keys, children, max_size=4))


@settings(max_examples=500, deadline=None)
@given(st.recursive(scalars, containers, max_leaves=40))
def test_writer_matches_json_dumps(obj):
    assert json_text(obj) == dumps(obj)


# lists of records: non-empty dicts of scalars, one C-encoder call for the
# whole list, whose strings hold the brackets, commas and newlines the
# splice re-indents; and the near misses that must take the other paths:
# an empty dict, a nested value, a tuple item, a scalar item
SPLICE = '{},:[] "\\\n'
splice_texts = st.text(alphabet=SPLICE + "a\xe9", max_size=8)
flat_values = scalars | splice_texts
flat_dicts = st.dictionaries(keys | splice_texts, flat_values, min_size=1,
                             max_size=4)
near_misses = (st.just({})
               | st.dictionaries(keys, st.lists(flat_values, max_size=2)
                                 | flat_dicts, min_size=1, max_size=3)
               | st.tuples(flat_values, flat_values)
               | flat_values)
records = st.lists(flat_dicts, min_size=1, max_size=5)
almost_records = st.tuples(records, near_misses, st.integers(0, 5)).map(
    lambda t: t[0][:t[2]] + [t[1]] + t[0][t[2]:])
record_docs = st.tuples(records | almost_records
                        | records.map(tuple), st.integers(0, 3)).map(
    lambda t: nest(t[0], t[1]))


@settings(max_examples=500, deadline=None)
@given(record_docs)
def test_lists_of_records_match_json_dumps(obj):
    assert json_text(obj) == dumps(obj)


@settings(max_examples=200, deadline=None)
@given(st.recursive(scalars, containers, max_leaves=20) | record_docs)
def test_writer_without_the_c_encoder_matches_json_dumps(obj):
    with mock.patch.object(report, "c_make_encoder", None):
        assert json_text(obj) == dumps(obj)


def nest(obj, depth: int):
    """``obj`` at ``depth``, under alternating one-item dicts and lists."""
    for k in range(depth):
        obj = {"k": obj} if k % 2 else [obj]
    return obj


LEAVES = [[], {}, (), [1, "a\n", None, True, 2.5], {"a": 1, "é": "x"},
          [[], {}], {"e": [], "f": {}, "g": 0}]


@pytest.mark.parametrize("depth", range(5))
@pytest.mark.parametrize("leaf", LEAVES, ids=range(len(LEAVES)))
def test_empty_and_scalar_containers_at_each_depth(leaf, depth):
    obj = nest(leaf, depth)
    assert json_text(obj) == dumps(obj)
    pair = [obj, nest(leaf, depth + 1)]
    assert json_text(pair) == dumps(pair)


@pytest.mark.parametrize("obj", [
    {(1, 2): 0},
    {"a": [1], (1, 2): [2]},
    [{"a": {frozenset(): 1}}],
], ids=["flat", "mixed", "deep"])
def test_a_key_it_cannot_encode_fails_like_json_dumps(obj):
    with pytest.raises(TypeError) as want:
        dumps(obj)
    with pytest.raises(TypeError, match=re.escape(str(want.value))):
        json_text(obj)


# two shapes of record with holes at several depths, strings that hold
# braces, a format field and escapes, and empty containers
SHAPES = [
    {"i": report.HOLE, "s": "{}{0}\\\"\xe9", "rows": [
        {"a": report.HOLE, "b": [1, {}]}, {"c": None, "d": report.HOLE}]},
    {"i": report.HOLE, "t": [], "u": {"v": report.HOLE}},
]


def filled(obj, values):
    """``obj`` with each HOLE replaced by the next of ``values``, in the
    order of the text."""
    if isinstance(obj, dict):
        return {k: filled(v, values) for k, v in obj.items()}
    if isinstance(obj, list):
        return [filled(v, values) for v in obj]
    return next(values) if obj == report.HOLE else obj


class Shaped(report.TemplatedRecords):
    """Items 0..n-1, item i of shape i % 2 with holes i, "x<i>", -i, ..."""

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n

    def _values(self, i):
        return [i, f"x{i:x}", -i, f"{{{i}}}"]

    def __getitem__(self, i):
        i = range(self.n)[i]
        return filled(SHAPES[i % 2], iter(self._values(i)))

    def templates(self):
        return SHAPES

    def fills(self):
        for i in range(self.n):
            yield i % 2, [json.dumps(v) for v in self._values(i)]


@pytest.mark.parametrize("c_encoder", [True, False], ids=["c", "python"])
@pytest.mark.parametrize("depth", range(4))
@pytest.mark.parametrize("n", [0, 1, 5])
def test_templated_records_are_written_as_their_items(n, depth, c_encoder):
    obj = nest(Shaped(n), depth)
    want = dumps(nest(list(Shaped(n)), depth))
    with mock.patch.object(report, "c_make_encoder",
                           report.c_make_encoder if c_encoder else None):
        assert json_text(obj) == want
        assert json_text([obj, {"k": obj}]) == dumps(
            [json.loads(want), {"k": json.loads(want)}])


@pytest.mark.parametrize("piece", [1, 300, 1 << 16])
@pytest.mark.parametrize("n", [1, 2, 7, 40])
def test_templated_records_are_yielded_in_batches(n, piece):
    # PIECE 1 yields each item alone and leaves no item for the last batch
    with mock.patch.object(report, "PIECE", piece):
        pieces = list(json_pieces(Shaped(n)))
    assert "".join(pieces) == dumps(list(Shaped(n)))
    *batches, close, newline = pieces
    assert (close, newline) == ("\n]", "\n")
    assert all(len(b) >= piece for b in batches[:-1])
    longest = max(len(dumps([item])) for item in Shaped(n))
    assert all(len(b) < piece + longest for b in batches)
    if piece == 1:
        assert len(batches) == n


def streamed(obj):
    """``obj`` with every list, at every depth, made an iterator."""
    if isinstance(obj, dict):
        return {k: streamed(v) for k, v in obj.items()}
    if isinstance(obj, tuple):
        return tuple(map(streamed, obj))
    if isinstance(obj, list):
        return iter(list(map(streamed, obj)))
    return obj


@settings(max_examples=300, deadline=None)
@given(st.recursive(scalars, containers, max_leaves=30) | record_docs)
def test_iterators_are_written_as_lists(obj):
    pieces = list(json_pieces(streamed(obj)))
    assert "".join(pieces) == dumps(obj)
    if isinstance(obj, list):       # a piece per item, then "]" and "\n"
        assert len(pieces) == len(obj) + 2


@pytest.fixture(scope="module")
def job_docs():
    return {
        "structure": [_structure_job(t) for t in range(1, 13)],
        "orders": [_orders_job((n, True)) for n in range(1, 6)],
        "dickson": [_dickson_job((n, 0)) for n in range(1, 7)],
    }


def listed(doc: dict) -> dict:
    """``doc`` with its per-seed records, if any, as a list of dicts, which
    ``json.dumps`` can encode."""
    if "profiles" not in doc:
        return doc
    return {**doc, "profiles": list(doc["profiles"])}


@pytest.mark.parametrize("kind", ["structure", "orders", "dickson"])
def test_every_job_doc_matches_json_dumps(job_docs, kind):
    docs = job_docs[kind]
    for doc in docs:
        assert json_text(doc) == dumps(listed(doc))
    assert json_text(docs) == dumps([listed(doc) for doc in docs])
