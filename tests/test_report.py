"""The JSON writer of the program's output against json.dumps(indent=2)."""

import json
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from thetamap import report
from thetamap.cli import _dickson_job, _orders_job, _structure_job
from thetamap.report import json_text


def dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


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


@pytest.fixture(scope="module")
def job_docs():
    return {
        "structure": [_structure_job(t) for t in range(1, 13)],
        "orders": [_orders_job((n, True)) for n in range(1, 6)],
        "dickson": [_dickson_job((n, 0)) for n in range(1, 7)],
    }


@pytest.mark.parametrize("kind", ["structure", "orders", "dickson"])
def test_every_job_doc_matches_json_dumps(job_docs, kind):
    docs = job_docs[kind]
    for doc in docs:
        assert json_text(doc) == dumps(doc)
    assert json_text(docs) == dumps(docs)
