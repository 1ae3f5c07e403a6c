"""The report serialiser against the recursive code it replaced.

``reference_canonical_json`` is the earlier ``fileio.canonical_json``: one
``json.dumps`` per key and string, ``isinstance`` checks on every value.  The
exact-type dispatch, and the column writer that puts a report's item list in
one % call, must give the same text as the reference gives for the same items
written as a list of dicts, or raise the same ParameterError with the same
message.
"""

import enum
import json
import math
from collections import OrderedDict
from typing import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unkhist import fileio
from unkhist.accountant import CdpBudget
from unkhist.cli import main
from unkhist.core import BOTTOM, Histogram, ParameterError, RandomSource, SensitivityBound
from unkhist.fileio import (
    canonical_json,
    ranked_report_payload,
    release_report_payload,
    snapshot_payload,
)
from unkhist.gumbel import RankedList
from unkhist.release import release


def _reference_format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ParameterError(f"reports must not contain non-finite numbers, got {value!r}")
    text = format(value, ".17g")
    # Keep a float marker so the value round-trips as a float.
    if not any(ch in text for ch in ".e"):
        text += ".0"
    return text


def reference_canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace, floats at 17 significant digits."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return repr(obj)
    if isinstance(obj, float):
        return _reference_format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, Mapping):
        for key in obj:
            if not isinstance(key, str):
                raise ParameterError(f"JSON object keys must be text, got {key!r}")
        parts = (
            f"{json.dumps(k, ensure_ascii=True)}:{reference_canonical_json(obj[k])}"
            for k in sorted(obj)
        )
        return "{" + ",".join(parts) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(reference_canonical_json(item) for item in obj) + "]"
    raise ParameterError(f"cannot serialize {type(obj).__name__} to report JSON")


class Level(enum.IntEnum):
    """An int subclass whose repr is not its digits."""

    LOW = 1
    HIGH = 2


class Label(str):
    pass


class Count(int):
    pass


def outcome(encode, value):
    try:
        return encode(value)
    except ParameterError as exc:
        return ParameterError, str(exc)


def assert_encodes_like_reference(value):
    assert outcome(canonical_json, value) == outcome(reference_canonical_json, value)


# Printf and JSON metacharacters, non-ASCII, astral, and lone surrogates.
SPECIAL_TEXT = ["", "%", "%s", "%%", 'a"b', "\\", "é", "\U0001f600", "\ud800", "x\udfff", "⊥1"]
texts = st.text(st.characters(exclude_categories=()), max_size=5) | st.sampled_from(SPECIAL_TEXT)
floats = st.floats() | st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 1e16, 1e17])
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers() | st.integers(-(2**80), 2**80),
    floats,
    floats.map(np.float64),
    texts,
    texts.map(Label),
    st.integers().map(Count),
    st.sampled_from(Level),
)
keys = texts | texts.map(Label)
non_text_keys = st.integers(0, 3) | st.none() | st.just(1.5) | st.just(("a",))


def row_lists(children):
    """Lists of dicts with the same text keys.  Each column draws from one
    strategy: a single scalar type, so that the column goes through one
    encoder, or any value (mixed types, nested values)."""
    kinds = [floats, st.integers(), texts, st.booleans(), floats.map(np.float64),
             st.sampled_from(Level), st.integers() | floats, children]  # fmt: skip

    def rows(spec):
        row = st.fixed_dictionaries({key: kinds[kind] for key, kind in spec})
        return st.lists(row, min_size=1, max_size=6)

    # Kinds are drawn as indices: a strategy's repr would nest children's.
    columns = st.lists(
        st.tuples(keys, st.integers(0, len(kinds) - 1)), max_size=4, unique_by=lambda kv: kv[0]
    )
    drawn = st.tuples(columns.flatmap(rows), st.integers(0, 5), st.sampled_from(PERTURBATIONS))
    return drawn.map(perturb)


def _extra_key(row):
    return {**row, "extra%": 1}


def _drop_key(row):
    return dict(list(row.items())[1:])


def _non_text_key(row):
    return {**row, 7: "x"}


PERTURBATIONS = [None, OrderedDict, _extra_key, _drop_key, _non_text_key, tuple]


def perturb(drawn):
    """Breaks the shared-keys condition in one row, or makes the list a tuple."""
    rows, index, change = drawn
    if change is tuple:
        return tuple(rows)
    if change is not None:
        index %= len(rows)
        rows[index] = change(rows[index])
    return rows


json_values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
        st.dictionaries(keys, children, max_size=4).map(OrderedDict),
        st.dictionaries(keys | non_text_keys, children, max_size=3),
        row_lists(children),
    ),
    max_leaves=24,
)


@settings(max_examples=600, deadline=None)
@given(value=json_values)
def test_matches_the_recursive_reference(value):
    assert_encodes_like_reference(value)


@settings(max_examples=200, deadline=None)
@given(rows=row_lists(scalars))
def test_item_lists_match_the_recursive_reference(rows):
    assert_encodes_like_reference({"items": rows})


# Lists of dicts that share their keys, as hand-built payloads and `validate`
# checks hold them: each column draws from one strategy, one scalar type or mixed.
FLOAT_EDGES = [0.0, -0.0, 1.0, -3.0, 0.5, 1e16, 1e17, 2.0**53 + 2, 5e-324, -1e-310,
               2.2250738585072014e-308, 1.7976931348623157e308, math.nan, math.inf, -math.inf]  # fmt: skip
fractions = st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: not v.is_integer())
item_floats = st.floats() | st.sampled_from(FLOAT_EDGES)
item_ints = st.integers() | st.integers(-(2**70), 2**70) | st.sampled_from([2**63, -(2**63) - 1])
item_scalars = [fractions | st.sampled_from([0.5, 5e-324, -1e-310]), item_floats, item_ints,
                item_ints | st.booleans(), st.booleans(), texts, st.none()]  # fmt: skip
item_kinds = item_scalars + [
    st.lists(st.one_of(item_scalars), max_size=3),
    st.one_of(item_scalars) | st.lists(st.one_of(item_scalars), max_size=2),
]
item_keys = keys | st.sampled_from(["%", "%s", "%d", "%%", "%(x)s", "%.17g", "noisy_count"])


# 0-50 dicts with the same keys; the column of a key draws from one kind.
item_lists = st.lists(
    st.tuples(item_keys, st.integers(0, len(item_kinds) - 1)), max_size=4, unique_by=lambda kv: kv[0]
).flatmap(
    lambda spec: st.lists(
        st.fixed_dictionaries({key: item_kinds[kind] for key, kind in spec}), max_size=50
    )
)


@settings(max_examples=400, deadline=None)
@given(items=item_lists)
def test_shared_key_item_lists_match_the_recursive_reference(items):
    assert_encodes_like_reference(items)


def test_integral_floats_alone_get_a_point_zero():
    items = [{"n": 1.0}, {"n": 0.5}, {"n": -3.0}, {"n": 1e17}, {"n": 2.5e-8}]
    text = '[{"n":1.0},{"n":0.5},{"n":-3.0},{"n":1e+17},{"n":2.4999999999999999e-08}]'
    assert canonical_json(items) == reference_canonical_json(items) == text


@pytest.mark.parametrize(
    "value",
    [
        [{"%s": 1, "a%d": 2.0, 'q"%%': "x"}, {"%s": 3, "a%d": 4.5, 'q"%%': "y"}],
        [{"label": "a", "noisy_count": 1.0}, {"label": "b", "noisy_count": math.inf}],
        [{"label": "a", "noisy_count": math.nan}, {"label": "b", "noisy_count": 2.0}],
        # The first failure in row order wins, not the first in column order.
        [{"a": 1.0, "b": math.inf}, {"a": math.nan, "b": 1.0}],
        [{"a": {"x": [1.0, math.inf]}}, {"a": {1: 2}}],
        [{"rank": Level.LOW, "label": "a"}, {"rank": Level.HIGH, "label": "b"}],
        [{"rank": 1, "label": Label("a")}, {"rank": Count(2), "label": "b"}],
        [{"n": np.float64(2.0)}, {"n": np.float64(math.inf)}],
        [{"n": True}, {"n": 1}, {"n": 1.0}],
        [{}, {}],
        [{"a": 1}, {"b": 1}],
        [{"a": 1}, OrderedDict(a=2)],
        [{"a": 1, "b": 2}, {"a": 1}],
        (Level.LOW, Count(3), Label("%s"), np.float64(0.5), np.float64(1.0), -0.0, 2**70),
        Level.HIGH,
        {"a": Level.LOW, "b": {2: 3}},
        OrderedDict([("b", [1, (2.0, None)]), ("a", "\U0001f600\ud800")]),
        [math.nan],
        {"x": [{"y": -math.inf}]},
        object(),
    ],
)
def test_edge_cases_match_the_reference(value):
    assert_encodes_like_reference(value)


def noisy_dicts(released):
    """A released mapping's items as the list of dicts the column writer replaces."""
    return [{"label": label, "noisy_count": float(v)} for label, v in sorted(released.items())]


def test_release_payload_of_ten_thousand_items_is_byte_equal():
    labels = [f"w{i:05d}" for i in range(9_990)] + [f"café{i}" for i in range(5)]
    labels += [f"\U0001f600{i}" for i in range(5)]
    h = Histogram(labels, [10**6 + i for i in range(len(labels))])
    report = release(h, SensitivityBound(2, 1.0), "gaussian", 1.0, 1e-6, RandomSource(11))
    assert len(report.released) == 10_000
    payload = release_report_payload(report, params={"noise": "gaussian"}, seed=11)
    text = canonical_json(payload)
    assert text == reference_canonical_json(payload | {"items": noisy_dicts(report.released)})
    assert len(json.loads(text)["items"]) == 10_000


# Labels: printf and JSON metacharacters, control characters, non-BMP text,
# lone surrogates and long text.
LONG_TEXT = ["x" * 5000, "%s\"" * 700, "\U0001f600" * 1000]
item_labels = (
    texts
    | st.text(st.characters(categories=["Cc"]), max_size=4)
    | st.text(st.characters(min_codepoint=0x10000), max_size=3)
    | st.sampled_from(LONG_TEXT)
)
VALUE_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
               1.0, -3.0, 1e17, 0.5, 2.5e-8, math.nan, math.inf, -math.inf]  # fmt: skip
# Mostly fractional, so that most columns take the raw %.17g path; an integral
# or non-finite value sends the column value by value.
item_values = (
    st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: not v.is_integer())
    | st.floats()
    | st.sampled_from(VALUE_EDGES)
)
released_maps = st.dictionaries(item_labels, item_values | item_values.map(np.float64), max_size=40)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(released=released_maps)
def test_noisy_columns_match_the_dict_list(released):
    expected = {"round": 3, "items": noisy_dicts(released)}
    assert outcome(canonical_json, snapshot_payload(3, released)) == outcome(
        reference_canonical_json, expected
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(labels=st.lists(item_labels.filter(lambda text: text != BOTTOM), unique=True, max_size=40))
def test_ranked_columns_match_the_dict_list(labels):
    ranked, budget = RankedList(tuple(labels)), CdpBudget(1e-6, 0.5)
    payload = ranked_report_payload(ranked, budget, params={"k": 3}, seed=4, threshold_public=2.5)
    ranked = [{"rank": rank, "label": label} for rank, label in enumerate(labels, start=1)]
    assert canonical_json(payload) == reference_canonical_json(payload | {"items": ranked})


@pytest.mark.parametrize(
    "released",
    [
        {},
        {"a": -0.0, "b": 0.0},
        {"a": 5e-324, "b": 1.7976931348623157e308, "c": -1.7976931348623157e308},
        {"a": 0.5, "b": 2.0, "c": 2.5e-8, "d": 1e17},  # integral floats among fractional ones
        {"a": np.float64(0.1), "b": np.float64(3.0), "c": 0.25},
        # The first non-finite value in label order is named, whatever the
        # mapping's own order.
        {"b": math.inf, "a": 1.5, "c": math.nan},
        {"z": -math.inf, "y": math.nan},
        {"b": np.float64(math.nan), "a": np.float64(-math.inf)},
        {"b": 1e308, "a": 1e308},  # the sum overflows, each value is finite
    ],
)
def test_noisy_column_edge_values(released):
    expected = {"round": 1, "items": noisy_dicts(released)}
    assert outcome(canonical_json, snapshot_payload(1, released)) == outcome(
        reference_canonical_json, expected
    )


def test_gumbel_topk_of_thousands_is_written_in_a_few_calls(tmp_path, monkeypatch):
    # A ranked list of 5000 items goes out as one % call: canonical_json is
    # entered for the payload and its header values, not once per item.
    path = tmp_path / "h.csv"
    path.write_text("label,count\n" + "".join(f"w{i},{10**6 + i}\n" for i in range(6000)))
    calls = []
    encode = fileio.canonical_json
    monkeypatch.setattr(fileio, "canonical_json", lambda obj: calls.append(obj) or encode(obj))
    out = tmp_path / "r.json"
    argv = ["gumbel-topk", "--k", "5000", "--kbar", "5500", "--epsilon", "1", "--delta", "1e-6",
            "--l0", "1", "--in", str(path), "--out", str(out), "--seed", "2"]  # fmt: skip
    assert main(argv) == 0
    items = json.loads(out.read_text())["items"]
    assert [item["rank"] for item in items] == list(range(1, 5001))
    assert len(calls) < 50
