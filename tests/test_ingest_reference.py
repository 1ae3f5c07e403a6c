"""Array-backed ingestion against the per-item code it replaced.

``DictHistogram`` is the earlier dict-backed ``Histogram`` and
``reference_parse`` the earlier per-row ``parse_histogram_csv``, with the
64-bit range check of each count moved into its row's checks.  The
array-backed ``Histogram`` must accept exactly the entries the dict-backed
one accepted and raise the identical error for the rest; the one-pass CSV
parser must return an equal histogram or raise the identical error, naming
the same physical line, whether it splits the file at once or runs
csv.reader over it, and whether numpy or int() converts its counts.
``truncate_topk`` must pick what a full sort by (-count, label) picks while
decoding only the labels it returns, so that ``topk`` and ``gumbel-topk``
never decode the whole label column, and ``release`` must decode only its
survivors' labels.
"""

import contextlib
import csv
import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unkhist.cli import main
from unkhist.core import (
    MAX_COUNT,
    Histogram,
    IngestionError,
    RandomSource,
    SensitivityBound,
    validate_label,
)
from unkhist.fileio import open_text, parse_histogram_csv
from unkhist.gumbel import release_gumbel_topk
from unkhist.release import release
from unkhist.topk import release_topk, truncate_topk


def _validate_count(label, count):
    if isinstance(count, bool) or not isinstance(count, int):
        raise IngestionError(f"count for {label!r} must be an integer, got {count!r}")
    if count < 0:
        raise IngestionError(f"count for {label!r} must be non-negative, got {count}")
    if count > MAX_COUNT:
        raise IngestionError(f"count for {label!r} exceeds 64-bit range")
    return count


class DictHistogram:
    def __init__(self, counts=()):
        pairs = counts.items() if isinstance(counts, dict) else counts
        acc = {}
        for label, count in pairs:
            validate_label(label)
            if label in acc:
                raise IngestionError(f"duplicate label {label!r}")
            acc[label] = _validate_count(label, count)
        self._counts = dict(sorted(acc.items()))

    def items(self):
        return list(self._counts.items())

    def __repr__(self):
        return f"Histogram({self._counts!r})"


_COUNT_RE = re.compile(r"[0-9]+")


def reference_parse(path):
    counts = {}
    with open_text(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["label", "count"]:
            raise IngestionError(
                f"{path}: line 1: expected header 'label,count', got {header!r}"
            )
        for row in reader:
            if not row:
                continue
            lineno = reader.line_num
            if len(row) != 2:
                raise IngestionError(
                    f"{path}: line {lineno}: expected 2 fields, got {len(row)}"
                )
            label, raw_count = row
            try:
                validate_label(label)
            except IngestionError as exc:
                raise IngestionError(f"{path}: line {lineno}: {exc}") from None
            if label in counts:
                raise IngestionError(f"{path}: line {lineno}: duplicate label {label!r}")
            if not _COUNT_RE.fullmatch(raw_count):
                raise IngestionError(
                    f"{path}: line {lineno}: count must be a non-negative integer, "
                    f"got {raw_count!r}"
                )
            if int(raw_count) > MAX_COUNT:
                raise IngestionError(
                    f"{path}: line {lineno}: count for {label!r} exceeds 64-bit range"
                )
            counts[label] = int(raw_count)
    return DictHistogram(counts)


def outcome(build, *args):
    """('ok', items) or (exception type, message)."""
    try:
        return "ok", build(*args).items()
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def release_exit_code(path):
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(
            ["release", "--noise", "laplace", "--epsilon", "1", "--delta", "0.05",
             "--l0", "1", "--linf", "1", "--in", str(path), "--seed", "1"]
        )  # fmt: skip
    return code, err.getvalue()


# ---- Histogram ---------------------------------------------------------------


class Label(str):
    pass


class Count(int):
    pass


entry_labels = st.sampled_from(["a", "b", "c", "é", "", "⊥", "⊥1", "a⊥", Label("b"), 7, None])
entry_counts = st.sampled_from(
    [0, 1, 2, 40, MAX_COUNT, MAX_COUNT + 1, 2**64, -1, -(2**63), -(2**63) - 1, True, False,
     1.5, 2.0, "3", None, Count(5)]
)  # fmt: skip


@settings(max_examples=300, deadline=None)
@given(entries=st.lists(st.tuples(entry_labels, entry_counts), max_size=8))
def test_histogram_accepts_and_rejects_what_the_dict_one_did(entries):
    expected = outcome(DictHistogram, entries)
    assert outcome(Histogram, entries) == expected
    assert outcome(Histogram, dict(entries)) == outcome(DictHistogram, dict(entries))
    labels, counts = [label for label, _ in entries], [count for _, count in entries]
    assert outcome(Histogram, labels, counts) == expected
    as_int64 = all(type(count) is int and -(2**63) <= count <= MAX_COUNT for count in counts)
    if as_int64:
        assert outcome(Histogram, labels, np.array(counts, dtype=np.int64)) == expected
    if expected[0] == "ok":
        assert repr(Histogram(entries)) == repr(DictHistogram(entries))
        if as_int64:
            assert Histogram(labels, np.array(counts, dtype=np.int64)) == Histogram(entries)


@pytest.mark.parametrize(
    "counts",
    [
        np.array([3, 1], dtype=np.uint64),
        np.array([3, 1], dtype=np.int32),
        np.array([3.0, 1.0]),
        np.array([[3], [1]], dtype=np.int64),
    ],
    ids=["uint64", "int32", "float", "int64-2d"],
)
def test_other_count_arrays_are_refused_entry_by_entry(counts):
    # Only a 1-d int64 array is taken as a column; any other array's entries
    # are checked one at a time, as the dict-backed Histogram checked them.
    expected = outcome(DictHistogram, list(zip(["b", "a"], counts)))
    assert expected[0] is IngestionError
    assert outcome(Histogram, ["b", "a"], counts) == expected


# ---- CSV parser --------------------------------------------------------------

CSV_LABELS = ["a", "b", "café", "a b", "", "⊥", "⊥1", "x⊥", '"q,1"', '"m\nl"', '"m\r\nl"',
              '""', '"a"']  # fmt: skip
# Up to 18 digits numpy converts the count column exactly; longer fields take int().
CSV_COUNTS = ["0", "3", "007", "-1", "+3", "1.5", "٣", "²", "", " 4", str(2**63),
              str(MAX_COUNT), "9" * 30, "9" * 18, "0" * 18 + "7", str(10**18),
              "0" * 30 + "1"]  # fmt: skip
csv_labels = st.sampled_from(CSV_LABELS)
csv_counts = st.sampled_from(CSV_COUNTS)
good_rows = st.tuples(
    st.sampled_from(["a", "b", "c", "d", "e", "café", '"m\nl"']),
    st.sampled_from(["0", "1", "3", "12"]),
).map(lambda row: ",".join(row).encode())
any_rows = st.tuples(csv_labels, csv_counts).map(lambda row: ",".join(row).encode())
odd_rows = st.sampled_from([b"", b"a", b"a,1,2", b",", b"a,1,", b"caf\xe9,3", b"b\xff,2"])
rows = st.one_of(good_rows, good_rows, any_rows, odd_rows)
headers = st.sampled_from([b"label,count", b"label,count", b"label,count", b"name,value", b""])


def assert_parses_like_reference(path):
    expected = outcome(reference_parse, path)
    assert expected[0] in ("ok", IngestionError)
    assert outcome(parse_histogram_csv, path) == expected
    if expected[0] is IngestionError:
        code, err = release_exit_code(path)
        assert code == 2
        assert expected[1] in err


@settings(max_examples=300, deadline=None)
@given(
    header=headers,
    body=st.lists(rows, max_size=10),
    newline=st.sampled_from([b"\n", b"\r\n"]),
)
def test_parser_matches_its_per_row_reference(header, body, newline, tmp_path_factory):
    path = tmp_path_factory.mktemp("csv") / "h.csv"
    path.write_bytes(newline.join([header, *body]) + newline)
    assert_parses_like_reference(path)


@pytest.mark.parametrize("count", CSV_COUNTS)
@pytest.mark.parametrize("label", CSV_LABELS)
def test_each_field_text_after_a_valid_row(tmp_path, label, count):
    path = tmp_path / "h.csv"
    path.write_text(f"label,count\nz,1\n{label},{count}\n", encoding="utf-8")
    assert_parses_like_reference(path)


@pytest.mark.parametrize(
    "late",
    [b"zz,\xff", b"zz,x", b"zz,1,2", b"a0,5"],
    ids=["bad-byte", "bad-count", "fields", "duplicate"],
)
@pytest.mark.parametrize("early", [b"", b"\xe2\x8a\xa5,3", b"b,-1"], ids=["none", "reserved", "neg"])
def test_first_offending_line_wins_across_read_chunks(tmp_path, early, late):
    # The late fault sits some 40 kB in, past the first chunks the text layer
    # decodes, so an early fault must be reported before the late one is read.
    rows = [b"label,count", b"a0,1", early] + [b"p%05d,2" % i for i in range(5000)] + [late]
    path = tmp_path / "h.csv"
    path.write_bytes(b"\n".join(rows) + b"\n")
    expected = outcome(reference_parse, path)
    assert expected[0] is IngestionError
    assert outcome(parse_histogram_csv, path) == expected


def test_overflowing_count_names_its_line(tmp_path):
    # Checked with the row's other checks, so the first offending line wins.
    path = tmp_path / "h.csv"
    path.write_bytes(b"label,count\na,%d\nb,1\n\xe2\x8a\xa5,2\n" % 2**63)
    assert outcome(parse_histogram_csv, path) == outcome(reference_parse, path)
    assert "line 2" in outcome(parse_histogram_csv, path)[1]
    path.write_bytes(b"label,count\nb,1\na,%d\n" % 2**63)
    assert outcome(parse_histogram_csv, path) == (
        IngestionError, f"{path}: line 3: count for 'a' exceeds 64-bit range"
    )
    path.write_bytes(b"label,count\nb,1\na,%d\n" % MAX_COUNT)
    assert outcome(parse_histogram_csv, path) == ("ok", [("a", MAX_COUNT), ("b", 1)])


# Characters the split scan must treat as csv.reader does: the two separators,
# CR alone and in CRLF, the quote, and characters that str.splitlines (but
# not csv.reader) takes for line breaks.  csv.reader refuses NUL before
# Python 3.11, and there the reference cannot judge it.
_NUL = ["\x00"] if list(csv.reader(["a\x00"])) == [["a\x00"]] else []
SCAN_TOKENS = ["a", "é", "1", ",", "\n", "\r", "\r\n", '"', *_NUL, "\x0b", "\x0c", "\x1c",
               "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]  # fmt: skip
scan_tokens = st.sampled_from(SCAN_TOKENS)
scan_fields = st.lists(scan_tokens, max_size=3).map("".join)
scan_rows = st.tuples(
    scan_fields | st.sampled_from(["a", "b", "é", "c1"]),
    scan_fields | st.sampled_from(["0", "1", "12"]),
    st.sampled_from(["\n", "\n", "\r\n", "\r", "\n\n", ""]),
).map(lambda row: f"{row[0]},{row[1]}{row[2]}")
scan_heads = st.sampled_from(
    ["label,count\n", "label,count\n", "label,count\r\n", "label,count", "label,count\r",
     "\ufefflabel,count\n", '"label",count\n', "label,count,\n", "count,label\n", "\n", ""]
)  # fmt: skip


@settings(max_examples=500, deadline=None)
@given(head=scan_heads, body=st.lists(scan_rows | scan_tokens, max_size=8).map("".join))
def test_split_scan_matches_the_reference(head, body, tmp_path_factory):
    path = tmp_path_factory.mktemp("csv") / "h.csv"
    path.write_bytes((head + body).encode("utf-8"))
    assert_parses_like_reference(path)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "label,count",
        "label,count\n",
        "label,count\r\n",
        "\ufefflabel,count\na,1\n",
        "label,count\n\na,1\n\n\nb,2\n\n",
        "label,count\r\n\r\na,1\r\n",
        "label,count\na,1\nb,2",
        "label,count\na,1\rb,2\r",
        "label,count\na,1\r\nb,2\n",
        'label,count\n"a,1",2\nb,3\n',
        "label,count\na\x0bb,1\n\x85,2\n\u2028\u2029,3\n\x1c\x1d\x1e,4\n",
        "label,count\na,1\x0c\n",
        "label,count\na,\nb,1\n",
        "label,count\n,1\n",
    ],
    ids=["empty", "header-only-no-newline", "header-only", "header-only-crlf", "bom",
         "blank-lines", "blank-lines-crlf", "no-final-newline", "lone-cr", "mixed-ends",
         "quoted", "splitlines-breaks", "form-feed-in-count", "empty-count", "empty-label"],
)  # fmt: skip
def test_split_scan_edge_files(tmp_path, text):
    path = tmp_path / "h.csv"
    path.write_bytes(text.encode("utf-8"))
    assert_parses_like_reference(path)


# Bytes aimed at the numpy scan: its words, its tie pass (the distinctness
# check) and its digit sums.  csv.reader refuses NUL before Python 3.11.
_NUL_LABELS = ["a\x00b", "a\x00"] if _NUL else []
HOSTILE_EDGE_FILES = {
    "bom-label": "label,count\n\ufeffa,1\na,2\n",
    "nul-label": "label,count\na\x00b,1\na,2\na\x00,3\n" if _NUL else "label,count\na,2\n",
    "partial-reserved": "label,count\n\u2280x,1\n\u22a4,2\nb,3\n",
    "reserved-after-partial": "label,count\n\u2280x,1\n\u22a5x,2\n",
    "tie-past-byte-8": "label,count\nabcdefghij,1\nabcdefghik,2\nabcdefgh,3\nabcdefgh\x7f,4\n",
    "duplicate-past-byte-8": "label,count\nabcdefghij,1\nabcdefghik,2\nabcdefghij,3\n",
    "late-duplicate": "label,count\nb,1\nz,1\nz,2\nb,3\n",
    "18-digits": f"label,count\na,{'9' * 18}\nb,{'0' * 17}1\n",
    "19-digits": f"label,count\na,{10**18}\nb,{'0' * 18}1\nc,{MAX_COUNT}\n",
    "19-digits-overflow": f"label,count\na,1\nb,{'9' * 19}\n",
    "empty": "",
    "header-only": "label,count\n",
}


@pytest.mark.parametrize("text", HOSTILE_EDGE_FILES.values(), ids=HOSTILE_EDGE_FILES)
def test_hostile_edge_files(tmp_path, text):
    path = tmp_path / "h.csv"
    path.write_bytes(text.encode("utf-8"))
    assert_parses_like_reference(path)


def test_late_duplicate_names_the_first_in_input_order(tmp_path):
    # The sort meets "b" first; the message names "z", the first repeat by line.
    path = tmp_path / "h.csv"
    path.write_bytes(HOSTILE_EDGE_FILES["late-duplicate"].encode())
    assert outcome(parse_histogram_csv, path) == (IngestionError, f"{path}: line 4: duplicate label 'z'")


hostile_rows = st.tuples(
    st.sampled_from(["a", "b", "\ufeffa", "\u2280", "\u22a5", "abcdefgh", "abcdefghij", "abcdefghik",
                     "\xe9\U0001f600", *_NUL_LABELS]),
    st.sampled_from(["0", "1", "9" * 18, "1" + "0" * 18, "0" * 18 + "5", str(MAX_COUNT), "9" * 19, ""]),
).map(lambda row: ",".join(row).encode("utf-8"))  # fmt: skip


@settings(max_examples=300, deadline=None)
@given(
    body=st.lists(hostile_rows | good_rows, max_size=12),
    newline=st.sampled_from([b"\n", b"\r\n"]),
)
def test_hostile_rows_match_the_reference(body, newline, tmp_path_factory):
    path = tmp_path_factory.mktemp("csv") / "h.csv"
    path.write_bytes(newline.join([b"label,count", *body]) + newline)
    assert_parses_like_reference(path)


def test_separator_check_is_exact_not_a_comma_count(tmp_path):
    # Two rows, two commas, three line ends: a count of either alone would pass.
    path = tmp_path / "h.csv"
    path.write_bytes(b"label,count\nx\n1,y,2\n")
    assert outcome(parse_histogram_csv, path) == (
        IngestionError, f"{path}: line 2: expected 2 fields, got 1"
    )
    assert_parses_like_reference(path)


# ---- top-kbar ----------------------------------------------------------------


def reference_truncate(h, kbar):
    ranked = sorted(h.items(), key=lambda item: (-item[1], item[0]))
    return tuple(ranked[:kbar]), ranked[kbar][1] if len(ranked) > kbar else 0


def assert_truncation_matches(h, kbar):
    trunc = truncate_topk(h, kbar)
    assert (trunc.top, trunc.next_count) == reference_truncate(h, kbar)
    assert all(type(count) is int for _, count in trunc.top)
    assert type(trunc.next_count) is int


top_counts = st.integers(0, 4) | st.integers(MAX_COUNT - 3, MAX_COUNT)


#: Labels that tie on LabelBuffer.order's 8-byte words: "prefix-8" is 8 bytes,
#: and NUL, non-ASCII and astral characters follow it or stand alone.
top_labels = st.tuples(
    st.sampled_from(["", "prefix-8", "prefix-8\x00", "\xe9\U0001f600"]),
    st.text(alphabet="abcxyz\x00\xe9\U0001f600", min_size=1, max_size=3),
).map("".join)


@settings(max_examples=300, deadline=None)
@given(counts=st.dictionaries(top_labels, top_counts), kbar=st.integers(1, 14))
def test_truncate_topk_matches_a_full_sort(counts, kbar):
    assert_truncation_matches(Histogram(counts), kbar)


@pytest.mark.parametrize(
    "counts",
    [
        {},
        {"a": 0, "b": 0, "c": 0, "d": 0},
        {"e": 5, "d": 3, "c": 3, "b": 3, "a": 1, "f": 3},
        {"a": MAX_COUNT, "b": MAX_COUNT, "c": MAX_COUNT - 1, "d": 0},
        {f"x{i:03d}": i % 7 for i in range(300)},
    ],
    ids=["empty", "all-zero", "ties-at-cut", "near-max", "many-ties"],
)
def test_truncate_topk_edge_cases(counts):
    h = Histogram(counts)
    for kbar in sorted({1, 2, 3, 4, max(len(h) - 1, 1), len(h) or 1, len(h) + 1, len(h) + 5}):
        assert_truncation_matches(h, kbar)


@settings(max_examples=200, deadline=None)
@given(
    entries=st.dictionaries(
        st.text(alphabet="abcxyz", min_size=1, max_size=3), top_counts, max_size=12
    ).map(lambda counts: list(counts.items())).flatmap(st.permutations),
    kbar=st.integers(1, 14),
)
def test_truncate_topk_does_not_depend_on_insertion_order(entries, kbar):
    h = Histogram(entries)
    assert truncate_topk(h, kbar) == truncate_topk(Histogram(sorted(entries)), kbar)
    assert h._sorted_labels is None  # only the top kbar labels were decoded
    assert_truncation_matches(h, kbar)


@pytest.mark.parametrize("mechanism", ["topk", "gumbel-topk"])
def test_topk_mechanisms_never_build_the_sorted_view(mechanism):
    labels = [f"x{i:05d}" for i in range(10**4)]
    counts = [1 + (i * 7919) % 60 for i in range(10**4)]

    def run(h):
        if mechanism == "topk":
            return release_topk(h, 50, SensitivityBound(1, 1), 1.0, 1e-6, RandomSource(3))
        return release_gumbel_topk(h, 5, 50, 1, 1.0, 1e-6, RandomSource(3))

    lazy = Histogram(labels[::-1], counts[::-1])
    built = Histogram(labels, counts)
    built.items()
    assert built._sorted is not None
    assert run(lazy) == run(built)
    assert lazy._sorted_labels is None


@pytest.mark.parametrize("noise", ["gaussian", "laplace"])
def test_release_never_gathers_the_sorted_labels(noise):
    labels = [f"x{i:05d}" for i in range(10**4)]
    counts = [1 + (i * 7919) % 60 for i in range(10**4)]

    def run(h):
        return release(h, SensitivityBound(1, 1), noise, 1.0, 1e-6, RandomSource(3))

    lazy = Histogram(labels[::-1], counts[::-1])
    built = Histogram(labels, counts)
    built.items()
    assert built._sorted_labels is not None
    report = run(lazy)
    assert report == run(built)
    assert 0 < len(report.released) < len(labels)
    assert lazy._sorted is not None and lazy._sorted_labels is None
