"""File formats: histogram CSV and NDJSON stream events in, canonical report JSON out.

A histogram CSV's bytes become the Histogram's ``core.LabelBuffer`` in a few
numpy passes: its labels are checked and sorted as bytes, and decoded when returned.
A stream's NDJSON events are read lazily, one line at a time, and each is
checked against the counter's configuration as it is read.

Report JSON is canonical (keys sorted, floats printed with 17 significant
digits) so identical runs produce byte-identical files.  This module alone
knows the report layout and writes every report.  A report's item list is
kept as its columns, a label column and a rank or noisy-count column, and
written from them by one % call: a payload that holds one is for
canonical_json and write_report_json, not for json.dumps.
"""

from __future__ import annotations

import csv
import errno
import json
import math
import os
import secrets
import shutil
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .accountant import CdpBudget
from .core import MAX_COUNT, Histogram, IngestionError, LabelBuffer, ParameterError, validate_label
from .gumbel import MECHANISM_TAG as GUMBEL_TAG, RankedList
from .release import ReleaseReport
from .stream import MECHANISM_TAG as STREAM_TAG, CounterConfig, StreamEvent, check_event

__all__ = [
    "open_text",
    "parse_histogram_csv",
    "read_stream_events",
    "write_histogram_csv",
    "canonical_json",
    "release_report_payload",
    "ranked_report_payload",
    "stream_header_payload",
    "snapshot_payload",
    "write_report_json",
    "read_budget",
]

_HEADER = ["label", "count"]


@contextmanager
def open_text(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """open() a UTF-8 input file; a byte that does not decode raises
    IngestionError naming the path and the line it sits on."""
    with open(path, encoding="utf-8", newline=newline) as handle:
        try:
            yield handle
        except UnicodeDecodeError:
            data = Path(path).read_bytes()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                # Lines end at \n, \r or \r\n, as the readers split them.
                head = data[: exc.start].replace(b"\r\n", b"\n")
                line = head.count(b"\n") + head.count(b"\r") + 1
                raise IngestionError(f"{path}: line {line}: not valid UTF-8 text") from None
            raise


def parse_histogram_csv(path: str | Path, min_count: int = 0) -> Histogram:
    """Read `label,count` rows into a Histogram: one read, split in numpy, and
    any failed check reads the file again row by row to name the line.  A
    count below min_count (release's ingestion floor) is refused only once
    every other check has passed, naming the first such row's line."""
    try:
        with open(path, "rb") as handle:
            histogram = _split_csv(handle.read())
    except ValueError:  # IngestionError and UnicodeDecodeError included
        histogram = None
    if histogram is None:
        histogram = _parse_histogram_rows(path)
    if (histogram.counts < min_count).any():
        _parse_histogram_rows(path, min_count)  # raises at the first row below it
    return histogram


_HEADER_LINE = b"label,count\n"
#: 10**k, the weight of a digit with k digits after it in a count of at most 18.
_POWERS = 10 ** np.arange(18, dtype=np.int64)


def _split_csv(data: bytes) -> Histogram | None:
    """The Histogram of a CSV file's bytes, or None for a file to read row by
    row: one that only csv.reader splits right, or a count that is not a run
    of ASCII digits.  A failed Histogram check raises IngestionError.

    Outside quotes, CRLF and LF end a record alike, so CRLFs are folded to LF
    and the file made to end in one LF.  If it then holds no quote and no CR,
    starts with the `label,count` line and holds one comma on each line, its
    bytes are the labels' ``LabelBuffer``.  Counts of up to 18 digits are
    summed from their digits in numpy; a longer one goes through int()."""
    data = data.replace(b"\r\n", b"\n")
    if not data.endswith(b"\n") or data.endswith(b"\n\n"):  # csv.reader skips blank lines
        data = data.rstrip(b"\n") + b"\n"
    if b'"' in data or b"\r" in data or not data.startswith(_HEADER_LINE):
        return None
    data.decode("utf-8")  # valid UTF-8, so each label, between ASCII separators, is too
    text = np.frombuffer(data, np.uint8)
    lines, commas = (text == 10).nonzero()[0], (text == 44).nonzero()[0]
    # Comma i must come before LF i; a second comma on a line would sit in its count.
    if len(commas) != len(lines) or (commas > lines).any():
        return None
    starts, stops = commas[1:] + 1, lines[1:]  # the count fields, past the header
    sizes = stops - starts
    ends = np.cumsum(sizes)  # of each field's digits, in the digits of all fields
    at = np.arange(ends[-1] if ends.size else 0) + np.repeat(stops - ends, sizes)
    digits = text[at] - 48  # a byte below "0" wraps past 9
    if not sizes.all() or (digits > 9).any():
        return None
    if sizes.max(initial=0) < 19:
        counts = np.add.reduceat(digits * _POWERS[np.repeat(stops, sizes) - at - 1], ends - sizes)
        counts.flags.writeable = False  # for Histogram to keep without a copy
    else:
        counts = list(map(int, map(data.__getitem__, map(slice, starts.tolist(), stops.tolist()))))
    return Histogram(LabelBuffer(data, lines[:-1] + 1, commas[1:] - lines[:-1] - 1), counts)


def _parse_histogram_rows(path: str | Path, min_count: int = 0) -> Histogram:
    """parse_histogram_csv row by row: the first offending row raises, naming its line."""
    counts: dict[str, int] = {}
    header = None
    with open_text(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header != _HEADER:
                raise IngestionError(f"expected header 'label,count', got {header!r}")
            for row in filter(None, reader):
                if len(row) != 2:
                    raise IngestionError(f"expected 2 fields, got {len(row)}")
                label, raw_count = row
                validate_label(label)
                if label in counts:
                    raise IngestionError(f"duplicate label {label!r}")
                if not (raw_count.isascii() and raw_count.isdigit()):
                    raise IngestionError(
                        f"count must be a non-negative integer, got {raw_count!r}"
                    )
                # Past 19 digits a count exceeds 64-bit range, and int() could
                # meet Python's limit on the digits it converts.
                digits = raw_count.lstrip("0")
                count = int(digits or "0") if len(digits) <= 19 else MAX_COUNT + 1
                if count > MAX_COUNT:
                    raise IngestionError(f"count for {label!r} exceeds 64-bit range")
                if count < min_count:
                    raise IngestionError(
                        f"count for {label!r} is {count}, below the ingestion floor {min_count}"
                    )
                counts[label] = count
        except (IngestionError, csv.Error) as exc:
            # A fault in the header is on line 1; any other is on the physical
            # line its record ends on, as a quoted label may span lines.
            line = reader.line_num if header == _HEADER else 1
            raise IngestionError(f"{path}: line {line}: {exc}") from None
    return Histogram(counts)


def read_stream_events(config: CounterConfig, path: str | Path) -> Iterator[StreamEvent]:
    """The events of an NDJSON file, read lazily, each checked as it is read:
    the first line that is not an event the counter takes (out of order, past
    the horizon, over l0) is named, before any later line is parsed."""
    taken = 0
    with open_text(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except (ValueError, RecursionError) as exc:  # also too many digits, or too deep
                raise IngestionError(f"{path}: line {lineno}: invalid JSON: {exc}") from None
            if not isinstance(payload, dict) or set(payload) != {"round", "items"}:
                raise IngestionError(
                    f"{path}: line {lineno}: events must be objects with round and items"
                )
            if not isinstance(payload["items"], list):
                raise IngestionError(f"{path}: line {lineno}: items must be a list")
            taken += 1
            try:
                event = check_event(config, taken, StreamEvent(payload["round"], payload["items"]))
            except ParameterError as exc:
                raise IngestionError(f"{path}: line {lineno}: {exc}") from None
            yield event


def write_histogram_csv(h: Histogram, path: str | Path) -> None:
    h = Histogram.coerce(h)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows([_HEADER, *h.items()])


_encode_str = json.encoder.encode_basestring_ascii  # the bytes of json.dumps(s)


def _encode_float(value: float) -> str:
    text = format(value, ".17g")
    if "." in text or "e" in text:
        return text
    # Neither marker: an integral value, or inf or nan.
    if not math.isfinite(value):
        raise ParameterError(f"reports must not contain non-finite numbers, got {value!r}")
    return text + ".0"  # a float marker, so the value round-trips as a float


def _encode_dict(obj: Mapping) -> str:
    for key in obj:
        if not isinstance(key, str):
            raise ParameterError(f"JSON object keys must be text, got {key!r}")
    return "{" + ",".join([f"{_encode_str(k)}:{canonical_json(obj[k])}" for k in sorted(obj)]) + "}"


def _encode_list(items: list | tuple) -> str:
    return "[" + ",".join(map(canonical_json, items)) + "]"


@dataclass(slots=True)
class _Items:
    """A report's item list as its columns: item i is {"label": labels[i],
    key: values[i]}, with key sorting after "label".  values is a range for
    int ranks, or a list of floats."""

    labels: Sequence[str]
    key: str
    values: range | list[float]


def _encode_items(items: _Items) -> str:
    """The item list, by one % call over a repeated row template: labels
    through _encode_str, ranks raw under %d, floats raw under %.17g when all
    are finite and none is integral (which needs a ".0"), and through
    _encode_float otherwise, which raises at the first non-finite value."""
    values = items.values
    if type(values) is range:
        form = "%d"
    elif math.isfinite(sum(values)) and not any(map(float.is_integer, values)):
        form = "%.17g"  # a finite sum: so is each value; overflow only costs speed
    else:
        form, values = "%s", list(map(_encode_float, values))
    row = f'{{"label":%s,"{items.key}":{form}}}'
    # From a list: tuple(iterator) resizes, and resized tuples pile up on free lists.
    cells = tuple([*chain.from_iterable(zip(map(_encode_str, items.labels), values))])
    return "[" + ",".join([row] * len(items.labels)) % cells + "]"


_ENCODERS = {
    type(None): lambda obj: "null",
    bool: lambda obj: "true" if obj else "false",
    int: int.__repr__,
    float: _encode_float,
    str: _encode_str,
    dict: _encode_dict,
    list: _encode_list,
    tuple: _encode_list,
    _Items: _encode_items,
}


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace, floats at 17 significant digits.

    The encoder is looked up by exact type.  Subclasses (np.float64, say) and
    other mappings take the isinstance chain, which gives the same text."""
    encoder = _ENCODERS.get(type(obj))
    if encoder is not None:
        return encoder(obj)
    if isinstance(obj, int):  # None and bool allow no subclasses
        return repr(obj)
    if isinstance(obj, float):
        return _encode_float(obj)
    if isinstance(obj, str):
        return _encode_str(obj)
    if isinstance(obj, Mapping):
        return _encode_dict(obj)
    if isinstance(obj, (list, tuple)):
        return _encode_list(obj)
    raise ParameterError(f"cannot serialize {type(obj).__name__} to report JSON")


def _report_header(
    mechanism: str, params: dict, seed: int, threshold_public: float, budget: CdpBudget
) -> dict:
    """The five keys that open every release report: the mechanism tag, the
    caller's parameters and seed, the public threshold and the budget spent."""
    return {
        "mechanism": mechanism,
        "params": dict(params),
        "seed": seed,
        "threshold_public": float(threshold_public),
        "budget": budget.to_json_dict(),
    }


def _noisy_items(released: Mapping[str, float]) -> _Items:
    """The released labels in sorted order, each with its value as a float."""
    labels = sorted(released)
    return _Items(labels, "noisy_count", list(map(float, map(released.__getitem__, labels))))


def release_report_payload(report: ReleaseReport, *, params: dict, seed: int) -> dict:
    header = _report_header(report.mechanism, params, seed, report.threshold, report.budget)
    return header | {"items": _noisy_items(report.released)}


def ranked_report_payload(
    ranked: RankedList,
    budget: CdpBudget,
    *,
    params: dict,
    seed: int,
    threshold_public: float,
) -> dict:
    items = _Items(ranked.items, "rank", range(1, len(ranked.items) + 1))
    return _report_header(GUMBEL_TAG, params, seed, threshold_public, budget) | {"items": items}


def stream_header_payload(
    *, params: dict, seed: int, threshold_public: float, budget: CdpBudget
) -> dict:
    return _report_header(STREAM_TAG, params, seed, threshold_public, budget)


def snapshot_payload(round: int, released: Mapping[str, float]) -> dict:
    return {"round": round, "items": _noisy_items(released)}


def write_report_json(
    payload: dict, path: str | Path | None, rows: Iterable[dict] = ()
) -> str:
    """Serialize a payload canonically, one line, then one line per row (NDJSON).

    The whole text is built before anything is written, so an error leaves no
    partial output.  It replaces the file at path, or goes to standard output
    when path is None, and is returned.
    """
    text = "".join(canonical_json(obj) + "\n" for obj in chain([payload], rows))
    if path is None:
        sys.stdout.write(text)
    else:
        _replace_file(path, text)
    return text


def _replace_file(path: str | Path, text: str) -> None:
    """Write text to path as open(path, "w") would, but through a temp file in
    the same directory, synced to disk and renamed over it: a failed write
    leaves any existing file unchanged and no temp file behind, and its
    OSError names path.  A path that names no regular file, such as
    /dev/stdout, is written in place."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return
    target = os.path.realpath(path)  # through a symlink, as open() writes
    # A name of fixed length: one built from the target's could pass NAME_MAX.
    tmp = os.path.join(os.path.dirname(target), f".unkhist-{secrets.token_hex(8)}.tmp")
    try:
        if os.path.exists(target) and not os.access(target, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
        # 0o666 less the umask is the mode open() gives a new file; a replaced
        # file keeps its own.
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
                handle.flush()
                os.fsync(handle.fileno())
            if os.path.exists(target):
                shutil.copymode(target, tmp)
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None


def read_budget(path: str | Path) -> CdpBudget:
    """Pull the spent budget out of a report file (single JSON or NDJSON header)."""
    with open_text(path) as handle:
        text = handle.read()
    # ValueError: not JSON, or a number of too many digits; RecursionError: too deep.
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError):
        first_line = text.splitlines()[0] if text.splitlines() else ""
        try:
            payload = json.loads(first_line)
        except (ValueError, RecursionError) as exc:
            raise IngestionError(f"{path}: not a report JSON file: {exc}") from None
    if not isinstance(payload, dict) or "budget" not in payload:
        raise IngestionError(f"{path}: report carries no budget record")
    return CdpBudget.from_json_dict(payload["budget"])
