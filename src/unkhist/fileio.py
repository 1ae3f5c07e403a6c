"""File formats: histogram CSV in, canonical report JSON out.

Report JSON is canonical (keys sorted, floats printed with 17 significant
digits) so identical runs produce byte-identical files.  This module alone
knows the report layout and writes every report.
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
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Mapping, TextIO

from .accountant import CdpBudget
from .core import Histogram, IngestionError, ParameterError, validate_label
from .gumbel import MECHANISM_TAG as GUMBEL_TAG, RankedList
from .release import ReleaseReport
from .stream import MECHANISM_TAG as STREAM_TAG

__all__ = [
    "open_text",
    "parse_histogram_csv",
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
                line = data.count(b"\n", 0, exc.start) + 1
                raise IngestionError(f"{path}: line {line}: not valid UTF-8 text") from None
            raise


def parse_histogram_csv(path: str | Path) -> Histogram:
    """Read `label,count` rows into a Histogram: one pass collects both columns,
    and any failed check reads the file again row by row to name the line."""
    labels, raw_counts = [], []
    try:
        with open_text(path, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            for label, raw_count in filter(None, reader):  # skips blank lines
                labels.append(label)
                raw_counts.append(raw_count)
        digits = "".join(raw_counts)
        if header == _HEADER and digits.isascii() and digits.isdigit():
            return Histogram(labels, map(int, raw_counts))
    except (ValueError, csv.Error):  # IngestionError and UnicodeDecodeError included
        pass
    return _parse_histogram_rows(path)


def _parse_histogram_rows(path: str | Path) -> Histogram:
    """parse_histogram_csv row by row: the first offending row raises, naming its line."""
    counts: dict[str, int] = {}
    with open_text(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != _HEADER:
            raise IngestionError(f"{path}: line 1: expected header 'label,count', got {header!r}")
        for row in filter(None, reader):
            try:
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
            except IngestionError as exc:
                # The physical line the record ends on: a quoted label may span lines.
                raise IngestionError(f"{path}: line {reader.line_num}: {exc}") from None
            counts[label] = int(raw_count)
    return Histogram(counts)


def write_histogram_csv(h: Histogram, path: str | Path) -> None:
    h = Histogram.coerce(h)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows([_HEADER, *h.items()])


def _format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ParameterError(f"reports must not contain non-finite numbers, got {value!r}")
    text = format(value, ".17g")
    # Keep a float marker so the value round-trips as a float.
    if not any(ch in text for ch in ".e"):
        text += ".0"
    return text


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace, floats at 17 significant digits."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return repr(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, Mapping):
        for key in obj:
            if not isinstance(key, str):
                raise ParameterError(f"JSON object keys must be text, got {key!r}")
        parts = (f"{json.dumps(k, ensure_ascii=True)}:{canonical_json(obj[k])}" for k in sorted(obj))
        return "{" + ",".join(parts) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(item) for item in obj) + "]"
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


def _noisy_items(released: Mapping[str, float]) -> list[dict]:
    return [
        {"label": label, "noisy_count": float(noisy)} for label, noisy in sorted(released.items())
    ]


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
    return _report_header(GUMBEL_TAG, params, seed, threshold_public, budget) | {
        "items": [
            {"rank": position + 1, "label": label}
            for position, label in enumerate(ranked.items)
        ],
    }


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
    the same directory renamed over it: a failed write leaves any existing
    file unchanged and no temp file behind, and its OSError names path.  A
    path that names no regular file, such as /dev/stdout, is written in place."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return
    target = os.path.realpath(path)  # through a symlink, as open() writes
    tmp = f"{target}.{secrets.token_hex(8)}.tmp"
    try:
        if os.path.exists(target) and not os.access(target, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
        # 0o666 less the umask is the mode open() gives a new file; a replaced
        # file keeps its own.
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
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
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        first_line = text.splitlines()[0] if text.splitlines() else ""
        try:
            payload = json.loads(first_line)
        except json.JSONDecodeError as exc:
            raise IngestionError(f"{path}: not a report JSON file: {exc}") from None
    if not isinstance(payload, dict) or "budget" not in payload:
        raise IngestionError(f"{path}: report carries no budget record")
    return CdpBudget.from_json_dict(payload["budget"])
