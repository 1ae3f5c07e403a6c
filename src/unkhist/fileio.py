"""File formats: histogram CSV in, canonical report JSON out.

Report JSON is canonical (keys sorted, floats printed with 17 significant
digits) so identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
import re
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Mapping, TextIO

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
_COUNT_RE = re.compile(r"[0-9]+")


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
    """Read `label,count` rows into a Histogram, reporting the offending line on error."""
    counts: dict[str, int] = {}
    with open_text(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != _HEADER:
            raise IngestionError(
                f"{path}: line 1: expected header 'label,count', got {header!r}"
            )
        for row in reader:
            if not row:
                continue
            # The physical line the record ends on: a quoted label may span lines.
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
            counts[label] = int(raw_count)
    return Histogram(counts)


def write_histogram_csv(h: Histogram, path: str | Path) -> None:
    h = Histogram.coerce(h)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(_HEADER)
        for label, count in h.items():
            writer.writerow([label, count])


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


def release_report_payload(report: ReleaseReport) -> dict:
    return {
        "mechanism": report.mechanism,
        "params": dict(report.params),
        "seed": report.seed,
        "threshold_public": float(report.threshold),
        "budget": report.budget.to_json_dict(),
        "items": [
            {"label": label, "noisy_count": float(noisy)} for label, noisy in report.items()
        ],
    }


def ranked_report_payload(
    ranked: RankedList,
    budget: CdpBudget,
    *,
    params: dict,
    seed: int,
    threshold_public: float,
) -> dict:
    return {
        "mechanism": GUMBEL_TAG,
        "params": dict(params),
        "seed": seed,
        "threshold_public": float(threshold_public),
        "budget": budget.to_json_dict(),
        "items": [
            {"rank": position + 1, "label": label}
            for position, label in enumerate(ranked.items)
        ],
    }


def stream_header_payload(
    *, params: dict, seed: int, threshold_public: float, budget: CdpBudget
) -> dict:
    return {
        "mechanism": STREAM_TAG,
        "params": dict(params),
        "seed": seed,
        "threshold_public": float(threshold_public),
        "budget": budget.to_json_dict(),
    }


def snapshot_payload(round: int, released: Mapping[str, float]) -> dict:
    return {
        "round": round,
        "items": [
            {"label": label, "noisy_count": float(noisy)}
            for label, noisy in sorted(released.items())
        ],
    }


def write_report_json(report: ReleaseReport | dict, path: str | Path | None) -> str:
    """Serialize a report (or prebuilt payload) canonically; write it if path given."""
    payload = release_report_payload(report) if isinstance(report, ReleaseReport) else report
    text = canonical_json(payload) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text


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
