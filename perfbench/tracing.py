"""Spans around the calls that cross unkhist's module boundaries.

``Tracer.installed()`` replaces each boundary name listed in BOUNDARIES, as
bound in the module or class that looks it up at call time, with a timer,
and puts every original back on exit.  A span records (name, start, end,
parent span, job id).  Hot boundaries, the ones called once per draw, trial
or stream round, are only aggregated as a call count plus summed time, and
so is everything beneath them.  Aggregates are kept per (name, parent name)
so a layer's self time, its span minus its children's spans, falls out.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
from contextlib import contextmanager

ROOT_SPAN = "cli.main"


def _rows(result, args):
    return {"fileio.rows_in": len(result), "fileio.bytes_in": os.path.getsize(args[0])}


def _text_bytes(result, args):
    return {"fileio.bytes_out": len(result)}


def _release_counts(result, args):
    return {"release.labels_in": len(args[0]), "release.released": len(result.released)}


# (module, attribute as looked up by the caller, span name, hot, counter)
BOUNDARIES = [
    ("unkhist.cli", "parse_histogram_csv", "fileio.parse", False, _rows),
    ("unkhist.cli", "write_report_json", "fileio.write", False, _text_bytes),
    ("unkhist.cli", "canonical_json", "fileio.write", True, _text_bytes),
    ("unkhist.cli", "ranked_report_payload", "fileio.write", False, None),
    ("unkhist.cli", "stream_header_payload", "fileio.write", False, None),
    ("unkhist.cli", "snapshot_payload", "fileio.write", True, None),
    ("unkhist.cli", "release", "release.release", False, _release_counts),
    ("unkhist.cli", "release_topk", "topk.release_topk", False, None),
    ("unkhist.cli", "release_gumbel_topk", "gumbel.release_gumbel_topk", False, None),
    ("unkhist.cli", "run_suite", "validation.run_suite", False, None),
    ("unkhist.core", "Histogram.__init__", "core.histogram", False, None),
    ("unkhist.core", "RandomSource.child", "core.rng_child", True, None),
    ("unkhist.release", "sample_laplace", "core.draw", True, None),
    ("unkhist.release", "sample_gaussian", "core.draw", True, None),
    ("unkhist.topk", "sample_gaussian", "core.draw", True, None),
    ("unkhist.gumbel", "sample_gumbel", "core.draw", True, None),
    ("unkhist.stream", "sample_gaussian", "core.draw", True, None),
    ("unkhist.topk", "truncate_topk", "topk.truncate", False, None),
    ("unkhist.gumbel", "truncate_topk", "topk.truncate", False, None),
    ("unkhist.validation", "truncate_topk", "topk.truncate", False, None),
    ("unkhist.stream", "Counter.observe", "stream.observe", True, None),
    ("unkhist.validation", "estimate_delta_event", "validation.estimate", False, None),
    ("unkhist.validation", "sample_gumbel_topk_outcomes", "validation.sample_tv", False, None),
    ("unkhist.validation", "release", "release.release", True, _release_counts),
    ("unkhist.validation", "release_topk", "topk.release_topk", True, None),
    ("unkhist.validation", "release_gumbel_topk", "gumbel.release_gumbel_topk", True, None),
]

#: Boundaries whose every duration is kept, for percentiles.
DURATIONS = ("stream.observe",)


def _owner(module: str, attribute: str):
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Span recorder for one process; install it around the traced jobs only."""

    def __init__(self):
        # A frame is [span name, nanoseconds covered by children, span id, stored].
        self._stack = [["-", 0, -1, True]]
        self.stats: dict[tuple[str, str], list[int]] = {}  # calls, total ns, self ns
        self.spans: list[tuple | None] = []
        self.counts: dict[str, int] = {}
        self.durations: dict[str, list[int]] = {name: [] for name in DURATIONS}
        self.job = -1

    def span(self, name: str, fn, hot: bool = False, counter=None):
        """Return fn wrapped so each call records a span under name."""
        stack = self._stack
        stats = self.stats
        spans = self.spans
        counts = self.counts
        durations = self.durations.get(name)
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1]
            span_id = -1
            if not hot and parent[3]:
                span_id = len(spans)
                spans.append(None)
            frame = [name, 0, span_id, span_id >= 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                parent[1] += elapsed
                key = (name, parent[0])
                entry = stats.get(key)
                if entry is None:
                    entry = stats[key] = [0, 0, 0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
                if span_id >= 0:
                    spans[span_id] = (name, start, end, parent[2], tracer.job)
                if durations is not None:
                    durations.append(elapsed)
            if counter is not None:
                for field, value in counter(result, args).items():
                    counts[field] = counts.get(field, 0) + value
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every boundary for the duration of the block, then restore it."""
        saved = []
        try:
            for module, attribute, name, hot, counter in BOUNDARIES:
                owner, attr = _owner(module, attribute)
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.span(name, original, hot, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self) -> dict:
        """Aggregates as plain JSON: per (name, parent) calls and nanoseconds."""
        quantiles = {}
        for name, values in self.durations.items():
            if len(values) >= 2:
                cuts = statistics.quantiles(values, n=100, method="inclusive")
                quantiles[name] = {"p50_ns": cuts[49], "p99_ns": cuts[98]}
        return {
            "stats": [
                {"name": name, "parent": parent, "calls": calls, "total_ns": total, "self_ns": own}
                for (name, parent), (calls, total, own) in sorted(self.stats.items())
            ],
            "counts": dict(self.counts),
            "quantiles": quantiles,
            "spans": len(self.spans),
        }
