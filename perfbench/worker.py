"""Closed-loop job runner: one process, one client, no threads.

Usage: python3 worker.py PLAN.json RESULT.json

Runs the plan's job cycle through ``unkhist.cli.main`` in this process; the
next job starts when the previous one returns.  Whole cycles repeat for
about the plan's seconds, and at least twice, so every job runs twice.
With ``trace`` set, each job instead runs twice back to back, once untraced
and once with every module boundary timed, and the spans go to the plan's
spans file.  Each job's output is hashed after its timer stops; the
first output of each key is kept as ``<out>.first`` for the checker.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time
import traceback
from pathlib import Path

from probe import probes_after
from tracing import ROOT_SPAN, Tracer


def _run_job(main, job: dict, kept: set) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(job["argv"])
    except Exception:  # a crashing job is a failed operation, not a failed run
        code = None
        error = traceback.format_exc(limit=5)
    seconds = time.perf_counter() - start
    out = Path(job["out"])
    digest = None
    if out.exists():
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        if job["key"] in kept:
            out.unlink()
        else:
            kept.add(job["key"])
            os.replace(out, out.with_name(out.name + ".first"))
    return {
        "key": job["key"],
        "seconds": seconds,
        "code": code,
        "error": error,
        "stderr": stderr.getvalue()[-2000:],
        "sha256": digest,
    }


def _cycles(seconds: float, min_cycles: int):
    """Yield cycle numbers until min_cycles are done and another cycle, as long
    as the last one, would overshoot the deadline by more than stopping now
    falls short of it."""
    start = time.perf_counter()
    cycles = 0
    last = 0.0
    while cycles < min_cycles or time.perf_counter() - start + last / 2 < seconds:
        began = time.perf_counter()
        yield cycles
        last = time.perf_counter() - began
        cycles += 1


def _run_pass(main, jobs: list[dict], kept: set, seconds: float) -> dict:
    """Run whole cycles, at least two, for about the given seconds, probing
    the machine's speed after each job."""
    results, probes = [], []
    for _ in _cycles(seconds, 2):
        for job in jobs:
            results.append(_run_job(main, job, kept))
            probes += probes_after(results[-1]["seconds"])
    return {"cycles": len(results) // len(jobs), "jobs": results, "probes": probes}


def _run_paired(main, jobs: list[dict], kept: set, seconds: float, tracer: Tracer) -> list[dict]:
    """Run each job untraced and traced back to back, whole cycles for about seconds.

    Which of the pair goes first alternates from job to job, so neither side
    always finds the caches the other left warm.
    """
    untraced, traced = [], []
    traced_main = tracer.span(ROOT_SPAN, main)
    for cycle in _cycles(seconds, 1):
        for index, job in enumerate(jobs):
            for trace in ((False, True) if (cycle + index) % 2 == 0 else (True, False)):
                if trace:
                    tracer.job = len(traced)
                    with tracer.installed():
                        traced.append(_run_job(traced_main, job, kept))
                else:
                    untraced.append(_run_job(main, job, kept))
    cycles = len(untraced) // len(jobs)
    return [{"cycles": cycles, "jobs": untraced}, {"cycles": cycles, "jobs": traced}]


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    sys.path.insert(0, plan["src"])
    from unkhist import cli

    kept: set = set()
    if not plan["trace"]:
        passes = [_run_pass(cli.main, plan["jobs"], kept, plan["seconds"])]
        summary = None
    else:
        tracer = Tracer()
        passes = _run_paired(cli.main, plan["jobs"], kept, plan["seconds"], tracer)
        summary = tracer.summary()
        with open(plan["spans"], "w", encoding="utf-8") as handle:
            for name, start, end, parent, job in tracer.spans:
                handle.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                         "parent": parent, "job": job}) + "\n")
    Path(result_path).write_text(json.dumps({"passes": passes, "trace": summary}),
                                 encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
