"""Tests of the benchmark itself: seeded inputs, the output checker and the tracer.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from check import check  # noqa: E402
from tracing import BOUNDARIES, Tracer, _owner  # noqa: E402
from unkhist import cli  # noqa: E402


def _snapshot(workload: workloads.Workload, root: Path) -> dict:
    files = {source.path.name: source.path.read_bytes() for source in workload.inputs}
    argvs = [[arg.replace(str(root), "") for arg in job.argv] for job in workload.jobs]
    return {"files": files, "argv": argvs}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_a_function_of_the_seed(name, tmp_path):
    first = _snapshot(workloads.generate(name, tmp_path / "a", 7), tmp_path / "a")
    again = _snapshot(workloads.generate(name, tmp_path / "b", 7), tmp_path / "b")
    other = _snapshot(workloads.generate(name, tmp_path / "c", 8), tmp_path / "c")
    assert first == again
    assert first != other
    if first["files"]:
        assert all(first["files"][f] != other["files"][f] for f in first["files"])


def _run_first_job(workload: workloads.Workload) -> bytes:
    job = workload.jobs[0]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(job.argv) == 0
    return job.out.read_bytes()


@pytest.fixture(scope="module")
def head(tmp_path_factory):
    workload = workloads.generate("hist-head", tmp_path_factory.mktemp("head"), 3)
    return workload, _run_first_job(workload)


def _tampered(data: bytes, edit) -> bytes:
    report = json.loads(data)
    edit(report)
    return cli.canonical_json(report).encode() + b"\n"


def test_checker_accepts_a_real_report(head):
    workload, data = head
    problems, _ = check(workload.jobs[0], data)
    assert problems == []


def test_checker_flags_a_foreign_label(head):
    workload, data = head

    def add_label(report):
        report["items"].append({"label": "zz-not-in-input", "noisy_count": 1e6})

    problems, _ = check(workload.jobs[0], _tampered(data, add_label))
    assert any("not an allowed input label" in p for p in problems)


def test_checker_flags_a_reserved_label(head):
    workload, data = head

    def add_label(report):
        report["items"].append({"label": "⊥1", "noisy_count": 1e6})

    problems, _ = check(workload.jobs[0], _tampered(data, add_label))
    assert any("reserved label" in p for p in problems)


def test_checker_flags_a_wrong_rho(head):
    workload, data = head

    def bump_rho(report):
        report["budget"]["rho"] *= 1.001

    problems, _ = check(workload.jobs[0], _tampered(data, bump_rho))
    assert any("rho" in p for p in problems)


def test_checker_flags_a_short_ranked_list_without_bottom(tmp_path):
    workload = workloads.generate("hist-tail", tmp_path, 2)
    job = next(job for job in workload.jobs if job.kind == "gumbel-topk")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(job.argv) == 0
    data = job.out.read_bytes()
    assert check(job, data)[0] == []

    def drop_last(report):
        report["items"] = report["items"][:-1]

    problems, _ = check(job, _tampered(data, drop_last))
    assert any("bottom marker" in p for p in problems)


def _passes(hashes: list[str]) -> list[dict]:
    jobs = [{"key": "head-00-gaussian", "seconds": 0.1, "code": 0, "error": None,
             "stderr": "", "sha256": digest} for digest in hashes]
    return [{"cycles": len(jobs), "jobs": jobs}]


def test_a_rerun_that_differs_by_one_byte_fails(head):
    workload, data = head
    job = workload.jobs[0]
    kept = job.out.with_name(job.out.name + ".first")
    kept.write_bytes(data)
    one_off = bytearray(data)
    one_off[-2] ^= 1
    same, changed = hashlib.sha256(data).hexdigest(), hashlib.sha256(one_off).hexdigest()
    single = workloads.Workload(workload.name, workload.unit, [job])
    failed, problems, _ = run.assess(single, _passes([same, same]))
    assert failed == [False, False] and problems == []
    failed, problems, _ = run.assess(single, _passes([same, changed]))
    assert failed == [False, True]
    assert any("differs from the first run" in p for p in problems)


def _bound(module: str, attribute: str):
    owner, name = _owner(module, attribute)
    return vars(owner)[name]


def test_tracer_restores_every_wrapped_name():
    before = [_bound(module, attribute) for module, attribute, *_ in BOUNDARIES]
    with Tracer().installed():
        during = [_bound(module, attribute) for module, attribute, *_ in BOUNDARIES]
    after = [_bound(module, attribute) for module, attribute, *_ in BOUNDARIES]
    assert all(now is not then for now, then in zip(during, before))
    assert all(now is then for now, then in zip(after, before))


def test_traced_job_records_spans_and_matches_untraced_output(head, tmp_path):
    workload, data = head
    job = workload.jobs[0]
    argv = [str(tmp_path / "traced.out") if arg == str(job.out) else arg for arg in job.argv]
    tracer = Tracer()
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        assert tracer.span("cli.main", cli.main)(argv) == 0
    assert (tmp_path / "traced.out").read_bytes() == data
    names = {row["name"] for row in tracer.summary()["stats"]}
    assert {"cli.main", "fileio.parse", "core.histogram", "release.release", "core.draw",
            "fileio.write"} <= names
    root = next(span for span in tracer.spans if span[0] == "cli.main")
    assert root[3] == -1 and all(span[3] >= 0 for span in tracer.spans if span is not root)


def test_benchmark_json_names_the_emitted_workloads_and_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_times_are_reported_at_nominal_machine_speed():
    job = workloads.Job("stream", "stream", [], Path("unused"), 512, 0, {})
    workload = workloads.Workload("stream-zipf", "rounds", [job])
    slow = 2 * run.NOMINAL_S  # the machine runs at half its nominal speed
    run_pass = {"jobs": [{"key": "stream", "seconds": 2.0}] * 3, "probes": [slow] * 5}
    metrics, _ = run.end_to_end(workload, run_pass, 1024, [0.4] * 8, [slow] * 8)
    assert metrics["setup_s"] == (0.2, 8)
    assert metrics["job_ms_p50"] == (1000.0, 3)
    assert metrics["work_per_s"] == (512.0, 3)
