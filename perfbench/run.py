"""unkhist benchmark: seeded workloads driven through the public CLI.

Usage, from the root of a checkout that holds src/unkhist:

    python3 perfbench/run.py --workload hist-tail --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all     # every workload, untraced then traced

One run writes the workload's inputs, times a fresh interpreter's import of
``unkhist.cli`` (trace 0), and hands the job cycle to worker.py, one process
running the jobs in a closed loop.  Every output is then checked.  Trace 0
reports the end-to-end metrics, with times at nominal machine speed (see
probe.py); trace 1 runs each job twice back to back, untraced and with every
module boundary timed, and reports per-layer metrics instead.  Human-readable
lines come first; the last line of standard output is one JSON object.  The
full record, including the environment, goes to perfbench/_results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from probe import NOMINAL_S, probe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
RESULTS = BENCH / "_results"

#: Interpreter launches timed before the worker runs and again after it, so
#: that the set-up median samples the machine at two moments of the run.
SETUP_LAUNCHES = 4
#: The worker is stopped after this many seconds from the start of the run,
#: which leaves time for the checks inside the 180-second limit of a run.
RUN_LIMIT_S = 160

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "job_ms_p50": "ms",
    "work_per_s": "1/s",
}

PER_LAYER = {
    "cli.self_s": "s/cycle",
    "fileio.parse_s": "s/cycle",
    "fileio.bytes_in": "B/cycle",
    "fileio.rows_in": "count/cycle",
    "fileio.write_s": "s/cycle",
    "fileio.bytes_out": "B/cycle",
    "core.histogram_s": "s/cycle",
    "core.draw_calls": "count/cycle",
    "core.draw_s": "s/cycle",
    "core.rng_child_calls": "count/cycle",
    "core.rng_child_s": "s/cycle",
    "release.self_s": "s/cycle",
    "release.labels_in": "count/cycle",
    "release.released": "count/cycle",
    "release.survivor_ratio": "ratio",
    "topk.truncate_s": "s/cycle",
    "topk.self_s": "s/cycle",
    "gumbel.self_s": "s/cycle",
    "stream.observe_calls": "count/cycle",
    "stream.observe_s": "s/cycle",
    "stream.observe_us_p50": "us",
    "stream.observe_us_p99": "us",
    "stream.label_visits": "count/cycle",
    "stream.new_labels": "count/cycle",
    "stream.released_ratio": "ratio",
    "validation.estimate_s": "s/cycle",
    "validation.mechanism_s": "s/cycle",
    "validation.sample_tv_s": "s/cycle",
    "validation.trials": "count/cycle",
    "validation.hits": "count/cycle",
    "validation.margin.alg1-laplace-delta-event": "ratio",
    "validation.margin.alg1-gaussian-delta-event": "ratio",
    "validation.margin.topk-delta-event": "ratio",
    "validation.margin.gumbel-delta-event": "ratio",
    "validation.margin.gumbel-expmech-tv": "ratio",
    "validation.margin.stream-debut-delta-event": "ratio",
    "trace.overhead_ratio": "ratio",
}

#: Mechanism boundaries whose time, under estimate_delta_event, is the harness's mechanism time.
_MECHANISMS = ("release.release", "topk.release_topk", "gumbel.release_gumbel_topk",
               "stream.observe")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def environment() -> dict:
    import numpy

    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
    }


def measure_setup(env: dict, launches: int) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters importing unkhist.cli, after one warm-up
    launch, and three speed probes after each launch; single probes in this
    process now and then take three times their usual time, so set-up is
    normalised by the median of many."""
    cmd = [sys.executable, "-c", "import unkhist.cli"]
    subprocess.run(cmd, env=env, check=True, timeout=60)  # writes the bytecode caches
    times, probes = [], []
    for _ in range(launches):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=60)
        times.append(time.perf_counter() - start)
        probes += [probe() for _ in range(3)]
    return times, probes


def run_worker(plan_path: Path, result_path: Path, timeout: float, env: dict):
    """Run worker.py to completion; return (exit code, peak RSS in KiB or None)."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), str(plan_path), str(result_path)],
        env=env, stdout=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return None, None
        time.sleep(0.05)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def assess(workload, passes: list[dict]) -> tuple[list[bool], list[str], dict]:
    """Per-job failure flags over all passes, problems found, and facts from the outputs.

    A job fails if it raised, exited non-zero, wrote no output, or wrote
    bytes other than its key's first output; every job of a key fails if that
    first output breaks a check.
    """
    from check import check  # imports unkhist, so only once main has found it

    jobs = {job.key: job for job in workload.jobs}
    problems = []
    facts: dict = {}
    bad_keys = set()
    first_hash = {}
    for key, job in jobs.items():
        kept = job.out.with_name(job.out.name + ".first")
        if not kept.exists():
            bad_keys.add(key)
            continue
        found, key_facts = check(job, kept.read_bytes())
        if found:
            bad_keys.add(key)
            problems += [f"{key}: {problem}" for problem in found[:5]]
        for name, value in key_facts.items():
            if isinstance(value, dict):
                facts.setdefault(name, {}).update(value)
            else:
                facts[name] = facts.get(name, 0) + value
    failed = []
    for run in (job for p in passes for job in p["jobs"]):
        key = run["key"]
        first_hash.setdefault(key, run["sha256"])
        reasons = []
        if run["error"] or run["code"] != 0:
            reasons.append(f"exit {run['code']} {run['error'] or run['stderr']}".strip())
        elif run["sha256"] is None:
            reasons.append("wrote no output")
        elif run["sha256"] != first_hash[key]:
            reasons.append("output differs from the first run of the same job")
        problems += [f"{key}: {reason}" for reason in reasons]
        failed.append(bool(reasons) or key in bad_keys)
    return failed, problems, facts


def _key_means(run_pass: dict) -> dict[str, float]:
    """Each distinct job's mean latency over its repetitions, in seconds."""
    times: dict[str, list[float]] = {}
    for run in run_pass["jobs"]:
        times.setdefault(run["key"], []).append(run["seconds"])
    return {key: statistics.fmean(values) for key, values in times.items()}


def end_to_end(workload, run_pass: dict, rss_kib: int, setup: list[float],
               setup_probes: list[float]) -> tuple[dict, list]:
    """BENCHMARK.json's end-to-end metrics, plus the raw and workload-specific
    readings for humans.

    Times are reported at the nominal machine speed: each raw time is divided
    by a speed index, the probe time measured alongside it over the probe's
    nominal time.  Job timings start from each distinct job's mean latency
    over its repetitions, and their speed index from the mean probe time, so
    both average the machine over the same stretch of the run.  job_ms_p50 is
    the median of those per-job means over the cycle's distinct jobs;
    work_per_s divides one cycle's work units by their sum.  setup_s is the
    median launch time over the median of the probes taken after launches.
    """
    units = {job.key: job.units for job in workload.jobs}
    kinds = {job.key: job.kind for job in workload.jobs}
    n = len(run_pass["jobs"])
    per_key = _key_means(run_pass)
    speed = statistics.fmean(run_pass["probes"]) / NOMINAL_S
    setup_speed = statistics.median(setup_probes) / NOMINAL_S
    job_ms = statistics.median(per_key.values()) * 1000.0
    work_per_s = sum(units.values()) / sum(per_key.values())
    metrics = {
        "setup_s": (statistics.median(setup) / setup_speed, len(setup)),
        "peak_rss_mb": (rss_kib / 1024.0, 1),
        "job_ms_p50": (job_ms / speed, n),
        "work_per_s": (work_per_s * speed, n),
    }
    extra = [
        (f"{workload.unit}_per_s", work_per_s * speed, f"{workload.unit}/s", n),
        ("speed_index", speed, "ratio", len(run_pass["probes"])),
        ("setup_speed_index", setup_speed, "ratio", len(setup_probes)),
        ("setup_s_raw", statistics.median(setup), "s", len(setup)),
        ("job_ms_p50_raw", job_ms, "ms", n),
        (f"{workload.unit}_per_s_raw", work_per_s, f"{workload.unit}/s", n),
    ]
    if workload.name == "hist-tail":
        for kind, name in (("release", "release_s_p50"), ("topk", "topk_s_p50"),
                           ("gumbel-topk", "gumbel_topk_s_p50")):
            sample = [run["seconds"] for run in run_pass["jobs"] if kinds[run["key"]] == kind]
            extra.append((name, statistics.median(sample) / speed, "s", len(sample)))
    if workload.name == "hist-head":
        times = [run["seconds"] for run in run_pass["jobs"]]
        p90 = statistics.quantiles(times, n=10, method="inclusive")[8]
        if sum(t > p90 for t in times) >= 10:
            extra.append(("job_ms_p90", p90 * 1000.0 / speed, "ms", n))
    return metrics, extra


def per_layer(workload, passes: list[dict], summary: dict, facts: dict) -> dict:
    """BENCHMARK.json's per-layer metrics, per job cycle of the traced pass."""
    untraced, traced = passes
    cycles = traced["cycles"]
    stats = summary["stats"]
    counts = summary["counts"]

    def total(name, field, parent=None):
        return sum(row[field] for row in stats
                   if row["name"] == name and (parent is None or row["parent"] == parent))

    def seconds(name, field="total_ns"):
        return total(name, field) / 1e9 / cycles

    def per_cycle(value):
        return value / cycles

    mechanism_ns = sum(total(name, "total_ns", "validation.estimate") for name in _MECHANISMS)
    observe = summary["quantiles"].get("stream.observe", {})
    labels_in = counts.get("release.labels_in", 0)
    released = counts.get("release.released", 0)
    traced_s = sum(run["seconds"] for run in traced["jobs"])
    untraced_s = sum(run["seconds"] for run in untraced["jobs"])
    margins = facts.get("margins", {})
    metrics = {
        "cli.self_s": seconds("cli.main", "self_ns"),
        "fileio.parse_s": seconds("fileio.parse", "self_ns"),
        "fileio.bytes_in": per_cycle(counts.get("fileio.bytes_in", 0)),
        "fileio.rows_in": per_cycle(counts.get("fileio.rows_in", 0)),
        "fileio.write_s": seconds("fileio.write", "self_ns"),
        "fileio.bytes_out": per_cycle(counts.get("fileio.bytes_out", 0)),
        "core.histogram_s": seconds("core.histogram"),
        "core.draw_calls": per_cycle(total("core.draw", "calls")),
        "core.draw_s": seconds("core.draw"),
        "core.rng_child_calls": per_cycle(total("core.rng_child", "calls")),
        "core.rng_child_s": seconds("core.rng_child"),
        "release.self_s": seconds("release.release", "self_ns"),
        "release.labels_in": per_cycle(labels_in),
        "release.released": per_cycle(released),
        "release.survivor_ratio": released / labels_in if labels_in else 0.0,
        "topk.truncate_s": seconds("topk.truncate"),
        "topk.self_s": seconds("topk.release_topk", "self_ns"),
        "gumbel.self_s": seconds("gumbel.release_gumbel_topk", "self_ns"),
        "stream.observe_calls": per_cycle(total("stream.observe", "calls")),
        "stream.observe_s": seconds("stream.observe"),
        "stream.observe_us_p50": observe.get("p50_ns", 0) / 1e3,
        "stream.observe_us_p99": observe.get("p99_ns", 0) / 1e3,
        "stream.label_visits": workload.stats.get("label_visits", 0),
        "stream.new_labels": workload.stats.get("new_labels", 0),
        "stream.released_ratio": (facts["stream.released"] / facts["stream.seen"]
                                  if facts.get("stream.seen") else 0.0),
        "validation.estimate_s": seconds("validation.estimate"),
        "validation.mechanism_s": mechanism_ns / 1e9 / cycles,
        "validation.sample_tv_s": seconds("validation.sample_tv"),
        "validation.trials": sum(job.units for job in workload.jobs if job.kind == "validate"),
        "validation.hits": facts.get("validation.hits", 0),
        "trace.overhead_ratio": traced_s / untraced_s,
    }
    for name in PER_LAYER:
        if name.startswith("validation.margin."):
            metrics[name] = margins.get(name[len("validation.margin."):], 0.0)
    return {name: metrics[name] for name in PER_LAYER}


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and the human-readable lines."""

    started = time.monotonic()
    env = _child_env()
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "env": environment(), "loadavg_start": _loadavg()}
    workdir = WORK / f"{name}-{seed}-{int(trace)}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    try:
        workload = workloads.generate(name, workdir, seed)
        record["inputs"] = [source.record() for source in workload.inputs]
        setup, setup_probes = ([], []) if trace else measure_setup(env, SETUP_LAUNCHES)
        plan = {
            "src": str(SRC),
            "seconds": seconds,
            "trace": trace,
            "spans": str(RESULTS / f"{tag}.spans.ndjson"),
            "jobs": [{"key": job.key, "argv": job.argv, "out": str(job.out)}
                     for job in workload.jobs],
        }
        plan_path, result_path = workdir / "plan.json", workdir / "result.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        timeout = RUN_LIMIT_S - (time.monotonic() - started)
        code, rss_kib = run_worker(plan_path, result_path, timeout, env)
        if code != 0 or not result_path.exists():
            raise RuntimeError(f"worker ended with exit code {code}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if not trace:
            more, more_probes = measure_setup(env, SETUP_LAUNCHES)
            setup += more
            setup_probes += more_probes
        passes = result["passes"]
        failed, problems, facts = assess(workload, passes)
        if trace:
            metrics = per_layer(workload, passes, result["trace"], facts)
            units = PER_LAYER
            extra = []
        else:
            measured, extra = end_to_end(workload, passes[0], rss_kib, setup, setup_probes)
            metrics = {key: value for key, (value, _) in measured.items()}
            units = END_TO_END
            extra = [(key, value, END_TO_END[key], n) for key, (value, n) in measured.items()] + extra
        record["jobs"] = [{"pass": i, **run} for i, p in enumerate(passes) for run in p["jobs"]]
        record["probes"] = passes[0].get("probes")
        record["setup"] = {"seconds": setup, "probes": setup_probes}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = len(failed)
    n_failed = sum(failed)
    record.update(loadavg_end=_loadavg(), problems=problems, metrics=metrics,
                  attempted=attempted, failed=n_failed)
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    lines = [f"== {name} seed={seed} trace={int(trace)}",
             "env " + json.dumps(record["env"]),
             f"loadavg start={record['loadavg_start']} end={record['loadavg_end']}"]
    lines += [f"input {i['name']} bytes={i['bytes']} sha256={i['sha256']}" for i in record["inputs"]]
    lines += [f"metric {key} {value:.6g} {unit} n={n}" for key, value, unit, n in extra]
    if trace:
        lines += [f"layer {key} {metrics[key]:.6g} {units[key]}" for key in PER_LAYER]
        lines.append(f"traced outputs identical to untraced: {not any(failed)}")
    lines.append(f"error_rate {n_failed / attempted:.6g} ratio ({n_failed} of {attempted} jobs)")
    lines += [f"problem {problem}" for problem in problems[:20]]
    output = {
        "correct": n_failed == 0,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }
    return output, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        import unkhist.cli  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in workloads.WORKLOADS for name in names):
        parser.error(f"--workload must be 'all' or one of {sorted(workloads.WORKLOADS)}")
    if not 0 <= args.seed < 2**32 or args.seconds < 1:
        parser.error("--seed must lie in [0, 2^32) and --seconds must be positive")

    if args.workload != "all":
        output, lines = run_workload(names[0], args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines))
        print(json.dumps(output))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for trace in (False, True):
            output, lines = run_workload(name, args.seed, args.seconds, trace)
            print("\n".join(lines), flush=True)
            combined["correct"] &= output["correct"]
            combined["attempted"] += output["attempted"]
            combined["failed"] += output["failed"]
            for key, value in output["metrics"].items():
                combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
