"""Seeded inputs and job lists for the four benchmark workloads.

Every input is a pure function of the seed: the same seed writes
byte-identical files, and the program under test sees only those files and
the command lines built here.  A workload's jobs form one cycle; the runner
repeats the cycle, and every repetition of a job reuses its seed, so reruns
must reproduce the first output byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

EPSILON = 1.0

# hist-tail: Zipf(2.3) counts put most labels at 1-3 and let about 6% clear
# the Gaussian threshold (5.75 at epsilon 1, delta 1e-6).  1.5e5 labels keep
# a cycle of four jobs near 6 s on a 2-core Xeon, so a run holds three cycles.
TAIL_LABELS = 150_000
TAIL_ZIPF = 2.3
TAIL_DELTA = 1e-6
TAIL_KBAR = 1000
TAIL_K = 10

# hist-head: an odd file count makes the alternating noise visit every
# (file, noise) pair once per cycle.  Sizes follow a fixed log ladder from
# 1e3 to 1e4 labels with a small seeded jitter, so the median job size, and
# with it the median latency, does not swing from seed to seed.
HEAD_FILES = 11
HEAD_MIN_LABELS = 1_000
HEAD_MAX_LABELS = 10_000
HEAD_JITTER = 0.02
HEAD_COUNT_RANGE = (100, 10_000)
HEAD_DELTA = 1e-6

# stream-zipf: horizon 2^9 keeps one job near 1.6 s while the per-round sweep
# over every label seen so far still dominates it.
STREAM_HORIZON = 512
STREAM_UNIVERSE = 10_000
STREAM_L0 = 4
STREAM_DELTA = 0.01

# validate-mc: 2e4 trials is twice the harness minimum and keeps every
# check's Wilson bound far enough below 1.2 * delta that no seed fails.
VALIDATE_TRIALS = 20_000
VALIDATE_SUITES = ("alg1", "topk", "gumbel", "stream")
#: Delta-event estimates per suite; each runs VALIDATE_TRIALS trials.
VALIDATE_EVENT_CHECKS = {"alg1": 2, "topk": 1, "gumbel": 1, "stream": 1}


@dataclass
class InputFile:
    """A generated file plus what the checker needs to know about its contents."""

    path: Path
    counts: dict[str, int] | None = None  # histogram CSVs
    first_round: dict[str, int] | None = None  # stream events: label -> debut round

    def record(self) -> dict:
        data = self.path.read_bytes()
        return {
            "name": self.path.name,
            "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
        }


@dataclass
class Job:
    """One CLI call.  Jobs sharing a key run the same command line and seed."""

    key: str
    kind: str  # release | topk | gumbel-topk | stream | validate
    argv: list[str]
    out: Path
    units: int  # work units: input labels, stream rounds or delta-event trials
    seed: int
    params: dict
    input: InputFile | None = None


@dataclass
class Workload:
    name: str
    unit: str  # what work_per_s counts
    jobs: list[Job]  # one cycle
    inputs: list[InputFile] = field(default_factory=list)
    stats: dict = field(default_factory=dict)  # work counts per cycle, from the inputs


def _rng(seed: int, workload: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "big")
    return np.random.default_rng([seed, tag])


def _job_seed(seed: int, index: int) -> int:
    return seed * 100 + index


def _write_csv(path: Path, labels: list[str], counts: list[int]) -> InputFile:
    rows = [f"{label},{count}" for label, count in zip(labels, counts)]
    path.write_text("label,count\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return InputFile(path=path, counts=dict(zip(labels, counts)))


def _labels(rng: np.random.Generator, prefix: str, n: int) -> list[str]:
    ids = rng.choice(16**8, size=n, replace=False)
    return [f"{prefix}{i:08x}" for i in ids.tolist()]


def _hist_args(kind: str, params: dict, infile: Path, out: Path, seed: int) -> list[str]:
    argv = [kind]
    if kind == "release":
        argv += ["--noise", params["noise"]]
    if kind in ("topk", "gumbel-topk"):
        argv += ["--kbar", str(params["kbar"])]
    if kind == "gumbel-topk":
        argv += ["--k", str(params["k"])]
    argv += ["--epsilon", repr(params["epsilon"]), "--delta", repr(params["delta"])]
    argv += ["--l0", str(params["l0"])]
    if kind != "gumbel-topk":
        argv += ["--linf", repr(params["linf"])]
    return argv + ["--in", str(infile), "--out", str(out), "--seed", str(seed)]


def hist_tail(workdir: Path, seed: int) -> Workload:
    rng = _rng(seed, "hist-tail")
    labels = _labels(rng, "k", TAIL_LABELS)
    counts = rng.zipf(TAIL_ZIPF, size=TAIL_LABELS).tolist()
    source = _write_csv(workdir / "tail.csv", labels, counts)
    base = {"epsilon": EPSILON, "delta": TAIL_DELTA, "l0": 1, "linf": 1.0}
    cycle = [
        ("release-gaussian", "release", base | {"noise": "gaussian"}),
        ("release-laplace", "release", base | {"noise": "laplace"}),
        ("topk", "topk", base | {"kbar": TAIL_KBAR}),
        ("gumbel-topk", "gumbel-topk", base | {"kbar": TAIL_KBAR, "k": TAIL_K}),
    ]
    jobs = []
    for index, (key, kind, params) in enumerate(cycle):
        out = workdir / f"{key}.out"
        job_seed = _job_seed(seed, index)
        argv = _hist_args(kind, params, source.path, out, job_seed)
        jobs.append(Job(key, kind, argv, out, TAIL_LABELS, job_seed, params, source))
    return Workload("hist-tail", "labels", jobs, [source])


def hist_head(workdir: Path, seed: int) -> Workload:
    rng = _rng(seed, "hist-head")
    ladder = np.geomspace(HEAD_MIN_LABELS, HEAD_MAX_LABELS, HEAD_FILES)
    jitter = rng.uniform(-HEAD_JITTER, HEAD_JITTER, size=HEAD_FILES)
    sizes = np.rint(ladder * (1.0 + jitter)).astype(int).tolist()
    low, high = HEAD_COUNT_RANGE
    files = []
    for index, size in enumerate(sizes):
        labels = _labels(rng, "h", size)
        counts = rng.integers(low, high, size=size, endpoint=True).tolist()
        files.append(_write_csv(workdir / f"head-{index:02d}.csv", labels, counts))
    base = {"epsilon": EPSILON, "delta": HEAD_DELTA, "l0": 1, "linf": 1.0}
    jobs = []
    for index in range(2 * HEAD_FILES):
        source = files[index % HEAD_FILES]
        noise = ("gaussian", "laplace")[index % 2]
        key = f"{source.path.stem}-{noise}"
        out = workdir / f"{key}.out"
        job_seed = _job_seed(seed, index)
        params = base | {"noise": noise}
        argv = _hist_args("release", params, source.path, out, job_seed)
        jobs.append(Job(key, "release", argv, out, len(source.counts), job_seed, params, source))
    return Workload("hist-head", "labels", jobs, files)


def stream_zipf(workdir: Path, seed: int) -> Workload:
    rng = _rng(seed, "stream-zipf")
    names = [f"t{i:04d}" for i in rng.permutation(STREAM_UNIVERSE).tolist()]
    weights = 1.0 / np.arange(1, STREAM_UNIVERSE + 1)
    weights /= weights.sum()
    first_round: dict[str, int] = {}
    visits = 0
    lines = []
    for r in range(1, STREAM_HORIZON + 1):
        m = int(rng.integers(1, STREAM_L0, endpoint=True))
        picks = rng.choice(STREAM_UNIVERSE, size=m, replace=False, p=weights)
        items = sorted(names[i] for i in picks.tolist())
        for label in items:
            first_round.setdefault(label, r)
        visits += len(first_round)
        lines.append(json.dumps({"round": r, "items": items}, separators=(",", ":")))
    path = workdir / "events.ndjson"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    source = InputFile(path=path, first_round=first_round)
    params = {"horizon": STREAM_HORIZON, "l0": STREAM_L0, "epsilon": EPSILON, "delta": STREAM_DELTA}
    out = workdir / "snapshots.out"
    job_seed = _job_seed(seed, 0)
    argv = [
        "stream", "--horizon", str(STREAM_HORIZON), "--epsilon", repr(EPSILON),
        "--delta", repr(STREAM_DELTA), "--l0", str(STREAM_L0),
        "--in", str(path), "--out", str(out), "--seed", str(job_seed),
    ]  # fmt: skip
    job = Job("stream", "stream", argv, out, STREAM_HORIZON, job_seed, params, source)
    stats = {"label_visits": visits, "new_labels": len(first_round)}
    return Workload("stream-zipf", "rounds", [job], [source], stats)


def validate_mc(workdir: Path, seed: int) -> Workload:
    jobs = []
    for index, suite in enumerate(VALIDATE_SUITES):
        out = workdir / f"validate-{suite}.out"
        job_seed = _job_seed(seed, index)
        argv = [
            "validate", "--suite", suite, "--trials", str(VALIDATE_TRIALS),
            "--seed", str(job_seed), "--report", str(out),
        ]  # fmt: skip
        units = VALIDATE_EVENT_CHECKS[suite] * VALIDATE_TRIALS
        params = {"suite": suite, "trials": VALIDATE_TRIALS}
        jobs.append(Job(f"validate-{suite}", "validate", argv, out, units, job_seed, params))
    return Workload("validate-mc", "trials", jobs)


WORKLOADS = {
    "hist-tail": hist_tail,
    "hist-head": hist_head,
    "stream-zipf": stream_zipf,
    "validate-mc": validate_mc,
}


def generate(name: str, workdir: Path, seed: int) -> Workload:
    """Write the named workload's inputs into workdir and return its job cycle."""
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](workdir, seed)
