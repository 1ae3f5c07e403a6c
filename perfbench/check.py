"""Output checks for benchmark jobs.

Every problem found is returned as text and counted against the job as a
failed operation; nothing here aborts the run.  Expected thresholds and
budgets come from unkhist's own threshold and accountant functions, so a
report that disagrees with them is flagged.
"""

from __future__ import annotations

import json
import math

from unkhist.accountant import compose, dp_to_cdp, expmech_cdp, gaussian_cdp, laplace_pure_dp
from unkhist.core import BOTTOM, SensitivityBound, is_reserved_label
from unkhist.gumbel import gumbel_threshold
from unkhist.release import threshold_gaussian, threshold_laplace
from unkhist.stream import CounterConfig
from unkhist.topk import topk_threshold

#: The delta every validation suite runs at; delta-event margins are relative to it.
SUITE_DELTA = 0.05

_REPORT_KEYS = {"budget", "items", "mechanism", "params", "seed", "threshold_public"}
_PARAM_NAMES = {
    "release": ("noise", "epsilon", "delta", "l0", "linf"),
    "topk": ("kbar", "epsilon", "delta", "l0", "linf"),
    "gumbel-topk": ("k", "kbar", "l0", "epsilon", "delta"),
}


def _expected_release(kind: str, params: dict) -> tuple[str, float, float]:
    """Mechanism tag, public threshold and rho a histogram job must report."""
    eps, delta, l0 = params["epsilon"], params["delta"], params["l0"]
    if kind == "gumbel-topk":
        rho = compose([expmech_cdp(eps)] * params["k"]).rho
        return "gumbel-topk", gumbel_threshold(l0, eps, delta), rho
    sens = SensitivityBound(l0=l0, linf=params["linf"])
    sigma = params["linf"] / eps
    gaussian_rho = gaussian_cdp(math.sqrt(l0) * params["linf"], sigma).rho
    if kind == "topk":
        return "topk-gaussian", topk_threshold(sens, eps, delta), gaussian_rho
    if params["noise"] == "gaussian":
        return "unknown-domain-gaussian", threshold_gaussian(sens, eps, delta), gaussian_rho
    rho = dp_to_cdp(laplace_pure_dp(l0 * params["linf"], sigma)).rho
    return "unknown-domain-laplace", threshold_laplace(sens, eps, delta), rho


def _budget_problems(budget, delta: float, rho: float) -> list[str]:
    if not isinstance(budget, dict) or set(budget) != {"delta", "rho"}:
        return [f"budget must hold exactly delta and rho, got {budget!r}"]
    problems = []
    if budget["delta"] != delta:
        problems.append(f"budget delta {budget['delta']!r} != {delta!r}")
    if not isinstance(budget["rho"], float) or not math.isclose(budget["rho"], rho, rel_tol=1e-12):
        problems.append(f"budget rho {budget['rho']!r} != accountant's {rho!r}")
    return problems


def _label_problems(labels: list, allowed) -> list[str]:
    problems = []
    for label in labels:
        if not isinstance(label, str):
            problems.append(f"label {label!r} is not text")
        elif is_reserved_label(label):
            problems.append(f"reserved label {label!r} released")
        elif label not in allowed:
            problems.append(f"label {label!r} is not an allowed input label")
    return problems


def _counts_problems(items, allowed, threshold: float | None) -> list[str]:
    """Items must be sorted unique labels from allowed with float counts above threshold."""
    if not isinstance(items, list) or not all(
        isinstance(item, dict) and set(item) == {"label", "noisy_count"} for item in items
    ):
        return ["items must be a list of {label, noisy_count} objects"]
    labels = [item["label"] for item in items]
    problems = _label_problems(labels, allowed)
    if not problems and any(a >= b for a, b in zip(labels, labels[1:])):
        problems.append("item labels are not sorted and unique")
    for item in items:
        count = item["noisy_count"]
        if not isinstance(count, float):
            problems.append(f"noisy count {count!r} for {item['label']!r} is not a float")
        elif threshold is not None and not count > threshold:
            problems.append(f"{item['label']!r} released at {count!r}, not above {threshold!r}")
    return problems


def _top_labels(job) -> tuple[set, set]:
    """(top-kbar labels, those with a positive count), ties broken by label."""
    ranked = sorted(job.input.counts.items(), key=lambda item: (-item[1], item[0]))
    top = ranked[: job.params["kbar"]]
    return {label for label, _ in top}, {label for label, count in top if count > 0}


def check(job, data: bytes) -> tuple[list[str], dict]:
    """Problems in one job's output, plus facts the per-layer metrics use."""
    try:
        text = data.decode("ascii")
        if job.kind == "stream":
            return _stream(job, text)
        report = json.loads(text)
        if job.kind == "validate":
            return _validate(job, report)
        return _histogram(job, report), {}
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return [f"output does not parse: {exc}"], {}
    except (KeyError, TypeError, AttributeError) as exc:
        return [f"output is malformed: {exc!r}"], {}


def _histogram(job, report) -> list[str]:
    if not isinstance(report, dict) or set(report) != _REPORT_KEYS:
        return [f"report keys must be {sorted(_REPORT_KEYS)}"]
    tag, threshold, rho = _expected_release(job.kind, job.params)
    params = {name: job.params[name] for name in _PARAM_NAMES[job.kind]}
    if job.kind == "release":
        params["min_count"] = 1  # the CLI's default ingestion floor
    problems = []
    if report["mechanism"] != tag:
        problems.append(f"mechanism {report['mechanism']!r} != {tag!r}")
    if report["params"] != params:
        problems.append(f"params {report['params']!r} != {params!r}")
    if report["seed"] != job.seed:
        problems.append(f"seed {report['seed']!r} != {job.seed}")
    if report["threshold_public"] != threshold:
        problems.append(f"threshold_public {report['threshold_public']!r} != {threshold!r}")
    problems += _budget_problems(report["budget"], job.params["delta"], rho)
    items = report["items"]
    if job.kind == "release":
        return problems + _counts_problems(items, job.input.counts, threshold)
    top, positive = _top_labels(job)
    if job.kind == "topk":
        return problems + _counts_problems(items, top, None)
    return problems + _ranked(items, job.params["k"], positive)


def _ranked(items, k: int, allowed: set) -> list[str]:
    """At most k distinct labels in rank order, closed by the bottom marker when short."""
    if not isinstance(items, list) or not all(
        isinstance(item, dict) and set(item) == {"rank", "label"} for item in items
    ):
        return ["items must be a list of {rank, label} objects"]
    if [item["rank"] for item in items] != list(range(1, len(items) + 1)):
        return ["ranks must run 1, 2, ... without gaps"]
    labels = [item["label"] for item in items]
    real = labels[:-1] if labels and labels[-1] == BOTTOM else labels
    problems = _label_problems(real, allowed)
    if len(set(real)) != len(real):
        problems.append("ranked list repeats a label")
    if len(real) > k:
        problems.append(f"{len(real)} labels ranked, more than k = {k}")
    if len(real) < k and labels[-1:] != [BOTTOM]:
        problems.append("a short ranked list must end with the bottom marker")
    if len(real) == k and len(labels) > k:
        problems.append("a full ranked list must not carry the bottom marker")
    return problems


def _stream(job, text: str) -> tuple[list[str], dict]:
    params = job.params
    lines = text.split("\n")
    if lines[-1] != "" or len(lines) != params["horizon"] + 2:
        return [f"expected a header and {params['horizon']} snapshot lines"], {}
    header = json.loads(lines[0])
    config = CounterConfig.from_privacy(
        params["horizon"], params["l0"], params["epsilon"], params["delta"], job.seed
    )
    expected = {
        "mechanism": "continual-counter",
        "params": params,
        "seed": job.seed,
        "threshold_public": config.threshold,
    }
    problems = [
        f"header {name} {header.get(name)!r} != {value!r}"
        for name, value in expected.items()
        if header.get(name) != value
    ]
    if set(header) != set(expected) | {"budget"}:
        problems.append(f"unexpected header keys {sorted(header)}")
    rho = gaussian_cdp(math.sqrt(params["l0"] * config.depth), config.sigma).rho
    problems += _budget_problems(header.get("budget"), params["delta"], rho)
    debuts: dict[int, list[str]] = {}
    for label, debut in job.input.first_round.items():
        debuts.setdefault(debut, []).append(label)
    visible: set[str] = set()
    released = seen = 0
    for r, line in enumerate(lines[1:-1], start=1):
        visible.update(debuts.get(r, ()))
        snapshot = json.loads(line)
        if not isinstance(snapshot, dict) or set(snapshot) != {"round", "items"}:
            problems.append(f"line {r + 1} is not a snapshot")
            continue
        if snapshot["round"] != r:
            problems.append(f"line {r + 1} holds round {snapshot['round']!r}, not {r}")
        found = _counts_problems(snapshot["items"], visible, config.threshold)
        problems += [f"round {r}: {problem}" for problem in found]
        if not found:
            released += len(snapshot["items"])
        seen += len(visible)
    return problems, {"stream.released": released, "stream.seen": seen}


def _validate(job, report) -> tuple[list[str], dict]:
    keys = {"checks", "passed", "seed", "suite", "trials"}
    if not isinstance(report, dict) or set(report) != keys:
        return [f"validate report keys must be {sorted(keys)}"], {}
    problems = []
    if report["suite"] != job.params["suite"]:
        problems.append(f"suite {report['suite']!r} != {job.params['suite']!r}")
    if report["seed"] != job.seed or report["trials"] != job.params["trials"]:
        problems.append("validate report seed or trials differ from the command line")
    if report["passed"] is not True:
        problems.append("validate report did not pass")
    margins = {}
    hits = 0
    for check in report["checks"]:
        if check.get("passed") is not True:
            problems.append(f"check {check.get('name')!r} failed")
        if check["name"].endswith("-delta-event"):
            hits += round(check["point"] * check["trials"])
            margins[check["name"]] = (SUITE_DELTA - check["upper"]) / SUITE_DELTA
        else:
            margins[check["name"]] = (check["tolerance"] - check["point"]) / check["tolerance"]
    return problems, {"validation.hits": hits, "margins": margins}
