"""Inputs at the edges of the float range.

A noise scale at which one noisy value (a release's noisy count, a top-k
flag test's difference of two noisy values, a stream total of depth
draws) could leave the float range is refused by name, before any draw
(``core.check_noise``).  Every other input runs, or is refused with exit 2
and no report, and a report holds finite numbers only.  So does every
release command with one flag at a time at an edge (a float flag nan, +-inf,
0, 5e-324 or 1e300, an int flag -1, 0, 2**63 or 10**23), every ``account``
action at each edge float, and every ``validate`` suite refuses
a trial count below ``MIN_TRIALS`` or a seed outside 64 bits before any
trial runs.  Each command runs in process under
``warnings.simplefilter("error")``, so a numpy overflow warning fails the
run.
"""

import json
import math
import sys
import warnings
from itertools import product
from pathlib import Path

import pytest

from unkhist.accountant import CdpBudget
from unkhist.cli import _ACCOUNT_ACTIONS, main
from unkhist.core import Histogram, ParameterError, RandomSource, SensitivityBound
from unkhist.release import release
from unkhist.stream import CounterConfig
from unkhist.topk import release_topk
from unkhist.validation import SUITES

HIST = str(Path(__file__).parent / "data" / "hist_golden.csv")
EVENTS = ['{"round": 1, "items": ["a", "b"]}', '{"round": 2, "items": ["a"]}', '{"round": 3, "items": []}']


def write_events(tmp_path, rounds):
    path = tmp_path / "events.ndjson"
    path.write_text("\n".join(EVENTS[:rounds]) + "\n", encoding="utf-8")
    return str(path)


def run(argv, out, capsys):
    """main(argv) writing to out under warnings as errors: its exit code and stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*argv, "--out", str(out)])
    return code, capsys.readouterr().err


def numbers(value):
    """Every number in a parsed JSON value."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from numbers(item)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


HIST_OVERFLOW = ["--l0", "1", "--epsilon", "1e-308", "--delta", "0.49", "--in", HIST, "--seed", "1"]


@pytest.mark.parametrize(
    "command",
    [
        ["release", "--noise", "laplace", "--linf", "1"],
        ["release", "--noise", "gaussian", "--linf", "1"],
        ["topk", "--kbar", "20", "--linf", "1"],
        ["gumbel-topk", "--k", "3", "--kbar", "20"],
    ],
    ids=["release-laplace", "release-gaussian", "topk", "gumbel-topk"],
)
def test_histogram_noise_past_the_float_range_is_refused(command, tmp_path, capsys):
    out = tmp_path / "report.json"
    code, err = run([*command, *HIST_OVERFLOW], out, capsys)
    assert code == 2 and "epsilon = 1e-308" in err and "no finite noise" in err, err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["1", "2", "5"])
def test_stream_noise_past_the_float_range_is_refused(seed, tmp_path, capsys):
    events = write_events(tmp_path, 2)
    out = tmp_path / "snapshots.ndjson"
    argv = ["stream", "--horizon", "2", "--l0", "2", "--epsilon", "1e-308", "--delta", "0.999"]
    code, err = run([*argv, "--in", events, "--seed", seed], out, capsys)
    assert code == 2 and "epsilon = 1e-308" in err and "no finite noise" in err, err
    assert not out.exists()


H = Histogram({"a": 5, "b": 3})
SENS = SensitivityBound(l0=1, linf=1)


@pytest.mark.parametrize("scale", [1e308, math.inf])
def test_noise_hooks_past_the_float_range_are_refused_before_any_draw(scale):
    rng = RandomSource(3)
    with pytest.raises(ParameterError, match=r"^scale_override = .* gives no finite noise$"):
        release(H, SENS, "laplace", 1.0, 0.05, rng, scale_override=scale)
    with pytest.raises(ParameterError, match=r"^sigma_override = .* gives no finite noise$"):
        release_topk(H, 2, SENS, 1.0, 0.05, rng, sigma_override=scale)
    assert rng.uniform() == RandomSource(3).uniform()
    # A top-k flag test sums two draws, a release's noisy count one.
    release(H, SENS, "gaussian", 1.0, 0.05, rng, scale_override=3e306)
    with pytest.raises(ParameterError, match="sigma_override"):
        release_topk(H, 2, SENS, 1.0, 0.05, rng, sigma_override=3e306)


def test_a_counter_config_past_the_float_range_is_refused():
    def config(horizon, sigma):
        return CounterConfig(horizon=horizon, l0=1, sigma=sigma, threshold=1.0, seed=0,
                             budget=CdpBudget(0.0, math.inf))  # fmt: skip

    # A total sums at most depth = ceil(log2(horizon + 1)) draws: 1 at
    # horizon 1, 2 at horizon 2.
    assert config(1, 3e306).sigma == 3e306
    for horizon, sigma in [(2, 3e306), (1, math.inf)]:
        with pytest.raises(ParameterError, match=r"^sigma = .* gives no finite noise$"):
            config(horizon, sigma)


def edge_runs(events):
    """The float-range edge table: every command, at the extreme epsilons,
    deltas and linfs, at two seeds."""
    epsilons = ["5e-324", "1e-308", "1e-300", "1", "1e300"]
    deltas = ["5e-324", "1e-300", "0.49", "0.999999"]
    linfs = ["1e-300", "1", "1e300"]
    for epsilon, delta, seed in product(epsilons, deltas, ["1", "2"]):
        common = ["--epsilon", epsilon, "--delta", delta, "--seed", seed]
        for linf in linfs:
            histogram = [*common, "--l0", "1", "--linf", linf, "--in", HIST]
            yield ["release", "--noise", "laplace", *histogram]
            yield ["release", "--noise", "gaussian", *histogram]
            yield ["topk", "--kbar", "20", *histogram]
        yield ["gumbel-topk", "--k", "3", "--kbar", "20", "--l0", "1", "--in", HIST, *common]
        yield ["stream", "--horizon", "3", "--l0", "2", "--in", events, *common]


def hostile_runs(events):
    """Every release command with one flag at a time set to an edge: each float
    flag to nan, +-inf, 0, 5e-324 and 1e300, each int flag to -1, 0, 2**63
    and 10**23, and the other flags valid."""
    histogram = ["--epsilon", "1", "--delta", "0.05", "--l0", "1", "--in", HIST, "--seed", "1"]
    commands = [
        (["release", "--noise", "laplace", "--linf", "1", "--min-count", "1", *histogram],
         ["--epsilon", "--delta", "--linf"], ["--l0", "--min-count"]),
        (["release", "--noise", "gaussian", "--linf", "1", "--min-count", "1", *histogram],
         ["--epsilon", "--delta", "--linf"], ["--l0", "--min-count"]),
        (["topk", "--kbar", "20", "--linf", "1", *histogram],
         ["--epsilon", "--delta", "--linf"], ["--kbar", "--l0"]),
        (["gumbel-topk", "--k", "3", "--kbar", "20", *histogram],
         ["--epsilon", "--delta"], ["--k", "--kbar", "--l0"]),
        (["stream", "--horizon", "3", "--epsilon", "1", "--delta", "0.05", "--l0", "2", "--in", events,
          "--seed", "1"], ["--epsilon", "--delta"], ["--horizon", "--l0"]),
    ]  # fmt: skip
    for argv, floats, ints in commands:
        edges = [(flag, value) for flag in floats for value in ["nan", "inf", "-inf", "0", "5e-324", "1e300"]]
        edges += [(flag, value) for flag in ints for value in ["-1", "0", str(2**63), str(10**23)]]
        for flag, value in edges:
            at = argv.index(flag) + 1
            yield [*argv[:at], value, *argv[at + 1 :]]


def test_float_range_edge_table(tmp_path, capsys):
    out = tmp_path / "report"
    events = write_events(tmp_path, 3)
    runs = [*edge_runs(events), *hostile_runs(events)]
    assert len(runs) == 440 + 122
    for argv in runs:
        try:
            code, err = run(argv, out, capsys)
        except Exception as exc:  # a warning turned error, or any other escape
            pytest.fail(f"{argv}: {exc!r}")
        assert code in (0, 2) and "unrecognized arguments" not in err, (argv, err)
        if code == 2:
            assert not out.exists(), argv
            continue
        lines = out.read_text(encoding="utf-8").splitlines()
        assert all(math.isfinite(x) for line in lines for x in numbers(json.loads(line))), argv
        out.unlink()


def budget_runs(report):
    """Every account action with each float flag at each edge of the float
    range, and every validate suite with trials or seeds it must refuse,
    writing its report to report."""
    edges = ["nan", "inf", "-inf", "0", "5e-324", "1e-300", "1", "1e300", repr(sys.float_info.max)]
    for action, (_, flags, _) in _ACCOUNT_ACTIONS.items():
        for values in product(edges, repeat=len(flags)):
            yield ["account", action, *(f"{flag}={value}" for flag, value in zip(flags, values))]
    for suite, trials, seed in product(SUITES, [None, "-5", "0", "1", "9999"], ["0", "-1", str(2**64)]):
        if trials or seed != "0":  # each refused before any trial runs
            argv = ["validate", "--suite", suite, f"--seed={seed}", "--report", str(report)]
            yield argv if trials is None else [*argv, f"--trials={trials}"]


def test_budget_edge_table(tmp_path, capsys):
    report = tmp_path / "report"
    runs = list(budget_runs(report))
    assert len(runs) == 1711 + 70
    for argv in runs:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(argv)
        except Exception as exc:  # a warning turned error, or any other escape
            pytest.fail(f"{argv}: {exc!r}")
        out, err = capsys.readouterr()
        assert code in (0, 2), (argv, err)
        if code == 2:
            assert out == "" and not report.exists(), argv
        elif argv[0] == "account":
            assert all(math.isfinite(x) for x in numbers(json.loads(out))), argv
