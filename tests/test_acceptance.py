"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Expected values come from independent oracles: mpmath at 50 digits for every
closed form, exact tail formulas for the Monte-Carlo calibration checks, and
full enumeration for ranked-list distributions.
"""

import itertools
import json
import math
import time

import mpmath as mp
import numpy as np

from unkhist.accountant import (
    CdpBudget,
    DpBudget,
    cdp_to_dp,
    compose,
    dp_to_cdp,
    expmech_cdp,
    gaussian_cdp,
    laplace_pure_dp,
)
from unkhist.cli import main
from unkhist.core import Histogram, RandomSource, SensitivityBound
from unkhist.release import threshold_gaussian, threshold_laplace
from unkhist.stream import Counter, CounterConfig, StreamEvent, active_node_count
from unkhist.topk import topk_threshold
from unkhist.validation import (
    _DELTA_EVENT_CHECKS,
    _delta_event_case,
    estimate_delta_event,
    estimate_renyi_divergence,
    exact_expmech_topk_distribution,
    sample_gumbel_topk_outcomes,
    tv_distance,
)

mp.mp.dps = 50


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def phi_inv_ref(p: float) -> mp.mpf:
    return mp.sqrt(2) * mp.erfinv(2 * mp.mpf(p) - 1)


def test_criterion_1_threshold_formulas():
    """Four threshold formulas vs a 50-digit reference on 100 random tuples."""
    rng = np.random.default_rng(20240601)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        l0 = int(rng.integers(1, 9))
        linf = float(rng.uniform(0.1, 4.0))
        eps = float(rng.uniform(0.1, 3.0))
        delta = float(10.0 ** rng.uniform(-9.0, -0.7))
        horizon = int(rng.integers(1, 2001))
        sens = SensitivityBound(l0=l0, linf=linf)
        m_l0, m_linf, m_eps, m_delta = map(mp.mpf, (l0, linf, eps, delta))

        got = threshold_laplace(sens, eps, delta)
        want = m_linf + m_linf / m_eps * mp.log(m_l0 / (2 * m_delta))
        worst = max(worst, abs(got - float(want)))

        got = threshold_gaussian(sens, eps, delta)
        want = m_linf + m_linf / m_eps * phi_inv_ref(1.0 - delta / l0)
        worst = max(worst, abs(got - float(want)))

        got = topk_threshold(sens, eps, delta)
        want = m_linf + mp.sqrt(2) * m_linf / m_eps * phi_inv_ref(1.0 - delta / l0)
        worst = max(worst, abs(got - float(want)))

        config = CounterConfig.from_privacy(horizon, l0, eps, delta, seed=0)
        depth = horizon.bit_length()
        want = 1 + 1 / m_eps * mp.sqrt(depth + 1) * phi_inv_ref(1.0 - delta / (l0 * horizon))
        worst = max(worst, abs(config.threshold - float(want)))

    elapsed = time.perf_counter() - start
    passed = worst <= 1e-9 and elapsed < 1.0
    report(1, passed, f"worst abs error {worst:.3e} (<=1e-9), {elapsed:.2f}s (<1s)")


def test_criterion_2_accountant_exactness():
    """Accountant ops vs closed forms at 1e-12 relative; compose permutation-exact."""
    rng = np.random.default_rng(20240602)
    start = time.perf_counter()
    worst = 0.0

    def rel(got, want):
        if want == 0:
            return abs(got - want)
        return abs(got - want) / abs(want)

    for _ in range(100):
        l1 = float(rng.uniform(0.1, 5.0))
        scale = float(rng.uniform(0.1, 5.0))
        sigma = float(rng.uniform(0.1, 5.0))
        eps = float(rng.uniform(0.01, 4.0))
        delta = float(10.0 ** rng.uniform(-9.0, -0.7))
        delta_prime = float(10.0 ** rng.uniform(-9.0, -0.7))
        rho = float(rng.uniform(0.0, 3.0))

        worst = max(worst, rel(laplace_pure_dp(l1, scale).epsilon, l1 / scale))
        worst = max(worst, rel(gaussian_cdp(l1, sigma).rho, l1 * l1 / (2 * sigma * sigma)))
        worst = max(worst, rel(expmech_cdp(eps).rho, eps * eps / 8))
        worst = max(worst, rel(dp_to_cdp(DpBudget(eps, delta)).rho, eps * eps / 2))
        got = cdp_to_dp(CdpBudget(delta=delta, rho=rho), delta_prime)
        want = rho + 2 * math.sqrt(rho * math.log(1 / delta_prime))
        worst = max(worst, rel(got.epsilon, want))
        worst = max(worst, rel(got.delta, delta + delta_prime))

    shuffler = np.random.default_rng(7)
    permutation_exact = True
    budgets = [
        CdpBudget(delta=float(d), rho=float(r))
        for d, r in zip(rng.uniform(0, 0.3, 12), rng.uniform(0, 2.0, 12))
    ]
    reference = compose(budgets)
    expected_rho = math.fsum(sorted(b.rho for b in budgets))
    survival = 1.0
    for d in sorted(b.delta for b in budgets):
        survival *= 1.0 - d
    worst = max(worst, rel(reference.rho, expected_rho))
    worst = max(worst, rel(reference.delta, 1.0 - survival))
    for _ in range(25):
        order = shuffler.permutation(len(budgets))
        if compose([budgets[i] for i in order]) != reference:
            permutation_exact = False

    elapsed = time.perf_counter() - start
    passed = worst <= 1e-12 and permutation_exact and elapsed < 1.0
    report(
        2,
        passed,
        f"worst rel error {worst:.3e} (<=1e-12), permutation bit-exact "
        f"{permutation_exact}, {elapsed:.2f}s (<1s)",
    )


def test_criterion_3_composition_comparison():
    """rho-space composition beats DP-space composition at every grid point."""
    start = time.perf_counter()
    checked = 0
    for eps in [round(0.1 * i, 10) for i in range(1, 21)]:
        for exponent in range(2, 9):
            delta_prime = 10.0**-exponent
            single = CdpBudget(delta=0.0, rho=eps * eps / 2.0)
            eps_rho_route = cdp_to_dp(compose([single, single]), delta_prime).epsilon
            eps_dp_route = 2.0 * cdp_to_dp(single, delta_prime).epsilon
            want_rho_route = eps * eps + 2 * eps * math.sqrt(math.log(1 / delta_prime))
            want_dp_route = eps * eps + 2 * eps * math.sqrt(2 * math.log(1 / delta_prime))
            assert abs(eps_rho_route - want_rho_route) <= 1e-12 * want_rho_route
            assert abs(eps_dp_route - want_dp_route) <= 1e-12 * want_dp_route
            assert eps_rho_route < eps_dp_route  # exact inequality, no tolerance
            checked += 1
    elapsed = time.perf_counter() - start
    report(3, elapsed < 1.0, f"{checked} grid points, strict at all, {elapsed:.2f}s (<1s)")


# Exact differentiating-outcome rates at delta = 0.05 (mpmath, 50 digits):
# alg1 both noise laws and topk sit exactly at delta for l0 = 1; gumbel's
# logistic tail is delta/(1+delta); the stream debut tail is
# 1 - Phi(sqrt((depth+1)/popcount(7)) * PhiInv(1 - delta/7)).  Each case is
# its rng.child token, the row of validation._DELTA_EVENT_CHECKS it runs (the
# checks `validate` makes) and the rate.
DELTA_EVENT_CASES = [
    ("alg1-laplace", "alg1-laplace-delta-event", 0.05),
    ("alg1-gaussian", "alg1-gaussian-delta-event", 0.05),
    ("topk", "topk-delta-event", 0.05),
    ("gumbel", "gumbel-delta-event", 0.047619047619047616),
    ("stream", "stream-debut-delta-event", 0.0023345856078238433),
]


def test_criterion_4_delta_event_bounds():
    """Monte-Carlo differentiating frequency vs exact tails, Wilson <= 0.06."""
    trials = 10**5
    rng = RandomSource(20240604)
    rows = {check: (mechanism, fields) for check, mechanism, _, fields in _DELTA_EVENT_CHECKS}
    start = time.perf_counter()
    lines = []
    ok = True
    for name, check, oracle in DELTA_EVENT_CASES:
        pair, config = _delta_event_case(*rows[check])
        assert config.epsilon == 1.0 and config.delta == 0.05
        estimate = estimate_delta_event(pair, config, trials, rng.child(name))
        case_ok = abs(estimate.point - oracle) <= 0.004 and estimate.upper <= 0.06
        ok = ok and case_ok
        lines.append(f"{name}: point={estimate.point:.5f} oracle={oracle:.5f} "
                     f"wilson={estimate.upper:.5f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    report(4, ok, "; ".join(lines) + f"; {elapsed:.1f}s (<120s)")


GUMBEL_CORPUS = [
    ({"a": 1, "b": 1}, 1),
    ({"a": 2, "b": 1}, 1),
    ({"a": 3, "b": 2, "c": 1}, 1),
    ({"a": 3, "b": 2, "c": 1}, 2),
    ({"a": 3, "b": 2, "c": 1}, 3),
    ({"a": 5, "b": 5, "c": 5}, 2),
    ({"a": 10, "b": 1, "c": 1}, 1),
    ({"a": 4, "b": 3, "c": 2, "d": 1}, 2),
    ({"a": 4, "b": 3, "c": 2, "d": 1}, 3),
    ({"a": 2, "b": 2, "c": 2, "d": 2}, 1),
    ({"a": 7, "b": 5, "c": 3, "d": 1}, 2),
    ({"a": 1, "b": 2, "c": 3, "d": 4, "e": 5}, 1),
    ({"a": 1, "b": 2, "c": 3, "d": 4, "e": 5}, 2),
    ({"a": 1, "b": 2, "c": 3, "d": 4, "e": 5}, 3),
    ({"a": 6, "b": 6, "c": 1, "d": 1, "e": 1}, 2),
    ({"a": 9, "b": 8, "c": 7, "d": 6, "e": 5}, 3),
    ({"a": 1, "b": 1, "c": 1, "d": 1, "e": 1}, 2),
    ({"a": 12, "b": 3, "c": 3, "d": 2, "e": 1}, 1),
    ({"a": 5, "b": 4, "c": 3, "d": 2, "e": 1}, 3),
    ({"a": 2, "b": 4, "c": 8}, 2),
]


def test_criterion_5_gumbel_expmech_equivalence():
    """TV(one-shot Gumbel top-k, iterated exponential mechanism) < 0.01."""
    rng = RandomSource(20240605)
    start = time.perf_counter()
    worst = 0.0
    assert len(GUMBEL_CORPUS) == 20
    for index, (counts, k) in enumerate(GUMBEL_CORPUS):
        h = Histogram(counts)
        exact = exact_expmech_topk_distribution(h, k, 1.0)
        empirical = sample_gumbel_topk_outcomes(
            h, k, len(h), 1.0, 10**6, rng.child(index), threshold_disabled=True
        )
        worst = max(worst, tv_distance(empirical, exact))
    elapsed = time.perf_counter() - start
    passed = worst < 0.01 and elapsed < 180.0
    report(5, passed, f"worst TV {worst:.5f} (<0.01) over 20 instances, "
                      f"{elapsed:.1f}s (<180s)")


RENYI_BASES = [
    {"a": 4, "b": 3, "c": 2},
    {"a": 4, "b": 3, "c": 2, "d": 2},
    {"a": 5, "b": 4, "c": 3, "d": 2, "e": 1},
]


def test_criterion_6_renyi_budget_inequality():
    """Exact neighboring selection laws obey D_lambda <= lambda * eps^2 / 8."""
    start = time.perf_counter()
    worst_slack = -math.inf
    for counts, eps in itertools.product(RENYI_BASES, (0.5, 1.0, 2.0)):
        for lowered_label in counts:
            neighbor = dict(counts)
            neighbor[lowered_label] -= 1  # count gap exactly 1, one direction
            p = exact_expmech_topk_distribution(Histogram(counts), 1, eps)
            q = exact_expmech_topk_distribution(Histogram(neighbor), 1, eps)
            rho = eps * eps / 8.0
            for lam in (1.5, 2.0, 4.0, 8.0):
                for a, b in ((p, q), (q, p)):
                    slack = estimate_renyi_divergence(a, b, lam) - lam * rho
                    worst_slack = max(worst_slack, slack)
    elapsed = time.perf_counter() - start
    passed = worst_slack <= 1e-12 and elapsed < 1.0
    report(6, passed, f"max(D_lambda - lambda*rho) = {worst_slack:.3e} (<=1e-12), "
                      f"{elapsed:.2f}s (<1s)")


def test_criterion_7_binary_mechanism_structure():
    """Node counts, worked rounds, noiseless exactness, per-round noise variance."""
    start = time.perf_counter()

    popcount_ok = all(
        active_node_count(r) == bin(r).count("1") for r in range(1, 2**16 + 1)
    )
    worked_ok = active_node_count(8) == 1 and active_node_count(10) == 2

    config = CounterConfig(
        horizon=64, l0=1, sigma=0.0, threshold=3.0, seed=0,
        budget=CdpBudget(0.0, math.inf),
    )
    counter = Counter(config)
    noiseless_ok = True
    for r in range(1, 65):
        snapshot = counter.observe(StreamEvent(r, {"a"}))
        expected = {"a": float(r)} if r > 3 else {}
        noiseless_ok = noiseless_ok and snapshot == expected

    runs = 10**5
    horizon = 64
    noisy_config = CounterConfig(
        horizon=horizon, l0=1, sigma=1.0, threshold=-math.inf, seed=0,
        budget=CdpBudget(0.0, math.inf),
    )
    master = RandomSource(20240607)
    events = [StreamEvent(r, {"a"}) for r in range(1, horizon + 1)]
    sums = np.zeros(horizon)
    sumsq = np.zeros(horizon)
    for i in range(runs):
        counter = Counter(noisy_config, rng=master.child(i))
        for r, event in enumerate(events, start=1):
            err = counter.observe(event)["a"] - r
            sums[r - 1] += err
            sumsq[r - 1] += err * err
    variance_ok = True
    worst_sigmas = 0.0
    for r in range(1, horizon + 1):
        mean = sums[r - 1] / runs
        var = sumsq[r - 1] / runs - mean * mean
        true_var = float(active_node_count(r))
        se_mean = math.sqrt(true_var / runs)
        se_var = true_var * math.sqrt(2.0 / (runs - 1))
        worst_sigmas = max(worst_sigmas, abs(mean) / se_mean, abs(var - true_var) / se_var)
        variance_ok = variance_ok and abs(mean) <= 5 * se_mean
        variance_ok = variance_ok and abs(var - true_var) <= 5 * se_var

    elapsed = time.perf_counter() - start
    passed = popcount_ok and worked_ok and noiseless_ok and variance_ok and elapsed < 120.0
    report(
        7,
        passed,
        f"popcount<=2^16 {popcount_ok}, rounds 8/10 {worked_ok}, sigma=0 exact "
        f"{noiseless_ok}, variance within 5 SE (worst {worst_sigmas:.2f} SE), "
        f"{elapsed:.1f}s (<120s)",
    )


def test_criterion_8_cli_reproducibility(tmp_path, capsys):
    """Every subcommand, run twice with identical config and seed, byte-identical."""
    start = time.perf_counter()
    hist = tmp_path / "h.csv"
    hist.write_text("label,count\napple,40\nbanana,12\ncherry,3\n", encoding="utf-8")
    events = tmp_path / "ev.ndjson"
    events.write_text(
        '{"round": 1, "items": ["a"]}\n{"round": 2, "items": ["a", "b"]}\n',
        encoding="utf-8",
    )

    file_commands = {
        "release": [
            "release", "--noise", "gaussian", "--epsilon", "1", "--delta", "1e-6",
            "--l0", "1", "--linf", "1", "--in", str(hist), "--seed", "7",
        ],
        "topk": [
            "topk", "--kbar", "2", "--epsilon", "1", "--delta", "0.05",
            "--l0", "1", "--linf", "1", "--in", str(hist), "--seed", "11",
        ],
        "gumbel-topk": [
            "gumbel-topk", "--k", "2", "--kbar", "3", "--epsilon", "1",
            "--delta", "0.05", "--l0", "1", "--in", str(hist), "--seed", "13",
        ],
        "stream": [
            "stream", "--horizon", "4", "--epsilon", "1", "--delta", "0.01",
            "--l0", "2", "--in", str(events), "--seed", "17",
        ],
        "validate": ["validate", "--suite", "renyi", "--trials", "10000", "--seed", "0"],
    }
    identical = {}
    for name, argv in file_commands.items():
        flag = "--report" if name == "validate" else "--out"
        first, second = tmp_path / f"{name}1.json", tmp_path / f"{name}2.json"
        assert main(argv + [flag, str(first)]) == 0
        assert main(argv + [flag, str(second)]) == 0
        identical[name] = first.read_bytes() == second.read_bytes()

    capsys.readouterr()
    account = ["account", "cdp-to-dp", "--rho", "0.5", "--delta", "0", "--delta-prime", "1e-6"]
    assert main(account) == 0
    first_out = capsys.readouterr().out
    assert main(account) == 0
    identical["account"] = first_out == capsys.readouterr().out

    elapsed = time.perf_counter() - start
    passed = all(identical.values()) and elapsed < 10.0
    report(8, passed, f"{identical}, {elapsed:.1f}s (<10s)")
