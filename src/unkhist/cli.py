"""Command-line front end.

Exit codes: 0 success, 2 parameter or input error, 3 I/O error.  Results go
to the output file (or standard output, only when no file is given);
diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .accountant import (
    CdpBudget,
    DpBudget,
    cdp_to_dp,
    cdp_to_dp_optimize,
    compose,
    dp_to_cdp,
    expmech_cdp,
    gaussian_cdp,
    laplace_pure_dp,
)
from .core import IngestionError, ParameterError, RandomSource, SensitivityBound
# canonical_json stays bound here for perfbench/tracing.py, which wraps it.
from .fileio import (  # noqa: F401
    canonical_json,
    open_text,
    parse_histogram_csv,
    ranked_report_payload,
    read_budget,
    release_report_payload,
    snapshot_payload,
    stream_header_payload,
    write_report_json,
)
from .gumbel import gumbel_threshold, release_gumbel_topk
from .release import release
from .stream import Counter, CounterConfig, StreamEvent
from .topk import release_topk
from .validation import SUITES, run_suite

__all__ = ["build_parser", "main", "entrypoint"]


def _report_meta(args, *names: str) -> dict:
    """A report header's params (the named arguments as parsed) and seed."""
    return {"params": {name: getattr(args, name) for name in names}, "seed": args.seed}


def _cmd_release(args) -> int:
    histogram = parse_histogram_csv(args.infile)
    sens = SensitivityBound(l0=args.l0, linf=args.linf)
    report = release(
        histogram,
        sens,
        args.noise,
        args.epsilon,
        args.delta,
        RandomSource(args.seed),
        min_count=args.min_count,
    )
    meta = _report_meta(args, "noise", "epsilon", "delta", "l0", "linf", "min_count")
    write_report_json(release_report_payload(report, **meta), args.out)
    return 0


def _cmd_topk(args) -> int:
    histogram = parse_histogram_csv(args.infile)
    sens = SensitivityBound(l0=args.l0, linf=args.linf)
    report = release_topk(
        histogram, args.kbar, sens, args.epsilon, args.delta, RandomSource(args.seed)
    )
    meta = _report_meta(args, "kbar", "epsilon", "delta", "l0", "linf")
    write_report_json(release_report_payload(report, **meta), args.out)
    return 0


def _cmd_gumbel_topk(args) -> int:
    histogram = parse_histogram_csv(args.infile)
    ranked, budget = release_gumbel_topk(
        histogram, args.k, args.kbar, args.l0, args.epsilon, args.delta, RandomSource(args.seed)
    )
    payload = ranked_report_payload(
        ranked,
        budget,
        **_report_meta(args, "k", "kbar", "l0", "epsilon", "delta"),
        threshold_public=gumbel_threshold(args.l0, args.epsilon, args.delta),
    )
    write_report_json(payload, args.out)
    return 0


def _read_stream_events(path: str) -> list[StreamEvent]:
    events = []
    with open_text(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise IngestionError(f"{path}: line {lineno}: invalid JSON: {exc}") from None
            if not isinstance(payload, dict) or set(payload) != {"round", "items"}:
                raise IngestionError(
                    f"{path}: line {lineno}: events must be objects with round and items"
                )
            if not isinstance(payload["items"], list):
                raise IngestionError(f"{path}: line {lineno}: items must be a list")
            try:
                events.append(StreamEvent(payload["round"], payload["items"]))
            except ParameterError as exc:
                raise IngestionError(f"{path}: line {lineno}: {exc}") from None
    return events


def _cmd_stream(args) -> int:
    events = _read_stream_events(args.infile)
    config = CounterConfig.from_privacy(
        args.horizon, args.l0, args.epsilon, args.delta, args.seed
    )
    header = stream_header_payload(
        **_report_meta(args, "horizon", "l0", "epsilon", "delta"),
        threshold_public=config.threshold,
        budget=config.budget,
    )
    counter = Counter(config)
    snapshots = (snapshot_payload(event.round, counter.observe(event)) for event in events)
    write_report_json(header, args.out, snapshots)
    return 0


def _cmd_account(args) -> int:
    write_report_json(args.budget(args).to_json_dict(), None)
    return 0


def _cmd_validate(args) -> int:
    report = run_suite(args.suite, args.trials, args.seed)
    write_report_json(report, args.report)
    return 0 if report["passed"] else 1


def _add_common_release_flags(parser, *, with_linf: bool) -> None:
    parser.add_argument("--epsilon", type=float, required=True, help="privacy loss per run")
    parser.add_argument("--delta", type=float, required=True, help="failure probability")
    parser.add_argument("--l0", type=int, required=True, help="labels one user can touch")
    if with_linf:
        parser.add_argument(
            "--linf", type=float, required=True, help="per-count change one user can cause"
        )
    parser.add_argument("--in", dest="infile", required=True, help="input histogram CSV")
    parser.add_argument("--out", default=None, help="report path (default: stdout)")
    parser.add_argument("--seed", type=int, required=True, help="root seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unkhist",
        description="Differentially private release of histograms over unknown domains.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("release", help="thresholded noisy histogram release", allow_abbrev=False)
    p.add_argument("--noise", choices=("laplace", "gaussian"), required=True)
    _add_common_release_flags(p, with_linf=True)
    p.add_argument("--min-count", type=int, default=1, help="ingestion floor (default 1)")
    p.set_defaults(handler=_cmd_release)

    p = sub.add_parser("topk", help="release from the top-kbar truncated histogram", allow_abbrev=False)
    p.add_argument("--kbar", type=int, required=True, help="available top entries")
    _add_common_release_flags(p, with_linf=True)
    p.set_defaults(handler=_cmd_topk)

    p = sub.add_parser("gumbel-topk", help="one-shot ranked top-k, no counts", allow_abbrev=False)
    p.add_argument("--k", type=int, required=True, help="list length to release")
    p.add_argument("--kbar", type=int, required=True, help="available top entries")
    _add_common_release_flags(p, with_linf=False)
    p.set_defaults(handler=_cmd_gumbel_topk)

    p = sub.add_parser("stream", help="continual counter over NDJSON events", allow_abbrev=False)
    p.add_argument("--horizon", type=int, required=True, help="maximum stream length")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--l0", type=int, required=True, help="items one event can carry")
    p.add_argument("--in", dest="infile", required=True, help="NDJSON event file")
    p.add_argument("--out", default=None, help="snapshot NDJSON path (default: stdout)")
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(handler=_cmd_stream)

    p = sub.add_parser("account", help="budget arithmetic", allow_abbrev=False)
    actions = p.add_subparsers(dest="action", required=True, metavar="action")

    a = actions.add_parser("laplace-dp", help="pure DP of the Laplace mechanism", allow_abbrev=False)
    a.add_argument("--l1", type=float, required=True)
    a.add_argument("--scale", type=float, required=True)
    a.set_defaults(budget=lambda args: laplace_pure_dp(args.l1, args.scale))

    a = actions.add_parser("gaussian-cdp", help="zCDP of the Gaussian mechanism", allow_abbrev=False)
    a.add_argument("--l2", type=float, required=True)
    a.add_argument("--sigma", type=float, required=True)
    a.set_defaults(budget=lambda args: gaussian_cdp(args.l2, args.sigma))

    a = actions.add_parser("expmech-cdp", help="zCDP of the exponential mechanism", allow_abbrev=False)
    a.add_argument("--epsilon", type=float, required=True)
    a.set_defaults(budget=lambda args: expmech_cdp(args.epsilon))

    a = actions.add_parser("dp-to-cdp", help="convert (epsilon, delta)-DP to zCDP", allow_abbrev=False)
    a.add_argument("--epsilon", type=float, required=True)
    a.add_argument("--delta", type=float, required=True)
    a.set_defaults(budget=lambda args: dp_to_cdp(DpBudget(epsilon=args.epsilon, delta=args.delta)))

    a = actions.add_parser("cdp-to-dp", help="convert zCDP to (epsilon, delta)-DP", allow_abbrev=False)
    a.add_argument("--rho", type=float, required=True)
    a.add_argument("--delta", type=float, required=True)
    a.add_argument("--delta-prime", type=float, required=True)
    a.set_defaults(budget=lambda args: cdp_to_dp(CdpBudget(args.delta, args.rho), args.delta_prime))

    a = actions.add_parser("optimize", help="best delta split for a DP target", allow_abbrev=False)
    a.add_argument("--rho", type=float, required=True)
    a.add_argument("--delta", type=float, required=True)
    a.add_argument("--total-delta", type=float, required=True)
    a.set_defaults(
        budget=lambda args: cdp_to_dp_optimize(CdpBudget(args.delta, args.rho), args.total_delta)
    )

    a = actions.add_parser("compose", help="compose budgets from report files", allow_abbrev=False)
    a.add_argument("reports", nargs="+", help="report JSON files")
    a.set_defaults(budget=lambda args: compose([read_budget(path) for path in args.reports]))

    p.set_defaults(handler=_cmd_account)

    p = sub.add_parser("validate", help="run a statistical validation suite", allow_abbrev=False)
    p.add_argument("--suite", choices=SUITES, required=True)
    p.add_argument(
        "--trials",
        type=int,
        default=None,
        help="override the per-check defaults (1e5 frequency, 1e6 distance)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default=None, help="report JSON path (default: stdout)")
    p.set_defaults(handler=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())
