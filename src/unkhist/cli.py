"""Command-line front end.

Exit codes: 0 success, 2 parameter or input error, 3 I/O error or out of
memory.  Results go to the output file (or standard output, only when no
file is given); diagnostics go to standard error.  `main` registers every
subcommand but fills in the arguments of the invoked one only.  The four
release commands share one handler, `_run`.  `fileio` reads both input
formats; `stream` reads its event file lazily, as `stream.counter_sweep`
builds its report, at most a window of events ahead.
"""

from __future__ import annotations

import argparse
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
from .core import ParameterError, RandomSource, SensitivityBound, check_seed
# canonical_json stays bound here for perfbench/tracing.py, which wraps it.
from .fileio import (  # noqa: F401
    canonical_json,
    parse_histogram_csv,
    ranked_report_payload,
    read_budget,
    read_stream_events,
    release_report_payload,
    snapshot_payload,
    stream_header_payload,
    write_report_json,
)
from .gumbel import gumbel_threshold, release_gumbel_topk
from .release import release
from .stream import CounterConfig, counter_sweep
from .topk import release_topk
from .validation import SUITES, run_suite

__all__ = ["build_parser", "main", "entrypoint"]

#: Namespace entries of a release command that are not among its report's params.
_NOT_PARAMS = ("command", "handler", "infile", "out", "seed")


def _run(args) -> int:
    """Each release command, in one order: check the seed; read and check the
    input, run the mechanism and build the report; then write the report,
    only once all of that has succeeded.  The report's params are the flags
    of its command but --in, --out and --seed.  The fileio and mechanism
    functions are looked up in this module when called (perfbench wraps them)."""
    seed = check_seed(args.seed)
    params = {name: value for name, value in vars(args).items() if name not in _NOT_PARAMS}
    meta = {"params": params, "seed": seed}
    rows = ()
    if args.command == "stream":
        config = CounterConfig.from_privacy(args.horizon, args.l0, args.epsilon, args.delta, seed)
        payload = stream_header_payload(
            **meta, threshold_public=config.threshold, budget=config.budget
        )
        # Lazy: the file is read, and the counter run, as the report is built.
        events = read_stream_events(config, args.infile)
        rows = (snapshot_payload(r, released) for r, released in counter_sweep(config, events))
    else:
        # release's floor is checked as the file is read, to name the line.
        histogram = parse_histogram_csv(args.infile, getattr(args, "min_count", 0))
        rng = RandomSource(seed)
        if args.command == "gumbel-topk":
            ranked, budget = release_gumbel_topk(
                histogram, args.k, args.kbar, args.l0, args.epsilon, args.delta, rng
            )
            threshold = gumbel_threshold(args.l0, args.epsilon, args.delta)
            payload = ranked_report_payload(ranked, budget, **meta, threshold_public=threshold)
        else:
            sens = SensitivityBound(l0=args.l0, linf=args.linf)
            if args.command == "topk":
                report = release_topk(histogram, args.kbar, sens, args.epsilon, args.delta, rng)
            else:
                report = release(
                    histogram, sens, args.noise, args.epsilon, args.delta, rng,
                    min_count=args.min_count,
                )  # fmt: skip
            payload = release_report_payload(report, **meta)
    write_report_json(payload, args.out, rows)
    return 0


def _cmd_account(args) -> int:
    write_report_json(args.budget(args).to_json_dict(), None)
    return 0


def _cmd_validate(args) -> int:
    report = run_suite(args.suite, args.trials, args.seed)
    write_report_json(report, args.report)
    return 0 if report["passed"] else 1


def _add_release_flags(parser) -> None:
    """The flags every release command takes, and `_run` as its handler."""
    parser.add_argument("--epsilon", type=float, required=True, help="privacy loss per run")
    parser.add_argument("--delta", type=float, required=True, help="failure probability")
    parser.add_argument(
        "--l0", type=int, required=True, help="labels one user (or stream event) can touch"
    )
    parser.add_argument(
        "--in", dest="infile", required=True, help="input: histogram CSV, or NDJSON stream events"
    )
    parser.add_argument("--out", default=None, help="report path (default: stdout)")
    parser.add_argument("--seed", type=int, required=True, help="root seed, in [0, 2**64)")
    parser.set_defaults(handler=_run)


#: Each `account` action: its help, its required float flags and the budget they give.
_ACCOUNT_ACTIONS = {
    "laplace-dp": ("pure DP of the Laplace mechanism", ["--l1", "--scale"],
                   lambda args: laplace_pure_dp(args.l1, args.scale)),
    "gaussian-cdp": ("zCDP of the Gaussian mechanism", ["--l2", "--sigma"],
                     lambda args: gaussian_cdp(args.l2, args.sigma)),
    "expmech-cdp": ("zCDP of the exponential mechanism", ["--epsilon"],
                    lambda args: expmech_cdp(args.epsilon)),
    "dp-to-cdp": ("convert (epsilon, delta)-DP to zCDP", ["--epsilon", "--delta"],
                  lambda args: dp_to_cdp(DpBudget(epsilon=args.epsilon, delta=args.delta))),
    "cdp-to-dp": ("convert zCDP to (epsilon, delta)-DP", ["--rho", "--delta", "--delta-prime"],
                  lambda args: cdp_to_dp(CdpBudget(args.delta, args.rho), args.delta_prime)),
    "optimize": ("best delta split for a DP target", ["--rho", "--delta", "--total-delta"],
                 lambda args: cdp_to_dp_optimize(CdpBudget(args.delta, args.rho), args.total_delta)),
    "compose": ("compose budgets from report files", [],
                lambda args: compose([read_budget(path) for path in args.reports])),
}  # fmt: skip


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser.  Every subcommand is registered with its help, but only
    `command` is given its arguments; all are when it is None or unknown."""
    parser = argparse.ArgumentParser(
        prog="unkhist",
        description="Differentially private release of histograms over unknown domains.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    fill_all = command not in ("release", "topk", "gumbel-topk", "stream", "account", "validate")

    def add(name: str, help: str):
        """The registered subcommand's parser if it is to be filled in, else None."""
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        return p if fill_all or name == command else None

    linf_help = "per-count change one user can cause"
    if p := add("release", "thresholded noisy histogram release"):
        p.add_argument("--noise", choices=("laplace", "gaussian"), required=True)
        p.add_argument("--linf", type=float, required=True, help=linf_help)
        p.add_argument("--min-count", type=int, default=1, help="ingestion floor (default 1)")
        _add_release_flags(p)

    if p := add("topk", "release from the top-kbar truncated histogram"):
        p.add_argument("--kbar", type=int, required=True, help="available top entries")
        p.add_argument("--linf", type=float, required=True, help=linf_help)
        _add_release_flags(p)

    if p := add("gumbel-topk", "one-shot ranked top-k, no counts"):
        p.add_argument("--k", type=int, required=True, help="list length to release")
        p.add_argument("--kbar", type=int, required=True, help="available top entries")
        _add_release_flags(p)

    if p := add("stream", "continual counter over NDJSON events"):
        p.add_argument("--horizon", type=int, required=True, help="maximum stream length")
        _add_release_flags(p)

    if p := add("account", "budget arithmetic"):
        actions = p.add_subparsers(dest="action", required=True, metavar="action")
        for name, (action_help, flags, budget) in _ACCOUNT_ACTIONS.items():
            a = actions.add_parser(name, help=action_help, allow_abbrev=False)
            for flag in flags:
                a.add_argument(flag, type=float, required=True)
            if name == "compose":
                a.add_argument("reports", nargs="+", help="report JSON files")
            a.set_defaults(budget=budget)
        p.set_defaults(handler=_cmd_account)

    if p := add("validate", "run a statistical validation suite"):
        p.add_argument("--suite", choices=SUITES, required=True)
        p.add_argument(
            "--trials",
            type=int,
            default=None,
            help="override the per-check defaults (1e5 frequency, 1e6 distance)",
        )
        p.add_argument("--seed", type=int, default=0, help="root seed, in [0, 2**64) (default 0)")
        p.add_argument("--report", default=None, help="report JSON path (default: stdout)")
        p.set_defaults(handler=_cmd_validate)

    return parser


def main(argv=None) -> int:
    # The top-level parser has no option that takes a value, so the first
    # entry that is not an option names the subcommand.
    words = sys.argv[1:] if argv is None else argv
    parser = build_parser(next((word for word in words if not word.startswith("-")), None))
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
    except MemoryError:
        print(f"error: out of memory running {args.command}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())
