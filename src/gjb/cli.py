"""Command-line interface.

Subcommands: sample, test, simulate, power, reject-size, tables, decide.
Exit codes: 0 success (including decide's accept/inconclusive verdicts),
1 decide rejected normality, 2 usage error, 3 runtime error.

Every subcommand that draws randomness takes --seed and is bit-reproducible
in its report payload (wall_time_ms excluded) for a given numpy build and set
of CPU features that numpy dispatches to; the draws themselves are the same
on every platform. Campaign replicates, the decide bootstrap and
Monte-Carlo covariances are processed in stream chunks shared among every
usable core; the payloads are bit-identical for any core count or affinity
mask. decide bootstraps its shape interval only for samples below 10^4
values; from there on it uses the influence-function interval, which draws
nothing, and its report's ci_method says which.

Options shared by several subcommands are declared once each, in helper
functions that add them to a subcommand's parser; ``main`` builds the
parser of the command it runs only, and ``build_parser()`` the full one
(for ``gjb``, ``gjb -h`` and unknown commands).
Report commands (test, simulate, power, reject-size, decide) return a
``Report``; ``main`` alone times the command, stamps ``wall_time_ms``,
writes the report and maps the outcome to an exit code. sample and tables
print their own output.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

from . import io as gjb_io
from .errors import GJBError
from .distributions import SkewNormalShape, sample_sn
from .moments import analytic_shape_statistics
from .reference import (
    REFERENCE_MEAN_PVALUES,
    REFERENCE_REJECTION_SIZES,
    REFERENCE_SHAPE_VALUES,
)
from .testing import (
    CampaignConfig,
    duplication_decision,
    rejection_size_search,
    run_test,
    simulate_alternative,
    simulate_campaigns,
)

_TABLE2_DESK_ALPHAS = (1.5, 6.0, 10.0)


def _int_at_least(k: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < k:
            raise argparse.ArgumentTypeError(f"must be >= {k}, got {value}")
        return value
    return integer


def _level(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {value}")
    return value


# options shared by several subcommands, each declared once
def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=_int_at_least(0), default=0)


def _add_level(p: argparse.ArgumentParser) -> None:
    p.add_argument("--level", type=_level, default=0.05)


def _add_model(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sigma", choices=("analytic", "mc"), default="analytic",
                   help="covariance route (mc = monte-carlo)")
    p.add_argument("--legacy", action="store_true",
                   help="reproduce the original implementation's conventions")


def _add_report(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="report file (default: stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _sample_options(p: argparse.ArgumentParser) -> None:
    _add_seed(p)
    p.add_argument("--alpha", type=float, required=True, help="shape parameter")
    p.add_argument("--n", type=_int_at_least(1), required=True, help="number of draws")
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.set_defaults(handler=_cmd_sample)


def _test_options(p: argparse.ArgumentParser) -> None:
    for add in (_add_seed, _add_level, _add_model, _add_report):
        add(p)
    p.add_argument("--data", required=True, help="single-column CSV sample file")
    p.add_argument("--alpha", type=float, required=True, help="hypothesized shape")
    p.add_argument("--duplicate", type=_int_at_least(1), default=1, metavar="K",
                   help="test K concatenated copies of the sample")
    p.set_defaults(handler=_cmd_test)


def _campaign_options(p: argparse.ArgumentParser) -> None:
    for add in (_add_seed, _add_model, _add_report):
        add(p)
    p.add_argument("--alpha", type=float, required=True, help="hypothesized shape")
    p.add_argument("--size", type=_int_at_least(2), required=True)
    p.add_argument("--reps", type=_int_at_least(1), default=1000)
    p.add_argument("--full", action="store_true",
                   help="include per-replicate p-values in the report")
    p.set_defaults(handler=_cmd_campaign)


def _power_options(p: argparse.ArgumentParser) -> None:
    _campaign_options(p)
    p.add_argument("--data-alpha", type=float, default=None,
                   help="draw data from SN(this); default: standard normal")


def _reject_size_options(p: argparse.ArgumentParser) -> None:
    for add in (_add_seed, _add_level, _add_report):
        add(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--cap", type=_int_at_least(1), default=2_000_000)
    p.add_argument("--reps", type=_int_at_least(1), default=500)
    p.add_argument("--start", type=_int_at_least(2), default=10)
    p.set_defaults(handler=_cmd_reject_size)


def _tables_options(p: argparse.ArgumentParser) -> None:
    _add_seed(p)
    p.add_argument("--which", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--budget", choices=("desk", "full"), default="desk",
                   help="desk: seconds-scale; full: table 1 runs 2000 replicates "
                        "per cell instead of 1000 and table 2 searches every "
                        "reference alpha instead of 1.5, 6 and 10 (minutes); "
                        "table 3 ignores it")
    p.set_defaults(handler=_cmd_tables)


def _decide_options(p: argparse.ArgumentParser) -> None:
    for add in (_add_seed, _add_level, _add_report):
        add(p)
    p.add_argument("--data", required=True)
    p.add_argument("--k-cap", type=_int_at_least(1), default=20_000)
    p.set_defaults(handler=_cmd_decide)


# subcommand -> (help line, function that adds its options)
_COMMANDS = {
    "sample": ("draw a reproducible SN(alpha) sample as CSV", _sample_options),
    "test": ("test whether a CSV sample follows SN(alpha)", _test_options),
    "simulate": ("mean p-value under the true model", _campaign_options),
    "power": ("mean p-value against an alternative law", _power_options),
    "reject-size": ("sample size needed to reject normality against SN(alpha)",
                    _reject_size_options),
    "tables": ("reproduce the built-in reference tables", _tables_options),
    "decide": ("duplication protocol: accept symmetry or reject normality",
               _decide_options),
}


def build_parser() -> argparse.ArgumentParser:
    """The ``gjb`` parser with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="gjb",
        description="Generalized Jarque-Bera goodness-of-fit test for skew-normal data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_options) in _COMMANDS.items():
        add_options(sub.add_parser(name, help=help_text))
    return parser


def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of subcommand ``name`` alone. It reads ``name``'s options
    to the namespace, and prints the help and errors, of the full parser's
    ``name`` subparser."""
    parser = argparse.ArgumentParser(prog=f"gjb {name}")
    _COMMANDS[name][1](parser)
    parser.set_defaults(command=name)
    return parser


def _sigma_route(flag: str) -> str:
    return "monte-carlo" if flag == "mc" else "analytic"


def _cmd_sample(args) -> None:
    values = sample_sn(SkewNormalShape(args.alpha), args.n, args.seed)
    gjb_io.write_sample_csv(values, args.out)


def _cmd_test(args) -> gjb_io.Report:
    sample = gjb_io.read_sample_csv(args.data)
    route = _sigma_route(args.sigma)
    outcome = run_test(
        sample.values,
        args.alpha,
        sigma_route=route,
        duplication_factor=args.duplicate,
        seed=args.seed,
        legacy=args.legacy,
        level=args.level,
    )
    extras = {
        "config": {
            "data": args.data,
            "parsed_rows": sample.parsed_rows,
            "skipped_rows": sample.skipped_rows,
            "sigma_route": route,
            "seed": args.seed,
            "level": args.level,
            "legacy": args.legacy,
        }
    }
    return gjb_io.test_report("test", outcome, extras)


def _cmd_campaign(args) -> gjb_io.Report:
    config = CampaignConfig(
        sample_size=args.size,
        replications=args.reps,
        seed=args.seed,
        sigma_route=_sigma_route(args.sigma),
        legacy=args.legacy,
    )
    data_alpha = args.alpha if args.command == "simulate" else args.data_alpha
    p_values = simulate_alternative(config, args.alpha, data_alpha=data_alpha)
    payload = {
        "alpha": args.alpha,
        "data_alpha": data_alpha,
        "n": args.size,
        "replications": args.reps,
        "seed": args.seed,
        "sigma_route": config.sigma_route,
        "legacy": args.legacy,
        # exact when every replicate has the same p, as at n = 2
        "mean_p_value": float(p_values[0] + (p_values - p_values[0]).mean()),
    }
    if args.full:
        payload["p_values"] = list(p_values)
    return gjb_io.Report(command=args.command, payload=payload)


def _cmd_reject_size(args) -> gjb_io.Report:
    result = rejection_size_search(
        args.alpha, args.level, args.seed,
        cap=args.cap, reps=args.reps, start=args.start,
    )
    payload = {
        "alpha": args.alpha,
        "level": args.level,
        "cap": args.cap,
        "seed": args.seed,
        "replications": args.reps,
        "n": result.n,
        "capped": result.capped,
        "trace": [[n, p] for n, p in result.trace],
    }
    return gjb_io.Report(command="reject-size", payload=payload)


def _print_table(header: list[str], rows: list[list[str]]) -> None:
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    def fmt(row):
        return "  ".join(str(cell).rjust(w) for cell, w in zip(row, widths))
    print(fmt(header))
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print(fmt(row))


def _cmd_tables(args) -> None:
    """Print table 1 (mean p-values under the true model, legacy
    conventions), 2 (sizes that reject normality) or 3 (shape statistics),
    each next to its reference.

    Each row of table 1 is one campaign pass over the six shapes; the
    n = 2 row draws nothing and is the same for every seed (see
    :func:`gjb.testing.simulate_campaigns`).
    """
    if args.which == 3:
        header = ["alpha", "kurtosis", "skewness", "ref kurtosis", "ref skewness"]
        rows = []
        for alpha, (ref_k, ref_s) in REFERENCE_SHAPE_VALUES.items():
            stats = analytic_shape_statistics(SkewNormalShape(alpha))
            rows.append([alpha, f"{stats.kurtosis:.5f}", f"{stats.skewness:.5f}",
                         ref_k, ref_s])
        print("Kurtosis and skewness by shape (closed form, reference alongside)")
    elif args.which == 1:
        reps = 1000 if args.budget == "desk" else 2000
        print(f"Mean p-values under the true model (percent, reps={reps}, "
              f"legacy conventions to match the reference grid)")
        sizes = sorted({size for size, _ in REFERENCE_MEAN_PVALUES})
        alphas = sorted({alpha for _, alpha in REFERENCE_MEAN_PVALUES})
        header = ["size \\ alpha"] + [str(a) for a in alphas]
        rows = []
        for size in sizes:
            # one pass per size: the shapes share the size's replicate stream
            config = CampaignConfig(sample_size=size, replications=reps,
                                    seed=args.seed, legacy=True)
            means = [float(p[0] + (p - p[0]).mean())
                     for p in simulate_campaigns(config, alphas, alphas)]
            rows.append([str(size)] + [
                f"{100 * mean:.2f} (ref {REFERENCE_MEAN_PVALUES[(size, alpha)]})"
                for alpha, mean in zip(alphas, means)
            ])
    else:
        alphas = _TABLE2_DESK_ALPHAS if args.budget == "desk" else REFERENCE_REJECTION_SIZES
        print(f"Size needed to reject normality at the 5% level (budget={args.budget})")
        header = ["alpha", "n", "reference n"]
        rows = []
        for alpha in alphas:
            result = rejection_size_search(alpha, 0.05, args.seed, cap=4_000_000)
            n_text = str(result.n) if result.n is not None else "> cap"
            rows.append([alpha, n_text, REFERENCE_REJECTION_SIZES[alpha]])
    _print_table(header, rows)


def _cmd_decide(args) -> gjb_io.Report:
    sample = gjb_io.read_sample_csv(args.data)
    decision = duplication_decision(
        sample.values, level=args.level, k_cap=args.k_cap, seed=args.seed
    )
    extras = {
        # the decision verdict supersedes the inner test's accept/reject
        "verdict": decision.verdict,
        "alpha_hat": decision.alpha_hat,
        "ci_low": decision.ci_low,
        "ci_high": decision.ci_high,
        "ci_method": decision.ci_method,
        "capped": decision.capped,
        "config": {
            "data": args.data,
            "parsed_rows": sample.parsed_rows,
            "skipped_rows": sample.skipped_rows,
            "level": args.level,
            "k_cap": args.k_cap,
            "seed": args.seed,
        },
    }
    return gjb_io.test_report("decide", decision.test, extras)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # only the command being run needs its parser built
    if argv and argv[0] in _COMMANDS:
        args = _command_parser(argv[0]).parse_args(argv[1:])
    else:
        args = build_parser().parse_args(argv)
    try:
        t0 = time.perf_counter()
        report = args.handler(args)
        if report is None:  # sample and tables print their own output
            return 0
        report = dataclasses.replace(
            report, wall_time_ms=int(1000 * (time.perf_counter() - t0))
        )
        gjb_io.write_report(report, args.out, args.format)
    except (GJBError, OSError, MemoryError) as exc:
        # a bare MemoryError (a list too long to build, say) has no text
        text = "out of memory" if isinstance(exc, MemoryError) and not str(exc) else exc
        print(f"gjb: error: {text}", file=sys.stderr)
        return 3
    return 1 if report.payload.get("verdict") == "reject-normality" else 0


if __name__ == "__main__":
    sys.exit(main())
