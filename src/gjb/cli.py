"""Command-line interface.

Subcommands: sample, test, simulate, power, reject-size, tables, decide.
Exit codes: 0 success (including decide's accept/inconclusive verdicts),
1 decide rejected normality, 2 usage error, 3 runtime error.

Every subcommand that draws randomness takes --seed and is bit-reproducible
in its report payload (wall_time_ms excluded). Commands run in a single
thread; campaign replicates are processed one stream chunk at a time.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import io as gjb_io
from .errors import GJBError
from .distributions import SkewNormalShape, sample_sn
from .moments import analytic_shape_statistics, shape_statistics, sn_raw_moments
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
    simulate_true_model,
)

_TABLE2_DESK_ALPHAS = (1.5, 6.0, 10.0)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _level(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gjb",
        description="Generalized Jarque-Bera goodness-of-fit test for skew-normal data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw a reproducible SN(alpha) sample as CSV")
    p.add_argument("--alpha", type=float, required=True, help="shape parameter")
    p.add_argument("--n", type=_positive_int, required=True, help="number of draws")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output file (default: stdout)")

    p = sub.add_parser("test", help="test whether a CSV sample follows SN(alpha)")
    p.add_argument("--data", required=True, help="single-column CSV sample file")
    p.add_argument("--alpha", type=float, required=True, help="hypothesized shape")
    p.add_argument("--sigma", choices=("analytic", "mc"), default="analytic",
                   help="covariance route (mc = monte-carlo)")
    p.add_argument("--duplicate", type=_positive_int, default=1, metavar="K",
                   help="test K concatenated copies of the sample")
    p.add_argument("--seed", type=int, default=0, help="seed for the mc route")
    p.add_argument("--level", type=_level, default=0.05)
    p.add_argument("--legacy", action="store_true",
                   help="reproduce the original implementation's conventions")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("simulate", help="mean p-value under the true model")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--size", type=_positive_int, required=True)
    p.add_argument("--reps", type=_positive_int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sigma", choices=("analytic", "mc"), default="analytic")
    p.add_argument("--legacy", action="store_true",
                   help="reproduce the original implementation's conventions")
    p.add_argument("--full", action="store_true",
                   help="include per-replicate p-values in the report")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("power", help="mean p-value against an alternative law")
    p.add_argument("--alpha", type=float, required=True, help="hypothesized shape")
    p.add_argument("--data-alpha", type=float, default=None,
                   help="draw data from SN(this); default: standard normal")
    p.add_argument("--size", type=_positive_int, required=True)
    p.add_argument("--reps", type=_positive_int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sigma", choices=("analytic", "mc"), default="analytic")
    p.add_argument("--legacy", action="store_true")
    p.add_argument("--full", action="store_true")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("reject-size",
                       help="sample size needed to reject normality against SN(alpha)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--level", type=_level, default=0.05)
    p.add_argument("--cap", type=_positive_int, default=2_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=_positive_int, default=500)
    p.add_argument("--start", type=_positive_int, default=10)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("tables", help="reproduce the built-in reference tables")
    p.add_argument("--which", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--budget", choices=("desk", "full"), default="desk",
                   help="desk: minutes-scale; full: adds the large-n columns")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("decide",
                       help="duplication protocol: accept symmetry or reject normality")
    p.add_argument("--data", required=True)
    p.add_argument("--level", type=_level, default=0.05)
    p.add_argument("--k-cap", type=_positive_int, default=20_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    return parser


def _sigma_route(flag: str) -> str:
    return "monte-carlo" if flag == "mc" else "analytic"


def _cmd_sample(args) -> int:
    values = sample_sn(SkewNormalShape(args.alpha), args.n, args.seed)
    gjb_io.write_sample_csv(values, args.out if args.out else sys.stdout)
    return 0


def _cmd_test(args) -> int:
    t0 = time.perf_counter()
    sample = gjb_io.read_sample_csv(args.data)
    outcome = run_test(
        sample.values,
        args.alpha,
        sigma_route=_sigma_route(args.sigma),
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
            "sigma_route": _sigma_route(args.sigma),
            "seed": args.seed,
            "level": args.level,
            "legacy": args.legacy,
        }
    }
    report = gjb_io.test_report(
        "test", args.alpha, outcome, extras,
        wall_time_ms=int(1000 * (time.perf_counter() - t0)),
    )
    gjb_io.write_report(report, args.out, args.format)
    return 0


def _campaign_command(args, true_model: bool) -> int:
    t0 = time.perf_counter()
    config = CampaignConfig(
        alpha=args.alpha,
        sample_size=args.size,
        replications=args.reps,
        seed=args.seed,
        sigma_route=_sigma_route(args.sigma),
        legacy=args.legacy,
    )
    if true_model:
        result = simulate_true_model(config)
        data_alpha = args.alpha
        command = "simulate"
    else:
        result = simulate_alternative(config, data_alpha=args.data_alpha)
        data_alpha = args.data_alpha
        command = "power"
    payload = {
        "alpha": args.alpha,
        "data_alpha": data_alpha,
        "n": args.size,
        "replications": args.reps,
        "seed": args.seed,
        "sigma_route": config.sigma_route,
        "legacy": args.legacy,
        "mean_p_value": result.mean_p_value,
    }
    if args.full:
        payload["p_values"] = list(result.p_values)
    report = gjb_io.Report(
        command=command, payload=payload,
        wall_time_ms=int(1000 * (time.perf_counter() - t0)),
    )
    gjb_io.write_report(report, args.out, args.format)
    return 0


def _cmd_reject_size(args) -> int:
    t0 = time.perf_counter()
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
    report = gjb_io.Report(
        command="reject-size", payload=payload,
        wall_time_ms=int(1000 * (time.perf_counter() - t0)),
    )
    gjb_io.write_report(report, args.out, args.format)
    return 0


def _print_table(header: list[str], rows: list[list[str]]) -> None:
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    def fmt(row):
        return "  ".join(str(cell).rjust(w) for cell, w in zip(row, widths))
    print(fmt(header))
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print(fmt(row))


def _cmd_tables(args) -> int:
    if args.which == 3:
        header = ["alpha", "kurtosis", "skewness", "ref kurtosis", "ref skewness"]
        rows = []
        for alpha, (ref_k, ref_s) in REFERENCE_SHAPE_VALUES.items():
            shape = SkewNormalShape(alpha)
            stats = analytic_shape_statistics(shape)
            cross = shape_statistics(sn_raw_moments(shape))
            if abs(stats.kurtosis - cross.kurtosis) > 1e-10 or \
               abs(stats.skewness - cross.skewness) > 1e-10:
                raise GJBError("closed-form and raw-moment paths disagree")
            rows.append([alpha, f"{stats.kurtosis:.5f}", f"{stats.skewness:.5f}",
                         ref_k, ref_s])
        print("Kurtosis and skewness by shape (two independent paths, reference alongside)")
        _print_table(header, rows)
        return 0

    if args.which == 1:
        reps = 1000 if args.budget == "desk" else 2000
        print(f"Mean p-values under the true model (percent, reps={reps}, "
              f"legacy conventions to match the reference grid)")
        sizes = sorted({size for size, _ in REFERENCE_MEAN_PVALUES})
        alphas = sorted({alpha for _, alpha in REFERENCE_MEAN_PVALUES})
        header = ["size \\ alpha"] + [str(a) for a in alphas]
        rows = []
        for size in sizes:
            row = [str(size)]
            for alpha in alphas:
                config = CampaignConfig(
                    alpha=alpha, sample_size=size, replications=reps,
                    seed=args.seed, legacy=True,
                )
                mean_p = simulate_true_model(config).mean_p_value
                ref = REFERENCE_MEAN_PVALUES[(size, alpha)]
                row.append(f"{100 * mean_p:.2f} (ref {ref})")
            rows.append(row)
        _print_table(header, rows)
        return 0

    alphas = _TABLE2_DESK_ALPHAS if args.budget == "desk" else REFERENCE_REJECTION_SIZES
    print(f"Size needed to reject normality at the 5% level (budget={args.budget})")
    header = ["alpha", "n", "reference n"]
    rows = []
    for alpha in alphas:
        result = rejection_size_search(alpha, 0.05, args.seed, cap=4_000_000)
        n_text = str(result.n) if result.n is not None else "> cap"
        rows.append([alpha, n_text, REFERENCE_REJECTION_SIZES[alpha]])
    _print_table(header, rows)
    return 0


def _cmd_decide(args) -> int:
    t0 = time.perf_counter()
    sample = gjb_io.read_sample_csv(args.data)
    decision = duplication_decision(
        sample.values, level=args.level, k_cap=args.k_cap, seed=args.seed
    )
    extras = {
        "alpha_hat": decision.alpha_hat,
        "ci_low": decision.ci_low,
        "ci_high": decision.ci_high,
        "capped": decision.capped,
        "config": {
            "data": args.data,
            "level": args.level,
            "k_cap": args.k_cap,
            "seed": args.seed,
        },
    }
    report = gjb_io.test_report(
        "decide", 0.0, decision.test, extras,
        wall_time_ms=int(1000 * (time.perf_counter() - t0)),
    )
    # the decision verdict supersedes the inner test's accept/reject
    report.payload["verdict"] = decision.verdict
    gjb_io.write_report(report, args.out, args.format)
    return 1 if decision.verdict == "reject-normality" else 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "sample": _cmd_sample,
        "test": _cmd_test,
        "simulate": lambda a: _campaign_command(a, true_model=True),
        "power": lambda a: _campaign_command(a, true_model=False),
        "reject-size": _cmd_reject_size,
        "tables": _cmd_tables,
        "decide": _cmd_decide,
    }
    try:
        return handlers[args.command](args)
    except (GJBError, OSError) as exc:
        print(f"gjb: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
