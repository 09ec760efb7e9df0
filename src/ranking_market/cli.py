"""Command-line front end: instance generation, experiment execution, and
machine-readable CSV/JSON output.

`main` runs every subcommand through one pipeline: resolve the master seed
(a fresh 48-bit one without --seed), load the instance and arrival order the
subcommand takes, time its computation, write one stderr line
"<subcommand>: <summary>, seed S (T s)" and emit its rows, each ending with
the seed, to stdout (or --out). That machine output is the byte contract:
rerunning with its seed reproduces it byte for byte, for any --jobs setting.
Numeric fields carry 12 significant digits; JSON "config" keys follow
_CONFIG_KEYS. Stderr (summary, timing, errors) is not part of the contract.

Exit codes: 0 all requested assertions pass, 1 an assertion failed,
2 usage or input errors, 3 an unexpected internal error (a bug, reported
in one stderr line; never a failed check).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

from .analysis import (
    GUARANTEE,
    aux_rng,
    edge_guarantee_sweep,
    estimate_competitive_ratio,
    estimate_matching_size,
    last_buyer_report,
    property_sweep,
    trial_rng,
)
from .instance import (
    ArrivalOrder,
    BipartiteInstance,
    kvv_hard_instance,
    parse,
    random_bipartite,
    serialize,
)
from .matchers import exact_ranking_expectation
from .market import PriceScheme, prices_from_weights, run_market

_AUX_INSTANCE = 0
_AUX_SIGMA = 1

# Keys of the JSON config, in output order. A subcommand's config holds the
# ones its parser defines, plus "instance" (its source label, or
# "random-per-trial" for `properties` without one) when it takes an instance.
_CONFIG_KEYS = (
    "subcommand", "instance", "n", "scheme", "sigma", "trials", "sweep", "seed", "level"
)


def _fresh_seed() -> int:
    return int.from_bytes(os.urandom(6), "little")


def _round12(v):
    if isinstance(v, float) and math.isfinite(v):
        return float(f"{v:.12g}")
    return v


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _write_output(args, text: str) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit(args, config: dict, header: list[str], rows: list[list]) -> None:
    rows = [[_round12(v) for v in row] for row in rows]
    config = {k: _round12(v) for k, v in config.items()}
    if args.format == "json":
        import json  # only JSON output needs it: kept out of start-up

        payload = {"config": config, "results": [dict(zip(header, row)) for row in rows]}
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [",".join(header)]
        lines.extend(",".join(_cell(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    _write_output(args, text)


# ---------------------------------------------------------------------------
# Shared argument groups
# ---------------------------------------------------------------------------


def _add_instance_args(p: argparse.ArgumentParser, required: bool = True) -> None:
    g = p.add_mutually_exclusive_group(required=required)
    g.add_argument("--kvv", type=int, metavar="N", help="triangular hard instance of size N")
    g.add_argument(
        "--random",
        nargs=3,
        metavar=("NL", "NR", "P"),
        help="random bipartite instance: NL left, NR right, edge probability P",
    )
    g.add_argument("--file", metavar="PATH", help="read instance from PATH")


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", metavar="PATH", help="write machine output to PATH")


def _add_trial_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int)
    p.add_argument("--level", type=float, default=0.999, help="confidence level")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")


def _add_sigma_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sigma", choices=("identity", "reversed", "random"), default="identity")


def _add_scheme_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scheme", choices=("exp", "uniform"), default="exp")


def _load_instance(args) -> tuple[BipartiteInstance | None, str]:
    """The instance a subcommand runs on, with its source label."""
    if args.kvv is not None:
        return kvv_hard_instance(args.kvv), f"kvv:{args.kvv}"
    if args.random is not None:
        n_left, n_right = int(args.random[0]), int(args.random[1])
        prob = float(args.random[2])
        inst = random_bipartite(n_left, n_right, prob, aux_rng(args.seed, _AUX_INSTANCE))
        return inst, f"random:{n_left}:{n_right}:{_cell(_round12(prob))}"
    if args.file is not None:
        if args.subcommand == "gen":
            raise ValueError("gen needs a generator spec (--kvv or --random), not --file")
        text = Path(args.file).read_text()
        return parse(text), f"file:{args.file}"
    return None, "random-per-trial"  # only `properties` may omit the instance


def _resolve_sigma(args, n_left: int) -> ArrivalOrder:
    if args.sigma == "identity":
        return ArrivalOrder.identity(n_left)
    if args.sigma == "reversed":
        return ArrivalOrder.reversed(n_left)
    return ArrivalOrder.random(n_left, aux_rng(args.seed, _AUX_SIGMA))


def _config(args) -> dict:
    """The JSON config: the _CONFIG_KEYS the subcommand has, in that order."""
    return {key: getattr(args, key) for key in _CONFIG_KEYS if hasattr(args, key)}


# ---------------------------------------------------------------------------
# Subcommands: each takes (args, instance, sigma) after main has resolved the
# seed, the instance and the arrival order, and returns (exit code, stderr
# summary, header, rows); main appends the seed column to the rows.
# ---------------------------------------------------------------------------


def cmd_gen(args, instance, sigma):
    if args.kvv is not None:
        head = f"# generator: kvv n={args.kvv}\n"
    else:
        prob = _cell(_round12(float(args.random[2])))
        head = (f"# generator: random n_left={instance.n_left} n_right={instance.n_right} "
                f"edge_prob={prob} seed={args.seed}\n")
    _write_output(args, head + serialize(instance))
    return 0, f"{instance.edge_count} edges", None, None


def cmd_ratio(args, instance, sigma):
    est, optimum = estimate_competitive_ratio(
        instance, sigma, args.trials, args.seed, level=args.level, jobs=args.jobs
    )
    header = ["mean_ratio", "half_width", "level", "optimum", "trials"]
    rows = [[est.mean, est.half_width, args.level, optimum, args.trials]]
    return 0, f"mean {est.mean:.6f} over {args.trials} trials", header, rows


def cmd_claim1(args, instance, sigma):
    edges = [tuple(args.edge)] if args.edge is not None else None
    estimates = edge_guarantee_sweep(
        instance, PriceScheme(args.scheme), sigma, args.trials, args.seed,
        level=args.level, jobs=args.jobs, edges=edges,
    )
    rows = []
    passes = 0
    for (i, j), est in estimates.items():
        ok = est.mean >= GUARANTEE - 4.0 * est.half_width
        passes += ok
        rows.append([i, j, est.mean, est.half_width, ok, args.trials])
    header = ["i", "j", "mean", "half_width", "passed", "trials"]
    code = 0 if passes == len(rows) else 1
    return code, f"{passes}/{len(rows)} edges meet the 1-1/e bound", header, rows


def cmd_remark3(args, instance, sigma):
    report = last_buyer_report(args.n, args.trials, args.seed, level=args.level, jobs=args.jobs)
    summary = (f"exp {report.exponential.mean:.4f}, uniform {report.uniform.mean:.4f}, "
               f"P(priciest last) {report.priciest_last_probability.mean:.4f} vs 1/n = "
               f"{report.reference_probability:.4f}")
    header = ["metric", "mean", "half_width", "reference", "trials"]
    rows = [
        ["edge_guarantee_exp", report.exponential.mean, report.exponential.half_width,
         GUARANTEE, args.trials],
        ["edge_guarantee_uniform", report.uniform.mean, report.uniform.half_width,
         GUARANTEE, args.trials],
        ["service_probability", report.service_probability.mean,
         report.service_probability.half_width, report.reference_probability,
         args.trials],
        ["priciest_last_probability", report.priciest_last_probability.mean,
         report.priciest_last_probability.half_width, report.reference_probability,
         args.trials],
        ["service_without_priciest_count", float(report.service_without_priciest),
         0.0, 0.0, args.trials],
    ]
    return 0, summary, header, rows


def cmd_properties(args, instance, sigma):
    sweep = property_sweep(args.sweep, args.seed, instance=instance, jobs=args.jobs)
    header = [
        "trials",
        "sold_if_cheaper_violations",
        "utility_floor_violations",
        "monotone_violations",
    ]
    rows = [[
        sweep.trials,
        sweep.sold_if_cheaper_violations,
        sweep.utility_floor_violations,
        sweep.monotone_violations,
    ]]
    summary = f"{sweep.violations} violations / {sweep.trials} trials"
    return 0 if sweep.passed else 1, summary, header, rows


def cmd_oracle_check(args, instance, sigma):
    exact: Fraction = exact_ranking_expectation(instance, sigma)
    mc = estimate_matching_size(
        instance, sigma, args.trials, args.seed, level=args.level, jobs=args.jobs
    )
    diff = abs(float(exact) - mc.mean)
    deviation = diff / mc.half_width if mc.half_width > 0 else 0.0
    ok = diff <= 4.0 * mc.half_width
    summary = (f"exact {float(exact):.6f}, mc {mc.mean:.6f}, "
               f"deviation {deviation:.2f} half-widths")
    header = [
        "exact_numerator",
        "exact_denominator",
        "exact",
        "mc_mean",
        "half_width",
        "deviation_over_half_width",
        "passed",
        "trials",
    ]
    rows = [[
        exact.numerator,
        exact.denominator,
        float(exact),
        mc.mean,
        mc.half_width,
        deviation,
        ok,
        args.trials,
    ]]
    return 0 if ok else 1, summary, header, rows


def cmd_run(args, instance, sigma):
    weights = trial_rng(args.seed, 0).random(instance.n_right)
    pa = prices_from_weights(weights, PriceScheme(args.scheme))
    outcome = run_market(instance, pa, sigma)
    # one row per buyer (item -1 when unmatched) plus one per unsold item
    header = ["buyer", "item", "weight", "price", "util", "rev"]
    rows: list[list] = []
    for b, j in enumerate(outcome.matching.assignment):
        if j is None:
            rows.append([b, -1, 0.0, 0.0, 0.0, 0.0])
        else:
            rows.append([b, j, pa.weights[j], pa.prices[j], outcome.utils[b], outcome.revs[j]])
    for j in range(instance.n_right):
        if j not in outcome.purchased:
            rows.append([-1, j, pa.weights[j], pa.prices[j], 0.0, 0.0])
    return 0, f"matched {outcome.matching.size} of {instance.n_left} buyers", header, rows


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ranking-market",
        description="Online matching via RANKING / posted prices, with verification experiments.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen", help="generate an instance in the interchange format")
    _add_instance_args(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("ratio", help="estimate E[|M|]/|M*| for the price market")
    _add_instance_args(p)
    _add_sigma_arg(p)
    _add_trial_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("claim1", help="per-edge E[util+rev] >= 1-1/e check")
    _add_instance_args(p)
    _add_scheme_arg(p)
    _add_sigma_arg(p)
    _add_trial_args(p)
    p.add_argument("--edge", nargs=2, type=int, metavar=("I", "J"), help="single edge to test")
    _add_output_args(p)
    p.set_defaults(func=cmd_claim1)

    p = sub.add_parser("remark3", help="uniform-price failure report on the hard instance")
    p.add_argument("--n", type=int, required=True)
    _add_trial_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_remark3)

    p = sub.add_parser("properties", help="zero-tolerance sweep of the pathwise properties")
    _add_instance_args(p, required=False)
    p.add_argument("--sweep", type=int, default=10_000, help="number of random tuples")
    p.add_argument("--seed", type=int)
    p.add_argument("--jobs", type=int, default=1)
    _add_output_args(p)
    p.set_defaults(func=cmd_properties)

    p = sub.add_parser("oracle-check", help="Monte Carlo vs exact permutation enumeration")
    _add_instance_args(p)
    _add_sigma_arg(p)
    _add_trial_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("run", help="replay a single market run and dump the outcome")
    _add_instance_args(p)
    _add_scheme_arg(p)
    _add_sigma_arg(p)
    p.add_argument("--seed", type=int)
    _add_output_args(p)
    p.set_defaults(func=cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand through the pipeline the module docstring describes
    and return its exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.seed is None:
            args.seed = _fresh_seed()
        instance = sigma = None
        if hasattr(args, "kvv"):  # the subcommand takes an instance
            instance, args.instance = _load_instance(args)
        if hasattr(args, "sigma"):
            sigma = _resolve_sigma(args, instance.n_left)
        started = time.perf_counter()
        code, summary, header, rows = args.func(args, instance, sigma)
        print(f"{args.subcommand}: {summary}, seed {args.seed} "
              f"({time.perf_counter() - started:.1f}s)", file=sys.stderr)
        if header is not None:
            _emit(args, _config(args), header + ["seed"], [row + [args.seed] for row in rows])
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    raise SystemExit(main())
