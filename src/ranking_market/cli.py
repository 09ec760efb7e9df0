"""Command-line front end: instance generation, experiment execution, and
machine-readable CSV/JSON output.

Machine output goes to stdout (or --out); human summaries and timing go to
stderr. Numeric fields carry 12 significant digits. Every randomized
subcommand prints its effective master seed in the machine output, and
rerunning with that seed reproduces the output byte for byte, for any
--jobs setting.

Exit codes: 0 all requested assertions pass, 1 an assertion failed,
2 usage or input errors, 3 an unexpected internal error (a bug, reported
in one stderr line; never a failed check).
"""

from __future__ import annotations

import argparse
import json
import math
import secrets
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


def _fresh_seed() -> int:
    return secrets.randbits(48)


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
        payload = {"config": config, "results": [dict(zip(header, row)) for row in rows]}
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [",".join(header)]
        lines.extend(",".join(_cell(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    _write_output(args, text)


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


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


def _load_instance(args, seed: int | None) -> tuple[BipartiteInstance, str]:
    if args.kvv is not None:
        return kvv_hard_instance(args.kvv), f"kvv:{args.kvv}"
    if args.random is not None:
        n_left, n_right = int(args.random[0]), int(args.random[1])
        prob = float(args.random[2])
        inst = random_bipartite(n_left, n_right, prob, aux_rng(seed, _AUX_INSTANCE))
        return inst, f"random:{n_left}:{n_right}:{_cell(_round12(prob))}"
    text = Path(args.file).read_text()
    return parse(text), f"file:{args.file}"


def _resolve_sigma(args, n_left: int, seed: int) -> ArrivalOrder:
    if args.sigma == "identity":
        return ArrivalOrder.identity(n_left)
    if args.sigma == "reversed":
        return ArrivalOrder.reversed(n_left)
    return ArrivalOrder.random(n_left, aux_rng(seed, _AUX_SIGMA))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    if args.file is not None:
        raise ValueError("gen needs a generator spec (--kvv or --random), not --file")
    if args.kvv is not None:
        instance = kvv_hard_instance(args.kvv)
        head = f"# generator: kvv n={args.kvv}\n"
    else:
        seed = args.seed if args.seed is not None else _fresh_seed()
        instance, _ = _load_instance(args, seed)
        n_left, n_right = int(args.random[0]), int(args.random[1])
        prob = _cell(_round12(float(args.random[2])))
        head = f"# generator: random n_left={n_left} n_right={n_right} edge_prob={prob} seed={seed}\n"
    _write_output(args, head + serialize(instance))
    return 0


def cmd_ratio(args) -> int:
    seed = args.seed if args.seed is not None else _fresh_seed()
    instance, source = _load_instance(args, seed)
    sigma = _resolve_sigma(args, instance.n_left, seed)
    started = time.perf_counter()
    est, optimum = estimate_competitive_ratio(
        instance, sigma, args.trials, seed, level=args.level, jobs=args.jobs
    )
    _log(f"ratio: mean {est.mean:.6f} over {args.trials} trials, seed {seed} "
         f"({time.perf_counter() - started:.1f}s)")
    config = {
        "subcommand": "ratio",
        "instance": source,
        "sigma": args.sigma,
        "trials": args.trials,
        "seed": seed,
        "level": args.level,
    }
    header = ["mean_ratio", "half_width", "level", "optimum", "trials", "seed"]
    _emit(args, config, header, [[est.mean, est.half_width, args.level, optimum, args.trials, seed]])
    return 0


def cmd_claim1(args) -> int:
    seed = args.seed if args.seed is not None else _fresh_seed()
    instance, source = _load_instance(args, seed)
    sigma = _resolve_sigma(args, instance.n_left, seed)
    scheme = PriceScheme(args.scheme)
    edges = [tuple(args.edge)] if args.edge is not None else None
    started = time.perf_counter()
    estimates = edge_guarantee_sweep(
        instance, scheme, sigma, args.trials, seed,
        level=args.level, jobs=args.jobs, edges=edges,
    )
    rows = []
    passes = 0
    for (i, j), est in estimates.items():
        ok = est.mean >= GUARANTEE - 4.0 * est.half_width
        passes += ok
        rows.append([i, j, est.mean, est.half_width, ok, args.trials, seed])
    _log(f"claim1: {passes}/{len(rows)} edges meet the 1-1/e bound, seed {seed} "
         f"({time.perf_counter() - started:.1f}s)")
    config = {
        "subcommand": "claim1",
        "instance": source,
        "scheme": args.scheme,
        "sigma": args.sigma,
        "trials": args.trials,
        "seed": seed,
        "level": args.level,
    }
    header = ["i", "j", "mean", "half_width", "passed", "trials", "seed"]
    _emit(args, config, header, rows)
    return 0 if passes == len(rows) else 1


def cmd_remark3(args) -> int:
    seed = args.seed if args.seed is not None else _fresh_seed()
    started = time.perf_counter()
    report = last_buyer_report(args.n, args.trials, seed, level=args.level, jobs=args.jobs)
    _log(f"remark3: exp {report.exponential.mean:.4f}, uniform {report.uniform.mean:.4f}, "
         f"P(priciest last) {report.priciest_last_probability.mean:.4f} vs 1/n = "
         f"{report.reference_probability:.4f}, seed {seed} "
         f"({time.perf_counter() - started:.1f}s)")
    config = {
        "subcommand": "remark3",
        "n": args.n,
        "trials": args.trials,
        "seed": seed,
        "level": args.level,
    }
    header = ["metric", "mean", "half_width", "reference", "trials", "seed"]
    rows = [
        ["edge_guarantee_exp", report.exponential.mean, report.exponential.half_width,
         GUARANTEE, args.trials, seed],
        ["edge_guarantee_uniform", report.uniform.mean, report.uniform.half_width,
         GUARANTEE, args.trials, seed],
        ["service_probability", report.service_probability.mean,
         report.service_probability.half_width, report.reference_probability,
         args.trials, seed],
        ["priciest_last_probability", report.priciest_last_probability.mean,
         report.priciest_last_probability.half_width, report.reference_probability,
         args.trials, seed],
        ["service_without_priciest_count", float(report.service_without_priciest),
         0.0, 0.0, args.trials, seed],
    ]
    _emit(args, config, header, rows)
    return 0


def cmd_properties(args) -> int:
    seed = args.seed if args.seed is not None else _fresh_seed()
    instance = None
    source = "random-per-trial"
    if args.kvv is not None or args.random is not None or args.file is not None:
        instance, source = _load_instance(args, seed)
    started = time.perf_counter()
    sweep = property_sweep(args.sweep, seed, instance=instance, jobs=args.jobs)
    _log(f"properties: {sweep.violations} violations / {sweep.trials} trials, seed {seed} "
         f"({time.perf_counter() - started:.1f}s)")
    config = {
        "subcommand": "properties",
        "instance": source,
        "sweep": args.sweep,
        "seed": seed,
    }
    header = [
        "trials",
        "sold_if_cheaper_violations",
        "utility_floor_violations",
        "monotone_violations",
        "seed",
    ]
    rows = [[
        sweep.trials,
        sweep.sold_if_cheaper_violations,
        sweep.utility_floor_violations,
        sweep.monotone_violations,
        seed,
    ]]
    _emit(args, config, header, rows)
    return 0 if sweep.passed else 1


def cmd_oracle_check(args) -> int:
    seed = args.seed if args.seed is not None else _fresh_seed()
    instance, source = _load_instance(args, seed)
    sigma = _resolve_sigma(args, instance.n_left, seed)
    exact: Fraction = exact_ranking_expectation(instance, sigma)
    started = time.perf_counter()
    mc = estimate_matching_size(
        instance, sigma, args.trials, seed, level=args.level, jobs=args.jobs
    )
    diff = abs(float(exact) - mc.mean)
    deviation = diff / mc.half_width if mc.half_width > 0 else 0.0
    ok = diff <= 4.0 * mc.half_width
    _log(f"oracle-check: exact {float(exact):.6f}, mc {mc.mean:.6f}, "
         f"deviation {deviation:.2f} half-widths, seed {seed} "
         f"({time.perf_counter() - started:.1f}s)")
    config = {
        "subcommand": "oracle-check",
        "instance": source,
        "sigma": args.sigma,
        "trials": args.trials,
        "seed": seed,
        "level": args.level,
    }
    header = [
        "exact_numerator",
        "exact_denominator",
        "exact",
        "mc_mean",
        "half_width",
        "deviation_over_half_width",
        "passed",
        "trials",
        "seed",
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
        seed,
    ]]
    _emit(args, config, header, rows)
    return 0 if ok else 1


def cmd_run(args) -> int:
    seed = args.seed if args.seed is not None else _fresh_seed()
    instance, source = _load_instance(args, seed)
    sigma = _resolve_sigma(args, instance.n_left, seed)
    scheme = PriceScheme(args.scheme)
    weights = trial_rng(seed, 0).random(instance.n_right)
    pa = prices_from_weights(weights, scheme)
    outcome = run_market(instance, pa, sigma)
    _log(f"run: matched {outcome.matching.size} of {instance.n_left} buyers, seed {seed}")
    config = {
        "subcommand": "run",
        "instance": source,
        "scheme": args.scheme,
        "sigma": args.sigma,
        "seed": seed,
    }
    # one row per buyer (item -1 when unmatched) plus one per unsold item
    header = ["buyer", "item", "weight", "price", "util", "rev", "seed"]
    rows: list[list] = []
    for b, j in enumerate(outcome.matching.assignment):
        if j is None:
            rows.append([b, -1, 0.0, 0.0, 0.0, 0.0, seed])
        else:
            rows.append([b, j, pa.weights[j], pa.prices[j], outcome.utils[b], outcome.revs[j], seed])
    for j in range(instance.n_right):
        if j not in outcome.purchased:
            rows.append([-1, j, pa.weights[j], pa.prices[j], 0.0, 0.0, seed])
    _emit(args, config, header, rows)
    return 0


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
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    raise SystemExit(main())
