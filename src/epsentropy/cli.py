"""Command line front door.

One subcommand per workflow, one JSON document per run, written to stdout
or --output.  Every document echoes the flags and seed that produced it, so
a result file is self-describing and replayable.  Output is deterministic:
identical inputs and seed give byte-identical JSON.

Exit codes: 0 success, 2 argument errors (argparse), 1 data or numeric
errors, each reported as a single `error: ...` line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .asymptotics import exp_pivot_ci, normal_ci
from .core import RngStream, read_sample_csv, read_symbol_csv, write_sample_csv
from .discrete import DiscreteSample, discrete_report, discrete_residual
from .epskeys import all_subsets, rank_candidates
from .estimators import EstimateConfig, estimate_report
from .gof import gof_statistic
from .montecarlo import DEFAULT_SEED, SimulationPlan, run_residual_study, write_residuals_csv
from .processes import ProcessSpec, generate

__all__ = ["main", "build_parser"]


def _emit(doc: dict, output: str | None) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w") as fh:
            fh.write(text)


def _cmd_estimate(args: argparse.Namespace) -> dict:
    sample = read_sample_csv(args.input)
    config = EstimateConfig(eps=args.eps, eps0=args.eps0, r=args.r)
    report = estimate_report(sample, config)
    doc = {
        "run": {
            "subcommand": "estimate",
            "input": args.input,
            "eps": args.eps,
            "eps0": args.eps0,
            "r": args.r,
        },
        "report": report.to_dict(),
    }
    if args.ci is not None:
        doc["intervals"] = [
            normal_ci(report, target="q2", regime=args.ci, level=args.level).to_dict(),
            normal_ci(report, target="h2", regime=args.ci, level=args.level).to_dict(),
        ]
    if args.exp_pivot:
        doc["intervals"] = doc.get("intervals", []) + [
            exp_pivot_ci(sample, level=args.level).to_dict()
        ]
    return doc


def _cmd_simulate(args: argparse.Namespace) -> dict:
    with open(args.plan) as fh:
        plan_doc = json.load(fh)
    if args.seed is not None:
        plan_doc["base_seed"] = args.seed
    plan = SimulationPlan.from_json(plan_doc)
    outcome = run_residual_study(plan)
    if args.residuals_csv is not None:
        write_residuals_csv(outcome.residuals, args.residuals_csv)
    return {
        "run": {"subcommand": "simulate", "plan": args.plan, "seed": plan.base_seed},
        "plan": plan.to_json(),
        "outcome": outcome.to_dict(),
    }


def _cmd_gof(args: argparse.Namespace) -> dict:
    sample = read_sample_csv(args.input)
    result = gof_statistic(sample, eps=args.eps, delta=args.delta)
    return {
        "run": {"subcommand": "gof", "input": args.input, "eps": args.eps, "delta": args.delta},
        "gof": result.to_dict(),
    }


def _cmd_keys(args: argparse.Namespace) -> dict:
    table = read_sample_csv(args.input)
    if (args.size is None) == (args.subsets is None):
        raise ValueError("pass exactly one of --size or --subsets")
    if args.size is not None:
        subsets = all_subsets(table.d, args.size)
    else:
        subsets = []
        for group in args.subsets.split(";"):
            group = group.strip()
            if not group:
                raise ValueError(f"empty subset in {args.subsets!r}")
            subsets.append(tuple(int(tok) for tok in group.split(",")))
    ranked = rank_candidates(table, subsets, args.eps)
    return {
        "run": {
            "subcommand": "keys",
            "input": args.input,
            "eps": args.eps,
            "size": args.size,
            "subsets": args.subsets,
        },
        "candidates": [c.to_dict() for c in ranked],
    }


def _cmd_generate(args: argparse.Namespace) -> dict:
    if (args.spec is None) == (args.family is None):
        raise ValueError("pass exactly one of --spec or --family")
    if args.spec is not None:
        with open(args.spec) as fh:
            spec = ProcessSpec.from_json(json.load(fh))
    else:
        params = json.loads(args.params) if args.params else {}
        spec = ProcessSpec.from_json({"family": args.family, "params": params})
    series = generate(spec, args.n, RngStream(args.seed, 0))
    write_sample_csv(series.sample, args.output)
    return {
        "run": {"subcommand": "generate", "n": args.n, "seed": args.seed, "output": args.output},
        "spec": spec.to_json(),
        "rows": series.sample.n,
        "columns": series.sample.d,
    }


def _cmd_discrete(args: argparse.Namespace) -> dict:
    sample = DiscreteSample(read_symbol_csv(args.input))
    report = discrete_report(sample, args.r)
    doc = {
        "run": {"subcommand": "discrete", "input": args.input, "r": args.r},
        "report": report.to_dict(),
    }
    if args.truth is not None:
        if args.kind is None:
            raise ValueError("--truth needs --kind (q or h)")
        doc["residual"] = discrete_residual(sample, args.r, args.truth, args.kind)
        doc["run"]["truth"] = args.truth
        doc["run"]["kind"] = args.kind
    return doc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epsentropy",
        description="Close-pair estimation of quadratic entropy for dependent series.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("estimate", help="point estimates from a CSV sample")
    p.add_argument("--input", required=True, help="sample CSV, one row per time index")
    p.add_argument("--eps", type=float, required=True, help="pair radius")
    p.add_argument("--eps0", type=float, default=None, help="triple radius (default: eps)")
    p.add_argument("--r", type=int, default=0, help="dependence lag bound for the variance")
    p.add_argument("--ci", choices=["sqrtn", "neps"], default=None, help="normal CI regime")
    p.add_argument("--exp-pivot", action="store_true", help="add the min-distance interval")
    p.add_argument("--level", type=float, default=0.95, help="confidence level")
    p.add_argument("--output", dest="json_out", default=None, help="result JSON (default stdout)")
    p.set_defaults(handler=_cmd_estimate)

    p = sub.add_parser("simulate", help="run a residual study from a plan file")
    p.add_argument("--plan", required=True, help="SimulationPlan JSON")
    p.add_argument("--seed", type=int, default=None, help="override the plan's base seed")
    p.add_argument("--residuals-csv", default=None, help="also write residuals as CSV")
    p.add_argument("--output", dest="json_out", default=None, help="result JSON (default stdout)")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("gof", help="maximum-entropy goodness-of-fit ratio")
    p.add_argument("--input", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.1, help="rejection margin on the ratio")
    p.add_argument("--output", dest="json_out", default=None, help="result JSON (default stdout)")
    p.set_defaults(handler=_cmd_gof)

    p = sub.add_parser("keys", help="rank attribute subsets as approximate eps-keys")
    p.add_argument("--input", required=True, help="table CSV")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--size", type=int, default=None, help="evaluate all subsets of this size")
    p.add_argument(
        "--subsets", default=None, help='explicit subsets, e.g. "0,1;0,2" (column indices)'
    )
    p.add_argument("--output", dest="json_out", default=None, help="result JSON (default stdout)")
    p.set_defaults(handler=_cmd_keys)

    p = sub.add_parser("generate", help="simulate a series and export it as CSV")
    p.add_argument("--spec", default=None, help="ProcessSpec JSON file")
    p.add_argument("--family", default=None, help="process family name")
    p.add_argument("--params", default=None, help="family parameters as inline JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--output", required=True, help="destination CSV")
    p.set_defaults(handler=_cmd_generate, json_out=None)

    p = sub.add_parser("discrete", help="coincidence estimates for integer symbols")
    p.add_argument("--input", required=True, help="integer symbol CSV")
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--truth", type=float, default=None, help="population value for the residual")
    p.add_argument("--kind", choices=["q", "h"], default=None)
    p.add_argument("--output", dest="json_out", default=None, help="result JSON (default stdout)")
    p.set_defaults(handler=_cmd_discrete)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parsing leaves a parser unchanged, and a
    # process that calls main in a loop would otherwise pay for 6
    # subparsers and their arguments on every call
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        doc = args.handler(args)
        _emit(doc, args.json_out)
    except (ValueError, OSError, RuntimeError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
