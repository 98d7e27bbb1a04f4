"""Command-line front end.

Subcommands: gen-scenario, optimize, simulate-consensus, sweep, select,
oracle-gap.  Single runs print JSON; experiments emit CSV.  Any failure
prints a machine-readable error JSON on stderr and exits nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from .diffusion import centralized_model
from .errors import InvalidConfig
from .estimator import GainVector
from .gainopt import ConstraintSpec, OptimizerConfig, optimize, optimize_decentralized
from .harness import (CONSENSUS_COLUMNS, ExperimentConfig, columns_for, consensus_trace,
                      render_csv, run_experiment)
from .netgraph import random_connected_topology, seeded_rng
from .scenario import (
    CentralizedScenario,
    NoiseConfig,
    gen_centralized_scenario,
    gen_decentralized_scenario,
    load_scenario,
    to_json_dict,
)

# the config keys of each field group; seed comes only from --seed, kind from the
# subcommand and constraint from --constraint; of the experiment keys, only select
# reads sigma_grid and only sweep reads include_runtime
_OPT_KEYS = {f.name for f in dataclasses.fields(OptimizerConfig)} - {"seed"}
_NOISE_KEYS = {f.name for f in dataclasses.fields(NoiseConfig)}
_EXP_KEYS = {f.name for f in dataclasses.fields(ExperimentConfig)} - {
    "kind", "optimizer", "noise", "constraint", "seed", "sigma_grid", "include_runtime"}


def _config(args, *groups):
    """Read ``--config`` (a JSON object) and split its keys among the field
    groups the subcommand reads; any other key fails."""
    doc = {}
    if args.config:
        with open(args.config) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise InvalidConfig("config file must hold a JSON object")
    unread = sorted(set(doc).difference(*groups))
    if unread:
        raise InvalidConfig(f"{args.command} does not read config keys: {', '.join(unread)}")
    doc = {k: tuple(v) if k in ("n_values", "sigma_grid") and isinstance(v, list) else v
           for k, v in doc.items()}
    return tuple({k: v for k, v in doc.items() if k in keys} for keys in groups)


def _number_list(text: str, number: type) -> tuple:
    try:
        return tuple(number(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise InvalidConfig(f"expected a comma list of {number.__name__}s, got {text!r}") from None


def _write_text(path: str | None, text: str) -> None:
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _result_json(gains: GainVector, trace, plan=None) -> dict:
    doc = {
        "gains": [[float(np.real(z)), float(np.imag(z))] for z in gains.values],
        "constraint": gains.constraint.label() if gains.constraint else None,
        "variance": trace.final_variance,
        "info_trace": list(trace.info_per_outer),
        "outer_iters": trace.outer_iters,
        "inner_iters_total": trace.inner_iters_total,
        "converged": trace.converged,
        "extrapolations_accepted": trace.extrapolations_accepted,
        "extrapolations_rejected": trace.extrapolations_rejected,
        "restart_index": trace.restart_index,
        "segment_breaks": list(trace.segment_breaks),
        "stationarity_residual": trace.stationarity_residual,
        "wall_time_s": trace.wall_time_s,
    }
    if plan is not None:
        doc["plan"] = plan.to_json_dict()
    return doc


def _scenario(args, noise_kw: dict):
    """Load ``--scenario``, or generate an ``args.kind`` scenario from the flags."""
    if args.scenario:
        return load_scenario(args.scenario)
    noise = NoiseConfig.from_json_dict(noise_kw)
    try:
        theta = complex(args.theta)
    except ValueError:
        raise InvalidConfig(f"theta {args.theta!r} is not a complex number") from None
    if args.kind == "centralized":
        return gen_centralized_scenario(args.n, args.m, noise, theta, seed=args.seed)
    topo = random_connected_topology(args.n, args.edge_prob, args.seed)
    return gen_decentralized_scenario(topo, noise, theta, seed=args.seed)


def _cmd_gen_scenario(args) -> int:
    noise_kw, = _config(args, _NOISE_KEYS)
    doc = to_json_dict(_scenario(args, noise_kw))
    _write_text(args.out, json.dumps(doc, indent=2) + "\n")
    return 0


def _cmd_optimize(args) -> int:
    opt_kw, noise_kw = _config(args, _OPT_KEYS, _NOISE_KEYS)
    opt_cfg = OptimizerConfig(seed=args.seed, **opt_kw)
    constraint = ConstraintSpec.parse(args.constraint)
    scen = _scenario(args, noise_kw)
    plan = None
    if isinstance(scen, CentralizedScenario):
        gains, trace = optimize(centralized_model(scen), constraint, opt_cfg)
    else:
        gains, trace, plan = optimize_decentralized(scen, constraint, opt_cfg,
                                                    refresh_plan=not args.freeze_plan)
    doc = _result_json(gains, trace, plan if args.dump_plan else None)
    _write_text(args.out, json.dumps(doc, indent=2) + "\n")
    return 0


def _cmd_simulate_consensus(args) -> int:
    noise_kw, = _config(args, _NOISE_KEYS)
    scen = _scenario(args, noise_kw)
    if isinstance(scen, CentralizedScenario):
        raise InvalidConfig("consensus needs a decentralized scenario")
    rows, report, plan = consensus_trace(scen, seeded_rng(args.seed),
                                         args.max_iter, args.tol, args.rho)
    if args.dump_plan:
        json.dump(plan.to_json_dict(), sys.stderr)
        sys.stderr.write("\n")
    _write_text(args.out, render_csv(rows, CONSENSUS_COLUMNS))
    if args.out:
        summary = {"theta_hat": [report.theta_hat.real, report.theta_hat.imag],
                   "analytic_variance": report.analytic_variance,
                   "iterations_to_tol": report.iterations_to_tol,
                   "residual": report.residual, "converged": report.converged}
        sys.stdout.write(json.dumps(summary) + "\n")
    return 0


def _cmd_experiment(kind: str, exp_keys: set, defaults: dict, args) -> int:
    opt_kw, noise_kw, exp_kw = _config(args, _OPT_KEYS, _NOISE_KEYS, exp_keys)
    fields: dict = {"kind": kind, "seed": args.seed, **defaults, **exp_kw}
    fields["optimizer"] = OptimizerConfig(seed=args.seed, **{**defaults.get("optimizer", {}), **opt_kw})
    fields["noise"] = NoiseConfig.from_json_dict(noise_kw)
    if args.n:
        fields["n_values"] = _number_list(args.n, int)
    if getattr(args, "sigma_grid", None):
        fields["sigma_grid"] = _number_list(args.sigma_grid, float)
    if args.realizations is not None:
        fields["realizations"] = args.realizations
    if args.constraint:
        fields["constraint"] = ConstraintSpec.parse(args.constraint)
    if getattr(args, "no_runtime", False):
        fields["include_runtime"] = False
    config = ExperimentConfig(**fields)
    rows, meta = run_experiment(config)
    comment = None
    if "oracle" in meta:
        comment = f"oracle: {meta['oracle']}; success_rate: {meta['success_rate']}"
    _write_text(args.out, render_csv(rows, columns_for(kind), config.include_runtime, comment))
    if args.out:
        sys.stdout.write(json.dumps({k: v for k, v in meta.items() if k != "methods"},
                                    default=str) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wsngain",
                                     description="Sensor gain design and decentralized estimation")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--config", default=None, help="JSON file with config overrides")

    def experiment(name, help_text, n_help, kind, exp_keys, defaults):
        # the flags every experiment subcommand takes, with its own kind, keys and defaults
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--n", default=None, help=n_help)
        p.add_argument("--realizations", type=int, default=None)
        common(p)
        p.add_argument("--constraint", default=None)
        p.set_defaults(func=functools.partial(_cmd_experiment, kind, exp_keys, defaults))
        return p

    p = sub.add_parser("gen-scenario", help="generate and serialize a scenario")
    p.add_argument("--kind", choices=("centralized", "decentralized"), default="centralized")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--edge-prob", type=float, default=0.3)
    p.add_argument("--theta", default="1")
    common(p)
    p.set_defaults(func=_cmd_gen_scenario, scenario=None)

    p = sub.add_parser("optimize", help="optimize gains for one scenario")
    p.add_argument("--scenario", default=None, help="scenario JSON (default: generate)")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--dump-plan", action="store_true")
    p.add_argument("--freeze-plan", action="store_true",
                   help="do not recompute the compression plan per outer iteration")
    common(p)
    p.add_argument("--constraint", default="energy",
                   help="energy | phase | quant:Q | select:K[:phase]")
    p.set_defaults(func=_cmd_optimize, kind="centralized", theta="1")

    p = sub.add_parser("simulate-consensus", help="run one ADMM consensus trace")
    p.add_argument("--scenario", default=None)
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--edge-prob", type=float, default=0.3)
    p.add_argument("--theta", default="10")
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--dump-plan", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_simulate_consensus, kind="decentralized")

    p = experiment("sweep", "variance sweep over sensor counts", "comma list of sensor counts",
                   "sweep-N", _EXP_KEYS | {"include_runtime"},
                   {"n_values": (10, 30), "realizations": 30,
                    "constraint": ConstraintSpec.phase_only()})
    p.add_argument("--no-runtime", action="store_true",
                   help="blank the runtime column for byte-reproducible output")

    p = experiment("select", "sensor selection over a noise grid", "total sensor count",
                   "selection", _EXP_KEYS | {"sigma_grid"},
                   {"n_values": (10,), "sigma_grid": (0.1, 1.0, 4.0), "realizations": 10,
                    "constraint": ConstraintSpec.sensor_select(4)})
    p.add_argument("--sigma-grid", default=None, help="comma list of receiver noise variances")

    experiment("oracle-gap", "optimizer vs exhaustive enumeration", "comma list of candidate sizes",
               "oracle-gap", _EXP_KEYS,
               {"n_values": (2, 3, 4), "realizations": 100,
                "constraint": ConstraintSpec.quantized(4), "optimizer": {"restarts": 10}})

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as err:  # noqa: BLE001
        sys.stderr.write(json.dumps({"error": type(err).__name__, "message": str(err)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
