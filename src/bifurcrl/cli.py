"""Command-line entry points.

Exit codes: 0 success, 1 usage or configuration error, 2 numerical failure,
3 precondition failure (e.g. no bisection bracket).
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np
import yaml

from . import config as config_mod
from . import runner, topology, trainer as trainer_mod
from .errors import ConfigError, NumericalError, PreconditionError
from .gradcheck import run_gradcheck
from .svg import polyline_chart

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_PRECONDITION = 3


def cmd_train(args) -> int:
    raw = config_mod.load_config(args.config)
    run_dir = runner.run_training(raw, out_root=args.out,
                                  run_name=args.name,
                                  progress=_progress if args.verbose else None)
    print(run_dir)
    return EXIT_OK


def _progress(it, row):
    print(f"[{it}] {row}", file=sys.stderr)


def cmd_eval(args) -> int:
    raw = config_mod.load_config(args.config)
    policy, env = runner.load_policy(raw, args.checkpoint)
    rng = np.random.default_rng(args.seed)
    probes = [float(p) for p in args.probe] if args.probe else None
    report = trainer_mod.evaluate(policy, env, args.episodes, rng, probes=probes)
    print(f"avg_return={report.avg_return!r} max_violation={report.max_violation!r}")
    for ep in report.episodes:
        print(f"  initial={ep.initial!r} return={ep.ret!r} max_h={ep.max_h!r}")
    return EXIT_OK


def cmd_scan(args) -> int:
    raw = config_mod.load_config(args.config)
    policy, env = runner.load_policy(raw, args.checkpoint)
    if args.n < 1 or (args.n > 1 and args.hi <= args.lo):
        raise ConfigError("scan needs lo < hi and n >= 1")
    grid = np.linspace(args.lo, args.hi, args.n)
    rows = trainer_mod.bifurcation_scan(policy, env, grid)
    csv_text = trainer_mod.scan_csv(rows, env.act_dim, policy.k)
    out = Path(args.out)
    out.write_text(csv_text)
    print(out)
    if args.svg:
        coords = [r[0] for r in rows]
        series = {f"action_{i}": [r[1][i] for r in rows]
                  for i in range(env.act_dim)}
        svg_path = out.with_suffix(".svg")
        svg_path.write_text(polyline_chart(coords, series,
                                           title=f"{env.task}: first action vs {env.sweep_axis}"))
        print(svg_path)
    return EXIT_OK


def _parse_obstacles(spec_list):
    out = []
    for ob in spec_list:
        kind = ob.get("kind", "disc")
        if kind == "disc":
            out.append(topology.DiscObstacle(np.asarray(ob["center"], dtype=float),
                                             float(ob["radius"])))
        elif kind == "polygon":
            out.append(topology.PolygonObstacle(np.asarray(ob["vertices"], dtype=float)))
        else:
            raise ConfigError(f"unknown obstacle kind {kind!r}")
    return out


def cmd_topo(args) -> int:
    with open(args.scenario) as fh:
        scenario = yaml.safe_load(fh)
    if not isinstance(scenario, dict) or "obstacles" not in scenario \
            or "init_loop" not in scenario:
        raise ConfigError("scenario must define obstacles and init_loop")
    obstacles = _parse_obstacles(scenario["obstacles"])
    loop = topology.PlanarLoop(np.asarray(scenario["init_loop"], dtype=float))
    verdict = topology.loop_contractible(loop, obstacles)
    tag = "contractible" if verdict.contractible else "noncontractible"
    print(f"X_init {tag}, windings {verdict.windings}")
    if "policy" in scenario:
        pol = scenario["policy"]
        raw = config_mod.load_config(pol["config"])
        policy, env = runner.load_policy(raw, pol["checkpoint"])
        lo, hi = float(pol["lo"]), float(pol["hi"])
        tol = float(pol.get("tol", 1e-4))
        report = topology.infeasibility_witness(
            lambda obs: policy.act_deterministic(obs)[0], env, lo, hi, tol=tol)
        print("witness " + report.summary_line())
        if args.out and report.found:
            out = Path(args.out)
            from .envs import TRAJECTORY_HEADER
            out.write_text(TRAJECTORY_HEADER + "\n"
                           + "\n".join(report.trajectory) + "\n")
            print(out)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    errors = run_gradcheck(seed=args.seed, h=args.h)
    worst = max(errors.values())
    for name, err in errors.items():
        print(f"{name}: max relative error {err:.3e}")
    print(f"worst: {worst:.3e}")
    return EXIT_OK if worst < args.tol else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="bifurcrl",
                                description="Safe RL with bifurcated mixture policies")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train per a config file")
    t.add_argument("config")
    t.add_argument("--out", default=None, help="run root directory")
    t.add_argument("--name", default=None, help="run directory name")
    t.add_argument("--verbose", action="store_true")
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("config")
    e.add_argument("checkpoint")
    e.add_argument("--episodes", type=int, default=16)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--probe", action="append", default=[],
                   help="fixed initial coordinate of one of the first episodes "
                        "(repeatable, at most --episodes)")
    e.set_defaults(fn=cmd_eval)

    s = sub.add_parser("scan", help="sweep initial states, log first actions")
    s.add_argument("config")
    s.add_argument("checkpoint")
    s.add_argument("--lo", type=float, required=True)
    s.add_argument("--hi", type=float, required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--out", default="scan.csv")
    s.add_argument("--svg", action="store_true")
    s.set_defaults(fn=cmd_scan)

    o = sub.add_parser("topo", help="contractibility verdicts and witnesses")
    o.add_argument("scenario")
    o.add_argument("--out", default=None, help="violating-trajectory CSV path")
    o.set_defaults(fn=cmd_topo)

    g = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--h", type=float, default=1e-4)
    g.add_argument("--tol", type=float, default=1e-4)
    g.set_defaults(fn=cmd_gradcheck)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, FileNotFoundError, yaml.YAMLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except PreconditionError as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
