"""Command line interface.

Subcommands:

* ``run``: execute one simulation from a JSON config.
* ``sweep``: run the team-size grid with and without memory.
* ``metrics``: summarize a run log, optionally against a baseline log.
* ``consolidate``: force a consolidation pass over an existing store.
* ``inspect``: print what each agent sees, and how far each procedure snapshot lags the log.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .embedding import provider_from_config
from .harness import ConfigError, load_sim_config, run_sim, sweep
from .lifecycle import ConsolidationConfig, StubGenerator, consolidate
from .metrics import cma, cost_summary, read_runlog, series_from_log
from .store import StoreError, open_store


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = load_sim_config(args.config)
    result = run_sim(cfg, args.out)
    series = series_from_log(result.log)
    cost = cost_summary(result.log)
    print(f"tasks: {len(result.log)}")
    print(f"AAS: {series.aas:.6f}")
    print(f"avg tokens (proxy): {cost['avg_tokens_per_task']}")
    print(f"runlog: {result.out_dir / 'runlog.jsonl'}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = load_sim_config(args.config)
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    report = sweep(
        cfg,
        team_sizes=sizes,
        n_seeds=args.seeds,
        out_dir=args.out,
        consolidation_n=cfg.consolidation_n,
    )
    for cell in report["cells"]:
        print(
            f"team_size={cell['team_size']} seed={cell['seed']} "
            f"aas_memory={cell['aas_memory']:.4f} aas_baseline={cell['aas_baseline']:.4f} "
            f"final_cma={cell['final_cma']:.4f} avg_tokens={cell['avg_tokens_memory']}"
        )
    print(f"report: {Path(args.out) / 'sweep_report.json'}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    log = read_runlog(args.log)
    series = series_from_log(log)
    cost = cost_summary(log)
    print(f"tasks: {len(log)}")
    print(f"AAS: {series.aas:.6f}")
    print(f"avg tokens (proxy): {cost['avg_tokens_per_task']}")
    if args.baseline:
        baseline = read_runlog(args.baseline)
        baseline_series = series_from_log(baseline)
        advantage = cma(log, baseline)
        print(f"baseline AAS: {baseline_series.aas:.6f}")
        print(f"final CMA: {advantage[-1]:.6f}")
    return 0


def _cmd_consolidate(args: argparse.Namespace) -> int:
    views = open_store(args.store)
    if args.agent:
        if args.agent not in views:
            raise StoreError(f"unknown agent {args.agent!r}; store has {sorted(views)}")
        selected = {args.agent: views[args.agent]}
    else:
        selected = views
    cfg = ConsolidationConfig()
    generator = StubGenerator()
    embedder = provider_from_config(None)
    total = 0
    pools: set[int] = set()  # the episodic store sets consolidated so far, by id
    for agent_id, view in sorted(selected.items()):
        if id(view.episodic_store()) in pools:
            continue  # one pass covers a shared episodic pool
        pools.add(id(view.episodic_store()))
        known = view.procedures()
        changed = consolidate(view, cfg, generator, embedder)
        new = sum(p.procedure_id not in known for p in changed)
        total += new
        print(f"{agent_id}: {new} new procedures, {len(changed) - new} extended")
    print(f"total new procedures: {total}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    views = open_store(args.store)
    agent_ids = [args.agent] if args.agent else sorted(views)
    for agent_id in agent_ids:
        view = views.get(agent_id)
        if view is None:
            raise StoreError(f"unknown agent {agent_id!r}; store has {sorted(views)}")
        profiles = view.profiles()
        print(f"agent {agent_id} ({view.topology.value} topology):")
        print(f"  episodes visible: {len(view.episodes())}")
        print(f"  procedures visible: {len(view.procedures())}")
        print(f"  profiles visible: {len(profiles)}")
        print(f"  team patterns visible: {len(view.team_patterns())}")
    print("task records past each snapshot's checkpoint:")
    for owner, lag in views[agent_ids[0]].checkpoint_lag().items():
        print(f"  {owner}: " + ", ".join(f"{kind} {n}" for kind, n in lag.items()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teammem",
        description="Multi-agent lifelong memory engine and simulation harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one simulation from a config file")
    p_run.add_argument("--config", required=True, help="path to JSON sim config")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run the team-size grid")
    p_sweep.add_argument("--config", required=True, help="path to JSON sim config")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument("--sizes", default="1,3,5,7", help="comma-separated team sizes")
    p_sweep.add_argument("--seeds", type=int, default=1, help="number of seeds per size")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_metrics = sub.add_parser("metrics", help="summarize a run log")
    p_metrics.add_argument("--log", required=True, help="path to runlog.jsonl")
    p_metrics.add_argument("--baseline", help="optional baseline runlog.jsonl")
    p_metrics.set_defaults(func=_cmd_metrics)

    p_cons = sub.add_parser("consolidate", help="force a consolidation pass")
    p_cons.add_argument("--store", required=True, help="path to a store root")
    p_cons.add_argument("--agent", help="consolidate for one agent only")
    p_cons.set_defaults(func=_cmd_consolidate)

    p_inspect = sub.add_parser("inspect", help="print store contents")
    p_inspect.add_argument("--store", required=True, help="path to a store root")
    p_inspect.add_argument("--agent", help="inspect one agent's view only")
    p_inspect.set_defaults(func=_cmd_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, StoreError, ValueError, LookupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
