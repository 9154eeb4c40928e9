"""Command-line entry point: run, validate, and summarize experiment campaigns.

Exit codes: 0 success, 1 configuration error, 2 experiment failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigError, DsgdLabError
from .experiments import (
    SEED_CAMPAIGNS,
    CampaignResult,
    build_noise,
    build_problem,
    build_schedule,
    initial_states,
    load_config,
    parse_seeds,
    parse_steps,
    run_experiment,
)
from .records import read_campaign, write_campaign, write_manifold_report, write_summary


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dsgdlab",
        description="Distributed/subspace-constrained SGD experiment campaigns")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", help="path to the INI config file")
    p_run.add_argument("--output", help="override the [output] dir", default=None)
    p_val = sub.add_parser("validate", help="check a config and echo resolved parameters")
    p_val.add_argument("config")
    p_rep = sub.add_parser("report", help="summarize a directory of result records")
    p_rep.add_argument("result_dir")
    return parser


def _echo_resolved(config, out):
    out.write(f"experiment: {config.kind} ({config.name})\n")
    out.write(f"config-hash: {config.hash}\n")
    sched = build_schedule(config)
    out.write(f"schedule: alpha = {sched.alpha_scale:g} k^-{sched.tau_alpha:g}, "
              f"gamma = {sched.gamma_scale:g} k^{sched.tau_gamma:g} "
              f"(tau_beta = {sched.tau_beta:g})\n")
    noise = build_noise(config)
    out.write(f"noise: {noise.kind}"
              + (f" scale={noise.scale:g}" if noise.kind != "none" else "") + "\n")
    if config.has("run", "seeds"):
        out.write(f"seeds: {len(parse_seeds(config.get('run', 'seeds')))}\n")
    if config.has("run", "steps"):
        out.write(f"steps: {parse_steps(config)}\n")
    if config.kind != "manifold-verify":
        problem = build_problem(config)
        out.write(f"problem: {config.get('problem', 'loss')}, "
                  f"{problem.n_agents} agents x dim {problem.agent_dim}\n")
        if config.kind in SEED_CAMPAIGNS:
            initial_states(config, problem, parse_seeds(config.get("run", "seeds")))
    else:
        out.write(f"battery: {config.get('problem', 'battery')}\n")


def _cmd_validate(args, out, err):
    config = load_config(args.config)
    _echo_resolved(config, out)
    return 0


def _cmd_run(args, out, err):
    config = load_config(args.config)
    _echo_resolved(config, out)
    out_dir = Path(args.output or config.get("output", "dir", "results"))
    out_dir.mkdir(parents=True, exist_ok=True)
    result = run_experiment(config)
    if isinstance(result, CampaignResult):
        write_campaign(result, out_dir / "records.tsv")
        write_summary(result, out_dir / "summary.txt")
        out.write(f"wrote {out_dir}/records.tsv and summary.txt\n")
        for key in sorted(result.aggregates):
            out.write(f"  {key} = {result.aggregates[key]}\n")
        return 0
    # manifold verification report
    write_manifold_report(result, out_dir / "report.txt")
    passed = result["overall"]["passed"]
    out.write(f"wrote {out_dir}/report.txt\n")
    for section, payload in result.items():
        if isinstance(payload, dict) and "passed" in payload:
            out.write(f"  {section}: {'pass' if payload['passed'] else 'FAIL'}\n")
    return 0 if passed else 2


def _cmd_report(args, out, err):
    root = Path(args.result_dir)
    files = sorted(root.glob("**/records.tsv"))
    if not files:
        raise ConfigError(f"no records.tsv files under {root}")
    hashes = set()
    for path in files:
        meta, fields, records = read_campaign(path)
        hashes.add(meta.get("config-hash", "?"))
        if len(hashes) > 1:
            raise ConfigError(
                f"mixed config hashes in {root}: {sorted(hashes)}; refusing to report")
        out.write(f"{path}: {meta.get('experiment', '?')}, {len(records)} rows, "
                  f"hash {meta.get('config-hash', '?')}\n")
        summary = path.parent / "summary.txt"
        if summary.exists():
            for line in summary.read_text().splitlines():
                if line and not line.startswith("#"):
                    out.write(f"  {line}\n")
    return 0


def main(argv=None, stdout=None, stderr=None):
    out = stdout or sys.stdout
    err = stderr or sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0) and 1
    commands = {"run": _cmd_run, "validate": _cmd_validate, "report": _cmd_report}
    try:
        return commands[args.command](args, out, err)
    except ConfigError as exc:
        err.write(f"config error: {exc}\n")
        return 1
    except (DsgdLabError, OSError) as exc:
        err.write(f"experiment failed: {type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
