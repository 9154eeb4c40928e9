"""Command-line entry point: run, validate, and summarize experiment campaigns.

Exit codes: 0 success, 1 configuration error, 2 experiment failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigError, DsgdLabError
from .experiments import CampaignResult, load_config, prepare, run_experiment
from .records import (
    read_campaign,
    read_manifold_report,
    write_campaign,
    write_manifold_report,
    write_summary,
)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dsgdlab",
        description="Distributed/subspace-constrained SGD experiment campaigns")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", help="path to the INI config file")
    p_run.add_argument("--output", help="override the [output] dir", default=None)
    p_val = sub.add_parser("validate", help="run a config's setup, echo the keys it read")
    p_val.add_argument("config")
    p_rep = sub.add_parser("report", help="summarize a directory of results")
    p_rep.add_argument("result_dir")
    return parser


def _prepare(path, out):
    """Load the config, run its kind's setup, and echo every key it read."""
    config = load_config(path)
    prepare(config)
    out.write(f"experiment: {config.kind} ({config.name})\n")
    out.write(f"config-hash: {config.hash}\n")
    for (section, key), (text, defaulted) in config.read.items():
        out.write(f"[{section}] {key} = {text}{' (default)' if defaulted else ''}\n")
    return config


def _cmd_validate(args, out, err):
    _prepare(args.config, out)
    return 0


def _cmd_run(args, out, err):
    config = _prepare(args.config, out)
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
    write_manifold_report(result, out_dir / "report.txt")
    out.write(f"wrote {out_dir}/report.txt\n")
    for section, payload in result.items():
        if isinstance(payload, dict) and "passed" in payload:
            out.write(f"  {section}: {'pass' if payload['passed'] else 'FAIL'}\n")
    return 0 if result["overall"]["passed"] else 2


def _cmd_report(args, out, err):
    """List every campaign (records.tsv, with its summary) and every manifold
    report (report.txt, with each check's verdict) under the directory."""
    root = Path(args.result_dir)
    files = sorted(root.glob("**/records.tsv")) + sorted(root.glob("**/report.txt"))
    if not files:
        raise ConfigError(f"no records.tsv or report.txt files under {root}")
    hashes = set()
    for path in files:
        try:
            if path.name == "records.tsv":
                meta, fields, records = read_campaign(path)
            else:
                meta, sections = read_manifold_report(path)
        except ValueError as exc:  # UnicodeDecodeError included
            raise ConfigError(f"{path}: {exc}") from exc
        hashes.add(meta.get("config-hash", "?"))
        if len(hashes) > 1:
            raise ConfigError(
                f"mixed config hashes in {root}: {sorted(hashes)}; refusing to report")
        if path.name == "report.txt":
            out.write(f"{path}: manifold-verify, {sections.get('battery', {}).get('name', '?')}"
                      f" battery, hash {meta.get('config-hash', '?')}\n")
            for section, values in sections.items():
                if "passed" in values:
                    out.write(f"  {section}: {'pass' if values['passed'] == 'True' else 'FAIL'}\n")
            continue
        out.write(f"{path}: {meta.get('experiment', '?')}, {len(records)} rows, "
                  f"hash {meta.get('config-hash', '?')}\n")
        summary = path.parent / "summary.txt"
        try:
            lines = summary.read_text().splitlines() if summary.exists() else []
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{summary}: {exc}") from exc
        for line in lines:
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
    except (DsgdLabError, OSError, MemoryError) as exc:
        err.write(f"experiment failed: {type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
