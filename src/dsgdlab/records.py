"""Delimited text records for campaigns, summaries, and manifold reports.

All writers are timestamp-free so identical inputs produce byte-identical
files. Floats are rendered with repr-level precision ('%.17g').
"""

from __future__ import annotations

import hashlib

import numpy as np

CAMPAIGN_MAGIC = "# dsgdlab-campaign v1"
SUMMARY_MAGIC = "# dsgdlab-summary v1"
REPORT_MAGIC = "# dsgdlab-manifold-report v1"


def _fmt(x):
    # floats first, the commonest field; a bool is no float, and is checked
    # before int, whose subclass it is
    if isinstance(x, (float, np.floating)):
        return "%.17g" % float(x)
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def config_hash(sections):
    """Order-independent hash of the semantic config content.

    sections maps section name -> {key: value}; the output section is
    excluded so relocating results does not change identity.
    """
    digest = hashlib.sha256()
    for name in sorted(sections):
        if name == "output":
            continue
        for key in sorted(sections[name]):
            digest.update(f"[{name}] {key} = {sections[name][key]}\n".encode())
    return digest.hexdigest()[:16]


def write_campaign(result, path):
    """Per-seed records sorted by seed, preceded by provenance comments."""
    with open(path, "w") as fh:
        fh.write(CAMPAIGN_MAGIC + "\n")
        fh.write(f"# config-hash: {result.config_hash}\n")
        fh.write(f"# experiment: {result.kind}\n")
        fh.write(f"# library-version: {result.version}\n")
        fh.write("# columns: " + " ".join(result.fields) + "\n")
        for rec in sorted(result.records, key=lambda r: r["seed"]):
            fh.write("\t".join(_fmt(rec[f]) for f in result.fields) + "\n")


def read_campaign(path):
    meta, fields, rows = {}, None, []
    with open(path) as fh:
        magic = fh.readline().strip()
        if magic != CAMPAIGN_MAGIC:
            raise ValueError("not a campaign record file")
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# columns:"):
                fields = line.split(":", 1)[1].split()
            elif line.startswith("#"):
                key, _, val = line[1:].partition(":")
                meta[key.strip()] = val.strip()
            elif line:
                rows.append(line.split("\t"))
    if fields is None:
        raise ValueError("campaign record file has no '# columns:' line")
    records = []
    for row in rows:
        rec = {}
        for name, val in zip(fields, row):
            try:
                num = float(val)
                rec[name] = int(num) if name == "seed" and num.is_integer() else num
            except ValueError:
                rec[name] = val
        records.append(rec)
    return meta, fields, records


def write_summary(result, path):
    with open(path, "w") as fh:
        fh.write(SUMMARY_MAGIC + "\n")
        fh.write(f"# config-hash: {result.config_hash}\n")
        fh.write(f"experiment = {result.kind}\n")
        fh.write(f"name = {result.name}\n")
        fh.write(f"rows = {len(result.records)}\n")
        for key in sorted(result.aggregates):
            fh.write(f"{key} = {_fmt(result.aggregates[key])}\n")


def write_manifold_report(report, path):
    """Structured text report: one [section] per check with key = value lines."""
    with open(path, "w") as fh:
        fh.write(REPORT_MAGIC + "\n")
        fh.write(f"# config-hash: {report.get('config_hash', 'n/a')}\n")
        for section in sorted(k for k in report if isinstance(report[k], dict)):
            fh.write(f"\n[{section}]\n")
            for key in sorted(report[section]):
                fh.write(f"{key} = {_fmt(report[section][key])}\n")


def read_manifold_report(path):
    """(meta, sections) of a manifold report: the '# key: value' header lines,
    and each [section]'s `key = value` lines as strings."""
    meta, sections, current = {}, {}, None
    with open(path) as fh:
        if fh.readline().strip() != REPORT_MAGIC:
            raise ValueError("not a manifold report file")
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, val = line[1:].partition(":")
                meta[key.strip()] = val.strip()
            elif line.startswith("[") and line.endswith("]"):
                current = sections.setdefault(line[1:-1], {})
            elif line:
                key, sep, val = line.partition(" = ")
                if current is None or not sep:
                    raise ValueError(f"malformed report line {line!r}")
                current[key] = val
    return meta, sections
