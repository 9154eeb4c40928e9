"""End-to-end benchmark of dsgdlab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dsgdlab checkout; the package is imported from its
`src/`, nothing needs installing. The load is a closed loop with one client:
one `dsgdlab run` process at a time, on a config generated from the workload
seed, repeated until the next process would end past S seconds (at least
once). Each process keeps the program's defaults (DSGDLAB_WORKERS and the
BLAS thread count are recorded, not set).

--trace 0 reports the end-to-end metrics, as medians over the processes.
--trace 1 alternates untraced and traced processes and reports the per-layer
metrics of the traced ones; the traced records must match the untraced ones
byte for byte.

Every process's outputs are checked against the acceptance criteria, and all
processes of one invocation must write byte-identical records. The last line
of stdout is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, REPORTED_ONLY, layer_metrics
from tracer import load_spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
TIME_LIMIT = 170.0          # the whole invocation must end within 180 s
MIN_SETUP_SAMPLES = 5


@dataclass
class Sample:
    mode: str
    wall: float
    cpu: float
    rss_mb: float
    exit_code: int
    setup: float = None       # spawn to the first unit of work
    command: float = None     # spawn to the end of the dsgdlab command
    digest: str = None
    config_hash: str = None
    problem: str = None
    record: dict = field(default_factory=dict)


def _wait(pid, deadline):
    """Block until the child exits (killing it at the deadline); returns the
    exit time, its exit code and its resource usage."""
    fd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))
        exited = time.monotonic()
        if not ready:
            signal.pidfd_send_signal(fd, signal.SIGKILL)
    finally:
        _, status, usage = os.wait4(pid, 0)
        os.close(fd)
    return exited, os.waitstatus_to_exitcode(status), usage


def _digest(out_dir, names):
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode() + b"\0" + (Path(out_dir) / name).read_bytes() + b"\0")
    return h.hexdigest()


class Launcher:
    """Spawns `dsgdlab run` processes on one generated config."""

    def __init__(self, root, workload, config, work, deadline):
        self.workload = workload
        self.config = config
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.count = 0

    def launch(self, mode, out_json, args):
        log = self.work / f"log-{self.count}.txt"
        argv = [sys.executable, str(HERE / "launch.py"), mode, str(out_json), "--", *args]
        actions = [(os.POSIX_SPAWN_OPEN, 1, str(log), os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
                    0o644),
                   (os.POSIX_SPAWN_DUP2, 1, 2)]
        start = time.monotonic()
        pid = os.posix_spawn(sys.executable, argv, self.env, file_actions=actions)
        exited, code, usage = _wait(pid, self.deadline)
        return start, exited, code, usage, log

    def run(self, mode):
        self.count += 1
        out_dir = self.work / f"out-{self.count}"
        out_json = self.work / f"launch-{self.count}.json"
        start, exited, code, usage, log = self.launch(
            mode, out_json, ["run", str(self.config), "--output", str(out_dir)])
        sample = Sample(mode, exited - start, usage.ru_utime + usage.ru_stime,
                        usage.ru_maxrss / 1024.0, code)
        if out_json.exists():
            sample.record = json.loads(out_json.read_text())
            if sample.record.get("first_work") is not None:
                sample.setup = sample.record["first_work"] - start
            if sample.record.get("main_end") is not None:
                sample.command = sample.record["main_end"] - start
        if mode == "setup":
            return sample
        for line in log.read_text().splitlines():
            if line.startswith("config-hash:"):
                sample.config_hash = line.split(":", 1)[1].strip()
        if code != 0:
            sample.problem = f"exit code {code}: {log.read_text()[-500:]!r}"
            return sample
        try:
            sample.digest = _digest(out_dir, self.workload.records)
            sample.problem = self.workload.check(out_dir)
        except (OSError, KeyError, ValueError) as exc:
            sample.problem = f"unreadable outputs: {type(exc).__name__}: {exc}"
        shutil.rmtree(out_dir, ignore_errors=True)
        return sample


def _git_commit(root):
    """HEAD of the checkout's git repository, read from .git without git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(root):
    h = hashlib.sha256()
    for path in sorted((root / "src" / "dsgdlab").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _median(values):
    return statistics.median(values) if values else None


def measure(launcher, seconds, traced):
    """Closed loop: one process at a time until the next would end past
    `seconds`. Traced invocations alternate an untraced and a traced process."""
    begin = time.monotonic()
    plain, traced_runs, rounds = [], [], []
    while True:
        t = time.monotonic()
        plain.append(launcher.run("plain"))
        if traced:
            traced_runs.append(launcher.run("trace"))
        rounds.append(time.monotonic() - t)
        next_end = time.monotonic() + statistics.median(rounds)
        if next_end > min(begin + seconds, launcher.deadline - 20):
            break
    setups = [s.setup for s in plain if s.setup is not None]
    if not traced:
        while len(setups) < MIN_SETUP_SAMPLES and time.monotonic() < launcher.deadline - 30:
            probe = launcher.run("setup")
            if probe.setup is None:
                break
            setups.append(probe.setup)
    return plain, traced_runs, setups


def end_to_end(plain, setups, seed_steps):
    ok = [s for s in plain if s.exit_code == 0]
    values = {"wall_s": [s.wall for s in ok], "setup_s": setups,
              "cpu_s": [s.cpu for s in ok], "peak_rss_mb": [s.rss_mb for s in ok]}
    if seed_steps:
        values["seed_steps_per_s"] = [seed_steps / (s.wall - s.setup)
                                      for s in ok if s.setup is not None]
    return values


def per_layer(traced_runs, plain):
    rows = []
    for s in traced_runs:
        if s.exit_code != 0 or "trace" not in s.record:
            continue
        rows.append(layer_metrics(load_spans(s.record["trace"]), s.command,
                                  s.record["workers"]))
    values = {name: [r[name] for r in rows]
              for name, *_ in PER_LAYER if name != "trace.overhead"}
    # up to the end of the command: writing the spans out is not traced work
    plain_command = _median([s.command for s in plain if s.exit_code == 0])
    values["trace.overhead"] = [s.command / plain_command for s in traced_runs
                                if s.exit_code == 0 and plain_command]
    return values


def _fmt(v):
    return "n/a" if v is None else f"{v:.6g}"


def print_table(title, specs, values):
    """One row per metric: the median of its samples (for failed_frac, whose
    samples are one 0/1 per attempted run, the mean), sample count, range."""
    print(title)
    print(f"  {'metric':38s} {'value':>12s} {'unit':6s} {'n':>3s} {'min':>12s} {'max':>12s}")
    for name, unit, *rest in specs:
        vals = values.get(name, [])
        value = statistics.fmean(vals) if name == "failed_frac" else _median(vals)
        print(f"  {name:38s} {_fmt(value):>12s} {unit:6s} {len(vals):3d} "
              f"{_fmt(min(vals) if vals else None):>12s} "
              f"{_fmt(max(vals) if vals else None):>12s}"
              + (f"   moves: {rest[1]}" if len(rest) == 2 else ""))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    workload = WORKLOADS[args.workload]
    if not (root / "src" / "dsgdlab" / "__init__.py").is_file() \
            or not (root / workload.shipped).is_file():
        print(f"perfbench: {root} is not a dsgdlab checkout "
              f"(needs src/dsgdlab and {workload.shipped})", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT
    work = root / ".perfbench" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        config = work / "workload.ini"
        config_text, sections = workload.write_config(root, args.seed, config)
        launcher = Launcher(root, workload, config, work, deadline)

        facts_path = work / "env.json"
        _, _, code, _, log = launcher.launch("env", facts_path, [])
        if code != 0:
            print(f"perfbench: environment probe failed:\n{log.read_text()}", file=sys.stderr)
            return 2
        facts = json.loads(facts_path.read_text())
        if not Path(facts["dsgdlab_file"]).resolve().is_relative_to(root / "src"):
            print(f"perfbench: imported {facts['dsgdlab_file']}, not this checkout's src/",
                  file=sys.stderr)
            return 2

        plain, traced_runs, setups = measure(launcher, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    runs = plain + traced_runs
    digests = Counter(s.digest for s in runs if s.digest)
    reference = digests.most_common(1)[0][0] if digests else None
    failures = []
    for s in runs:
        if s.problem:
            failures.append(f"{s.mode}: {s.problem}")
        elif s.digest != reference:
            failures.append(f"{s.mode}: records digest {s.digest} differs from {reference}")

    e2e = end_to_end(plain, setups, workload.seed_steps(sections))
    e2e["failed_frac"] = [0] * (len(runs) - len(failures)) + [1] * len(failures)

    stamp = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "load": "closed loop, 1 client, 1 process at a time",
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(root), "source_digest": _source_digest(root),
        "config_sha256": hashlib.sha256(config_text.encode()).hexdigest()[:16],
        "config_hash": plain[0].config_hash, "records_digest": reference,
        **{k: v for k, v in facts.items() if k != "dsgdlab_file"},
    }
    print(f"perfbench {workload.name}: {workload.why}")
    print_table(f"end-to-end ({len(plain)} untraced processes)",
                [m[:3] for m in END_TO_END] + REPORTED_ONLY, e2e)
    if args.trace:
        layers = per_layer(traced_runs, plain)
        print_table(f"per-layer ({len(traced_runs)} traced processes)", PER_LAYER, layers)
    for f in failures:
        print(f"FAILED {f}")
    print("stamp: " + json.dumps(stamp, sort_keys=True))

    if args.trace:
        metrics = {name: {"value": _median(layers[name]), "unit": unit}
                   for name, unit, *_ in PER_LAYER}
    else:
        metrics = {name: {"value": _median(e2e[name]), "unit": unit}
                   for name, unit, *_ in END_TO_END}
    print(json.dumps({"correct": not failures, "attempted": len(runs),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
