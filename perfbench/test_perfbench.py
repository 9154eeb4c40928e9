"""Tests of the benchmark itself (not part of the library's suite).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from metrics import END_TO_END, PER_LAYER
from run import Launcher, _digest
from tracer import Span, Tracer, load_spans, self_times, union_length
from workloads import WORKLOADS, write_config

ROOT = Path(__file__).resolve().parent.parent


def test_union_length_merges_and_clips():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([(0, 2), (1, 3), (5, 6)], lo=1, hi=5.5) == 2.5
    assert union_length([]) == 0


def test_self_time_of_hand_built_nested_spans():
    root = Span("root", 0.0, end=10.0)
    a = Span("a", 1.0, root, end=4.0)
    b = Span("b", 3.0, root, end=6.0)      # overlaps a, as pool threads do
    leaf = Span("leaf", 1.5, a, end=2.0)
    late = Span("late", 9.0, root, end=12.0)  # runs past its parent's end
    selfs = self_times([root, a, b, leaf, late])
    assert selfs[id(root)] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[id(a)] == pytest.approx(2.5)
    assert selfs[id(b)] == pytest.approx(3.0)
    assert selfs[id(leaf)] == pytest.approx(0.5)
    assert selfs[id(late)] == pytest.approx(3.0)


def test_tracer_nests_spans_and_round_trips():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.wrap("outer", lambda: inner())
    inner = tracer.wrap("inner", lambda: None)
    outer()                                  # outer [0, 3], inner [1, 2]
    spans = load_spans(json.loads(json.dumps(tracer.dump())))
    by = {s.name: s for s in spans}
    assert by["inner"].parent is by["outer"]
    selfs = self_times(spans)
    assert selfs[id(by["outer"])] == 2.0
    assert selfs[id(by["inner"])] == 1.0


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["end_to_end"] == [{"name": n, "unit": u, "better": b, "bound": x}
                                  for n, u, b, x in END_TO_END]
    assert spec["per_layer"] == [{"name": n, "unit": u, "better": b}
                                 for n, u, b, _ in PER_LAYER]
    assert spec["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]


SHORT = {
    "saddle": ("configs/saddle_avoidance.ini", {"run": {"seeds": "0:70", "steps": 300}},
               ("records.tsv", "summary.txt")),
    "drift": ("configs/drift_stats.ini",
              {"run": {"seeds": "0:40"}, "drift": {"k0_grid": "20 40"}},
              ("records.tsv", "summary.txt")),
    "manifold": ("configs/manifold_quadratic.ini", {"manifold": {"n_samples": 10}},
                 ("report.txt",)),
}


@pytest.mark.parametrize("name", sorted(SHORT))
def test_traced_records_match_untraced(tmp_path, name):
    shipped, overrides, records = SHORT[name]
    config = tmp_path / "short.ini"
    write_config(ROOT / shipped, overrides, config)
    launcher = Launcher(ROOT, None, config, tmp_path, time.monotonic() + 120)
    digests = {}
    for mode in ("plain", "trace"):
        out = tmp_path / mode
        record = tmp_path / f"{mode}.json"
        _, _, code, _, log = launcher.launch(
            mode, record, ["run", str(config), "--output", str(out)])
        assert code == 0, log.read_text()
        digests[mode] = _digest(out, records)
    assert digests["trace"] == digests["plain"]
    spans = load_spans(json.loads(record.read_text())["trace"])
    assert {"cli.main", "experiments.run_experiment", "losses.subgradient",
            "records.write"} <= {s.name for s in spans}


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "saddle-200", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
