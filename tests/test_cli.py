import configparser
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dsgdlab import cli, experiments
from dsgdlab.cli import main
from dsgdlab.records import read_campaign, read_manifold_report

GOOD_CONFIG = """
[experiment]
kind = consensus
name = demo

[problem]
loss = zero
graph = path:3
agent_dim = 1

[schedule]
alpha_scale = 1.0
tau_alpha = 1.0
gamma_scale = 0.5
tau_gamma = 0.6

[noise]
kind = gaussian
scale = 0.1

[run]
seeds = 0:4
steps = 2000

[init]
mode = gaussian
scale = 1.0

[tolerances]
consensus_tol = 5e-2

[output]
dir = {out}
"""


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def write_config(tmp_path, text=None, name="exp.ini", out_name="results"):
    path = tmp_path / name
    path.write_text((text or GOOD_CONFIG).format(out=tmp_path / out_name))
    return path


def test_validate_good_config(tmp_path):
    path = write_config(tmp_path)
    code, out, err = run_cli("validate", str(path))
    assert code == 0
    assert "consensus" in out
    assert "alpha" in out
    assert err == ""


def test_validate_missing_loss_key(tmp_path):
    broken = GOOD_CONFIG.replace("loss = zero", "loss = nonexistent_loss")
    path = write_config(tmp_path, broken)
    code, out, err = run_cli("run", str(path))
    assert code == 1
    assert "nonexistent_loss" in err


MALFORMED = {
    "graph-size": ("graph = path:3", "graph = path:x"),
    "seed-range": ("seeds = 0:4", "seeds = 0:20:2"),
    "negative-seed": ("seeds = 0:4", "seeds = -3, 1"),
    "duplicate-seed": ("seeds = 0:4", "seeds = 3,3"),
    "no-graph": ("graph = path:3\n", ""),
    "negative-steps": ("steps = 2000", "steps = -5"),
    "empty-seeds": ("seeds = 0:4", "seeds = 5:5"),
    "init-value": ("mode = gaussian\nscale = 1.0", "mode = consensual\nvalue = a b"),
    "init-size": ("mode = gaussian\nscale = 1.0", "mode = consensual\nvalue = 1 2"),
}


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_config_is_config_error(tmp_path, case, command):
    old, new = MALFORMED[case]
    assert old in GOOD_CONFIG
    path = write_config(tmp_path, GOOD_CONFIG.replace(old, new))
    code, out, err = run_cli(command, str(path))
    assert code == 1
    assert err.startswith("config error:")
    assert not (tmp_path / "results").exists()


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def shipped(name, tmp_path, edits=()):
    """configs/<name>.ini at probe scale (steps = 50, seeds = 0:3, drift
    k0_grid = 20 40, output under tmp_path/results) with `edits` applied:
    (section, key, value) sets the key; a value of None drops it."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(CONFIGS / f"{name}.ini")
    scale = [("output", "dir", str(tmp_path / "results"))]
    if parser.has_section("run"):
        scale.append(("run", "seeds", "0:3"))
    if parser.has_option("run", "steps"):
        scale.append(("run", "steps", "50"))
    if parser.has_section("drift"):
        scale.append(("drift", "k0_grid", "20 40"))
    for section, key, value in scale + list(edits):
        if value is None:
            parser.remove_option(section, key)
            continue
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value)
    path = tmp_path / f"{name}.ini"
    with open(path, "w") as fh:
        parser.write(fh)
    return path


# malformed inputs on the shipped configs: id -> (config, edits)
PROBES = {
    "noise-kind": ("consensus", [("noise", "kind", "bogus")]),
    "noise-scale-negative": ("consensus", [("noise", "scale", "-1")]),
    "noise-scale-zero": ("consensus", [("noise", "scale", "0")]),
    "agent-dim-zero": ("consensus", [("problem", "agent_dim", "0")]),
    "agent-dim-negative": ("consensus", [("problem", "agent_dim", "-1")]),
    "anchors-ragged": ("critical_point_wells", [("problem", "anchors", "1 2; 3; 4 5")]),
    "l1-weight-negative": ("critical_point_l1", [("problem", "l1_weight", "-1")]),
    "k0-grid-junk": ("drift_stats", [("drift", "k0_grid", "a b")]),
    "k0-grid-zero": ("drift_stats", [("drift", "k0_grid", "0")]),
    "k0-grid-empty": ("drift_stats", [("drift", "k0_grid", "")]),
    "window-short": ("drift_stats", [("drift", "window_factor", "0.5")]),
    "window-stepless": ("drift_stats", [("drift", "window_factor", "1.001")]),
    "band-lo-above-one": ("drift_stats", [("drift", "band_lo_q", "2")]),
    "t-end-before-start": ("drift_stats", [("drift", "t_end", "3")]),
    "t-start-negative": ("drift_stats", [("drift", "t_start", "-5")]),
    "n-samples-zero": ("manifold_quadratic", [("manifold", "n_samples", "0")]),
    "t-start-junk": ("drift_stats", [("drift", "t_start", "x")]),
    "consensus-tol-junk": ("consensus", [("tolerances", "consensus_tol", "abc")]),
    "battery-unknown": ("manifold_quadratic", [("problem", "battery", "bogus")]),
    "cubic-coef-junk": ("manifold_cross_cubic", [("problem", "cubic_coef", "x")]),
    "n-samples-junk": ("manifold_quadratic", [("manifold", "n_samples", "x")]),
    "drift-without-saddle": ("drift_stats", [("problem", "loss", "zero"),
                                             ("problem", "agent_dim", "2")]),
    "saddle-without-saddle": ("saddle_avoidance", [("problem", "loss", "zero"),
                                                   ("problem", "agent_dim", "2")]),
    "critical-without-minimizer": ("critical_point_wells",
                                   [("problem", "loss", "saddle_quartic"),
                                    ("problem", "anchors", None)]),
    # the key is no longer read, so any value of it is refused at both commands
    "restrict-not-boolean": ("consensus", [("noise", "restrict_to_constraint", "maybe")]),
    "tolerance-typo": ("consensus", [("tolerances", "consensus_tol", None),
                                     ("tolerances", "consensus_tl", "1e-3")]),
    "radius-negative": ("saddle_avoidance",
                        [("tolerances", "classification_radius", "-1")]),
    "band-order": ("drift_stats", [("drift", "band_lo_q", "0.9"),
                                   ("drift", "band_hi_q", "0.1")]),
    "saddle-agent-dim": ("saddle_avoidance", [("problem", "agent_dim", "3")]),
    "init-mode": ("consensus", [("init", "mode", "bogus")]),
    "init-scale-junk": ("consensus", [("init", "scale", "x")]),
    "loss-unknown": ("consensus", [("problem", "loss", "bogus")]),
    "anchors-empty": ("critical_point_wells", [("problem", "anchors", "")]),
    "tau-alpha-junk": ("consensus", [("schedule", "tau_alpha", "x")]),
    "stacked-init-size": ("saddle_avoidance", [("init", "mode", "stacked"),
                                               ("init", "value", "1 2")]),
    "graph-empty": ("consensus", [("problem", "graph", "path:0")]),
    # a loss whose psi is solved: every frame must lie in [t_start, t_end]
    "drift-restart-before-t-start": ("drift_stats", [("problem", "loss", "saddle_quartic"),
                                                     ("drift", "k0_grid", "250")]),
    "drift-window-past-t-end": ("drift_stats", [("problem", "loss", "saddle_quartic"),
                                                ("drift", "k0_grid", "2000")]),
    # non-finite numbers: each passed `validate` before it was refused
    "t-end-infinite": ("drift_stats", [("drift", "t_end", "inf")]),
    "alpha-scale-infinite": ("consensus", [("schedule", "alpha_scale", "inf")]),
    "alpha-scale-nan": ("consensus", [("schedule", "alpha_scale", "nan")]),
    "noise-scale-infinite": ("consensus", [("noise", "scale", "inf")]),
    "init-value-infinite": ("saddle_avoidance", [("init", "value", "inf 0")]),
    "init-value-nan": ("critical_point_l1", [("init", "value", "nan")]),
    "init-scale-infinite": ("consensus", [("init", "scale", "inf")]),
    "init-scale-nan": ("consensus", [("init", "scale", "nan")]),
    "anchors-infinite": ("critical_point_wells", [("problem", "anchors", "1 2; -inf 0; 4 5")]),
    "cubic-coef-nan": ("manifold_cross_cubic", [("problem", "cubic_coef", "nan")]),
    "cubic-coef-infinite": ("manifold_cross_cubic", [("problem", "cubic_coef", "inf")]),
    "l1-weight-infinite": ("critical_point_l1", [("problem", "l1_weight", "inf")]),
    # each passed `validate`: a seed past int64 then overflowed in the run, and
    # a repeated k0 fitted an excursion slope to one distinct restart index
    "seed-too-large": ("consensus", [("run", "seeds", "9223372036854775808")]),
    "k0-grid-repeated": ("drift_stats", [("drift", "k0_grid", "250 250")]),
    # a start past the divergence ceiling: each passed `validate` and then
    # overflowed in the run
    "init-value-huge": ("saddle_avoidance_control_on", [("init", "value", "1e200 0")]),
    "init-scale-huge": ("consensus", [("init", "scale", "1e300")]),
    # sizes past int64, and a coercivity radius whose sampled shell overflows:
    # each ended in numpy's traceback, at `run` or at both commands
    "steps-past-int64": ("consensus", [("run", "steps", "1" + "0" * 25)]),
    "k0-grid-past-int64": ("drift_stats", [("problem", "loss", "saddle_quartic"),
                                           ("drift", "t_end", "25"),
                                           ("drift", "k0_grid", "1" + "0" * 25)]),
    "n-samples-past-int64": ("manifold_quadratic",
                             [("manifold", "n_samples", "1" + "0" * 25)]),
    "agent-dim-past-int64": ("consensus", [("problem", "agent_dim", str(2**63))]),
    "coercivity-radius-huge": ("critical_point_wells",
                               [("tolerances", "coercivity_radius", "1e308")]),
    # scales past the divergence ceiling: each overflowed in the run, or
    # (shifted) underflowed a Picard step's decay
    "gamma-scale-huge-consensus": ("consensus", [("schedule", "gamma_scale", "1e308")]),
    "gamma-scale-huge-saddle": ("saddle_avoidance", [("schedule", "gamma_scale", "1e308")]),
    "gamma-scale-huge-drift": ("drift_stats", [("schedule", "gamma_scale", "1e308")]),
    "gamma-scale-past-int64-shifted": ("manifold_shifted",
                                       [("schedule", "gamma_scale", str(2**63))]),
    "alpha-scale-huge": ("drift_stats", [("schedule", "alpha_scale", "1e308")]),
    "validity-radius-huge": ("drift_stats", [("drift", "validity_radius", "1e308")]),
    "l1-weight-huge": ("critical_point_l1", [("problem", "l1_weight", "1e308")]),
    "cubic-coef-huge": ("manifold_cross_cubic", [("problem", "cubic_coef", "1e308")]),
}


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("case", sorted(PROBES))
def test_probe_is_config_error(tmp_path, case, command):
    name, edits = PROBES[case]
    code, out, err = run_cli(command, str(shipped(name, tmp_path, edits)))
    assert code == 1, err
    assert err.startswith("config error:")
    assert "Traceback" not in err
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("edit", [("noise", "scale", "1e300"),
                                  ("schedule", "alpha_scale", "1e12"),
                                  ("schedule", "gamma_scale", "1e12")],
                         ids=["noise-scale", "alpha-scale", "gamma-scale"])
def test_overflowing_run_records_divergence(tmp_path, edit):
    # every row overflows to inf or NaN within its first steps (in the noise
    # child's draws, or in the step, where a schedule scale at the divergence
    # ceiling multiplies a state past it): each is recorded as diverged, with
    # no RuntimeWarning, which this suite turns into an error
    code, out, err = run_cli("run", str(shipped("consensus", tmp_path, [edit])))
    assert code == 0, err
    assert "diverged = 3\n" in (tmp_path / "results" / "summary.txt").read_text()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("text", ["", " \n\t\n"], ids=["empty", "blank"])
def test_empty_graph_file_is_config_error(tmp_path, text, command):
    graph = tmp_path / "graph.txt"
    graph.write_text(text)
    path = shipped("consensus", tmp_path, [("problem", "graph", f"file:{graph}")])
    code, out, err = run_cli(command, str(path))
    assert code == 1, err
    assert err.startswith("config error:")
    assert "Traceback" not in err
    assert not (tmp_path / "results").exists()


# shifted batteries that pass `validate` and whose repulsion sweep censors a
# whole time slice (20 samples) or every point (2 samples): each run ended in
# numpy's traceback, from the psi solve of no rows or the fit on no pairs
CENSORED = {
    "slice-censored": ([("manifold", "n_samples", "20"), ("schedule", "gamma_scale", "0.05")],
                       None),
    "all-censored": ([("manifold", "n_samples", "2"), ("schedule", "gamma_scale", "0.01")],
                     {"passed": "False", "pairs": "0", "censored": "20"}),
}


@pytest.mark.parametrize("case", sorted(CENSORED))
def test_censored_repulsion_sweep_is_reported(tmp_path, case):
    edits, repulsion = CENSORED[case]
    code, out, err = run_cli("run", str(shipped("manifold_shifted", tmp_path, edits)))
    assert code in (0, 2), err
    assert "Traceback" not in err
    meta, sections = read_manifold_report(tmp_path / "results" / "report.txt")
    assert int(sections["repulsion"]["censored"]) > 0
    if repulsion:
        assert repulsion.items() <= sections["repulsion"].items()
    assert run_cli("report", str(tmp_path / "results"))[0] == 0


# a key the kind's setup never reads: id -> (config, edits, kind, refused key)
UNREAD = {
    "consensus-typo": ("consensus", [("run", "step", "50")], "consensus", "[run] step"),
    "critical-point-typo": ("critical_point_l1", [("problem", "l1weight", "0.3")],
                            "critical-point", "[problem] l1weight"),
    "saddle-typo": ("saddle_avoidance", [("init", "values", "0 0")],
                    "saddle-avoidance", "[init] values"),
    "drift-typo": ("drift_stats", [("drift", "window", "4")], "drift-stats",
                   "[drift] window"),
    "manifold-typo": ("manifold_quadratic", [("manifold", "samples", "20")],
                      "manifold-verify", "[manifold] samples"),
    "value-with-gaussian-init": ("consensus", [("init", "value", "0 0")], "consensus",
                                 "[init] value"),
    "cubic-coef-on-quadratic": ("manifold_quadratic", [("problem", "cubic_coef", "0.1")],
                                "manifold-verify", "[problem] cubic_coef"),
    # D-SGD draws each agent's noise in its own coordinates; no key restricts it
    "restrict-removed": ("consensus", [("noise", "restrict_to_constraint", "false")],
                         "consensus", "[noise] restrict_to_constraint"),
}


@pytest.mark.parametrize("case", sorted(UNREAD))
def test_unread_key_is_refused(tmp_path, case):
    name, edits, kind, key = UNREAD[case]
    code, out, err = run_cli("validate", str(shipped(name, tmp_path, edits)))
    assert code == 1
    assert err == f"config error: {kind} experiments do not use {key}\n"


def test_output_dir_is_accepted(tmp_path):
    path = shipped("manifold_quadratic", tmp_path, [("output", "dir", "elsewhere")])
    assert run_cli("validate", str(path))[0] == 0


def test_run_builds_problem_once(tmp_path, monkeypatch):
    calls = []
    build = experiments.build_problem

    def counted(config):
        calls.append(config)
        return build(config)

    # every module that binds the builder, as a tracer rebinds it
    for module in (experiments, cli):
        monkeypatch.setattr(module, "build_problem", counted, raising=False)
    code, out, err = run_cli("run", str(write_config(tmp_path)))
    assert code == 0, err
    assert len(calls) == 1


def test_validate_and_run_print_the_same_echo(tmp_path):
    path = write_config(tmp_path, GOOD_CONFIG.replace("consensus_tol = 5e-2\n", ""))
    code, echo, err = run_cli("validate", str(path))
    assert code == 0, err
    code, out, err = run_cli("run", str(path))
    assert code == 0, err
    assert out.startswith(echo)
    assert "[run] steps = 2000\n" in echo
    assert "[tolerances] consensus_tol = 0.001 (default)\n" in echo


JUNK = st.text(alphabet="abxyz%:;,.-_ ", min_size=1, max_size=6)
VALUES = st.one_of(JUNK, st.sampled_from(["-1", "-0.5", "-20", "0", ""]))


@st.composite
def mutations(draw):
    """A shipped config and one edit: a dropped key, an unknown key, or junk,
    negative, zero or empty text in a value."""
    name = draw(st.sampled_from(sorted(p.stem for p in CONFIGS.glob("*.ini"))))
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(CONFIGS / f"{name}.ini")
    action = draw(st.sampled_from(["drop", "add", "set"]))
    if action == "add":
        return name, [(draw(st.sampled_from(parser.sections())), "unknown_key",
                       draw(VALUES))]
    section, key = draw(st.sampled_from(
        [(s, k) for s in parser.sections() for k in parser[s]]))
    return name, [(section, key, None if action == "drop" else draw(VALUES))]


@settings(max_examples=120, derandomize=True, deadline=None)
@given(mutations())
@example(("drift_stats", [("drift", "t_start", "0.5")]))
def test_mutated_config_fails_alike_under_validate_and_run(mutation):
    name, edits = mutation
    with tempfile.TemporaryDirectory() as tmp:
        path = shipped(name, Path(tmp), edits)
        code, out, err = run_cli("validate", str(path))
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 1:
            assert err.startswith("config error:")
        if code:
            run_code, _, run_err = run_cli("run", str(path))
            assert (run_code, run_err.splitlines()[0]) == (code, err.splitlines()[0])
            assert not (Path(tmp) / "results").exists()


def test_validate_bad_schedule(tmp_path):
    broken = GOOD_CONFIG.replace("tau_gamma = 0.6", "tau_gamma = 1.0")
    path = write_config(tmp_path, broken)
    code, out, err = run_cli("validate", str(path))
    assert code == 1
    assert "tau_gamma" in err


def test_run_writes_records_and_summary(tmp_path):
    path = write_config(tmp_path)
    code, out, err = run_cli("run", str(path))
    assert code == 0, err
    records = tmp_path / "results" / "records.tsv"
    summary = tmp_path / "results" / "summary.txt"
    assert records.exists() and summary.exists()
    meta, fields, rows = read_campaign(records)
    assert len(rows) == 4
    assert meta["experiment"] == "consensus"


def test_run_twice_byte_identical(tmp_path):
    p1 = write_config(tmp_path, name="a.ini", out_name="r1")
    p2 = write_config(tmp_path, name="b.ini", out_name="r2")
    assert run_cli("run", str(p1))[0] == 0
    assert run_cli("run", str(p2))[0] == 0
    rec1 = (tmp_path / "r1" / "records.tsv").read_bytes()
    rec2 = (tmp_path / "r2" / "records.tsv").read_bytes()
    assert rec1 == rec2
    sum1 = (tmp_path / "r1" / "summary.txt").read_bytes()
    sum2 = (tmp_path / "r2" / "summary.txt").read_bytes()
    assert sum1 == sum2


def test_report_reads_results(tmp_path):
    path = write_config(tmp_path)
    run_cli("run", str(path))
    code, out, err = run_cli("report", str(tmp_path / "results"))
    assert code == 0
    assert "consensus" in out
    assert "4 rows" in out


def test_report_refuses_mixed_hashes(tmp_path):
    p1 = write_config(tmp_path, name="a.ini", out_name="mixed/r1")
    other = GOOD_CONFIG.replace("steps = 2000", "steps = 2500")
    p2 = write_config(tmp_path, other, name="b.ini", out_name="mixed/r2")
    run_cli("run", str(p1))
    run_cli("run", str(p2))
    code, out, err = run_cli("report", str(tmp_path / "mixed"))
    assert code == 1
    assert "mixed" in err or "refusing" in err


def test_report_empty_dir(tmp_path):
    code, out, err = run_cli("report", str(tmp_path))
    assert code == 1


@pytest.mark.parametrize("name, content", [
    ("records.tsv", b"# not-a-campaign v0\n# columns: seed\n0\n"),
    ("records.tsv", b"# dsgdlab-campaign v1\n# config-hash: abc\n0\t1\n"),
    ("records.tsv", b"# dsgdlab-campaign v1\n# columns: seed\n\xff\xfe\n"),
    ("summary.txt", b"\xff\xfe# dsgdlab-summary v1\nrows = 1\n"),
], ids=["bad-magic", "no-columns-line", "undecodable", "undecodable-summary"])
def test_report_malformed_records_is_config_error(tmp_path, name, content):
    # a malformed file next to a valid records.tsv
    path = tmp_path / "r" / name
    path.parent.mkdir()
    (tmp_path / "r" / "records.tsv").write_bytes(
        b"# dsgdlab-campaign v1\n# config-hash: abc\n# columns: seed\n0\n")
    path.write_bytes(content)
    code, out, err = run_cli("report", str(tmp_path))
    assert code == 1
    assert err.startswith(f"config error: {path}: ")
    assert "Traceback" not in err


def test_report_reads_a_non_integer_seed_cell(tmp_path):
    # a seed cell that is not an integer stays a float, infinity included
    path = tmp_path / "r" / "records.tsv"
    path.parent.mkdir()
    path.write_bytes(b"# dsgdlab-campaign v1\n# config-hash: abc\n# columns: seed\ninf\n")
    code, out, err = run_cli("report", str(tmp_path))
    assert code == 0, err
    assert "Traceback" not in err
    assert out.startswith(f"{path}: ?, 1 rows, hash abc\n")


def test_unknown_kind_rejected(tmp_path):
    broken = GOOD_CONFIG.replace("kind = consensus", "kind = banana")
    path = write_config(tmp_path, broken)
    code, out, err = run_cli("validate", str(path))
    assert code == 1
    assert "banana" in err


MANIFOLD_CONFIG = """
[experiment]
kind = manifold-verify
name = quad-battery

[problem]
battery = quadratic

[schedule]
alpha_scale = 1.0
tau_alpha = 1.0
gamma_scale = 0.5
tau_gamma = 0.6

[manifold]
n_samples = 120

[output]
dir = {out}
"""


def test_run_manifold_verification_writes_report(tmp_path):
    path = write_config(tmp_path, MANIFOLD_CONFIG, name="mv.ini", out_name="mv")
    code, out, err = run_cli("run", str(path))
    assert code == 0, err
    report = (tmp_path / "mv" / "report.txt").read_text()
    assert "[repulsion]" in report
    assert "c2_hat" in report
    assert "passed = True" in report
    assert "repulsion: pass" in out


def test_shipped_configs_validate():
    configs = sorted(Path(__file__).resolve().parent.parent.glob("configs/*.ini"))
    assert len(configs) >= 8
    for cfg in configs:
        code, out, err = run_cli("validate", str(cfg))
        assert code == 0, f"{cfg}: {err}"


def test_worker_count_env(monkeypatch, tmp_path):
    # campaigns run in one process: the old pool-size variable changes nothing
    outputs = []
    for value in (None, "3", "bogus"):
        if value is None:
            monkeypatch.delenv("DSGDLAB_WORKERS", raising=False)
        else:
            monkeypatch.setenv("DSGDLAB_WORKERS", value)
        assert experiments.worker_count() == 1
        path = write_config(tmp_path, name=f"{value}.ini", out_name=f"out-{value}")
        code, out, err = run_cli("run", str(path))
        assert code == 0, err
        outputs.append([(tmp_path / f"out-{value}" / f).read_bytes()
                        for f in ("records.tsv", "summary.txt")])
    assert outputs[0] == outputs[1] == outputs[2]


def test_cli_import_leaves_scipy_out():
    # scipy is imported only by the calls that use it; flow and schedules are
    # not reached from the cli, so they are imported too
    code = ("import sys, dsgdlab.cli, dsgdlab.flow, dsgdlab.schedules; "
            "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_readme_library_example_runs():
    # the python block under "## Library example", run as a script with
    # warnings as errors, so the example cannot drift from the API
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(root / "src"),
                              "PYTHONWARNINGS": "error"})
    assert out.returncode == 0, out.stderr


def test_manifold_run_with_a_failed_solve_exits_2(tmp_path, monkeypatch):
    # the decay-rate fit needs the Picard solve from a_scale e_1, so a
    # failed solve ends the run: exit 2, the solver's error, no report
    from dsgdlab.errors import ContractionError

    def failing(model, t0, a_s):
        raise ContractionError("stopped contracting")

    monkeypatch.setattr(experiments.ManifoldModel, "picard_solve", failing)
    config = Path(__file__).parents[1] / "configs" / "manifold_shifted.ini"
    code, _, err = run_cli("run", str(config), "--output", str(tmp_path / "out"))
    assert code == 2
    assert err == "experiment failed: ContractionError: stopped contracting\n"
    assert not (tmp_path / "out" / "report.txt").exists()


def test_unallocatable_step_count_exits_2(tmp_path):
    # the chunk spans of 10^18 steps ask for 28 PiB at once, which no
    # allocator grants, so the run fails before it touches any memory
    path = write_config(tmp_path, GOOD_CONFIG.replace("steps = 2000",
                                                      "steps = 1000000000000000000"))
    code, _, err = run_cli("run", str(path))
    assert code == 2
    assert err.startswith("experiment failed: MemoryError: ")


@pytest.mark.parametrize("seeds", ["0:9223372036854775808", "1:9223372036854775808",
                                   "0:4611686018427387904"])
@pytest.mark.parametrize("name, command", [("consensus", "validate"), ("drift_stats", "run")])
def test_unallocatable_seed_count_exits_2(tmp_path, seeds, name, command):
    # a seed range is never listed, so it fails at its first per-seed array;
    # these counts are past what numpy can index or len() can count, so they
    # fail before any memory is touched, and exit 2 as an unallocatable size
    code, _, err = run_cli(command, str(shipped(name, tmp_path, [("run", "seeds", seeds)])))
    assert code == 2, err
    assert err.startswith("experiment failed: MemoryError: cannot allocate")


@pytest.mark.parametrize("name, edits, commands", [
    # the solved-psi span check sizes the elapsed times of the last window
    ("drift_stats", [("problem", "loss", "saddle_quartic"), ("drift", "t_end", "25"),
                     ("drift", "k0_grid", str(2**62))], ("validate", "run")),
    # the repulsion sweep draws n_samples points at each time
    ("manifold_quadratic", [("manifold", "n_samples", str(2**62))], ("run",)),
    # the consensus penalty L kron I_d is built at setup
    ("consensus", [("problem", "agent_dim", str(2**63 - 1))], ("validate", "run")),
], ids=["drift-elapsed-times", "manifold-samples", "agent-dim-int64-max"])
def test_unindexable_size_exits_2(tmp_path, name, edits, commands):
    # sizes below 2**63 that numpy still cannot index: its ValueError is the
    # MemoryError of an unallocatable size, before any memory is touched
    for command in commands:
        code, _, err = run_cli(command, str(shipped(name, tmp_path, edits)))
        assert code == 2, err
        assert err.startswith("experiment failed: MemoryError: cannot allocate")
        assert "Traceback" not in err


def test_report_reads_a_manifold_output_directory(tmp_path):
    # a manifold-verify output holds report.txt and no records.tsv: report
    # lists each check's verdict; a copy with a failed check shows FAIL
    path = write_config(tmp_path, MANIFOLD_CONFIG, name="mv.ini", out_name="mv")
    assert run_cli("run", str(path))[0] == 0
    code, out, err = run_cli("report", str(tmp_path / "mv"))
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0].startswith(f"{tmp_path / 'mv' / 'report.txt'}: manifold-verify, "
                               "quadratic battery, hash ")
    assert lines[1:] == [f"  {section}: pass" for section in
                         ("comparison", "overall", "picard", "repulsion", "spectrum")]
    text = (tmp_path / "mv" / "report.txt").read_text()
    failed = tmp_path / "failed" / "report.txt"
    failed.parent.mkdir()
    failed.write_text(text.replace("[overall]\npassed = True", "[overall]\npassed = False"))
    code, out, err = run_cli("report", str(failed.parent))
    assert code == 0, err
    assert "  overall: FAIL" in out.splitlines()


@pytest.mark.parametrize("content", [
    b"# not-a-report v0\n[overall]\npassed = True\n",
    b"# dsgdlab-manifold-report v1\npassed = True\n",
    b"# dsgdlab-manifold-report v1\n[overall]\n\xff\xfe\n",
], ids=["bad-magic", "line-outside-a-section", "undecodable"])
def test_report_malformed_manifold_report_is_config_error(tmp_path, content):
    path = tmp_path / "r" / "report.txt"
    path.parent.mkdir()
    path.write_bytes(content)
    code, out, err = run_cli("report", str(tmp_path))
    assert code == 1
    assert err.startswith(f"config error: {path}: ")
    assert "Traceback" not in err
