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
from dsgdlab.records import (
    read_campaign,
    read_checkpoints,
    write_solution,
    write_trajectory,
)

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
    path = write_config(tmp_path)
    code, echo, err = run_cli("validate", str(path))
    assert code == 0, err
    code, out, err = run_cli("run", str(path))
    assert code == 0, err
    assert out.startswith(echo)
    assert "[run] steps = 2000\n" in echo
    assert "[noise] restrict_to_constraint = False (default)\n" in echo


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


def test_trajectory_record_roundtrip(tmp_path):
    from dsgdlab.engine import NoiseModel, run
    from dsgdlab.graphs import consensus_penalty, laplacian, path_graph
    from dsgdlab.losses import sum_loss, zero_loss
    from dsgdlab.schedules import Schedule

    q = consensus_penalty(laplacian(path_graph(2)), 1)
    losses = sum_loss([zero_loss(1), zero_loss(1)])
    traj = run(np.array([1.0, 0.0]), 100, losses.assembled, q,
               Schedule(1.0, 1.0, 0.5, 0.6), NoiseModel("gaussian", 0.1, seed=3),
               record_state=True, n_agents=2)
    path = tmp_path / "traj.tsv"
    write_trajectory(traj, path, include_state=True)
    kind, cols, arr = read_checkpoints(path)
    assert kind == "discrete"
    assert cols[:5] == ["step", "zeta", "consensus_error", "grad_norm", "state_norm"]
    assert np.allclose(arr[:, 0], traj.steps)
    assert np.allclose(arr[:, 5:], traj.states)


def test_solution_record_tagged_continuous(tmp_path):
    from dsgdlab.flow import integrate_dgf
    from dsgdlab.graphs import constraint_rotation, penalty_from_matrix
    from dsgdlab.losses import zero_loss
    from dsgdlab.schedules import ConstantGamma

    q = penalty_from_matrix(np.diag([0.0, 1.0]))
    sol = integrate_dgf(zero_loss(2), q, ConstantGamma(1.0), [1.0, 1.0], 0.0, 0.5,
                        step=1e-2)
    path = tmp_path / "sol.tsv"
    write_solution(sol, path, zero_loss(2), constraint_rotation(q))
    kind, cols, arr = read_checkpoints(path)
    assert kind == "continuous"
    assert np.allclose(arr[:, 1], sol.times)
    assert np.allclose(arr[:, 5:], sol.states)


def test_cli_import_leaves_scipy_out():
    # scipy is imported only by the calls that use it
    code = "import sys, dsgdlab.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


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
