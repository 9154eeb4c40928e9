import io
from pathlib import Path

import numpy as np
import pytest

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


def test_worker_count_env(monkeypatch):
    from dsgdlab.experiments import worker_count
    monkeypatch.setenv("DSGDLAB_WORKERS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("DSGDLAB_WORKERS", "bogus")
    assert worker_count() >= 1
    monkeypatch.delenv("DSGDLAB_WORKERS")
    assert worker_count() >= 1


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
