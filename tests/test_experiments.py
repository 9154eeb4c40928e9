import json
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from dsgdlab import experiments
from dsgdlab.engine import run_batch
from dsgdlab.errors import ConfigError, ContractionError
from dsgdlab.experiments import (
    ExperimentConfig,
    build_problem,
    drift_aggregate,
    load_config,
    parse_seeds,
    parse_vectors,
    run_experiment,
)
from dsgdlab.records import read_campaign, write_campaign, write_summary

DATA = Path(__file__).parent / "data"


def _plain(value):
    """JSON form of the numpy scalars and arrays in a report."""
    return value.tolist() if hasattr(value, "tolist") else str(value)


def make_config(kind, **sections):
    base = {"experiment": {"kind": kind, "name": f"test-{kind}"}}
    for name, payload in sections.items():
        base[name.replace("_", "-") if name == "critical_point" else name] = {
            k: str(v) for k, v in payload.items()}
    return ExperimentConfig(kind, f"test-{kind}", base)


SCHED = {"alpha_scale": 1.0, "tau_alpha": 1.0, "gamma_scale": 0.5, "tau_gamma": 0.6}


def consensus_config(steps=20000, seeds="0:5", graph="path:5"):
    return make_config(
        "consensus",
        problem={"loss": "zero", "graph": graph, "agent_dim": 2},
        schedule=SCHED,
        noise={"kind": "gaussian", "scale": 0.1},
        run={"seeds": seeds, "steps": steps},
        init={"mode": "gaussian", "scale": 1.0},
        tolerances={"consensus_tol": 1e-2},
    )


def test_parse_helpers():
    assert parse_seeds("0:4") == [0, 1, 2, 3]
    assert parse_seeds("3, 5, 9") == [3, 5, 9]
    with pytest.raises(ConfigError, match="seed 3 is listed more than once"):
        parse_seeds("3,3")
    vecs = parse_vectors("0.5 0.3; -0.2 0.1")
    assert np.allclose(vecs[0], [0.5, 0.3])
    assert np.allclose(vecs[1], [-0.2, 0.1])


def test_consensus_experiment_runs_and_converges():
    result = run_experiment(consensus_config())
    assert len(result.records) == 5
    assert result.aggregates["fraction_below_tol"] == 1.0
    assert result.aggregates["max_terminal_consensus"] < 1e-2
    assert all(r["first_passage_step"] > 0 for r in result.records)
    assert result.recompute_aggregates() == result.aggregates


def test_consensus_single_agent_trivially_zero():
    cfg = make_config(
        "consensus",
        problem={"loss": "zero", "graph": "path:1", "agent_dim": 2},
        schedule=SCHED,
        noise={"kind": "none"},
        run={"seeds": "0:2", "steps": 100},
        init={"mode": "consensual", "value": "0.3 -0.2"},
        tolerances={"consensus_tol": 1e-3},
    )
    result = run_experiment(cfg)
    assert result.aggregates["max_terminal_consensus"] == 0.0


def test_unreadable_graph_file_rejected():
    with pytest.raises(ConfigError, match="cannot read"):
        build_problem(make_config(
            "consensus",
            problem={"loss": "zero", "graph": "file:/nonexistent", "agent_dim": 1}))


def test_disconnected_graph_from_file(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("4\n1 2\n3 4\n")
    cfg = make_config(
        "consensus",
        problem={"loss": "zero", "graph": f"file:{p}", "agent_dim": 1})
    with pytest.raises(ConfigError, match="connected"):
        build_problem(cfg)


def test_determinism_identical_configs():
    a = run_experiment(consensus_config(steps=2000))
    b = run_experiment(consensus_config(steps=2000))
    assert a.records == b.records


def test_seed_order_does_not_change_rows(tmp_path, monkeypatch):
    # two-seed chunks, so the initial states of later chunks are looked up
    # by seed rather than by chunk position
    chunks = experiments._run_seed_chunks
    monkeypatch.setattr(experiments, "_run_seed_chunks",
                        lambda fn, seeds: chunks(fn, seeds, 2))
    rows = []
    for seeds in ("3, 1, 0, 2", "0:4"):
        path = tmp_path / f"{len(rows)}.tsv"
        write_campaign(run_experiment(consensus_config(steps=500, seeds=seeds)), path)
        rows.append(read_campaign(path)[2])
    assert [r["seed"] for r in rows[0]] == [0, 1, 2, 3]
    assert rows[0] == rows[1]


def test_seed_record_does_not_depend_on_the_other_seeds():
    # no seed of either list runs alone in a one-row batch, whose BLAS path differs
    short = run_experiment(consensus_config(steps=3000, seeds="0:65")).records
    long = run_experiment(consensus_config(steps=3000, seeds="0:66")).records
    assert short == long[:65]


def test_seed_chunks_are_near_equal(monkeypatch):
    chunks = experiments._run_seed_chunks
    sizes = []

    def split_by_four(fn, seeds):
        return chunks(lambda part: sizes.append(len(part)) or fn(part), seeds, 4)

    whole = run_experiment(consensus_config(steps=3000, seeds="0:5")).records
    monkeypatch.setattr(experiments, "_run_seed_chunks", split_by_four)
    split = run_experiment(consensus_config(steps=3000, seeds="0:5")).records
    assert split == whole
    assert sorted(sizes) == [2, 3]


def critical_config(loss="quadratic_wells", steps=50000, weight=0.3):
    problem = {"loss": loss, "graph": "path:3",
               "anchors": "1.0 0.5; -0.2 0.3; 0.4 -0.1"}
    if loss == "l1_wells":
        problem["l1_weight"] = weight
    return make_config(
        "critical-point",
        problem=problem,
        schedule={"alpha_scale": 0.5, "tau_alpha": 0.8, "gamma_scale": 0.5,
                  "tau_gamma": 0.6},
        noise={"kind": "gaussian", "scale": 0.1},
        run={"seeds": "0:4", "steps": steps},
        init={"mode": "consensual", "value": "0 0"},
        tolerances={"distance_tol": 1e-2},
    )


def test_critical_point_quadratic_wells():
    result = run_experiment(critical_config())
    target = np.mean(parse_vectors("1.0 0.5; -0.2 0.3; 0.4 -0.1"), axis=0)
    assert result.aggregates["fraction_within_tol"] == 1.0
    assert result.aggregates["max_distance"] < 1e-2
    # the recorded distances are against the analytic minimizer
    prob = build_problem(critical_config())
    assert np.allclose(prob.known["minimizer"], target)


def test_critical_point_l1_soft_threshold():
    result = run_experiment(critical_config("l1_wells"))
    prob = build_problem(critical_config("l1_wells"))
    mean = np.mean(parse_vectors("1.0 0.5; -0.2 0.3; 0.4 -0.1"), axis=0)
    soft = np.sign(mean) * np.maximum(np.abs(mean) - 0.3, 0.0)
    assert np.allclose(prob.known["minimizer"], soft)
    assert result.aggregates["fraction_within_tol"] == 1.0


def test_critical_point_start_at_minimizer_zero_noise():
    cfg = critical_config(steps=2000)
    prob = build_problem(cfg)
    target = prob.known["minimizer"]
    cfg.sections["noise"] = {"kind": "none"}
    cfg.sections["init"] = {"mode": "consensual",
                            "value": " ".join(str(v) for v in target)}
    result = run_experiment(cfg)
    assert result.aggregates["max_distance"] < 1e-6


def saddle_config(noise_kind="gaussian", init_value="0.5 0.0", seeds="0:8",
                  steps=120000):
    return make_config(
        "saddle-avoidance",
        problem={"loss": "saddle_quartic", "graph": "path:2"},
        schedule={"alpha_scale": 0.5, "tau_alpha": 0.8, "gamma_scale": 0.5,
                  "tau_gamma": 0.6},
        noise={"kind": noise_kind, "scale": 0.1},
        run={"seeds": seeds, "steps": steps},
        init={"mode": "consensual", "value": init_value},
        tolerances={"classification_radius": 0.1},
    )


def test_saddle_avoidance_noisy_escapes():
    result = run_experiment(saddle_config())
    assert result.aggregates["fraction_saddle"] == 0.0
    assert result.aggregates["fraction_minimum"] == 1.0


def test_saddle_zero_noise_on_manifold_converges_to_saddle():
    cfg = saddle_config(noise_kind="none", seeds="0:1", steps=60000)
    result = run_experiment(cfg)
    assert result.records[0]["class"] == "saddle"
    assert abs(result.records[0]["mean_y2"]) == 0.0  # symmetry is exact


def test_saddle_zero_noise_off_manifold_escapes():
    cfg = saddle_config(noise_kind="none", init_value="0.5 0.01", seeds="0:1",
                        steps=120000)
    result = run_experiment(cfg)
    assert result.records[0]["class"] == "minimum"


def drift_config(seeds="0:40", noise_kind="gaussian"):
    return make_config(
        "drift-stats",
        problem={"loss": "saddle_quadratic", "graph": "path:2"},
        schedule={"alpha_scale": 0.5, "tau_alpha": 1.0, "gamma_scale": 0.25,
                  "tau_gamma": 0.6},
        noise={"kind": noise_kind, "scale": 0.1},
        run={"seeds": seeds},
        drift={"k0_grid": "250 500 1000 2000", "window_factor": 4,
               "t_start": 4.0, "t_end": 10.0, "validity_radius": 0.3},
    )


def test_drift_stats_positive_mid_band_drift():
    result = run_experiment(drift_config())
    agg = result.aggregates
    assert agg["mid_band_mean_drift"] > 0
    assert agg["mid_band_ci_lo"] > 0
    assert agg["excursion_slope"] == pytest.approx(-0.5, abs=0.15)
    assert agg["return_frequency"] < 0.5
    recomputed = drift_aggregate(result.records, agg["band_lo"], agg["band_hi"],
                                 1.0, [250, 500, 1000, 2000])
    for key, val in recomputed.items():
        assert agg[key] == pytest.approx(val, rel=1e-12), key


def test_drift_stats_recompute_aggregates_matches():
    cfg = drift_config(seeds="0:4")
    cfg.sections["drift"]["k0_grid"] = "100 200"
    result = run_experiment(cfg)
    assert {"band_lo", "band_hi", "threshold_coefficient",
            "median_sup_s_k0_200"} <= set(result.aggregates)
    np.testing.assert_equal(result.recompute_aggregates(), result.aggregates)


def test_drift_stats_zero_noise_on_manifold_is_identically_zero():
    result = run_experiment(drift_config(seeds="0:3", noise_kind="none"))
    assert all(r["sup_s"] == 0.0 for r in result.records)


def test_drift_censoring_step_records_nan(monkeypatch):
    # noise that throws every row out of a small validity ball: the step at
    # which a row leaves records NaN, and the series is the same whether the
    # model knows psi vanishes or the general branch asks for it. The solver
    # certifies psi only for |z_s| <= r/3, which rows inside this ball exceed,
    # so the general branch is given the quadratic problem's psi = 0
    cfg = drift_config(seeds="0:40")
    cfg.sections["noise"]["scale"] = "2.0"
    cfg.sections["drift"].update(validity_radius="0.02", k0_grid="250 500")
    series = {}
    restart_series = experiments._restart_series

    def both_branches(problem, schedule, noise, model, seeds, k0, factor):
        assert model.psi_is_zero
        monkeypatch.setattr(model, "psi", lambda t, z_s: np.zeros((len(z_s), 1)))
        for zero in (False, True):
            model.psi_is_zero = zero
            series[zero, k0] = restart_series(problem, schedule, noise, model, seeds, k0,
                                              factor)
        return series[True, k0]

    monkeypatch.setattr(experiments, "_restart_series", both_branches)
    run_experiment(cfg)
    for k0 in (250, 500):
        (s_zero, censor), (s_solved, censor_solved) = series[True, k0], series[False, k0]
        np.testing.assert_array_equal(censor, censor_solved)
        assert np.all(censor >= k0)
        assert np.all(np.isnan(s_zero[np.arange(len(censor)), censor - k0]))
        np.testing.assert_array_equal(s_zero, s_solved)


# records.tsv and summary.txt written by the per-step callback that the
# chunk observer replaced: the shipped noise, and the censoring variant above
DRIFT_PINNED = {"shipped": {},
                "censoring": {"noise": {"scale": "2.0"}, "drift": {"validity_radius": "0.02"}}}


@pytest.mark.parametrize("name", sorted(DRIFT_PINNED))
def test_drift_records_are_pinned(tmp_path, monkeypatch, name):
    cfg = drift_config(seeds="0:40")
    cfg.sections["drift"]["k0_grid"] = "250 500"
    for section, keys in DRIFT_PINNED[name].items():
        cfg.sections[section].update(keys)
    # at chunk 5 censoring rows also leave on a chunk's last step
    positions = set()
    for chunk in (256, 5):
        monkeypatch.setattr(experiments, "run_batch", partial(run_batch, chunk=chunk))
        result = run_experiment(cfg)
        write_campaign(result, tmp_path / "records.tsv")
        write_summary(result, tmp_path / "summary.txt")
        for part in ("records.tsv", "summary.txt"):
            pinned = DATA / "drift_records" / name / part
            assert (tmp_path / part).read_bytes() == pinned.read_bytes(), (chunk, part)
        positions |= {"first" if step % chunk == 0 else
                      "last" if step % chunk == chunk - 1 else "mid"
                      for step in (r["censored_at"] - r["k0"] for r in result.records
                                   if r["censored_at"] >= 0)}
    assert positions == (set() if name == "shipped" else {"first", "mid", "last"})


# records.tsv and summary.txt of two shipped seed campaigns at 3000 steps,
# pinned byte for byte: the kernel's clean path for seed campaigns
SEED_PINNED = {"saddle_avoidance": {"seeds": "0:40"}, "saddle_avoidance_control_off": {}}


@pytest.mark.parametrize("name", sorted(SEED_PINNED))
def test_seed_campaign_records_are_pinned(tmp_path, name):
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / f"{name}.ini")
    cfg.sections["run"].update(steps="3000", **SEED_PINNED[name])
    result = run_experiment(cfg)
    write_campaign(result, tmp_path / "records.tsv")
    write_summary(result, tmp_path / "summary.txt")
    for part in ("records.tsv", "summary.txt"):
        pinned = DATA / "seed_records" / name / part
        assert (tmp_path / part).read_bytes() == pinned.read_bytes(), part


def test_drift_solved_psi_censors_rows_past_contraction_radius(monkeypatch):
    # the quartic's psi is solved, and certified only for |z_s| <= r/3. With
    # noise that throws rows out of a small ball, rows reach that radius while
    # still inside the ball: each is censored there with NaN, not handed to
    # the solver, which refuses it
    cfg = drift_config(seeds="0:8")
    cfg.sections["problem"]["loss"] = "saddle_quartic"
    cfg.sections["noise"]["scale"] = "8.0"
    cfg.sections["drift"].update(validity_radius="0.02", k0_grid="2000",
                                 window_factor="1.01", t_end="25")
    seen = {}
    restart_series = experiments._restart_series

    def recording(problem, schedule, noise, model, seeds, k0, factor):
        change, states = model.coordinate_change, []

        def coordinate_change(x, t, out=None):
            # one call per step chunk: one (t, z) entry per step, copied
            # because the caller reuses `out` for the next chunk
            z = change(x, t, out=out)
            states.extend(zip(t, z.copy()))
            return z

        monkeypatch.setattr(model, "coordinate_change", coordinate_change)
        seen.update(model=model, states=states)
        seen["series"] = restart_series(problem, schedule, noise, model, seeds, k0,
                                        factor)
        return seen["series"]

    monkeypatch.setattr(experiments, "_restart_series", recording)
    run_experiment(cfg)
    model, (series, censor) = seen["model"], seen["series"]
    assert not model.psi_is_zero
    r, n_u = model.radius, model.context.n_u
    refused = 0
    for row in np.flatnonzero(censor >= 0):
        step = censor[row] - 2000
        t, z = seen["states"][step]
        z = z[row]
        assert np.isnan(series[row, step])
        assert np.all(np.isfinite(series[row, :step]))
        if np.linalg.norm(z) <= r and np.linalg.norm(z[n_u:]) > r / 3.0:
            refused += 1
            assert not model.certified(z)[0]
            with pytest.raises(ContractionError):
                model.psi(t, z[n_u:])
    assert refused > 0


def test_manifold_verification_quadratic_battery():
    cfg = make_config("manifold-verify", problem={"battery": "quadratic"},
                      schedule=SCHED, manifold={"n_samples": 200})
    report = run_experiment(cfg)
    assert report["overall"]["passed"]
    assert report["repulsion"]["c2_hat"] == pytest.approx(1.0, rel=0.05)
    assert report["repulsion"]["c3_hat"] < 1e-6
    assert report["picard"]["passed"]


def test_manifold_verification_cross_cubic_battery():
    cfg = make_config("manifold-verify", problem={"battery": "cross-cubic"},
                      schedule=SCHED, manifold={"n_samples": 150})
    report = run_experiment(cfg)
    assert report["overall"]["passed"]
    assert report["repulsion"]["c2_hat"] > 0
    assert report["picard"]["tangency_slope"] == pytest.approx(2.0, abs=0.2)


def _pinned(got, want, where):
    """got matches want: numbers (also inside space-separated strings) within
    1e-12 relative, everything else exactly."""
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _pinned(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, str) and isinstance(got, str) and want != got:
        assert [float(v) for v in got.split()] == pytest.approx(
            [float(v) for v in want.split()], rel=1e-12), where
    elif isinstance(want, (bool, str)):
        assert got == want, where
    else:
        assert got == pytest.approx(want, rel=1e-12), where


@pytest.mark.parametrize("battery", ["cross-cubic", "quadratic", "shifted"])
def test_manifold_battery_report_is_pinned(battery, monkeypatch):
    # every field of the 20-sample reports, as committed in the data file;
    # the picard check and the decay-rate fit share one solve from a_scale e_1
    solve = experiments.ManifoldModel.picard_solve
    starts = []

    def counted(model, t0, a_s):
        starts.append(np.asarray(a_s, dtype=float))
        return solve(model, t0, a_s)

    monkeypatch.setattr(experiments.ManifoldModel, "picard_solve", counted)
    pinned = json.loads((DATA / "manifold_reports_n20.json").read_text())[battery]
    cfg = make_config("manifold-verify", problem={"battery": battery},
                      schedule=SCHED, manifold={"n_samples": 20})
    report = run_experiment(cfg)
    _pinned(json.loads(json.dumps(report, default=_plain)), pinned, battery)
    a_scale = 0.1 * 0.3   # a tenth of the batteries' validity radius
    e_1 = np.eye(1, starts[0].shape[1])
    assert sum(np.array_equal(a_s, a_scale * e_1) for a_s in starts) == 1
    if battery == "shifted":
        # the full battery on the moving eigenframe of the forced saddle path,
        # which offsets the graph, psi(t0, 0) != 0; the tangency fit measures
        # from it, so the offset alone fails nothing
        assert not report["battery"]["psi_is_zero"]
        assert report["picard"]["passed"]
        assert report["picard"]["tangency_slope"] == 0.0
        assert report["overall"]["passed"]


def test_manifold_verification_rejects_degenerate_saddle():
    from dsgdlab.errors import RegularityError
    from dsgdlab.graphs import penalty_from_matrix
    from dsgdlab.losses import separable_polynomial
    from dsgdlab.manifold import saddle_context
    from dsgdlab.schedules import ConstantGamma
    loss = separable_polynomial({0: {2: 0.5}, 1: {4: 0.25}}, dim=2)
    with pytest.raises(RegularityError):
        saddle_context(loss, penalty_from_matrix(np.zeros((2, 2))),
                       ConstantGamma(1.0), np.zeros(2))


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("""
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
kind = none

[run]
seeds = 0:3
steps = 500

[init]
mode = gaussian
scale = 0.5

[tolerances]
consensus_tol = 1e-1

[output]
dir = results
""")
    cfg = load_config(path)
    assert cfg.kind == "consensus"
    result = run_experiment(cfg)
    assert len(result.records) == 3
    assert result.config_hash == cfg.hash


def test_unknown_loss_key_named_in_error():
    cfg = make_config("consensus",
                      problem={"loss": "bogus", "graph": "path:2", "agent_dim": 1})
    with pytest.raises(ConfigError, match="bogus"):
        build_problem(cfg)
