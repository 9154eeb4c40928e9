"""Acceptance battery: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import numpy as np
import pytest

from dsgdlab.engine import NoiseModel, agentwise_step, general_step, run_batch
from dsgdlab.experiments import (
    ExperimentConfig,
    run_experiment,
)
from dsgdlab.flow import discrete_vs_continuous_gap, integrate_dgf
from dsgdlab.graphs import (
    Graph,
    consensus_penalty,
    laplacian,
    penalty_from_matrix,
)
from dsgdlab.losses import (
    l1_regularized,
    monomial_loss,
    quadratic_form,
    quadratic_saddle,
    relu_regression,
    shifted_quadratic,
    sum_loss,
)
from dsgdlab.manifold import ManifoldModel, PicardOptions, linearize, saddle_context
from dsgdlab.rectify import rectified_field_spectrum, repulsion_check
from dsgdlab.schedules import ConstantGamma, PowerLawGamma, Schedule, elapsed_times


def check(num, name, ok, detail=""):
    line = f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def config(kind, **sections):
    base = {"experiment": {"kind": kind, "name": f"acceptance-{kind}"}}
    for name, payload in sections.items():
        base[name] = {k: str(v) for k, v in payload.items()}
    return ExperimentConfig(kind, f"acceptance-{kind}", base)


def test_01_agentwise_general_equivalence():
    rng = np.random.default_rng(2024)
    sched = Schedule(0.3, 0.9, 0.4, 0.6)  # small enough that no tuple blows up
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 4))
        edges = {(1, j) for j in range(2, n + 1)}
        edges |= {(int(i), int(j)) for i, j in rng.integers(1, n + 1, (2 * n, 2))
                  if i < j}
        graph = Graph.from_edges(n, edges)
        pick = trial % 3
        comps = []
        for _ in range(n):
            if pick == 0:
                h = rng.standard_normal((d, d))
                comps.append(quadratic_form(h + h.T + 2 * d * np.eye(d),
                                            rng.standard_normal(d)))
            elif pick == 1:
                comps.append(l1_regularized(shifted_quadratic(rng.standard_normal(d)),
                                            0.5))
            else:
                comps.append(relu_regression(0.5 * rng.standard_normal((3, d)),
                                             0.5 * rng.standard_normal(3), widths=(2,)))
        losses = sum_loss(comps)
        dim = comps[0].dim
        q = consensus_penalty(laplacian(graph), dim)
        noise, seeds = NoiseModel("gaussian", 0.5), [int(rng.integers(1 << 30))]
        xa = 0.5 * rng.standard_normal((n, dim))
        xg = xa.ravel().copy()
        s_a, s_g = noise.start(seeds, n, dim), noise.start(seeds, n, dim)
        for k in range(1, 31):
            xa = agentwise_step(xa, k, losses, graph, sched, s_a)
            xg = general_step(xg, k, losses.assembled, q, sched, s_g)
            gap = np.linalg.norm(xa.ravel() - xg) / max(1.0, np.linalg.norm(xg))
            worst = max(worst, gap)
    check(1, "agentwise/general equivalence", worst <= 1e-12,
          f"worst per-step gap {worst:.2e} over 100 tuples x 30 steps")


def test_02_consensus_zero_loss():
    cfg = config(
        "consensus",
        problem={"loss": "zero", "graph": "path:5", "agent_dim": 2},
        schedule={"alpha_scale": 1.0, "tau_alpha": 1.0, "gamma_scale": 0.5,
                  "tau_gamma": 0.6},
        noise={"kind": "gaussian", "scale": 0.1},
        run={"seeds": "0:20", "steps": 100000},
        init={"mode": "gaussian", "scale": 1.0},
        tolerances={"consensus_tol": 1e-3},
    )
    result = run_experiment(cfg)
    worst = result.aggregates["max_terminal_consensus"]
    check(2, "consensus at 1e5 steps", worst < 1e-3,
          f"max terminal consensus {worst:.2e} over 20 seeds")


def test_03_critical_points():
    base_sched = {"alpha_scale": 0.5, "tau_alpha": 0.8, "gamma_scale": 0.5,
                  "tau_gamma": 0.6}
    wells = config(
        "critical-point",
        problem={"loss": "quadratic_wells", "graph": "path:3",
                 "anchors": "1.0 0.5; -0.2 0.3; 0.4 -0.1"},
        schedule=base_sched,
        noise={"kind": "gaussian", "scale": 0.1},
        run={"seeds": "0:20", "steps": 1000000},
        init={"mode": "consensual", "value": "0 0"},
        tolerances={"distance_tol": 1e-2},
    )
    res_w = run_experiment(wells)
    l1 = config(
        "critical-point",
        problem={"loss": "l1_wells", "graph": "path:3", "l1_weight": 0.3,
                 "anchors": "1.0; -0.2; 0.4"},
        schedule=base_sched,
        noise={"kind": "gaussian", "scale": 0.1},
        run={"seeds": "0:20", "steps": 1000000},
        init={"mode": "consensual", "value": "0"},
        tolerances={"distance_tol": 1e-2},
    )
    res_l = run_experiment(l1)
    ok = (res_w.aggregates["fraction_within_tol"] >= 0.95
          and res_l.aggregates["fraction_within_tol"] >= 0.95)
    check(3, "critical points (wells + soft threshold)", ok,
          f"within-tol fractions {res_w.aggregates['fraction_within_tol']:.2f} / "
          f"{res_l.aggregates['fraction_within_tol']:.2f}, max distances "
          f"{res_w.aggregates['max_distance']:.2e} / {res_l.aggregates['max_distance']:.2e}")


def saddle_cfg(noise_kind, init_value, seeds, steps=300000):
    return config(
        "saddle-avoidance",
        problem={"loss": "saddle_quartic", "graph": "path:2"},
        schedule={"alpha_scale": 0.5, "tau_alpha": 0.8, "gamma_scale": 0.5,
                  "tau_gamma": 0.6},
        noise={"kind": noise_kind, "scale": 0.1},
        run={"seeds": seeds, "steps": steps},
        init={"mode": "consensual", "value": init_value},
        tolerances={"classification_radius": 0.1},
    )


def test_04_saddle_avoidance():
    noisy = run_experiment(saddle_cfg("gaussian", "0.5 0.0", "0:200"))
    frac_saddle = noisy.aggregates["fraction_saddle"]
    on_manifold = run_experiment(saddle_cfg("none", "0.5 0.0", "0:1", steps=100000))
    off_manifold = run_experiment(saddle_cfg("none", "0.5 0.01", "0:1"))
    ok = (frac_saddle == 0.0
          and on_manifold.records[0]["class"] == "saddle"
          and on_manifold.records[0]["mean_y2"] == 0.0
          and off_manifold.records[0]["class"] == "minimum")
    check(4, "saddle avoidance (200 seeds + controls)", ok,
          f"saddle fraction {frac_saddle:.3f}, controls "
          f"{on_manifold.records[0]['class']}/{off_manifold.records[0]['class']}")


def _quad_model():
    loss = quadratic_saddle([1.0, -1.0])
    q = penalty_from_matrix(np.zeros((2, 2)))
    ctx = saddle_context(loss, q, ConstantGamma(1.0), np.zeros(2))
    return ManifoldModel(ctx, 1.0, 40.0,
                         PicardOptions(horizon=8.0, dt=0.01, tail=4.0, tol=1e-10))


def _cross_model(opts=None):
    loss = monomial_loss(2, {(2, 0): 0.5, (0, 2): -0.5, (2, 1): 0.1})
    q = penalty_from_matrix(np.zeros((2, 2)))
    ctx = saddle_context(loss, q, ConstantGamma(1.0), np.zeros(2))
    return ManifoldModel(ctx, 1.0, 40.0,
                         opts or PicardOptions(horizon=9.0, dt=0.01, tail=5.0,
                                               tol=1e-10))


def test_05_repulsion_inequality():
    eps_grid = [1e-3, 3e-3, 1e-2]
    t_grid = np.linspace(3.0, 15.0, 10)
    quad = repulsion_check(_quad_model(), 0.05, eps_grid, t_grid, n_samples=500,
                           seed=0)
    cubic = repulsion_check(_cross_model(), 0.05, eps_grid, t_grid, n_samples=500,
                            seed=1)
    ok = (quad.fit_valid and abs(quad.c2_hat - 1.0) <= 0.05 and quad.c3_hat < 1e-6
          and cubic.c2_hat > 0 and len(cubic.violations) == 0
          and np.isfinite(cubic.c3_hat))
    check(5, "repulsion inequality fit", ok,
          f"quadratic c2 {quad.c2_hat:.4f} c3 {quad.c3_hat:.1e}; "
          f"cubic c2 {cubic.c2_hat:.3f} c3 {cubic.c3_hat:.2e}, "
          f"violations {len(quad.violations)}/{len(cubic.violations)}")


def test_06_picard_machinery():
    quad = _quad_model()
    zero_sol = quad.picard_solve(5.0, np.zeros((1, 1)))
    cross = _cross_model(PicardOptions(horizon=10.0, dt=0.005, tail=5.0, tol=1e-11))
    sol = cross.picard_solve(2.0, np.array([[0.08]]))
    ratios = sol.contraction_ratios()
    sizes = np.geomspace(0.003, 0.03, 6)
    psis = cross.psi(2.0, sizes[:, None])
    slope = float(np.polyfit(np.log(sizes), np.log(np.abs(psis[:, 0])), 1)[0])
    ok = (zero_sol.iterations <= 1 and float(np.max(np.abs(zero_sol.u))) == 0.0
          and len(ratios) >= 1 and float(np.max(ratios)) < 0.5
          and sol.residual < 1e-6 and abs(slope - 2.0) <= 0.2)
    check(6, "integral-equation machinery", ok,
          f"quadratic iters {zero_sol.iterations}, cubic contraction "
          f"{float(np.max(ratios)):.3f}, residual {sol.residual:.1e}, "
          f"tangency slope {slope:.3f}")


def test_07_spectral_structure():
    # coupled Hessian so the in-constraint limit is nontrivial
    loss = monomial_loss(3, {(2, 0, 0): 0.5, (0, 2, 0): -0.5, (0, 0, 2): 0.5,
                             (0, 1, 1): 0.3})
    q = penalty_from_matrix(np.diag([0.0, 0.0, 2.0]))
    gamma = PowerLawGamma(1.0, 0.8)
    ctx = saddle_context(loss, q, gamma, np.zeros(3))
    basis = q.rotation.constraint_basis
    b_eigs = np.sort(np.linalg.eigvalsh(-(basis.T @ loss.hessian(ctx.saddle) @ basis)))[::-1]
    worst_in = 0.0
    slopes = []
    for t in (6000.0, 12000.0, 24000.0):  # gamma_t >= 1e3
        gam = float(gamma(t))
        assert gam >= 1e3
        split = linearize(ctx, t, np.zeros(3))
        worst_in = max(worst_in, float(np.max(np.abs(split.lambdas[:2] - b_eigs))))
        slopes.append(split.lambdas[2] / gam)
    slope_err = float(np.max(np.abs(np.array(slopes) - (-2.0)))) / 2.0

    model = ManifoldModel(ctx, 4.0, 60.0,
                          PicardOptions(horizon=8.0, dt=0.01, tail=4.0, tol=1e-10))
    spec = rectified_field_spectrum(model, np.linspace(6.0, 40.0, 8))
    ok = (worst_in <= 1e-3 and slope_err <= 0.05
          and bool(np.all(spec.n_positive == ctx.n_u))
          and spec.min_positive_tail > 0.0)
    check(7, "spectral structure", ok,
          f"in-constraint error {worst_in:.1e}, off-constraint slope error "
          f"{slope_err:.2%}, min positive tail {spec.min_positive_tail:.3f}")


def test_08_drift_statistics():
    cfg = config(
        "drift-stats",
        problem={"loss": "saddle_quadratic", "graph": "path:2"},
        schedule={"alpha_scale": 0.5, "tau_alpha": 1.0, "gamma_scale": 0.25,
                  "tau_gamma": 0.6},
        noise={"kind": "gaussian", "scale": 0.1},
        run={"seeds": "0:500"},
        drift={"k0_grid": "250 500 1000 2000", "window_factor": 4,
               "t_start": 4.0, "t_end": 10.0, "validity_radius": 0.3},
    )
    result = run_experiment(cfg)
    agg = result.aggregates
    target = 0.5 - 1.0
    ok = (agg["mid_band_ci_lo"] > 0
          and abs(agg["excursion_slope"] - target) <= 0.15
          and agg["return_frequency"] < 0.5)
    check(8, "drift statistics", ok,
          f"mid-band drift {agg['mid_band_mean_drift']:.2e} "
          f"CI [{agg['mid_band_ci_lo']:.2e}, {agg['mid_band_ci_hi']:.2e}], "
          f"slope {agg['excursion_slope']:.3f} (target {target}), "
          f"return freq {agg['return_frequency']:.2f}")


def test_09_boundedness():
    sched = Schedule(1.0, 1.0, 0.5, 0.6)
    q = penalty_from_matrix(np.zeros((2, 2)))
    coercive = quadratic_form(np.eye(2))
    batch = run_batch(np.array([5.0, -3.0]), 100000, coercive, q, sched,
                      NoiseModel("gaussian", 1.0), list(range(50)), ceiling=1e3)
    sup = float(np.max(batch.sup_state_norm))
    anti = quadratic_form(-np.eye(2))
    control = run_batch(np.array([1.0, 0.0]), 100000, anti, q, sched,
                        NoiseModel(), [0], ceiling=1e3)
    ok = (np.all(batch.diverged_at == -1) and sup <= 1e3
          and control.diverged_at[0] > 0)
    check(9, "boundedness + negative control", ok,
          f"coercive sup norm {sup:.1f} over 50 seeds; anti-coercive exceeded at "
          f"step {control.diverged_at[0]}")


def test_10_integrator_and_gap_scaling():
    loss1 = quadratic_form(np.eye(1))
    q1 = penalty_from_matrix(np.zeros((1, 1)))
    errors = []
    for step in (1e-2, 5e-3, 2.5e-3):
        sol = integrate_dgf(loss1, q1, ConstantGamma(0.0), [1.0], 0.0, 1.0, step)
        errors.append(abs(sol.states[-1, 0] - np.exp(-1.0)))
    ratios = [errors[i] / errors[i + 1] for i in range(2)]
    order_ok = all(4.0 <= r <= 64.0 for r in ratios)

    lam = 2.2
    loss2 = quadratic_form(np.diag([lam, lam]))
    q2 = penalty_from_matrix(np.zeros((2, 2)))
    x0 = np.array([1.0, -1.0])
    terminal = []
    for a in (0.1, 0.05):
        sched = Schedule(a, 1.0, 1.0, 0.6)
        batch = run_batch(x0, 400, loss2, q2, sched, NoiseModel(), [0], record=1)
        zeta = elapsed_times(sched, 400)[batch.steps]
        sol = integrate_dgf(loss2, q2, ConstantGamma(0.0), x0, 0.0, float(zeta[-1]) + 1e-9,
                            step=1e-3)
        terminal.append(discrete_vs_continuous_gap(zeta, batch.states[0], sol)[-1])
    halving = terminal[0] / terminal[1]
    ok = order_ok and abs(halving - 2.0) <= 0.5
    check(10, "integrator order and gap scaling", ok,
          f"RK4 ratios {ratios[0]:.1f}/{ratios[1]:.1f}, gap halving ratio "
          f"{halving:.2f}")
