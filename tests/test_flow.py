import numpy as np
import pytest

from dsgdlab.engine import NoiseModel, run_batch
from dsgdlab.errors import ClockMismatchError
from dsgdlab.flow import discrete_vs_continuous_gap, integrate_dgf
from dsgdlab.graphs import penalty_from_matrix
from dsgdlab.losses import LossOracle, finite_difference_gradient, quadratic_form, zero_loss
from dsgdlab.schedules import ConstantGamma, Schedule, elapsed_times


def test_linear_decay_closed_form():
    q = penalty_from_matrix(np.diag([0.0, 2.0]))
    sol = integrate_dgf(zero_loss(2), q, ConstantGamma(1.0), [1.0, 1.0], 0.0, 1.0)
    final = sol.states[-1]
    assert final[0] == pytest.approx(1.0, abs=1e-12)
    assert final[1] == pytest.approx(np.exp(-2.0), abs=1e-6)


def test_stationary_point_stays_put():
    loss = quadratic_form(np.eye(2), [-1.0, 0.0])  # gradient x - (1,0)
    q = penalty_from_matrix(np.diag([0.0, 1.0]))
    x0 = np.array([1.0, 0.0])  # grad = 0 and Qx = 0
    sol = integrate_dgf(loss, q, ConstantGamma(3.0), x0, 0.0, 2.0, step=1e-2)
    assert np.max(np.abs(sol.states - x0)) < 1e-12


def test_rhs_is_gradient_of_penalized_function():
    rng = np.random.default_rng(0)
    h = rng.standard_normal((3, 3))
    loss = quadratic_form(h + h.T + 4 * np.eye(3), rng.standard_normal(3))
    q = penalty_from_matrix(np.diag([0.0, 1.0, 2.5]))
    gamma_val = 1.7
    for _ in range(5):
        x = rng.standard_normal(3)
        rhs = -loss.subgradient(x) - gamma_val * (q.matrix @ x)
        penalized = LossOracle(
            3,
            lambda y: loss.value(y) + 0.5 * gamma_val
            * np.einsum("...i,ij,...j->...", np.asarray(y), q.matrix, np.asarray(y)),
            lambda y: loss.subgradient(y) + gamma_val * (np.asarray(y) @ q.matrix),
        )
        fd = finite_difference_gradient(penalized, x)
        assert np.linalg.norm(rhs + fd) < 1e-6


def test_rk4_order_four_on_linear_problem():
    loss = quadratic_form(np.eye(1))
    q = penalty_from_matrix(np.zeros((1, 1)))
    errors = []
    for step in (1e-2, 5e-3, 2.5e-3):
        sol = integrate_dgf(loss, q, ConstantGamma(0.0), [1.0], 0.0, 1.0, step)
        errors.append(abs(sol.states[-1, 0] - np.exp(-1.0)))
    for e_coarse, e_fine in zip(errors, errors[1:]):
        ratio = e_coarse / e_fine
        assert 4.0 <= ratio <= 64.0  # 16 within a factor of 4


def test_penalized_value_nonincreasing_with_frozen_gamma():
    rng = np.random.default_rng(4)
    h = rng.standard_normal((3, 3))
    loss = quadratic_form(h + h.T + 4 * np.eye(3))
    q = penalty_from_matrix(np.diag([0.0, 0.5, 2.0]))
    gamma_val = 2.0
    sol = integrate_dgf(loss, q, ConstantGamma(gamma_val), rng.standard_normal(3),
                        0.0, 3.0, step=1e-3)
    vals = loss.value(sol.states) + 0.5 * gamma_val * np.einsum(
        "ti,ij,tj->t", sol.states, q.matrix, sol.states)
    assert np.all(np.diff(vals) <= 1e-8)


def test_gap_zero_for_zero_steps_and_at_fixed_point():
    loss = quadratic_form(np.eye(2))
    q = penalty_from_matrix(np.zeros((2, 2)))
    sched = Schedule(0.1, 1.0, 1.0, 0.6)
    batch = run_batch(np.zeros(2), 0, loss, q, sched, NoiseModel(), [0])
    sol = integrate_dgf(loss, q, ConstantGamma(0.0), np.zeros(2), 0.0, 1e-9)
    gaps = discrete_vs_continuous_gap(elapsed_times(sched, 0)[batch.steps], batch.states[0],
                                      sol)
    assert np.allclose(gaps, 0.0)


def test_gap_halves_when_alpha_scale_halves():
    # With square-summable steps the accumulated local error scales as a^2
    # while the flow contracts the early contributions by exp(-lam * delta
    # zeta); at this horizon the terminal gap ratio is 4 exp(-lam*a*H_n/2),
    # which sits at the first-order "halving" value. The three-scale log-log
    # slope then lies between the first- and second-order exponents.
    lam = 2.2
    loss = quadratic_form(np.diag([lam, lam]))
    q = penalty_from_matrix(np.zeros((2, 2)))
    x0 = np.array([1.0, -1.0])
    terminal = []
    for a in (0.1, 0.05, 0.025):
        sched = Schedule(a, 1.0, 1.0, 0.6)
        batch = run_batch(x0, 400, loss, q, sched, NoiseModel(), [0], record=1)
        zeta = elapsed_times(sched, 400)[batch.steps]
        sol = integrate_dgf(loss, q, ConstantGamma(0.0), x0, 0.0, float(zeta[-1]) + 1e-9,
                            step=1e-3)
        gaps = discrete_vs_continuous_gap(zeta, batch.states[0], sol)
        terminal.append(gaps[-1])
    assert terminal[0] / terminal[1] == pytest.approx(2.0, rel=0.25)
    slope = np.polyfit(np.log([0.1, 0.05, 0.025]), np.log(terminal), 1)[0]
    assert 1.0 <= slope <= 1.5


def test_gap_clock_mismatch():
    loss = quadratic_form(np.eye(1))
    q = penalty_from_matrix(np.zeros((1, 1)))
    sched = Schedule(0.1, 1.0, 1.0, 0.6)
    batch = run_batch(np.ones(1), 100, loss, q, sched, NoiseModel(), [0])
    short = integrate_dgf(loss, q, ConstantGamma(0.0), np.ones(1), 0.0, 0.01)
    with pytest.raises(ClockMismatchError):
        discrete_vs_continuous_gap(elapsed_times(sched, 100)[batch.steps], batch.states[0],
                                   short)


def test_constraint_distance_decreasing_past_penalty_threshold():
    # outside an epsilon-tube around the constraint space, the off-constraint
    # norm must shrink once gamma_t lambda_min epsilon exceeds the drive bound;
    # start the integration after that threshold so the regime is non-vacuous
    loss = quadratic_form(np.diag([1.0, 1.0]), [-0.5, 0.4])
    q = penalty_from_matrix(np.diag([0.0, 1.0]))
    off_basis = q.rotation.off_basis
    eps = 0.1

    def gamma(t):
        return 1.0 + 2.0 * t

    t0 = 30.0
    sol = integrate_dgf(loss, q, gamma, [0.8, 0.9], t0, t0 + 2.0, step=1e-3)
    drive_bound = float(np.max(np.linalg.norm(loss.subgradient(sol.states), axis=1)))
    assert gamma(t0) * 1.0 * eps > 2.0 * drive_bound  # threshold already passed
    dists = np.linalg.norm(sol.states @ off_basis, axis=-1)
    assert dists[0] > eps
    outside = dists[:-1] > eps
    assert np.any(outside)
    assert np.all(np.diff(dists)[outside] < 0)
