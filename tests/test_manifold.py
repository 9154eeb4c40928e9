import copy
import functools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dsgdlab import manifold
from dsgdlab.errors import (
    ContractionError,
    EigvecContinuityError,
    PartitionError,
    RegularityError,
)
from dsgdlab.graphs import penalty_from_matrix
from dsgdlab.losses import (
    l1_regularized,
    monomial_loss,
    quadratic_saddle,
    relu_regression,
    separable_polynomial,
)
from dsgdlab.manifold import (
    MATCH_OVERLAP_FLOOR,
    SCAN_SPAN,
    Frame,
    ManifoldModel,
    PicardOptions,
    _decay_scan,
    _match_to_previous,
    _newton_stationary,
    _stationarity,
    evolution_operator,
    linearize,
    saddle_context,
)
from dsgdlab.rectify import autonomous_restriction
from dsgdlab.schedules import ConstantGamma, PowerLawGamma


def quad_context(gamma=None):
    # saddle of the restriction with one unstable direction; one penalized
    # off-constraint direction
    loss = separable_polynomial({0: {2: 0.5}, 1: {2: -0.5}, 2: {2: 0.5}}, dim=3)
    q = penalty_from_matrix(np.diag([0.0, 0.0, 2.0]))
    return saddle_context(loss, q, gamma or PowerLawGamma(1.0, 0.8), np.zeros(3))


def cubic_context():
    # unstable equation decoupled: the manifold is exactly the stable axis
    loss = separable_polynomial({0: {2: 0.5}, 1: {2: -0.5, 3: 0.1}}, dim=2)
    q = penalty_from_matrix(np.zeros((2, 2)))
    return saddle_context(loss, q, ConstantGamma(1.0), np.zeros(2))


def cross_cubic_context(coef=0.1):
    # h = (x1^2 - x2^2)/2 + coef x1^2 x2: the descent flow x1' = -x1 - 2c x1 x2,
    # x2' = x2 - c x1^2 has the invariant graph x2 = c x1^2 / 3 up to O(x^3)
    # corrections; for the leading-order check below c = 0.1 gives psi ~ z^2/30
    loss = monomial_loss(2, {(2, 0): 0.5, (0, 2): -0.5, (2, 1): coef})
    q = penalty_from_matrix(np.zeros((2, 2)))
    return saddle_context(loss, q, ConstantGamma(1.0), np.zeros(2))


def shifted_context(q2=2.0, b=0.2):
    # nonzero stationary path: grad h = (x1, -x2, x3 + b)
    loss = separable_polynomial({0: {2: 0.5}, 1: {2: -0.5}, 2: {2: 0.5, 1: b}}, dim=3)
    q = penalty_from_matrix(np.diag([0.0, 0.0, q2]))
    return saddle_context(loss, q, PowerLawGamma(1.0, 0.8), np.zeros(3))


def rotating_context():
    # the shifted battery: the x2 x3 coupling turns the eigenframe with gamma
    loss = monomial_loss(3, {(2, 0, 0): 0.5, (0, 2, 0): -0.5, (0, 0, 2): 0.5,
                             (0, 0, 1): 0.2, (0, 1, 1): 0.3})
    return saddle_context(loss, penalty_from_matrix(np.diag([0.0, 0.0, 2.0])),
                          PowerLawGamma(0.5, 0.6), np.zeros(3))


@pytest.mark.parametrize("make_context", [cross_cubic_context, quad_context],
                         ids=["cross-cubic", "penalized-quadratic"])
@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
def test_model_refuses_a_non_finite_span(make_context, bad):
    ctx = make_context()
    with pytest.raises(ValueError, match="finite"):
        ManifoldModel(ctx, 4.0, bad)
    with pytest.raises(ValueError, match="finite"):
        ManifoldModel(ctx, -bad, 40.0)


def test_context_counts_unstable_directions():
    ctx = quad_context()
    assert ctx.n_u == 1
    assert ctx.n_s == 2


def test_context_rejects_degenerate_hessian():
    loss = separable_polynomial({0: {2: 0.5}, 1: {4: 1.0}}, dim=2)  # flat direction
    q = penalty_from_matrix(np.zeros((2, 2)))
    with pytest.raises(RegularityError):
        saddle_context(loss, q, ConstantGamma(1.0), np.zeros(2))


def test_context_rejects_noncritical_point():
    loss = separable_polynomial({0: {2: 0.5, 1: 1.0}, 1: {2: -0.5}}, dim=2)
    q = penalty_from_matrix(np.zeros((2, 2)))
    with pytest.raises(RegularityError):
        saddle_context(loss, q, ConstantGamma(1.0), np.zeros(2))


@pytest.mark.parametrize("loss", [
    l1_regularized(quadratic_saddle([1.0, -1.0]), 0.1),
    relu_regression([[1.0, 0.5], [-0.3, 2.0]], [1.0, 0.0], widths=(2,)),
], ids=["l1", "relu"])
def test_context_refuses_a_loss_without_a_hessian(loss):
    q = penalty_from_matrix(np.zeros((loss.dim, loss.dim)))
    with pytest.raises(ValueError, match="twice-differentiable"):
        saddle_context(loss, q, ConstantGamma(1.0), np.zeros(loss.dim))


def perturbed_path(ctx, gamma_grid):
    """Stationary points g(gamma) on the grid, each solved from the saddle."""
    return _newton_stationary(ctx.loss, ctx.qmat, gamma_grid,
                              np.broadcast_to(ctx.saddle, (len(gamma_grid), ctx.dim)))


def arc_length(points):
    return float(np.sum(np.linalg.norm(np.diff(points, axis=0), axis=1)))


def test_perturbed_path_is_zero_for_centered_saddle():
    ctx = quad_context()
    points = perturbed_path(ctx, np.linspace(2.0, 50.0, 30))
    assert np.max(np.abs(points)) == 0.0


def test_perturbed_path_closed_form():
    # stationarity of (x1^2 - x2^2)/2 + x2 + (gamma q2/2) x2^2 gives
    # g = (0, 1/(1 - gamma q2))
    q2 = 2.0
    loss = separable_polynomial({0: {2: 0.5}, 1: {2: -0.5, 1: 1.0}}, dim=2)
    q = penalty_from_matrix(np.diag([0.0, q2]))
    ctx = saddle_context(loss, q, PowerLawGamma(1.0, 0.8), np.zeros(2))
    grid = np.linspace(2.0, 400.0, 200)
    points = perturbed_path(ctx, grid)
    expected = 1.0 / (1.0 - grid * q2)
    assert np.allclose(points[:, 0], 0.0, atol=1e-12)
    assert np.allclose(points[:, 1], expected, atol=1e-9)
    residuals = np.linalg.norm(_stationarity(loss, q.matrix, grid, points), axis=1)
    assert np.max(residuals) <= 1e-9
    # norm decreasing toward zero on the tail
    norms = np.linalg.norm(points, axis=1)
    assert np.all(np.diff(norms) < 0)
    assert norms[-1] < 2e-3
    # polygonal arc length against the analytic integral |g2(end) - g2(start)|
    # (monotone scalar curve), and stability under grid refinement
    analytic = abs(expected[-1] - expected[0])
    assert arc_length(points) == pytest.approx(analytic, rel=0.01)
    fine = perturbed_path(ctx, np.linspace(2.0, 400.0, 400))
    assert arc_length(fine) == pytest.approx(arc_length(points), rel=0.01)


def _assignment_match(prev_modes, w, v):
    # reference: the exact optimal assignment of modes to the previous frame
    from scipy.optimize import linear_sum_assignment

    overlap = prev_modes @ v
    rows, cols = linear_sum_assignment(-np.abs(overlap))
    perm = np.empty_like(cols)
    perm[rows] = cols
    chosen = overlap[np.arange(len(perm)), perm]
    if np.min(np.abs(chosen)) < MATCH_OVERLAP_FLOOR:
        raise EigvecContinuityError("overlap below the floor")
    signs = np.sign(chosen)
    signs[signs == 0] = 1.0
    return w[perm], (v[:, perm] * signs).T


@settings(max_examples=150, deadline=None)
@given(m=st.integers(2, 6), seed=st.integers(0, 2**32 - 1),
       angle=st.one_of(st.floats(0.0, 0.6), st.floats(0.77, 0.8)),
       eps=st.floats(0.0, 0.08))
# rows whose largest |overlap| lies in [0.7, 1/sqrt 2]; in the second, two
# rows have theirs in one column
@example(m=3, seed=4, angle=0.78, eps=0.05)
@example(m=3, seed=5, angle=0.79, eps=0.05)
def test_match_to_previous_is_the_exact_assignment(m, seed, angle, eps):
    # the new eigenvectors are the previous frame times a signed permutation,
    # one plane turned by angle (near 45 degrees, two modes nearly tie) and a
    # small random rotation
    rng = np.random.default_rng(seed)
    prev = np.linalg.qr(rng.standard_normal((m, m)))[0]
    q, r = np.linalg.qr(np.eye(m) + eps * rng.standard_normal((m, m)))
    turn = np.eye(m)
    i, j = rng.choice(m, 2, replace=False)
    turn[[i, i, j, j], [i, j, i, j]] = np.cos(angle), -np.sin(angle), np.sin(angle), np.cos(angle)
    signed = np.eye(m)[rng.permutation(m)] * rng.choice([-1.0, 1.0], m)
    v = prev.T @ (signed @ turn @ (q * np.sign(np.diag(r))))
    w = np.arange(m, dtype=float)
    # the case is one frame of a stack, between two that match trivially
    plain = np.linalg.qr(rng.standard_normal((m, m)))[0]
    stack = (np.stack([plain, prev, plain]), np.stack([w, w, w]),
             np.stack([plain.T, v, plain.T]))
    try:
        want = _assignment_match(prev, w, v)
    except EigvecContinuityError:
        with pytest.raises(EigvecContinuityError):
            _match_to_previous(*stack)
        return
    got = _match_to_previous(*stack)
    assert np.array_equal(got[0][1], want[0]) and np.array_equal(got[1][1], want[1])
    assert np.array_equal(got[1][0], plain) and np.array_equal(got[1][2], plain)


def test_linearize_quadratic_q0():
    loss = quadratic_saddle([1.0, -1.0])
    q = penalty_from_matrix(np.zeros((2, 2)))
    ctx = saddle_context(loss, q, ConstantGamma(1.0), np.zeros(2))
    split = linearize(ctx, 3.0, np.zeros(2))
    assert np.allclose(split.lambdas, [1.0, -1.0])
    assert split.n_u == 1
    assert np.allclose(split.modes @ split.a_matrix @ split.modes.T,
                       np.diag(split.lambdas), atol=1e-12)


def test_linearize_penalty_stabilizes_off_constraint():
    loss = quadratic_saddle([1.0, -1.0])
    q = penalty_from_matrix(np.diag([0.0, 2.0]))
    ctx = saddle_context(loss, q, PowerLawGamma(1.0, 1.0), np.zeros(2))

    a_direct = -loss.hessian(np.zeros(2)) - 5.0 * q.matrix
    assert np.allclose(np.sort(np.linalg.eigvalsh(a_direct)), [1.0 - 10.0, -1.0])
    split = linearize(ctx, 5.0, np.zeros(2))
    assert split.n_u == 0  # both directions stable once gamma q > 1
    assert np.allclose(np.sort(split.lambdas), [1.0 - 10.0, -1.0])


def test_linearize_eigenvalue_limits():
    ctx = quad_context()
    basis = ctx.q.rotation.constraint_basis
    restricted = basis.T @ ctx.loss.hessian(ctx.saddle) @ basis
    b_eigs = np.sort(np.linalg.eigvalsh(-restricted))[::-1]
    slopes = []
    for t in (200.0, 400.0, 800.0):
        split = linearize(ctx, t, np.zeros(3))
        in_constraint = split.lambdas[[0, 1]]
        assert np.allclose(in_constraint, b_eigs, atol=1e-3)
        slopes.append(split.lambdas[2] / float(ctx.gamma(t)))
    # off-constraint eigenvalue scales like -gamma * eig(Q_off)
    assert np.allclose(slopes, -2.0, rtol=0.05)


def test_partition_error_near_zero_crossing():
    loss = quadratic_saddle([1.0, -1.0])
    q = penalty_from_matrix(np.diag([0.0, 2.0]))
    ctx = saddle_context(loss, q, ConstantGamma(0.5), np.zeros(2))
    with pytest.raises(PartitionError):
        linearize(ctx, 1.0, np.zeros(2))  # 1 - gamma q = 0 exactly


def test_evolution_operator_identity_and_scalar_decay():
    ctx = quad_context()
    model = ManifoldModel(ctx, 4.0, 40.0, PicardOptions(horizon=8.0, dt=0.01, tail=4.0))
    frame = model.frame(5.0)
    v_same = evolution_operator(frame, 6.0, 6.0, "stable")
    expect = np.diag([0.0, 1.0, 1.0])
    assert np.allclose(v_same, expect, atol=1e-12)
    # in-constraint stable eigenvalue is exactly -1: one unit of time decays e^-1
    v = evolution_operator(frame, 6.0, 7.0, "stable")
    assert v[1, 1] == pytest.approx(np.exp(-1.0), rel=1e-6)
    with pytest.raises(ValueError):
        evolution_operator(frame, 7.0, 6.0, "stable")
    with pytest.raises(ValueError):
        evolution_operator(frame, 6.0, 7.0, "unstable")
    v_u = evolution_operator(frame, 7.0, 6.0, "unstable")
    assert v_u[0, 0] == pytest.approx(np.exp(-1.0), rel=1e-6)


def test_evolution_operator_refuses_times_off_the_frame_grid():
    # interpolation would hold the grid's end values: e^-15 for the first
    # call where e^-25 is due, and 1 for the second where e^-3 is due
    frame = battery_model("cross-cubic").frame(5.0)
    assert (frame.times[0], frame.times[-1]) == (5.0, 20.0)
    with pytest.raises(ValueError, match="grid span"):
        evolution_operator(frame, 5.0, 30.0, "stable")
    with pytest.raises(ValueError, match="grid span"):
        evolution_operator(frame, 2.0, 5.0, "stable")
    with pytest.raises(ValueError, match="grid span"):
        evolution_operator(frame, 30.0, 5.0, "unstable")
    v = evolution_operator(frame, 5.0, 20.0, "stable")
    assert v[1, 1] == pytest.approx(np.exp(-15.0), rel=1e-6)


def test_evolution_decay_envelope_fit():
    ctx = quad_context()
    model = ManifoldModel(ctx, 4.0, 40.0, PicardOptions(horizon=8.0, dt=0.01, tail=4.0))
    frame = model.frame(5.0)
    rng = np.random.default_rng(0)
    pairs = np.sort(5.0 + 7.0 * rng.random((40, 2)), axis=1)
    gaps = pairs[:, 1] - pairs[:, 0]
    norms = np.array([np.linalg.norm(evolution_operator(frame, t1, t2, "stable"), 2)
                      for t1, t2 in pairs])
    keep = gaps > 0.1
    slope, intercept = np.polyfit(gaps[keep], np.log(norms[keep]), 1)
    k_fit = np.exp(intercept) * 1.05
    rate = -slope
    assert rate > 0
    held = np.sort(5.0 + 7.0 * rng.random((40, 2)), axis=1)
    for t1, t2 in held:
        n = np.linalg.norm(evolution_operator(frame, t1, t2, "stable"), 2)
        assert n <= k_fit * np.exp(-rate * (t2 - t1)) * 1.05 + 1e-12


def test_picard_quadratic_zero_input_exact_in_one_iteration():
    ctx = quad_context()
    model = ManifoldModel(ctx, 4.0, 40.0, PicardOptions(horizon=8.0, dt=0.01, tail=4.0))
    assert model.psi_is_zero
    sol = model.picard_solve(5.0, np.zeros((1, 2)))
    assert sol.iterations == 1
    assert np.max(np.abs(sol.u)) == 0.0
    assert sol.residual == 0.0


def test_picard_quadratic_general_input_is_propagated_ic():
    ctx = quad_context()
    model = ManifoldModel(ctx, 4.0, 40.0, PicardOptions(horizon=8.0, dt=0.01, tail=4.0))
    a_s = np.array([[0.05, -0.03]])
    sol = model.picard_solve(5.0, a_s)
    assert sol.iterations <= 2
    frame = model.frame(5.0)
    # stable components follow the evolution operator exactly; unstable stay 0
    for idx in (10, 100, 400):
        t = frame.times[idx]
        v = evolution_operator(frame, t, frame.t0, "unstable")  # orientation guard
        expected = np.exp(frame.cumlam[idx, 1:] - frame.cumlam[0, 1:]) * a_s[0]
        assert np.allclose(sol.u[0, idx, 1:], expected, atol=1e-12)
        assert abs(sol.u[0, idx, 0]) < 1e-12
    assert np.allclose(sol.psi, 0.0)


def test_picard_decoupled_cubic_finds_flat_manifold():
    # the x2^3 perturbation leaves the unstable equation self-contained, so
    # the solver must discover that the manifold stays the stable axis
    ctx = cubic_context()
    model = ManifoldModel(ctx, 1.0, 40.0, PicardOptions(horizon=10.0, dt=0.005,
                                                        tail=5.0, tol=1e-10))
    assert not model.psi_is_zero
    sol = model.picard_solve(2.0, np.array([[0.08]]))
    assert np.max(np.abs(sol.psi)) < 1e-10
    assert sol.residual < 1e-6


def test_picard_cross_cubic_contracts_and_resubstitutes():
    ctx = cross_cubic_context()
    model = ManifoldModel(ctx, 1.0, 40.0, PicardOptions(horizon=10.0, dt=0.005,
                                                        tail=5.0, tol=1e-10))
    assert not model.psi_is_zero
    sol = model.picard_solve(2.0, np.array([[0.08]]))
    ratios = sol.contraction_ratios()
    assert len(ratios) >= 1
    assert np.all(ratios < 0.5)
    assert sol.residual < 1e-6
    # exponential-decay envelope: log|u| below a fitted negative-slope line
    norms = np.linalg.norm(sol.u[0], axis=1)
    mask = (sol.times > sol.times[0] + 1.0) & (norms > 1e-14)
    slope, intercept = np.polyfit(sol.times[mask], np.log(norms[mask]), 1)
    assert slope < -0.5
    assert np.all(np.log(norms[mask]) <= intercept + slope * sol.times[mask] + 0.5)


def test_picard_tangency_slope_two_with_coefficient():
    ctx = cross_cubic_context()
    model = ManifoldModel(ctx, 1.0, 40.0, PicardOptions(horizon=10.0, dt=0.005,
                                                        tail=5.0, tol=1e-11))
    sizes = np.geomspace(0.003, 0.03, 6)
    psis = model.psi(2.0, sizes[:, None])
    mags = np.abs(psis[:, 0])
    slope = np.polyfit(np.log(sizes), np.log(mags), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.2)
    # invariant-graph oracle: psi = z^2/30 to leading order
    assert psis[0, 0] / sizes[0] ** 2 == pytest.approx(1.0 / 30.0, rel=0.05)


def test_picard_rejects_large_initial_condition():
    ctx = cubic_context()
    model = ManifoldModel(ctx, 1.0, 40.0, PicardOptions(horizon=8.0, dt=0.01, tail=4.0),
                          radius=0.2)
    with pytest.raises(ContractionError):
        model.picard_solve(2.0, np.array([[0.5]]))


@pytest.mark.parametrize("make_context, psi_is_zero",
                         [(quad_context, True), (cross_cubic_context, False)])
def test_certified_region_is_ball_and_contraction_radius(make_context, psi_is_zero):
    # certified(z) is |z| <= r and |z_s| <= r/3 row by row, whether psi is
    # known to vanish or is solved; rows on the sphere |z| = r, on |z| = r/3
    # and on the cylinder |z_s| = r/3 sit on the rule's edges
    ctx = make_context()
    model = ManifoldModel(ctx, 4.0, 40.0, PicardOptions(horizon=8.0, dt=0.01, tail=4.0))
    assert model.psi_is_zero == psi_is_zero
    r, n_u = model.radius, ctx.n_u
    rng = np.random.default_rng(0)
    dirs = rng.standard_normal((500, ctx.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    z = dirs * rng.uniform(0.0, 1.5 * r, 500)[:, None]
    z[:100] = r * dirs[:100]
    z[100:200] = r / 3.0 * dirs[100:200]
    z[200:300, n_u:] *= r / 3.0 / np.linalg.norm(z[200:300, n_u:], axis=1, keepdims=True)
    expected = (np.linalg.norm(z, axis=1) <= r) \
        & (np.linalg.norm(z[:, n_u:], axis=1) <= r / 3.0)
    assert 0 < expected.sum() < len(z)
    np.testing.assert_array_equal(model.certified(z), expected)
    # the frame from a start time is built with the model's Picard options
    frame = model.frame(5.0)
    assert len(frame.times) == round(12.0 / 0.01) + 1


def test_picard_forced_path_runs_and_decays():
    # nonzero stationary path: the forcing term feeds the equation
    ctx = shifted_context()
    model = ManifoldModel(ctx, 4.0, 60.0, PicardOptions(horizon=10.0, dt=0.01, tail=6.0,
                                                        tol=1e-9))
    assert not model.psi_is_zero
    sol = model.picard_solve(6.0, np.zeros((1, 2)))
    assert sol.residual < 1e-6
    psi_val = np.linalg.norm(sol.psi)
    sol_late = model.picard_solve(30.0, np.zeros((1, 2)))
    assert np.linalg.norm(sol_late.psi) < psi_val + 1e-9


def test_coordinate_change_roundtrip():
    ctx = shifted_context()
    model = ManifoldModel(ctx, 4.0, 60.0, PicardOptions(horizon=10.0, dt=0.01, tail=6.0))
    rng = np.random.default_rng(1)
    x = ctx.saddle + 0.1 * rng.standard_normal((5, 3))
    z = model.coordinate_change(x, 10.0)
    _, modes, _, _, g = model.local_linearization(10.0)
    back = z @ modes + g
    assert np.max(np.abs(back - x)) < 1e-10


def _sequential_decay(log_decay, inc):
    x = np.zeros((inc.shape[0], inc.shape[1] + 1, inc.shape[2]))
    for i in range(inc.shape[1]):
        x[:, i + 1] = np.exp(log_decay[i]) * x[:, i] + inc[:, i]
    return x


@settings(max_examples=60, deadline=None)
@given(peak=st.floats(0.004, 0.2), n_blocks=st.integers(1, 8), partial=st.booleans(),
       batch=st.integers(1, 4), width=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_decay_scan_matches_sequential_recursion(peak, n_blocks, partial, batch, width, seed):
    # per-step exponents up to those of the shifted and quadratic-penalized
    # batteries (|a_i| <= 0.15, cumulative spans over 200); grid lengths on
    # and off a multiple of the scan block
    rng = np.random.default_rng(seed)
    block = int(SCAN_SPAN / peak)
    steps = n_blocks * block + (int(rng.integers(1, block)) if partial and block > 1 else 0)
    log_decay = -peak * rng.random((steps, width))
    log_decay[rng.integers(steps)] = -peak
    inc = rng.standard_normal((batch, steps, width))
    # |x| is bounded by the recursion driven by |inc|; errors are relative to it
    forward = _sequential_decay(log_decay, inc)
    scale = _sequential_decay(log_decay, np.abs(inc))
    assert np.all(np.abs(_decay_scan(log_decay, inc) - forward) <= 1e-12 * scale)
    # backward: k_{n-1} = 0, k_i = e^{a_i} k_{i+1} + inc_i
    backward = _sequential_decay(log_decay[::-1], inc[:, ::-1])[:, ::-1]
    scale_b = _sequential_decay(log_decay[::-1], np.abs(inc[:, ::-1]))[:, ::-1]
    assert np.all(np.abs(_decay_scan(log_decay, inc, reverse=True) - backward)
                  <= 1e-12 * scale_b)


def test_decay_scan_survives_steps_whose_decay_underflows():
    # a stiff step's e^{a_i} underflows to 0 below a_i of about -745: each
    # such step gets a one-step block, which must not divide by that 0
    rng = np.random.default_rng(3)
    log_decay = -0.1 * rng.random((40, 2))
    log_decay[[5, 17], 0] = -800.0
    log_decay[[17, 30], 1] = -1000.0
    inc = rng.standard_normal((3, 40, 2))
    forward = _sequential_decay(log_decay, inc)
    scale = _sequential_decay(log_decay, np.abs(inc))
    assert np.all(np.abs(_decay_scan(log_decay, inc) - forward) <= 1e-12 * scale)
    backward = _sequential_decay(log_decay[::-1], inc[:, ::-1])[:, ::-1]
    scale_b = _sequential_decay(log_decay[::-1], np.abs(inc[:, ::-1]))[:, ::-1]
    assert np.all(np.abs(_decay_scan(log_decay, inc, reverse=True) - backward)
                  <= 1e-12 * scale_b)


def test_decay_scan_without_decay_is_a_cumulative_sum():
    inc = np.arange(12.0).reshape(2, 3, 2)
    out = _decay_scan(np.zeros((3, 2)), inc)
    assert np.array_equal(out[:, 1:], np.cumsum(inc, axis=1))
    assert np.array_equal(out[:, 0], np.zeros((2, 2)))


@pytest.mark.parametrize("make_model", [
    lambda: ManifoldModel(cross_cubic_context(), 1.0, 40.0,
                          PicardOptions(horizon=10.0, dt=0.005, tail=5.0)),
    lambda: ManifoldModel(rotating_context(), 4.0, 80.0,
                          PicardOptions(horizon=8.0, dt=0.01, tail=8.0)),
], ids=["cross-cubic", "shifted"])
def test_picard_solution_survives_later_solves(make_model):
    # every solve iterates in the one shared workspace and returns copies:
    # later solves of other batch sizes and start times, on this model and on
    # its autonomous restriction's, leave an earlier solution's arrays and
    # psi's as they were, and solving the first problem again gives the same
    # bits
    model = make_model()
    auto = autonomous_restriction(model.context, model.picard)
    rng = np.random.default_rng(5)
    a_s = 0.05 * rng.uniform(-1.0, 1.0, (3, model.context.n_s))
    first = model.picard_solve(6.0, a_s)
    psi = model.psi(6.0, a_s)
    u, deltas, psi_bytes = first.u.copy(), first.deltas.copy(), psi.tobytes()
    for t0, batch in ((7.0, 1), (6.5, 5), (7.0, 3)):
        for other in (model, auto):
            a_other = 0.05 * rng.uniform(-1.0, 1.0, (batch, other.context.n_s))
            other.picard_solve(t0, a_other)
            other.psi(t0, a_other)
    assert np.array_equal(first.u, u) and np.array_equal(first.deltas, deltas)
    assert psi.tobytes() == psi_bytes
    again = model.picard_solve(6.0, a_s)
    assert np.array_equal(again.u, u) and np.array_equal(again.deltas, deltas)
    assert again.residual == first.residual and again.tail_estimate == first.tail_estimate


@pytest.mark.parametrize("battery", ["quadratic", "cross-cubic", "shifted"])
def test_solve_writes_the_workspace_before_reading_it(battery):
    # the shared workspace keeps what the last solve left in it: a solve has
    # the same bits after a larger solve at another start time, and after
    # the whole workspace was filled with NaN. The quadratic battery's psi
    # runs its solve with the zero shortcut switched off on a copy
    model = copy.copy(battery_model(battery))
    model.psi_is_zero = False
    n_s, t0 = model.context.n_s, model.t_start + 2.0
    a_s = 0.05 * np.random.default_rng(3).uniform(-1.0, 1.0, (3, n_s))
    reference = model.picard_solve(t0, a_s)
    psi = model.psi(t0, a_s)
    model.picard_solve(t0 + 1.5, 0.5 * np.resize(a_s, (8, n_s)))
    dirty = model.picard_solve(t0, a_s)
    manifold._shared_buffer(1).fill(np.nan)
    cleared = model.picard_solve(t0, a_s)
    for sol in (dirty, cleared):
        assert sol.u.tobytes() == reference.u.tobytes()
        assert sol.deltas.tobytes() == reference.deltas.tobytes()
        assert (sol.residual, sol.tail_estimate) == (reference.residual,
                                                      reference.tail_estimate)
    manifold._shared_buffer(1).fill(np.nan)
    assert model.psi(t0, a_s).tobytes() == psi.tobytes()


def test_psi_of_no_rows_is_empty():
    # a repulsion sweep whose time slice is censored whole asks for these
    for battery in ("quadratic", "cross-cubic", "shifted"):
        model = battery_model(battery)
        n_u, n_s = model.context.n_u, model.context.n_s
        assert model.psi(model.t_start + 2.0, np.zeros((0, n_s))).shape == (0, n_u)
        assert model.distance(np.zeros((0, n_u + n_s)), model.t_start + 2.0).shape == (0,)


def test_solves_retain_no_memory():
    # a model keeps nothing that a solve builds: the memory still allocated
    # after 20 solves at distinct start times is what it was after one
    model = ManifoldModel(cross_cubic_context(), 1.0, 40.0,
                          PicardOptions(horizon=8.0, dt=0.01, tail=4.0))
    a_s = np.array([[0.05]])
    model.picard_solve(2.0, a_s)    # lazy imports and numpy's first-call caches
    tracemalloc.start()
    try:
        model.picard_solve(2.5, a_s)
        after_one = tracemalloc.get_traced_memory()[0]
        for k in range(20):
            model.picard_solve(3.0 + 0.25 * k, a_s)
        after_many = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    frame = model.frame(2.0)
    frame_bytes = sum(v.nbytes for v in vars(frame).values() if isinstance(v, np.ndarray))
    assert after_many - after_one < frame_bytes / 4


def test_frame_rotations_match_einsum():
    rng = np.random.default_rng(4)
    cross = ManifoldModel(cross_cubic_context(), 1.0, 40.0,
                          PicardOptions(horizon=10.0, dt=0.005, tail=5.0))
    fixed = cross.frame(2.0).rotation
    assert fixed.matrices.shape == (2, 2)
    z = rng.standard_normal((5, 3001, 2))
    assert np.max(np.abs(fixed.rotate(z) - np.einsum("ij,bnj->bni", fixed.matrices, z))) <= 1e-14
    assert np.max(np.abs(fixed.unrotate(z) - np.einsum("ji,bnj->bni", fixed.matrices, z))) <= 1e-14

    shifted = ManifoldModel(rotating_context(), 4.0, 80.0,
                            PicardOptions(horizon=8.0, dt=0.01, tail=8.0))
    frame = shifted.frame(6.0)
    moving = frame.rotation
    assert moving.matrices.shape == (1601, 3, 3)
    assert np.ptp(moving.matrices, axis=0).max() > 1e-6   # the frame really moves
    z = rng.standard_normal((5, 1601, 3))
    assert np.max(np.abs(moving.rotate(z) - np.einsum("nij,bnj->bni", moving.matrices, z))) \
        <= 1e-14
    assert np.max(np.abs(moving.unrotate(z) - np.einsum("nji,bnj->bni", moving.matrices, z))) \
        <= 1e-14
    rate = frame.mode_rate.matrices
    assert np.max(np.abs(frame.mode_rate.rotate(z) - np.einsum("nij,bnj->bni", rate, z))) \
        <= 1e-14 * max(1.0, np.max(np.abs(rate)))


@pytest.mark.parametrize("make_ctx", [cross_cubic_context, quad_context],
                         ids=["cross-cubic", "quadratic-penalized"])
def test_fixed_frame_closed_form_matches_linearize(make_ctx):
    # a stationary saddle with a constant eigenframe is not tracked: its
    # eigenvalues are affine in gamma; they must be what tracking would give
    ctx = make_ctx()
    model = ManifoldModel(ctx, 4.0, 40.0, PicardOptions(horizon=8.0, dt=0.01, tail=4.0))
    assert model.fixed_frame is not None
    frame = model.frame(5.0)
    u = frame.rotation.matrices
    assert u.ndim == 2 and frame.mode_rate is None
    assert np.all(frame.g_path == ctx.saddle) and np.all(frame.forcing == 0.0)
    for i in range(0, len(frame.times), 97):
        split = linearize(ctx, frame.times[i], ctx.saddle, reference_modes=u)
        assert np.max(np.abs(frame.lambdas[i] - split.lambdas)) <= 1e-12
        assert np.max(np.abs(u - split.modes)) <= 1e-12


@pytest.mark.parametrize("make_model", [
    lambda: ManifoldModel(rotating_context(), 4.0, 80.0,
                          PicardOptions(horizon=8.0, dt=0.01, tail=8.0)),
    lambda: ManifoldModel(cross_cubic_context(), 1.0, 40.0,
                          PicardOptions(horizon=10.0, dt=0.005, tail=5.0)),
], ids=["shifted", "cross-cubic"])
def test_local_linearization_matches_frame_row(make_model):
    # one tracker serves both, and a tracked row's bits depend on its time
    # alone: at a grid time the linearization, and the coordinate change, use
    # the frame's row there bit for bit
    model = make_model()
    frame = model.frame(6.0)
    last = len(frame.times) - 1
    rng = np.random.default_rng(3)
    x = model.context.saddle + 0.05 * rng.standard_normal((4, model.context.dim))
    for i in (0, 1, 250, last // 2, last - 1, last):
        lam, modes, mode_rate, forcing, g_t = model.local_linearization(frame.times[i])
        modes_i = frame.rotation.matrices if frame.mode_rate is None \
            else frame.rotation.matrices[i]
        for got, want in ((lam, frame.lambdas[i]), (modes, modes_i),
                          (forcing, frame.forcing[i]), (g_t, frame.g_path[i])):
            assert np.array_equal(got, want)
        z = model.coordinate_change(x, frame.times[i])
        assert np.array_equal(z, Frame(modes_i).rotate(x - frame.g_path[i]))
        if frame.mode_rate is not None:
            # a tracked row's stacked split is the one-point split of its point
            split = linearize(model.context, frame.times[i], g_t, reference_modes=modes_i)
            assert np.array_equal(split.lambdas, lam) and np.array_equal(split.modes, modes_i)
        # one central difference at the grid step gives both rates; t +- dt
        # may round apart from the neighbouring grid times. A fixed frame's
        # rate is exactly 0
        rate = 0.0 if frame.mode_rate is None else frame.mode_rate.matrices
        rate_i = 0.0 if frame.mode_rate is None else rate[i]
        assert np.max(np.abs(mode_rate - rate_i)) <= 1e-12 * np.max(np.abs(rate))


def test_frame_mode_rate_is_central_at_both_grid_ends():
    # the grid's first and last rows get a central difference too, from one
    # tracked row beyond each end: within 1e-8 of a finer difference there
    model = ManifoldModel(rotating_context(), 4.0, 80.0,
                          PicardOptions(horizon=8.0, dt=0.01, tail=8.0))
    frame = model.frame(6.0)
    h = 1e-4
    for i in (0, len(frame.times) - 1):
        t = frame.times[i]
        modes = model._track([t - h, t, t + h])[2]
        finer = (modes[2] - modes[0]) / (2.0 * h) @ modes[1].T
        assert np.max(np.abs(frame.mode_rate.matrices[i] - finer)) <= 1e-8


# the problems and Picard options of the three shipped manifold batteries
@functools.lru_cache(maxsize=None)
def battery_model(battery):
    if battery == "quadratic":
        ctx = saddle_context(quadratic_saddle([1.0, -1.0]), penalty_from_matrix(np.zeros((2, 2))),
                             ConstantGamma(1.0), np.zeros(2))
        return ManifoldModel(ctx, 1.0, 40.0, PicardOptions(horizon=8.0, dt=0.01, tail=4.0,
                                                           tol=1e-10))
    if battery == "cross-cubic":
        return ManifoldModel(cross_cubic_context(), 1.0, 40.0,
                             PicardOptions(horizon=10.0, dt=0.005, tail=5.0, tol=1e-10))
    return ManifoldModel(rotating_context(), 4.0, 80.0,
                         PicardOptions(horizon=8.0, dt=0.01, tail=8.0, tol=1e-10))


@pytest.mark.parametrize("battery", ["quadratic", "cross-cubic", "shifted"])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_psi_is_the_solve_without_its_residual_substitution(battery, data):
    # psi stops at convergence and the tail check; picard_solve substitutes
    # once more for the residual, which leaves u(t0)'s unstable block alone.
    # The quadratic battery's psi is known to vanish; its solve path runs here
    # with that shortcut switched off on a copy of the model
    model = battery_model(battery)
    if model.psi_is_zero:
        model = copy.copy(model)
        model.psi_is_zero = False
    n_s, third = model.context.n_s, model.radius / 3.0
    opts = model.picard
    t0 = model.t_start + data.draw(st.floats(0.0, 0.5)) * (
        model.t_end - model.t_start - opts.horizon - opts.tail)
    batch = data.draw(st.integers(1, 4))
    dirs = np.array(data.draw(st.lists(
        st.lists(st.floats(-1.0, 1.0), min_size=n_s, max_size=n_s)
        .filter(lambda v: np.linalg.norm(v) > 1e-3), min_size=batch, max_size=batch)))
    radii = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=batch,
                                        max_size=batch)))
    z_s = dirs / np.linalg.norm(dirs, axis=1, keepdims=True) * (third * radii)[:, None]

    with mock.patch.object(model, "_apply_integral_operator",
                           wraps=model._apply_integral_operator) as operator:
        sol = model.picard_solve(t0, z_s)
        solve_calls = operator.call_count
        psi = model.psi(t0, z_s)
    assert solve_calls == sol.iterations + 1
    assert operator.call_count - solve_calls == solve_calls - 1
    assert psi.shape == sol.psi.shape == (batch, model.context.n_u)
    assert psi.tobytes() == sol.psi.tobytes()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_psi_row_is_its_solo_solve(data):
    # each row stops iterating on its own, so a row's psi from any batch has
    # the bits of its solve alone
    model = battery_model("cross-cubic")
    opts = model.picard
    t0 = model.t_start + data.draw(st.floats(0.0, 0.5)) * (
        model.t_end - model.t_start - opts.horizon - opts.tail)
    batch = data.draw(st.integers(2, 12))
    z_s = (model.radius / 3.0) * np.array(data.draw(st.lists(
        st.floats(-1.0, 1.0), min_size=batch, max_size=batch)))[:, None]
    together = model.psi(t0, z_s)
    for row, z in zip(together, z_s):
        assert row.tobytes() == model.psi(t0, z[None]).tobytes()


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_solve_rows_are_their_solo_solves(data):
    # rows converge at different iterations (z_s = 0 at the first, rows near
    # r/3 last) and a converged row leaves the substitutions; the batch keeps
    # each row's solo bits, raises no error its rows do not raise alone, and
    # its deltas are the rows' solo deltas, a converged row counting 0
    model = battery_model("cross-cubic")
    opts = model.picard
    t0 = model.t_start + data.draw(st.floats(0.0, 0.5)) * (
        model.t_end - model.t_start - opts.horizon - opts.tail)
    size = st.one_of(st.just(0.0), st.floats(-4.0, 0.0).map(lambda e: 10.0 ** e),
                     st.floats(-4.0, 0.0).map(lambda e: -(10.0 ** e)))
    z_s = (model.radius / 3.0) * np.array(
        data.draw(st.lists(size, min_size=2, max_size=8)))[:, None]
    sol = model.picard_solve(t0, z_s)
    solos = [model.picard_solve(t0, z[None]) for z in z_s]
    for row, solo in zip(sol.u, solos):
        assert row.tobytes() == solo.u[0].tobytes()
    padded = np.zeros((len(solos), max(solo.iterations for solo in solos)))
    for row, solo in zip(padded, solos):
        row[: solo.iterations] = solo.deltas
    assert sol.deltas.tobytes() == np.max(padded, axis=0).tobytes()
    assert sol.iterations == max(solo.iterations for solo in solos)
    assert sol.residual == max(solo.residual for solo in solos)
    assert sol.tail_estimate == max(solo.tail_estimate for solo in solos)


def test_growing_row_raises_after_other_rows_converged():
    # at this coefficient the row at r/3 grows from its second iteration and
    # stops contracting at its fourth, alone and beside rows that converge
    # first: z_s = 0 at the first iteration, 1e-4 at the third, when the
    # growing row's count must move with it; rows substituted per iteration
    model = ManifoldModel(cross_cubic_context(30.0), 1.0, 40.0,
                          PicardOptions(horizon=10.0, dt=0.005, tail=5.0, tol=1e-10))
    cases = {(0.1,): [1, 1, 1, 1], (0.0, 0.01, 0.1): [3, 2, 2, 2],
             (1e-4, 0.1): [2, 2, 2, 1]}
    for z_s, rows in cases.items():
        with mock.patch.object(model, "_apply_integral_operator",
                               wraps=model._apply_integral_operator) as operator:
            with pytest.raises(ContractionError, match="stopped contracting"):
                model.picard_solve(3.0, np.array(z_s)[:, None])
        assert [len(call.args[0]) for call in operator.call_args_list] == rows
