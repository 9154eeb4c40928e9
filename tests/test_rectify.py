import numpy as np
import pytest

from dsgdlab.errors import OutOfBallError
from dsgdlab.graphs import penalty_from_matrix
from dsgdlab.losses import monomial_loss, quadratic_saddle, separable_polynomial
from dsgdlab.manifold import ManifoldModel, PicardOptions, saddle_context
from dsgdlab import rectify
from dsgdlab.rectify import (
    DRIFT_FD_STEP,
    FD_STEP,
    autonomous_restriction,
    compare_flattening_limit,
    dt_phi_decay_probe,
    eta,
    moving_frame_field,
    rectified_field,
    rectified_field_spectrum,
    rectify_phi,
    repulsion_check,
)
from dsgdlab.schedules import ConstantGamma, PowerLawGamma

FAST = PicardOptions(horizon=8.0, dt=0.01, tail=4.0, tol=1e-10)
FINE = PicardOptions(horizon=10.0, dt=0.005, tail=5.0, tol=1e-10)
FORCED = PicardOptions(horizon=8.0, dt=0.01, tail=8.0, tol=1e-10)


def quad_model():
    loss = separable_polynomial({0: {2: 0.5}, 1: {2: -0.5}, 2: {2: 0.5}}, dim=3)
    q = penalty_from_matrix(np.diag([0.0, 0.0, 2.0]))
    ctx = saddle_context(loss, q, PowerLawGamma(1.0, 0.8), np.zeros(3))
    return ManifoldModel(ctx, 4.0, 60.0, FAST)


def quad2_model():
    # centralized two-dimensional saddle, no penalty
    loss = quadratic_saddle([1.0, -1.0])
    q = penalty_from_matrix(np.zeros((2, 2)))
    ctx = saddle_context(loss, q, ConstantGamma(1.0), np.zeros(2))
    return ManifoldModel(ctx, 1.0, 40.0, FAST, radius=0.5)


def cross_model(coef=0.1):
    loss = monomial_loss(2, {(2, 0): 0.5, (0, 2): -0.5, (2, 1): coef})
    q = penalty_from_matrix(np.zeros((2, 2)))
    ctx = saddle_context(loss, q, ConstantGamma(1.0), np.zeros(2))
    return ManifoldModel(ctx, 1.0, 40.0, FINE)


def shifted_model():
    # the linear x3 term moves the penalized stationary path, and the x2 x3
    # coupling drags it along the unstable coordinate while rotating the
    # eigenframe, so the flattening map genuinely depends on time
    loss = monomial_loss(3, {(2, 0, 0): 0.5, (0, 2, 0): -0.5, (0, 0, 2): 0.5,
                             (0, 0, 1): 0.2, (0, 1, 1): 0.3})
    q = penalty_from_matrix(np.diag([0.0, 0.0, 2.0]))
    ctx = saddle_context(loss, q, PowerLawGamma(1.0, 0.8), np.zeros(3))
    return ManifoldModel(ctx, 4.0, 80.0, FORCED)


def from_coordinates(model, z, t):
    """x = U(t)^T z + g(gamma_t), the inverse of the coordinate change at t."""
    _, modes, _, _, g = model.local_linearization(t)
    return z @ modes + g


def test_phi_identity_for_quadratic():
    model = quad2_model()
    # both rows inside the certified region: |z_s| <= r/3 with r = 0.5
    z = np.array([[0.1, -0.05], [0.0, 0.15]])
    assert np.array_equal(rectify_phi(model, z, 5.0), z)


def test_phi_flattens_manifold_points():
    model = cross_model()
    zs = np.array([0.05])
    psi_val = model.psi(3.0, zs[None, :])[0]
    point = np.concatenate([psi_val, zs])[None, :]
    phi = rectify_phi(model, point, 3.0)[0]
    assert abs(phi[0]) < 1e-9
    assert phi[1] == pytest.approx(0.05)
    assert eta(model, from_coordinates(model, point, 3.0), 3.0)[0] < 1e-9


@pytest.mark.parametrize("make, times", [(cross_model, (4.0, 9.0, 16.0)),
                                         (shifted_model, (14.0, 20.0))],
                         ids=["cross-cubic", "shifted"])
def test_rectified_field_rows_are_pure(make, times):
    # psi is row-pure, so the spectrum's one call on the stacked +-basis rows
    # keeps the bits of the two separate calls
    model = make()
    basis = FD_STEP * np.eye(model.context.dim)
    for t in times:
        both = rectified_field(model, np.concatenate([basis, -basis]), t)
        apart = np.concatenate([rectified_field(model, basis, t),
                                rectified_field(model, -basis, t)])
        assert both.tobytes() == apart.tobytes()


@pytest.mark.parametrize("make", [cross_model, shifted_model], ids=["cross-cubic", "shifted"])
def test_rectified_field_solves_psi_once_per_start_time(make, monkeypatch):
    # psi at t on w_s and its stencil is one solve; t +- FD_STEP one each
    model = make()
    n_s = model.context.n_s
    w = 0.02 * np.random.default_rng(1).standard_normal((4, model.context.dim))
    calls = []

    def counted(t, z_s):
        calls.append((t, len(z_s)))
        return ManifoldModel.psi(model, t, z_s)

    monkeypatch.setattr(model, "psi", counted)
    rectified_field(model, w, 8.0)
    assert calls == [(8.0, (1 + 2 * n_s) * 4), (8.0 + FD_STEP, 4), (8.0 - FD_STEP, 4)]


def test_rectified_field_evaluates_h_at_phi_inverse(monkeypatch):
    # Phi keeps the stable block, so Phi^-1(w) = (w_u + psi(t, w_s); w_s)
    model = cross_model()
    w = 0.05 * np.random.default_rng(1).standard_normal((6, 2))
    psi = model.psi(4.0, w[:, 1:])
    seen = []

    def spied(model, z, t):
        seen.append(np.array(z))
        return moving_frame_field(model, z, t)

    monkeypatch.setattr(rectify, "moving_frame_field", spied)
    rectified_field(model, w, 4.0)
    (x,) = seen
    assert np.array_equal(x[:, 1:], w[:, 1:])
    assert np.array_equal(x[:, :1], w[:, :1] + psi)
    assert np.max(np.abs(rectify_phi(model, x, 4.0) - w)) < 1e-9


def test_rectified_field_refuses_uncertified_points(monkeypatch):
    model = cross_model()
    calls = []

    def counted(t, z_s):
        calls.append(t)
        return ManifoldModel.psi(model, t, z_s)

    monkeypatch.setattr(model, "psi", counted)
    with pytest.raises(OutOfBallError):
        rectified_field(model, np.array([[0.0, 0.2]]), 4.0)  # |w_s| > r/3
    with pytest.raises(OutOfBallError):
        rectified_field(model, np.array([[0.5, 0.0]]), 4.0)  # |w| > r
    assert calls == []


def test_phi_jacobian_identity_at_origin():
    model = cross_model()
    step = 1e-5
    jac = np.empty((2, 2))
    for j in range(2):
        e = np.zeros((1, 2))
        e[0, j] = step
        jac[:, j] = (rectify_phi(model, e, 5.0) - rectify_phi(model, -e, 5.0))[0] / (2 * step)
    assert np.max(np.abs(jac - np.eye(2))) < 1e-6


def test_eta_quadratic_unstable_coordinate():
    model = quad2_model()
    # unstable direction is the negative-curvature coordinate (second one)
    x = np.array([[0.05, 0.3]])
    val = eta(model, x, 5.0)[0]
    assert val == pytest.approx(0.3, abs=1e-12)


def test_eta_out_of_ball():
    model = quad2_model()
    with pytest.raises(OutOfBallError):
        eta(model, np.array([[5.0, 5.0]]), 5.0)


def test_phi_refuses_rows_psi_cannot_certify():
    # inside the validity ball (r = 0.3) but past the contraction radius
    # r/3 of a solved psi: the map refuses the row before the solver does
    model = cross_model()
    with pytest.raises(OutOfBallError):
        rectify_phi(model, [[0.0, 0.2]], 2.0)
    with pytest.raises(OutOfBallError):
        rectify_phi(model, np.array([[0.0, 0.05], [0.0, 0.2]]), 2.0)
    assert rectify_phi(model, [[0.0, 0.05]], 2.0)[0, 1] == 0.05
    # a zero psi has the same region: the row lies in the ball (r = 0.5) but
    # past r/3, where the repulsion sweep and the drift campaign censor it
    quad = quad2_model()
    with pytest.raises(OutOfBallError):
        rectify_phi(quad, [[0.0, 0.2]], 5.0)


def test_repulsion_quadratic_exact():
    model = quad2_model()
    rep = repulsion_check(model, sample_ball=0.05, epsilon_grid=[1e-3, 3e-3, 1e-2],
                          t_grid=np.linspace(5.0, 20.0, 10), n_samples=200, seed=0)
    assert rep.fit_valid
    assert rep.c2_hat == pytest.approx(1.0, rel=0.05)
    assert rep.c3_hat < 1e-6
    assert len(rep.violations) == 0


def test_repulsion_quadratic_with_penalty_exact():
    model = quad_model()
    rep = repulsion_check(model, sample_ball=0.05, epsilon_grid=[1e-3, 3e-3, 1e-2],
                          t_grid=np.linspace(5.0, 14.0, 10), n_samples=200, seed=1)
    assert rep.fit_valid
    assert rep.c2_hat == pytest.approx(1.0, rel=0.05)
    assert rep.c3_hat < 1e-6


def test_repulsion_cross_cubic():
    model = cross_model()
    rep = repulsion_check(model, sample_ball=0.05, epsilon_grid=[1e-3, 3e-3, 1e-2],
                          t_grid=np.linspace(3.0, 12.0, 5), n_samples=120, seed=2)
    assert rep.c2_hat > 0
    assert len(rep.violations) == 0


def test_repulsion_with_every_point_censored_fails_its_fit():
    # every sample lies outside the validity ball r = 0.3: no pairs to fit
    rep = repulsion_check(cross_model(), sample_ball=5.0, epsilon_grid=[1e-3],
                          t_grid=[3.0, 4.0], n_samples=4, seed=0)
    assert (rep.n_pairs, rep.n_censored) == (0, 8)
    assert np.isnan(rep.c2_hat) and np.isnan(rep.c3_hat)
    assert len(rep.violations) == 0 and not rep.fit_valid


def test_rectified_spectrum_quadratic_matches_split():
    model = quad_model()
    rep = rectified_field_spectrum(model, np.linspace(6.0, 20.0, 5))
    for i, t in enumerate(rep.times):
        lam, _, _, _, _ = model.local_linearization(float(t))
        assert np.allclose(np.sort(rep.eigenvalues[i]), np.sort(lam), atol=1e-5)
    assert np.all(rep.n_positive == 1)
    assert rep.min_positive_tail > 0.4


def test_rectified_spectrum_cross_cubic_gap():
    model = cross_model()
    rep = rectified_field_spectrum(model, np.linspace(4.0, 16.0, 5))
    assert np.all(rep.n_positive == 1)
    assert rep.min_positive_tail > 0.5
    assert rep.max_imag < 1e-6


def test_rectified_jacobian_block_diagonal():
    # flattening decouples the unstable block from the stable one: the
    # finite-difference Jacobian of the rectified field at the origin has
    # negligible cross blocks
    for model, t in ((quad_model(), 10.0), (cross_model(), 6.0)):
        m = model.context.dim
        n_u = model.context.n_u
        step = 1e-4
        basis = step * np.eye(m)
        plus = rectified_field(model, basis, t)
        minus = rectified_field(model, -basis, t)
        w_t = (plus - minus).T / (2.0 * step)
        coupling = max(np.max(np.abs(w_t[:n_u, n_u:])), np.max(np.abs(w_t[n_u:, :n_u])))
        diag_scale = np.max(np.abs(np.diag(w_t)))
        assert coupling <= 1e-4 * diag_scale


def test_autonomous_restriction_quadratic_flat():
    model = quad_model()
    auto = autonomous_restriction(model.context, picard=FAST)
    assert auto.psi_is_zero
    assert np.allclose(auto.psi(0.0, np.zeros((1, 1))), 0.0)


def test_autonomous_restriction_cross_cubic_residual():
    model = cross_model()
    auto = autonomous_restriction(model.context, picard=FINE)
    sol = auto.picard_solve(0.0, np.array([[0.05]]))
    assert sol.residual < 1e-6
    # same invariant-graph oracle as the full model
    assert sol.psi[0, 0] / 0.05 ** 2 == pytest.approx(1.0 / 30.0, rel=0.05)


def test_flattening_limit_comparison():
    model = shifted_model()
    auto = autonomous_restriction(model.context, picard=FAST)
    gaps = compare_flattening_limit(model, auto, [10.0, 20.0, 40.0, 60.0],
                                    n_samples=16, seed=4, sample_ball=0.04)
    assert np.all(np.diff(gaps) <= 1e-12 + 0.05 * gaps[:-1])
    assert gaps[-1] < gaps[0]


def test_psi_second_differences_bounded_and_scale_consistent():
    # numerical surrogate for twice-differentiability of the graph map:
    # central second differences at three scales agree within 10% and stay
    # bounded by one constant across initial times
    model = cross_model()
    t0_grid = [3.0, 6.0, 12.0]
    values = np.empty((len(t0_grid), 3))
    for i, t0 in enumerate(t0_grid):
        for j, h in enumerate((0.02, 0.01, 0.005)):
            stencil = np.array([[h], [0.0], [-h]])
            psis = model.psi(t0, stencil)[:, 0]
            values[i, j] = (psis[0] - 2.0 * psis[1] + psis[2]) / h ** 2
    for row in values:
        assert np.max(np.abs(row - row[-1])) <= 0.1 * np.abs(row[-1])
    assert np.max(np.abs(values)) < 1.0
    # curvature oracle: psi = z^2/30 gives second derivative 1/15
    assert np.allclose(values, 2.0 / 30.0, rtol=0.1)


def test_eta_positive_off_manifold():
    model = cross_model()
    rng = np.random.default_rng(7)
    t = 4.0
    for _ in range(10):
        zs = 0.04 * (2.0 * rng.random(1) - 1.0)
        on_point = np.concatenate([model.psi(t, zs[None, :])[0], zs])[None, :]
        off = on_point.copy()
        off[0, 0] += 1e-3 * (1 if rng.random() < 0.5 else -1)
        x_on = from_coordinates(model, on_point, t)
        x_off = from_coordinates(model, off, t)
        assert eta(model, x_on, t)[0] < 1e-9
        assert eta(model, x_off, t)[0] >= 1e-3 - 1e-9


def dx_phi_gap(model, t_grid):
    """||D_x Phi(0, t) - I|| = ||d/dz_s psi(t, 0)|| at each time, by central
    differences with step DRIFT_FD_STEP."""
    stencil = DRIFT_FD_STEP * np.eye(model.context.n_s)
    return np.array([np.linalg.norm(model.psi(t, stencil) - model.psi(t, -stencil))
                     / (2.0 * DRIFT_FD_STEP) for t in t_grid])


def test_dt_phi_probe_zero_for_stationary_quadratic():
    model = quad_model()
    t_grid = np.linspace(6.0, 20.0, 4)
    assert np.allclose(dt_phi_decay_probe(model, t_grid), 0.0)
    assert np.allclose(dx_phi_gap(model, t_grid), 0.0)


def test_dt_phi_probe_decays_for_shifted_path():
    model = shifted_model()
    t_grid = np.array([8.0, 16.0, 32.0, 60.0])
    dt_phi_norm = dt_phi_decay_probe(model, t_grid)
    assert dt_phi_norm[0] > 1e-6  # genuinely time-varying flattening
    assert np.all(np.diff(dt_phi_norm) < 0)
    assert dt_phi_norm[-1] < 0.1 * dt_phi_norm[0]
    # the graph slope at the origin also drains away as the penalty grows
    gap = dx_phi_gap(model, t_grid)
    assert np.all(np.diff(gap) < 0)
    assert gap[-1] < 0.1 * gap[0]
