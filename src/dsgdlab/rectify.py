"""Rectified coordinates around the stable manifold: the flattening map, the
distance functional, the repulsion inequality, and the rectified-field
spectrum.

In the rotated/recentered coordinates z = U(t)(x - g(gamma_t)), the manifold
is the graph z_u = psi(t, z_s). The flattening map Phi subtracts the graph
from the unstable block, so manifold points land on {first n_u coordinates
zero}; the distance functional eta is the Euclidean norm of those
coordinates. One Euler step of the flow multiplies eta by at least
(1 + c2 eps) up to an O(eps^2) error, which is the quantitative repulsion
statement checked here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfBallError, allocation
from .graphs import penalty_from_matrix
from .losses import LossOracle
from .manifold import ManifoldModel, saddle_context
from .schedules import ConstantGamma

# eta_before quantile below which points count as on the manifold when fitting
# the repulsion rate c2
RATE_FLOOR_QUANTILE = 0.05
FD_STEP = 1e-4                # central differences of psi and the rectified field
DRIFT_FD_STEP = 1e-3          # central differences of the flattening drift probe
AUTONOMOUS_SPAN = 40.0        # time span of the autonomous restriction's model


def _certify(model, z):
    """Check that every row of z (2-D, rotated coordinates) lies where psi is
    certified, `ManifoldModel.certified`: the one region, for a zero psi as
    for a solved one, that the repulsion sweep and the drift campaign censor
    by."""
    if not np.all(model.certified(z)):
        raise OutOfBallError("point outside the region where the manifold map is certified")


def rectify_phi(model, z, t):
    """Flattening map in rotated coordinates, one point per row of z:
    (z_u - psi(t, z_s); z_s), for points where psi is certified (`_certify`)."""
    out = np.array(z, dtype=float)
    _certify(model, out)
    out[:, : model.context.n_u] -= model.psi(t, out[:, model.context.n_u:])
    return out


def eta(model, x, t):
    """Distance-to-manifold functional in original coordinates, one point per
    row of x.

    eta(x, t) = || unstable components of Phi(U(t)(x - g(gamma_t)), t) ||.

    Test-only: the paper's distance functional, checked on and off the manifold.
    """
    z = model.coordinate_change(x, t)
    _certify(model, z)
    return model.distance(z, t)


@dataclass(frozen=True)
class RepulsionReport:
    """Fit of eta_after >= (1 + c2 eps) eta_before - c3 eps^2 over the sweep."""

    c2_hat: float
    c3_hat: float
    violations: np.ndarray
    n_pairs: int
    n_censored: int

    @property
    def fit_valid(self):
        return bool(self.c2_hat > 0 and np.isfinite(self.c3_hat)
                    and len(self.violations) == 0)


def repulsion_check(model, sample_ball, epsilon_grid, t_grid, n_samples=500, seed=0):
    """Sweep one Euler step of the flow and fit the repulsion constants.

    For every sampled point, time, and step size, compares eta after the step
    x + eps J(x, t) (evaluated at time t + eps) against eta before. c2_hat is
    the worst relative growth rate on points meaningfully off the manifold;
    c3_hat is the smallest curvature allowance making the inequality hold on
    every pair. Points outside the model's certified region are censored and
    counted; when every point is censored, both constants are NaN and the
    fit is not valid.
    """
    ctx = model.context
    rng = np.random.default_rng(seed)
    before_all, after_all, eps_all = [], [], []
    censored = 0
    for t in np.asarray(t_grid, dtype=float):
        with allocation(f"{n_samples} samples at each time"):
            offsets = rng.standard_normal((n_samples, ctx.dim))
        offsets *= (sample_ball * rng.random(n_samples) ** (1.0 / ctx.dim)
                    / np.linalg.norm(offsets, axis=1))[:, None]
        xs = ctx.saddle + offsets
        z_before = model.coordinate_change(xs, t)
        ok_before = model.certified(z_before)
        censored += int(np.sum(~ok_before))
        eta_before = model.distance(z_before[ok_before], t)
        x_ok = xs[ok_before]
        for eps in np.asarray(epsilon_grid, dtype=float):
            stepped = x_ok + eps * model.drive_field(x_ok, t)
            z_after = model.coordinate_change(stepped, t + eps)
            ok = model.certified(z_after)
            censored += int(np.sum(~ok))
            before_all.append(eta_before[ok])
            after_all.append(model.distance(z_after[ok], t + eps))
            eps_all.append(np.full(int(np.sum(ok)), eps))

    before = np.concatenate(before_all)
    after = np.concatenate(after_all)
    eps = np.concatenate(eps_all)
    n_pairs = len(before)
    if not n_pairs:
        # every point was censored: nothing to fit, and the check fails
        return RepulsionReport(np.nan, np.nan, np.array([], dtype=int), 0, censored)

    floor = max(1e-9, float(np.quantile(before, RATE_FLOOR_QUANTILE)))
    mask = before > floor
    rates = (after[mask] - before[mask]) / (eps[mask] * before[mask])
    c2_hat = float(np.min(rates)) if np.any(mask) else np.nan
    c2_pos = max(c2_hat, 0.0)
    slack = (1.0 + c2_pos * eps) * before - after
    c3_hat = max(0.0, float(np.max(slack / eps ** 2)))
    bad = after < (1.0 + c2_pos * eps) * before - c3_hat * eps ** 2 - 1e-12
    if c2_hat <= 0:
        bad[np.flatnonzero(mask)[rates <= 0]] = True
    return RepulsionReport(c2_hat, c3_hat, np.flatnonzero(bad), n_pairs, censored)


def moving_frame_field(model, z, t):
    """The flow field in the rotated/recentered coordinates,
    H(z, t) = U J(U^T z + g, t) + Udot U^T z - U g' gammadot, one point per
    row of z."""
    lam, modes, mode_rate, forcing, g_t = model.local_linearization(t)
    z = np.asarray(z, dtype=float)
    w = z @ modes + g_t
    return model.drive_field(w, t) @ modes.T + z @ mode_rate.T - forcing


def _psi_time_slope(model, t, z_s, h):
    """Central difference with step h of psi in time at the rows of z_s,
    (rows, n_u)."""
    return (model.psi(t + h, z_s) - model.psi(t - h, z_s)) / (2.0 * h)


def rectified_field(model, w, t):
    """Vector field governing Phi-coordinates: D_x Phi H + D_t Phi at Phi^-1(w),
    one point per row of w, for w where psi is certified (`_certify`).

    Phi keeps the stable block, so Phi^-1(w) = (w_u + psi(t, w_s); w_s).
    Derivatives of psi are central differences with step FD_STEP; psi at t
    is one solve, on w_s and its stencil, and psi at t +- FD_STEP one each.
    """
    n_u = model.context.n_u
    x = np.array(w, dtype=float)
    _certify(model, x)
    z_s = x[:, n_u:]
    rows, n_s = z_s.shape
    # w_s, then w_s + h e_j and w_s - h e_j for each stable direction j
    stencil = [z_s + sign * e for e in FD_STEP * np.eye(n_s) for sign in (1.0, -1.0)]
    psis = model.psi(t, np.concatenate([z_s] + stencil, axis=0))
    x[:, :n_u] += psis[:rows]
    h_val = moving_frame_field(model, x, t)
    pairs = psis[rows:].reshape(n_s, 2, rows, -1)
    # the stable-block slope, (rows, n_u, n_s)
    dpsi = np.moveaxis((pairs[:, 0] - pairs[:, 1]) / (2.0 * FD_STEP), 0, -1).copy()
    out = h_val.copy()
    out[:, :n_u] -= (np.einsum("bus,bs->bu", dpsi, h_val[:, n_u:])
                     + _psi_time_slope(model, t, z_s, FD_STEP))
    return out


@dataclass(frozen=True)
class SpectrumReport:
    times: np.ndarray
    eigenvalues: np.ndarray      # (n_t, M), sorted descending by real part
    n_positive: np.ndarray
    min_positive_tail: float
    max_imag: float


def rectified_field_spectrum(model, t_grid):
    """Finite-difference Jacobian spectrum of the rectified field at the origin.

    For large t the Jacobian has exactly n_u positive eigenvalues, the rest
    negative, with the smallest positive eigenvalue bounded away from zero
    over the tail of the grid.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    m = model.context.dim
    eigs = np.empty((len(t_grid), m))
    n_pos = np.empty(len(t_grid), dtype=int)
    max_imag = 0.0
    basis = FD_STEP * np.eye(m)
    for i, t in enumerate(t_grid):
        field = rectified_field(model, np.concatenate([basis, -basis]), t)
        w_t = (field[:m] - field[m:]).T / (2.0 * FD_STEP)
        vals = np.linalg.eigvals(w_t)
        max_imag = max(max_imag, float(np.max(np.abs(vals.imag))))
        re = np.sort(vals.real)[::-1]
        eigs[i] = re
        n_pos[i] = int(np.sum(re > 0))
    tail = eigs[len(t_grid) // 2:]
    pos_tail = tail[tail > 0]
    min_pos = float(np.min(pos_tail)) if len(pos_tail) else 0.0
    return SpectrumReport(t_grid, eigs, n_pos, min_pos, max_imag)


def autonomous_restriction(context, picard):
    """Classical (constant-coefficient) manifold model of the flow restricted
    to the constraint space; its graph map is the limit object the
    time-varying flattening converges to."""
    basis = context.q.rotation.constraint_basis
    saddle_c = np.asarray(context.saddle, dtype=float) @ basis
    loss = context.loss

    def value(y):
        return loss.value(np.asarray(y, dtype=float) @ basis.T)

    def subgradient(y):
        return loss.subgradient(np.asarray(y, dtype=float) @ basis.T) @ basis

    def hessian(y):
        return basis.T @ loss.hessian(np.asarray(y, dtype=float) @ basis.T) @ basis

    restricted = LossOracle(basis.shape[1], value, subgradient, hessian)
    q_zero = penalty_from_matrix(np.zeros((basis.shape[1], basis.shape[1])))
    ctx_c = saddle_context(restricted, q_zero, ConstantGamma(0.0), saddle_c)
    return ManifoldModel(ctx_c, 0.0, AUTONOMOUS_SPAN, picard)


def compare_flattening_limit(model, auto_model, t0_grid, n_samples=32, seed=0,
                             sample_ball=0.05):
    """Gap between constraint components of the time-varying flattening and the
    autonomous one, on shared samples, one per t0; shrinks as t0 grows."""
    ctx = model.context
    d = ctx.q.rotation.constraint_dim
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n_samples, ctx.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = sample_ball * rng.random(n_samples) ** (1.0 / ctx.dim)
    xs = ctx.saddle + dirs * radii[:, None]
    # the autonomous flattening does not depend on t0
    z_c = auto_model.coordinate_change(xs @ ctx.q.rotation.constraint_basis, 0.0)
    phi_star = rectify_phi(auto_model, z_c, 0.0)
    gaps = []
    for t0 in np.asarray(t0_grid, dtype=float):
        phi_full = rectify_phi(model, model.coordinate_change(xs, t0), t0)[:, :d]
        gaps.append(float(np.max(np.linalg.norm(phi_full - phi_star, axis=1))))
    return np.array(gaps)


def dt_phi_decay_probe(model, t_grid):
    """||D_t Phi(0, t)|| = ||d/dt psi(t, 0)|| at each time of t_grid, by
    central differences with step DRIFT_FD_STEP; this drift term decays as
    the penalty grows."""
    zero_s = np.zeros((1, model.context.n_s))
    return np.array([np.linalg.norm(_psi_time_slope(model, t, zero_s, DRIFT_FD_STEP))
                     for t in t_grid])
