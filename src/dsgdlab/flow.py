"""Continuous-time penalized gradient flow and its time changes.

Integrates xdot = -grad h(x) - gamma_t Q x with a fixed-step classical
Runge-Kutta scheme (reproducible, O(step^4) on smooth problems), provides the
clock transformations between the step-size/consensus-weight parameterization
and the growing-penalty form, and compares discrete trajectories against the
flow on the elapsed-time clock.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .errors import ClockMismatchError, FlowDivergedError, QuadratureError


@dataclass(frozen=True)
class OdeSolution:
    times: np.ndarray
    states: np.ndarray
    step: float

    def at(self, t):
        """Linear interpolation of the solution at times t (within the grid)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if t.min() < self.times[0] - 1e-12 or t.max() > self.times[-1] + 1e-12:
            raise ClockMismatchError(
                f"requested times [{t.min():g}, {t.max():g}] outside the solution span "
                f"[{self.times[0]:g}, {self.times[-1]:g}]")
        cols = [np.interp(t, self.times, self.states[:, i])
                for i in range(self.states.shape[1])]
        return np.stack(cols, axis=-1)


def integrate_dgf(loss, q, gamma, x0, t0, t1, step=1e-3):
    """Fixed-step RK4 integration of the penalized descent flow."""
    if step <= 0:
        raise ValueError("step must be positive")
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    qm = q.matrix

    def rhs(x, t):
        return -loss.subgradient(x) - gamma(t) * (qm @ x)

    x = np.asarray(x0, dtype=float).copy()
    times = [t0]
    states = [x.copy()]
    t = t0
    while t < t1 - 1e-12:
        h = min(step, t1 - t)
        k1 = rhs(x, t)
        k2 = rhs(x + 0.5 * h * k1, t + 0.5 * h)
        k3 = rhs(x + 0.5 * h * k2, t + 0.5 * h)
        k4 = rhs(x + h * k3, t + h)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t + h
        if not np.all(np.isfinite(x)):
            raise FlowDivergedError(t)
        times.append(t)
        states.append(x.copy())
    return OdeSolution(np.array(times), np.array(states), step)


def _vectorize_scalar(fn):
    def wrapped(ts):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        return np.array([float(fn(float(t))) for t in ts])
    return wrapped


SIMPSON_TOL = 1e-10
SIMPSON_MAX_DOUBLINGS = 24


def _simpson(fn, a, b):
    """Composite Simpson on a uniform grid, refined until the change < SIMPSON_TOL."""
    if b <= a:
        return 0.0
    n = 8
    prev = None
    for _ in range(SIMPSON_MAX_DOUBLINGS):
        ts = np.linspace(a, b, n + 1)
        vals = fn(ts)
        h = (b - a) / n
        est = h / 3.0 * (vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum()
                         + 2.0 * vals[2:-1:2].sum())
        if prev is not None and abs(est - prev) < SIMPSON_TOL * max(1.0, abs(est)):
            return est
        prev = est
        n *= 2
    raise QuadratureError(f"Simpson refinement did not converge on [{a:g}, {b:g}]")


@dataclass(frozen=True)
class TimeChange:
    """Clock transformation tau = S(t) = int_0^t alpha, with the transformed
    penalty weight gamma_tau = beta(T(tau)) / alpha(T(tau))."""

    t_grid: np.ndarray
    tau_grid: np.ndarray
    gamma_tau: np.ndarray
    _alpha: object

    def invert(self, tau):
        """T(tau): solve S(t) = tau to root-finder accuracy."""
        if tau < -1e-15 or tau > self.tau_grid[-1] + 1e-12:
            raise ClockMismatchError("tau outside the transformed span")
        if tau <= 0.0:
            return 0.0
        alpha_vec = _vectorize_scalar(self._alpha)

        def s_minus(t):
            return _simpson(alpha_vec, 0.0, t) - tau

        hi = float(self.t_grid[-1])
        return float(optimize.brentq(s_minus, 0.0, hi, xtol=1e-12, rtol=1e-14))


def time_change_to_gamma_form(alpha, beta, t_grid):
    """Transform the (alpha_t, beta_t) clock into the growing-penalty clock.

    alpha must be positive on the grid; S is computed by refined composite
    Simpson and is strictly increasing, so the inverse is well defined.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(t_grid) <= 0) or t_grid[0] < 0:
        raise ValueError("t_grid must be increasing and nonnegative")
    alpha_vals = np.array([float(alpha(float(t))) for t in t_grid])
    if np.any(alpha_vals <= 0):
        raise ValueError("alpha must be positive")
    alpha_vec = _vectorize_scalar(alpha)
    taus = np.empty_like(t_grid)
    acc = 0.0
    prev_t = 0.0
    for i, t in enumerate(t_grid):
        acc += _simpson(alpha_vec, prev_t, float(t))
        taus[i] = acc
        prev_t = float(t)
    if np.any(np.diff(taus) <= 0):
        raise ClockMismatchError("computed clock is not strictly increasing")
    gam = np.array([float(beta(float(t))) / float(alpha(float(t))) for t in t_grid])
    return TimeChange(t_grid, taus, gam, alpha)


def discrete_vs_continuous_gap(traj, solution):
    """Per-checkpoint distance between a noise-free run and the flow on the
    elapsed-time clock."""
    if traj.noise_kind != "none":
        raise ValueError("the gap comparison needs a noise-free trajectory")
    interp = solution.at(traj.zeta)
    return np.linalg.norm(traj.states - interp, axis=1)


@dataclass(frozen=True)
class ConsensusProbe:
    t_bar_hat: float
    per_run_entry_times: np.ndarray


def uniform_consensus_probe(loss, q, gamma, rotation, initial_conditions,
                            start_times, epsilon, t_max, step=1e-3):
    """Empirical uniform entry time into the epsilon-tube around the constraint
    space over sampled initial conditions and start times."""
    entries = []
    for x0 in initial_conditions:
        for t0 in start_times:
            sol = integrate_dgf(loss, q, gamma, x0, float(t0), t_max, step)
            dists = rotation.off_constraint_norm(sol.states)
            inside = dists <= epsilon
            # last exit from the tube, then entry-for-good
            outside_idx = np.flatnonzero(~inside)
            if len(outside_idx) == 0:
                entries.append(sol.times[0])
            elif outside_idx[-1] == len(inside) - 1:
                entries.append(np.inf)
            else:
                entries.append(sol.times[outside_idx[-1] + 1])
    entries = np.array(entries)
    return ConsensusProbe(float(np.max(entries)), entries)
