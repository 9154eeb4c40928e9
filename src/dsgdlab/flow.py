"""Continuous-time penalized gradient flow.

Integrates xdot = -grad h(x) - gamma_t Q x with a fixed-step classical
Runge-Kutta scheme (reproducible, O(step^4) on smooth problems) and compares
discrete trajectories against the flow on the elapsed-time clock.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ClockMismatchError, FlowDivergedError


@dataclass(frozen=True)
class OdeSolution:
    """States of the flow on a time grid.

    Test-only: the flow solution that acceptance test_10 compares runs against.
    """

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
    """Fixed-step RK4 integration of the penalized descent flow.

    Test-only: acceptance test_10 integrates the flow that runs track.
    """
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


def discrete_vs_continuous_gap(zeta, states, solution):
    """Per-checkpoint distance between one row of a run, its checkpoint
    states (a `BatchRun`'s `states[r]`) at elapsed times zeta (from step 1,
    `elapsed_times(schedule, steps)[batch.steps]`), and the flow on the
    elapsed-time clock. The states must come from a noise-free run: the flow
    is the noise-free limit.

    Test-only: acceptance test_10 measures the discrete-continuous gap.
    """
    return np.linalg.norm(states - solution.at(zeta), axis=1)
