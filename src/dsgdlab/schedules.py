"""Power-law step-size and penalty-weight schedules.

alpha_k = a * k**(-tau_alpha) shrinks, gamma_k = g * k**tau_gamma grows, with
1/2 < tau_gamma < tau_alpha <= 1, so the effective consensus weight
beta_k = alpha_k * gamma_k decays at rate tau_beta = tau_alpha - tau_gamma in
(0, 1/2). Iteration counting starts at k = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ScheduleError, allocation


@dataclass(frozen=True)
class Schedule:
    alpha_scale: float
    tau_alpha: float
    gamma_scale: float
    tau_gamma: float

    def alpha(self, k):
        return self.alpha_scale * np.asarray(k, dtype=float) ** (-self.tau_alpha)

    def gamma(self, k):
        return self.gamma_scale * np.asarray(k, dtype=float) ** self.tau_gamma

    def beta(self, k):
        return self.alpha(k) * self.gamma(k)

    @property
    def tau_beta(self):
        return self.tau_alpha - self.tau_gamma


def validate(schedule):
    """Check the exponent chain 1/2 < tau_gamma < tau_alpha <= 1, which makes
    the consensus-weight decay exponent `Schedule.tau_beta` positive; raises
    ScheduleError naming the violated inequality.
    """
    if schedule.alpha_scale <= 0:
        raise ScheduleError("alpha_scale must be positive")
    if schedule.gamma_scale <= 0:
        raise ScheduleError("gamma_scale must be positive")
    if not schedule.tau_gamma > 0.5:
        raise ScheduleError(
            f"tau_gamma = {schedule.tau_gamma:g} violates 1/2 < tau_gamma")
    if not schedule.tau_gamma < schedule.tau_alpha:
        raise ScheduleError(
            f"tau_gamma < tau_alpha violated ({schedule.tau_gamma:g} vs {schedule.tau_alpha:g})")
    if not schedule.tau_alpha <= 1.0:
        raise ScheduleError(f"tau_alpha = {schedule.tau_alpha:g} violates tau_alpha <= 1")
    tau_beta = schedule.tau_beta
    if not tau_beta > 0:
        raise ScheduleError(f"implied tau_beta = {tau_beta:g} is not positive")


def elapsed_times(schedule, k_max):
    """zeta_k = sum_{j<=k} alpha_j for k = 0..k_max (zeta_0 = 0)."""
    with allocation(f"{k_max} elapsed times"):
        ks = np.arange(1, k_max + 1, dtype=float)
    return np.concatenate([[0.0], np.cumsum(schedule.alpha(ks))])


@dataclass(frozen=True)
class PowerLawGamma:
    """Smooth interpolation gamma_t = g * t**r, agreeing with gamma_k at integers."""

    scale: float
    exponent: float

    def __call__(self, t):
        return self.scale * np.asarray(t, dtype=float) ** self.exponent

    def derivative(self, t):
        return self.scale * self.exponent * np.asarray(t, dtype=float) ** (self.exponent - 1.0)


@dataclass(frozen=True)
class ConstantGamma:
    level: float

    def __call__(self, t):
        return self.level * np.ones_like(np.asarray(t, dtype=float))

    def derivative(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))


def interpolate_gamma(schedule):
    """C2 interpolation of the penalty weights for t >= 1."""
    validate(schedule)
    return PowerLawGamma(schedule.gamma_scale, schedule.tau_gamma)
