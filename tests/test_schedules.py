import numpy as np
import pytest

from dsgdlab.errors import ScheduleError
from dsgdlab.schedules import (
    ConstantGamma,
    Schedule,
    elapsed_times,
    interpolate_gamma,
    validate,
)


def test_validate_ok():
    schedule = Schedule(1.0, 1.0, 1.0, 0.6)
    assert validate(schedule) is None


def test_validate_tau_gamma_too_small():
    with pytest.raises(ScheduleError, match="tau_gamma"):
        validate(Schedule(1.0, 0.4, 1.0, 0.3))


def test_validate_tau_gamma_not_below_tau_alpha():
    with pytest.raises(ScheduleError, match="tau_gamma < tau_alpha"):
        validate(Schedule(1.0, 1.0, 1.0, 1.0))


def test_validate_refuses_a_flat_gamma():
    with pytest.raises(ScheduleError, match="tau_gamma"):
        validate(Schedule(1.0, 1.0, 1.0, 0.0))


def test_validate_tau_alpha_above_one():
    with pytest.raises(ScheduleError, match="tau_alpha <= 1"):
        validate(Schedule(1.0, 1.2, 1.0, 0.9))


def test_alpha_square_summable_partial_sums_stabilize():
    s = Schedule(1.0, 1.0, 1.0, 0.6)
    ks = np.arange(1, 1_000_001, dtype=float)
    partial = np.cumsum(s.alpha(ks) ** 2)
    assert partial[-1] - partial[len(partial) // 2] < 1e-6 * partial[-1] + 2e-6
    # and the plain sum diverges: doubling the horizon keeps adding mass
    zeta = np.cumsum(s.alpha(ks))
    assert zeta[-1] - zeta[len(zeta) // 2] > 0.5


def test_elapsed_clock_increments_are_the_step_sizes():
    s = Schedule(0.7, 0.9, 1.0, 0.6)
    zs = elapsed_times(s, 50)
    # each recorded increment is alpha_{k}, up to summation round-off
    assert np.allclose(np.diff(zs), s.alpha(np.arange(1, 51)), rtol=0, atol=1e-13)
    assert np.all(np.diff(zs) > 0)


def test_interpolation_matches_at_integers():
    s = Schedule(1.0, 1.0, 2.0, 0.6)
    gamma = interpolate_gamma(s)
    assert gamma(1.0) == pytest.approx(float(s.gamma(1)))
    assert gamma(1024.0) == pytest.approx(float(s.gamma(1024)))
    ks = np.arange(1, 200)
    assert np.allclose(gamma(ks.astype(float)), s.gamma(ks))


def test_interpolation_derivative_matches_fd():
    gamma = interpolate_gamma(Schedule(1.0, 1.0, 1.0, 0.6))
    t = 4.0
    fd = (gamma(t + 1e-6) - gamma(t - 1e-6)) / 2e-6
    assert gamma.derivative(t) == pytest.approx(0.6 * 4.0 ** (-0.4), abs=1e-8)
    assert gamma.derivative(t) == pytest.approx(fd, abs=1e-8)


def test_constant_gamma_helper():
    g = ConstantGamma(2.0)
    assert g(3.0) == pytest.approx(2.0)
    assert g.derivative(3.0) == pytest.approx(0.0)
