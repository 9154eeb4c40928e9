"""Exception types shared across the library."""

from contextlib import contextmanager


@contextmanager
def allocation(what):
    """Around the one call that sizes an array: numpy's refusal of a size it
    cannot index (its ValueError) or len() cannot count (OverflowError) is
    the MemoryError of any allocation too large to grant."""
    try:
        yield
    except (ValueError, OverflowError) as exc:
        raise MemoryError(f"cannot allocate {what}") from exc


class DsgdLabError(Exception):
    """Base class for all library errors."""


class DegenerateSpectrumError(DsgdLabError):
    """Eigenvalues near zero cannot be confidently classified as zero or nonzero."""


class ScheduleError(DsgdLabError):
    """A step/penalty weight schedule violates its exponent constraints."""


class DivergedError(DsgdLabError):
    """A discrete recursion produced a non-finite or runaway state."""

    def __init__(self, step, message=None):
        self.step = step
        super().__init__(message or f"state diverged at step {step}")


class FlowDivergedError(DsgdLabError):
    """An ODE integration produced a non-finite state."""

    def __init__(self, time, message=None):
        self.time = time
        super().__init__(message or f"ODE state became non-finite at t={time:g}")


class ClockMismatchError(DsgdLabError):
    """Discrete and continuous trajectories cannot be aligned in time."""


class NewtonError(DsgdLabError):
    """Newton iteration failed to converge."""


class DegenerateJacobianError(DsgdLabError):
    """Newton Jacobian is numerically singular."""


class RegularityError(DsgdLabError):
    """A critical point fails the invertible-restricted-Hessian requirement."""


class PartitionError(DsgdLabError):
    """A linearization eigenvalue sits too close to zero to assign a sign."""


class EigvecContinuityError(DsgdLabError):
    """Eigenvector tracking between adjacent grid times is ambiguous."""


class ContractionError(DsgdLabError):
    """Fixed-point iterates fail to contract (initial offset too large)."""


class HorizonError(DsgdLabError):
    """Truncating the infinite integral tail leaves too large an error."""


class OutOfBallError(DsgdLabError):
    """A point lies outside the manifold model's validity ball."""


class ConfigError(DsgdLabError):
    """An experiment configuration is malformed or inconsistent."""
