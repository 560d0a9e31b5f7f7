"""Exception types shared across the package, and the finiteness check of
the constructors."""

import math


class PedflowError(Exception):
    """Base class for all package-specific errors.

    The driver, solver.run, sets step and t on an error raised while
    stepping, one lane or several: the step that failed, 0 for the check
    of the initial state, and the time t0 + step * dt that step was to
    reach.
    """

    step: int | None = None
    t: float | None = None


class DomainError(PedflowError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


def require_finite(**values):
    """Raise DomainError for the first of values that is NaN or infinite:
    such a parameter passes every < and <= check of a constructor."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")


class CongestionOverflowError(DomainError):
    """A density reached or exceeded the jam density: the state left the
    admissible region of the model (not a numerical round-off issue)."""


class VacuumError(DomainError):
    """Zero density paired with non-zero momentum: primitive variables
    cannot be recovered."""


class StabilityError(PedflowError):
    """The combined advective + diffusive stability number exceeded the
    configured guard."""

    def __init__(self, measured: float, guard: float):
        self.measured = measured
        self.guard = guard
        super().__init__(
            f"stability number {measured:.6g} exceeds guard {guard:.6g}"
        )


class BlowUpError(PedflowError):
    """A state entry became non-finite during time stepping."""


class ClipBudgetError(PedflowError):
    """Cumulative mass removed by negative-density clipping exceeded the
    accepted round-off budget."""


class SourceStiffnessError(PedflowError):
    """Lane-change source terms are too stiff for the explicit update."""


class ConfigError(PedflowError):
    """A scenario configuration file is missing or inconsistent."""
