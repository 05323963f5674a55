"""Exception hierarchy shared across the package.

Everything derives from :class:`LVError` so callers (notably the CLI) can
separate domain failures from ordinary usage or parse errors.
"""


class LVError(Exception):
    """Base class for domain-level failures."""


class SingularLinesError(LVError):
    """The two zero-growth lines are parallel; no coexistence intersection."""


class RegimeError(LVError):
    """Operation requires strong or weak competition and got neither."""


class DomainError(LVError):
    """Numeric input outside the operation's domain."""


class NonPositiveCoefficientError(LVError):
    """An induced competition coefficient came out nonpositive."""

    def __init__(self, entries: dict[str, object]):
        self.entries = dict(entries)
        bad = ", ".join(f"{k}={v}" for k, v in self.entries.items())
        super().__init__(f"nonpositive induced coefficient(s): {bad}")


class ConsistencyError(LVError):
    """An identity the construction guarantees failed at runtime."""


class InfeasibleError(LVError):
    """No exact wave exists for the requested parameter combination."""


class BlowupDetectedError(LVError):
    """Trajectory left the admissible range during time integration."""


class CFLViolationError(LVError):
    """Explicit time step exceeds the scheme's stability bound on diffusion plus
    reaction."""


class NegativeDensityError(LVError):
    """The scheme produced a negative density sample."""


class LevelNotCrossedError(LVError):
    """A snapshot does not cross the requested level exactly once."""


class NotOrderedError(LVError):
    """Sub/supersolution ordering violated (input or during iteration)."""


class MaxIterExceededError(LVError):
    """Monotone iteration failed to reach the residual tolerance."""
