"""Exception types shared across the library."""


class LqgcapError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(LqgcapError):
    """Matrix dimensions are mutually inconsistent."""


class NotPositiveDefinite(LqgcapError):
    """A matrix required to be (strictly) positive definite is not."""


class RegularityViolation(LqgcapError):
    """A named regularity condition (PBH-type) fails."""

    def __init__(self, condition: str, detail: str = ""):
        self.condition = condition
        msg = condition if not detail else f"{condition}: {detail}"
        super().__init__(msg)


class MaxIterations(LqgcapError):
    """An iteration budget was exhausted before convergence."""


class DetectabilityFailure(LqgcapError):
    """The policy-induced pair is not detectable and the recursion failed."""


class NonConvergence(LqgcapError):
    """A fixed-point recursion stalled or diverged; the message says where."""


class Infeasible(LqgcapError):
    """The control budget is below the minimal achievable cost."""


class SolverNonConvergence(LqgcapError):
    """The barrier solver exhausted its iteration or line-search budget."""


class AssumptionViolated(LqgcapError):
    """A scalar-capacity assumption guard failed."""

    def __init__(self, guard: str, detail: str = ""):
        self.guard = guard
        msg = guard if not detail else f"{guard}: {detail}"
        super().__init__(msg)


class NumericalOverflow(LqgcapError):
    """A simulated trajectory diverged (destabilizing policy)."""


class ConfigError(LqgcapError):
    """A run configuration failed to parse or validate."""

    def __init__(self, field: str, detail: str = ""):
        self.field = field
        super().__init__(f"{field}: {detail}" if detail else field)
