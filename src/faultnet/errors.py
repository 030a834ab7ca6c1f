"""Exception hierarchy shared by all faultnet modules."""


class FaultnetError(Exception):
    """Base class for all library errors."""


class SourceEqualsSink(FaultnetError):
    pass


class InfeasibleDemand(FaultnetError):
    """Requested flow value exceeds the max flow of the network."""


class NonIntegralFlow(FaultnetError):
    pass


class BudgetError(FaultnetError):
    """A search or sweep would exceed its configured budget."""


class EnumerationTooLarge(BudgetError):
    """An exhaustive sweep would exceed the configured budget."""


class BaseNotFeasible(FaultnetError):
    """The partial solution handed to an augmentation step fails its
    prerequisite feasibility level."""


class PriorLevelNotSatisfied(FaultnetError):
    pass


class Uncoverable(FaultnetError):
    """Some violated cut has no candidate edge crossing it."""


class NotRingFamily(FaultnetError):
    """Closure or unique-minimal-member verification failed."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class UnsupportedParameters(FaultnetError):
    pass


class InfeasibleInstance(FaultnetError):
    """The input graph itself cannot satisfy the requirements."""


class StageCoverFailed(FaultnetError):
    pass


class ParameterConditionViolated(FaultnetError):
    """The single-pair algorithm's parameter hypothesis fails."""


class Disconnected(FaultnetError):
    pass


class Unhittable(FaultnetError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InfeasibleAugmentation(FaultnetError):
    pass


class LpInfeasible(FaultnetError):
    pass


class LpUnbounded(FaultnetError):
    pass


class BudgetExceeded(BudgetError):
    pass


class CannotSatisfyFeasibility(FaultnetError):
    pass


class ParseError(FaultnetError):
    pass


class PathError(FaultnetError):
    """A named input or output path could not be opened: it is missing, a
    directory, or otherwise refused by the operating system."""

    def __init__(self, path, cause: OSError):
        super().__init__(f"{path}: {cause.strerror or cause}")
        self.missing = isinstance(cause, FileNotFoundError)
