"""Exception types shared across the package."""


class ChainBalanceError(Exception):
    """Base class for all chainbalance errors."""


class AllocationMismatch(ChainBalanceError):
    """Bucket allocation counts do not sum to the vector length."""


class EmptyWindow(ChainBalanceError):
    """Traffic window carries zero total bytes."""


class ZeroProbability(ChainBalanceError):
    """A live chain has probability zero, so the rebalance algebra is undefined."""


class DuplicateChain(ChainBalanceError):
    """Chain already present in the profile."""


class UnknownChain(ChainBalanceError):
    """Chain not present where one was expected."""


class LastChain(ChainBalanceError):
    """Operation would leave the balancer without any chain."""


class NoLiveChains(ChainBalanceError):
    """Balancer has no bucket vector to map against."""


class SlaveUnreachable(ChainBalanceError):
    """Control channel to the slave balancer is not available."""


class DuplicateTags(ChainBalanceError):
    """A tag of the new chain is already in use."""


class ScenarioError(ChainBalanceError):
    """Scenario file is syntactically or semantically invalid."""

    def __init__(self, message, location=None):
        super().__init__(message if location is None else f"{location}: {message}")
        self.location = location


class ParseError(ScenarioError):
    """Scenario file could not be parsed at all."""


class ValidationError(ScenarioError):
    """Scenario parsed but violates a constraint."""


class NeverConverged(ChainBalanceError):
    """Traffic shares did not settle into the requested band within the horizon."""
