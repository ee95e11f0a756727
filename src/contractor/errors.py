"""Exception types shared across the pipeline."""

from __future__ import annotations


class ContractorError(Exception):
    """Base class for everything this package raises on purpose."""


class SourceParseError(ContractorError):
    """Program text could not be turned into a model."""


class NoMainError(SourceParseError):
    pass


class UnbalancedSourceError(SourceParseError):
    pass


class NoPropertyError(SourceParseError):
    """main() contains no system assertion."""


class MultiplePropertiesError(SourceParseError):
    """main() contains more than one system assertion."""


class UnknownFunctionError(ContractorError):
    pass


class LoopOrdinalError(ContractorError):
    """Loop invariant targets a loop that does not exist or cannot take one."""


class BackendNotFoundError(ContractorError):
    pass


class ClientUnavailableError(ContractorError):
    """LLM client cannot answer: endpoint down, or replay store has no transcript."""


class IrreducibleFailureError(ContractorError):
    """Clause reduction bottomed out: the check fails even with no ensures left."""


class EmptySuiteError(ContractorError):
    pass


class DeadlineExceededError(ContractorError):
    """Per-program wall-clock budget ran out before a verdict."""
