"""Exception types shared across the package."""


class InjectiveFlowError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(InjectiveFlowError, ValueError):
    """An operation received arguments violating its preconditions."""


class InvalidLayerError(InjectiveFlowError, ValueError):
    """A layer was constructed with parameters that break its invariants."""


class InvalidConfigError(InjectiveFlowError, ValueError):
    """A training or experiment configuration is inconsistent."""


class UnsupportedLayerError(InjectiveFlowError, TypeError):
    """An operation does not support this layer kind."""


class BudgetExceededError(InjectiveFlowError, ValueError):
    """An exact solver was asked for a problem beyond its size budget."""


class NumericError(InjectiveFlowError, ArithmeticError):
    """A numeric failure (non-finite values), attributed to a pipeline stage
    and, for batched work, to the first offending row."""

    def __init__(self, message: str, stage_index: int | None = None,
                 row: int | None = None):
        super().__init__(message)
        self.stage_index = stage_index
        self.row = row
