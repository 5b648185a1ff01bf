"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the domain an operation is defined on."""


class ContractError(ValueError):
    """A caller-supplied object is missing a capability the operation needs."""


class NumericError(ArithmeticError):
    """A computation produced non-finite or otherwise unusable values."""


class ConvergenceError(RuntimeError):
    """An iteration hit its guard limit without reaching a fixed point."""


class InputError(ValueError):
    """A precondition on the inputs of a high-level routine is violated."""
