"""Exception types shared across the library."""


class MacruiError(Exception):
    """Base class for all library errors."""


class ScalarDivisionError(MacruiError):
    """Division by the zero scalar."""


class SpecialParameterError(MacruiError):
    """Numeric substitution hit a vanishing denominator.

    The substituted (q, t) values are special for the quantity being
    evaluated; the symbolic value exists but has a pole there.
    """


class SpaceMismatchError(MacruiError):
    """Two polynomials from different variable spaces were combined."""


class NonDivisibleError(MacruiError):
    """Exact polynomial division left a nonzero remainder.

    Carries the remainder as a witness.  When raised by an operator
    application it signals that the input was outside the operator's
    domain (for example not symmetric, or not in the deformed algebra).
    """

    def __init__(self, message, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class NotSymmetricError(MacruiError):
    """An operation requiring (block-)symmetric input got something else."""


class InvalidPartitionError(MacruiError):
    """A sequence that is not weakly decreasing positive integers."""


class SingularSystemError(MacruiError):
    """A linear solve had no unique solution (variable count too small)."""


class MalformedInputError(MacruiError):
    """Input at the JSON or command-line boundary does not match its schema."""


class BudgetExceededError(BaseException):
    """A command-line request ran past its time budget, or its output past
    its size budget.

    The CLI's alarm raises it at any point of the work, so like
    KeyboardInterrupt it is not an Exception: no ``except Exception`` in the
    library swallows it.
    """
