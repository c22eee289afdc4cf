"""Exception types shared across the package."""


class EhrhartError(Exception):
    """Base class for all library errors."""


class InvalidInput(EhrhartError, ValueError):
    """Input data, such as a JSON file, a family parameter or the parts of
    a union, is missing a field or has the wrong shape, type or range.
    It is also a ``ValueError``, which these checks raised before."""


class DimensionMismatch(EhrhartError):
    """Operands live in different ambient dimensions."""


class Infeasible(EhrhartError):
    """An affine subspace is empty over the rationals."""


class BudgetExceeded(EhrhartError):
    """A counting walk (under the caller's budget or the default), a hull or
    a face lattice (under ``DEFAULT_BUDGET``) would overdraw its budget."""


class VerificationFailed(EhrhartError):
    """A fitted quasi-polynomial disagrees with a fresh sample."""


class SizeMismatch(EhrhartError):
    """A power-sum solution has the wrong number of entries."""


class UnverifiedSolution(EhrhartError):
    """A power-sum solution failed verification."""


class NotAvailable(EhrhartError):
    """No shipped power-sum solution of the requested size exists."""
