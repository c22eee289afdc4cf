"""Exception types shared across the package."""


class EhrhartError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(EhrhartError):
    """Operands live in different ambient dimensions."""


class NoSolution(EhrhartError):
    """A rational linear system is inconsistent."""


class Infeasible(EhrhartError):
    """An affine subspace is empty over the rationals."""


class BudgetExceeded(EhrhartError):
    """An enumeration would visit more points than the configured budget."""


class DimensionCapExceeded(EhrhartError):
    """Hull or face enumeration requested above the supported cap."""


class BadApex(EhrhartError):
    """Pyramid apex whose final coordinate is not 1."""


class VerificationFailed(EhrhartError):
    """A fitted quasi-polynomial disagrees with a fresh sample."""


class NonterminatingNumerator(EhrhartError):
    """Series numerator fails to truncate; the source is not a
    quasi-polynomial of the declared degree and modulus."""


class MissingIntersection(EhrhartError):
    """Inclusion-exclusion counting requested on a union without
    recorded pairwise intersections."""


class SizeMismatch(EhrhartError):
    """A power-sum solution has the wrong number of entries."""


class UnverifiedSolution(EhrhartError):
    """A power-sum solution failed verification."""


class RejectedSolution(EhrhartError):
    """A power-sum pair cannot be normalized (minimum not unique)."""


class NotAvailable(EhrhartError):
    """No shipped power-sum solution of the requested size exists."""
