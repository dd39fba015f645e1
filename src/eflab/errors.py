"""Exception types shared across the package."""


class PoleError(ArithmeticError):
    """Evaluation at (or within tolerance of) a pole."""


class DomainError(ValueError):
    """Argument outside the domain an operation is specified for."""


class ParseError(ValueError):
    """Malformed textual input (test-function literals, zero-table files)."""


class ConvergenceError(RuntimeError):
    """An adaptive quadrature or truncation failed to reach its target."""


class CertificationError(RuntimeError):
    """A zero count or zero table failed certification by Turing's method."""


class AdmissibilityError(ValueError):
    """Operand kind or state not admissible for the requested operation."""
