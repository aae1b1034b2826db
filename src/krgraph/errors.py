"""Exception hierarchy shared across the package."""


class KrgraphError(Exception):
    """Base class for all errors raised by this package."""


class InvalidGraphError(KrgraphError):
    """Adjacency or Laplacian violates a structural invariant."""


class DimensionError(KrgraphError):
    """Operand shapes are inconsistent."""


class DegenerateKernelError(KrgraphError):
    """Kernel cannot be formed (e.g. all RBF inputs identical)."""


class SingularSystemError(KrgraphError):
    """Normal equations are singular or numerically near-singular."""


class ConvergenceError(KrgraphError):
    """Iterative optimizer exhausted its iteration budget."""


class ConfigError(KrgraphError):
    """Invalid config or settings, or a setting the call would not read."""


class DataFormatError(KrgraphError):
    """Input file is malformed (bad CSV, shape mismatch, missing values)."""
