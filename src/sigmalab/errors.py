"""Exception types shared across the package."""


class ConstraintError(ValueError):
    """A field violates its pointwise constraint (on-manifold or tangency)."""


class SolverError(RuntimeError):
    """The gradient flow cannot proceed (non-finite residual or step, step underflow)."""


class ConfigError(ValueError):
    """A run configuration is missing, inconsistent, or refers to bad files."""
