"""Exception and warning types shared across the package."""


class StouError(Exception):
    """Base class for all errors raised by this package."""


class BudgetExceeded(StouError):
    """A simulation exceeds its memory budget: exact-simulator sites or grid noise cells."""


class NotPositiveDefinite(StouError):
    """Covariance factorization failed even after the jitter retry."""


class DimensionMismatch(StouError):
    """Covariance blocks or field values do not have the shape they need."""


class DegenerateSample(StouError):
    """Field values are constant, so correlations are undefined, or so
    close to it that their variance's square underflows to 0."""


class InsufficientUsableLags(StouError):
    """No empirical correlation in (0, 1) on some axis; the log-linear
    moment fit has nothing to regress on."""


class CorrelationAtUnity(StouError):
    """A pair correlation reached +/-1 and the Gaussian pair density
    degenerates."""


class NoValidWindows(StouError):
    """The window specification admits no window with at least one pair."""


class SingularH(StouError):
    """Restricted expected Hessian is numerically singular."""


class FailureRateExceeded(StouError):
    """Too many bootstrap replications failed to refit."""


class ConfigInvalid(StouError):
    """Experiment configuration failed validation."""


class TruncationTooShallow(UserWarning):
    """Kernel truncation leaves a non-negligible tail."""


class CovarianceJitter(UserWarning):
    """Cholesky succeeded only after adding diagonal jitter."""


class OptimizerDidNotConverge(UserWarning):
    """The CL fit's Fisher-scoring search used up its iterations before it converged."""
