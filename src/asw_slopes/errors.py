"""Exception taxonomy.

Three families, matching the CLI exit codes: verification failures (an exact
identity that should hold did not; exit 1), precision/budget problems (the
requested computation cannot be certified at the configured truncations;
exit 2), and invalid configuration (caller error; exit 3).  A MemoryError
is a budget the machine set, so it exits 2 as well.  Any other
exception reaching the CLI, such as a failed internal assertion, is a bug,
not a verdict: it exits 4, never 1.
"""


class AswError(Exception):
    """Base class for all package errors."""


class ConfigError(AswError):
    """Invalid configuration (CLI exit code 3)."""


class CtxMismatch(ConfigError):
    """Operands belong to different field/ring contexts."""


class NotPrime(ConfigError):
    pass


class DegreeNotCoprime(ConfigError):
    """p divides d; the tower is not in the covered regime."""


class WeightOutsideAnnulus(ConfigError):
    """Requested character weight lies outside the proven annulus."""


class PrecisionError(AswError):
    """Precision or budget failure (CLI exit code 2)."""


class InsufficientGuard(PrecisionError):
    """Guard digits too small for a division-bearing recurrence."""


class InsufficientPrecision(PrecisionError):
    """A lower-bound-only valuation falls below the exact hull."""


class BudgetExceeded(PrecisionError):
    """Enumeration or truncation budget exceeded."""


class VerificationError(AswError):
    """A mechanical identity check failed (CLI exit code 1)."""


class NonIntegralResult(VerificationError):
    """An exact division left a remainder where integrality is guaranteed."""


class DegreeViolation(VerificationError):
    """An L-function coefficient beyond the forced degree is nonzero."""


class NoGapAtVertex(VerificationError):
    """The Newton polygon lacks the vertex required for a slope split."""


class PathwayMismatch(VerificationError):
    """The two independent pathways disagree on a shared quantity."""
