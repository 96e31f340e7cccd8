"""Exception hierarchy for bisep.

Recovery errors name the step of the reconstruction that rejected the
input map, so callers (and the CLI) can report exactly where a map
stops looking like a scaled similarity conjugation.
"""


class BisepError(Exception):
    """Base class for all bisep errors."""


class DimensionMismatch(BisepError):
    """Operands have incompatible shapes."""


class ZeroMatrix(BisepError):
    """A matrix required to be nonzero is zero at tolerance."""


class SingularMatrix(BisepError):
    """Matrix (or superoperator) is not invertible at tolerance."""


class RecoveryError(BisepError):
    """Base for conjugation/pointwise recovery failures.

    ``step`` is a stable machine-readable name of the rejecting stage.
    """

    step = "recovery_failed"

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NotRankOnePreserving(RecoveryError):
    step = "not_rank_one_preserving"


class NotFactorizable(RecoveryError):
    step = "not_factorizable"


class NotInvertibleS(RecoveryError):
    step = "not_invertible_s"


class NotStandardForm(RecoveryError):
    step = "not_standard_form"


class DegenerateMap(RecoveryError):
    step = "degenerate_map"


class NotLocal(RecoveryError):
    step = "not_local"


class PhiNotBijective(RecoveryError):
    step = "phi_not_bijective"


class SchemaError(BisepError):
    """An instance or report file violates the documented JSON schema."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
