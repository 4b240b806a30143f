"""Error types shared across the package.

Each error carries a stable machine-readable ``code`` used by the CLI for
exit-status mapping and by serialized reports.
"""


class HilbcloseError(Exception):
    code = "ERROR"


class DimensionMismatchError(HilbcloseError):
    code = "DIMENSION_MISMATCH"


class NotMPrimaryError(HilbcloseError):
    code = "NOT_M_PRIMARY"


class NotStabilizedError(HilbcloseError):
    code = "NOT_STABILIZED"


class UncertifiedError(HilbcloseError):
    code = "UNCERTIFIED"


class GenerationExhaustedError(HilbcloseError):
    code = "GENERATION_EXHAUSTED"


class UnsupportedRingError(HilbcloseError):
    code = "UNSUPPORTED_RING"
