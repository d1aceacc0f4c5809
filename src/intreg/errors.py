"""Exception types shared across the package.

Every error exposes a stable machine-readable code (the class name) so the
command line interface can emit one-line diagnostics.
"""


class IntregError(Exception):
    """Base class for all package errors."""

    @property
    def code(self) -> str:
        return type(self).__name__


class NotHukuharaDecomposable(IntregError):
    """The Hukuhara difference does not exist: the subtrahend is wider."""


class EmptySample(IntregError):
    """An operation received fewer observations than it needs."""


class LengthMismatch(IntregError):
    """Paired sequences have different lengths."""


class DimensionMismatch(IntregError):
    """Matrix or vector shapes are inconsistent."""


class DegenerateSample(IntregError):
    """Too few observations to build a centered design."""


class DegenerateDesign(IntregError):
    """A design matrix is rank deficient beyond what a fit can absorb."""


class SingularQ(IntregError):
    """A quadratic form is numerically singular even after regularization."""


class PivotLimitExceeded(IntregError):
    """Complementary pivoting did not terminate within the pivot budget."""


class RayTermination(IntregError, ArithmeticError):
    """Complementary pivoting ray-terminated although the constraints are feasible."""


class SubgradientGap(IntregError, ArithmeticError):
    """A midpoint Lasso solution failed its subgradient certificate."""


class InfeasibleQp(IntregError):
    """The constraint system of a quadratic program is empty."""


class InfeasibleConstraints(IntregError):
    """The constrained Lasso constraint system admits no feasible point."""


class FoldTooSmall(IntregError):
    """A cross-validation split leaves fewer than two training rows."""


class InvalidTruth(IntregError):
    """Planted coefficients violate the model's sign constraints."""


class TooLarge(IntregError):
    """An instance exceeds the brute-force oracle's size caps."""


class MalformedHeader(IntregError):
    """A CSV header does not match the expected column schema."""


class EmptyFile(IntregError):
    """An input file contains no data rows."""


class NonNumericCell(IntregError):
    """A CSV cell is not a finite number."""

    def __init__(self, row: int, column: str, value: str):
        super().__init__(f"non-numeric value {value!r} at data row {row}, column {column!r}")
        self.row = row
        self.column = column
        self.value = value


class InvertedInterval(IntregError):
    """A parsed interval has its endpoints reversed, a negative spread, or a
    midpoint or spread that overflows."""

    def __init__(self, row: int, variable: str, detail: str = ""):
        message = f"invalid interval for {variable!r} at data row {row}"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)
        self.row = row
        self.variable = variable
