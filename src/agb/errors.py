"""Exception hierarchy shared by all agb modules.

Every domain error raised by the library is a subclass of :class:`AgbError`,
so callers (and the CLI) can catch one type and report the class name.
The JSON readers check their integer fields with :func:`_json_int`.
"""


class AgbError(Exception):
    """Base class for all agb domain errors."""


# -- semigroup ---------------------------------------------------------------

class EmptyGenerators(AgbError):
    """No generators were supplied."""


class GcdNotOne(AgbError):
    """gcd of the generators is not 1, so the complement would be infinite."""


class NonPositiveGenerator(AgbError, ValueError):
    """Every generator must be a positive integer."""


class BeyondDeskScale(AgbError, ValueError):
    """The Frobenius number is too large for an in-memory membership table."""


# -- hstar -------------------------------------------------------------------

class LengthTooSmall(AgbError):
    """Code length n must exceed 2g+2."""


class WrongCardinality(AgbError):
    """A jump set must contain exactly n distinct elements."""


class NotSubsetOfH(AgbError):
    """Jump-set elements must be semigroup members within [0, n+2g-1]."""


class LowRangeMismatch(AgbError):
    """Below n the jump set must coincide with the semigroup."""


class ClosureViolation(AgbError):
    """m >= n absent from the jump set forces m+h absent for every member h."""


class MalformedAbundance(AgbError):
    """Kernel-dimension sequence violates its structural preconditions."""


class ResultInvalid(AgbError):
    """Set derived from a kernel-dimension sequence fails jump-set validation."""


class MalformedChain(AgbError):
    """Measured dimension sequence violates its structural preconditions."""


# -- bounds ------------------------------------------------------------------

class IndexOutOfRange(AgbError, ValueError):
    """Requested index is outside its 1-based range, such as 1..n."""


class NotAMember(AgbError):
    """Argument must be a semigroup member."""


class NotIsometryDual(AgbError):
    """Operation requires the isometry-dual condition."""


class DeltaOutOfRange(AgbError):
    """Designed distance must lie in 1..n."""


class EnumerationCapExceeded(AgbError):
    """The generalized-weight sweep visited more ideals than its node cap."""

    def __init__(self, cap: int):
        super().__init__(f"enumeration exceeded the node cap of {cap}")
        self.cap = cap


class InternalInvariantViolation(AgbError):
    """A guaranteed inequality failed; indicates a bug, not bad input."""


# -- gf ----------------------------------------------------------------------

class UnsupportedField(AgbError):
    """Field parameters outside the supported (p, k) range."""


class DivisionByZero(AgbError):
    """Multiplicative inverse of zero requested."""


class MatrixShapeMismatch(AgbError, ValueError):
    """Matrix or vector data does not have the shape the operation needs."""


# -- evalcode ----------------------------------------------------------------

class UnsupportedParameter(AgbError):
    """A built-in curve family, a verification cap or a search's node cap
    does not cover the requested parameter."""


class SchemaError(AgbError):
    """Input file does not match the documented schema."""


def _json_int(value, what: str) -> int:
    """value itself if it is an int; a float, string or bool is a SchemaError.

    A cast would truncate 8.9, parse "8" and read true as 1, so none is made.
    """
    if type(value) is not int:
        raise SchemaError(f"{what} must be an integer, got {value!r}")
    return value


class UnreadableFile(AgbError):
    """Input file is missing or cannot be read."""


class UnwritableFile(AgbError):
    """Output file cannot be created or written."""


class InvariantViolation(AgbError, ValueError):
    """Structurally valid input violates a semantic invariant."""


class BudgetOutOfRange(AgbError):
    """Pole-order budget m must lie in [0, n+2g-1]."""


class ZeroPivot(AgbError):
    """A pairing that must be nonzero vanished; the witness is invalid."""


# -- generic_bound -----------------------------------------------------------

class DependentInput(AgbError):
    """Supplied vectors are linearly dependent."""


# -- oracle ------------------------------------------------------------------

class InvalidSearchBudget(AgbError, ValueError):
    """A search budget, given or read from AGB_BUDGET_SUBSPACES, is not a
    positive integer."""


class BudgetExceeded(AgbError):
    """Exhaustive search would exceed the configured budget."""

    def __init__(self, required: int, budget: int):
        super().__init__(
            f"search needs {required} subspaces, over the budget of {budget}"
        )
        self.required = required
        self.budget = budget


class ZeroInFirstRow(AgbError):
    """The first chain row has a zero entry, where the isometry witness is
    read off by dividing by it."""
