"""Exception types shared across the package, and the integer rule for mode counts and indices."""

import operator


def _integer(value, name: str, minimum: int | None = None) -> int:
    """``value`` as an ``int`` >= ``minimum``; numpy integers pass, bools and non-integers do not."""
    try:
        number = operator.index(None if isinstance(value, bool) else value)  # bools are not counts
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and number < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {number}")
    return number


class GaussForgeError(Exception):
    """Base class for domain errors raised by this package."""


class RecipeError(GaussForgeError):
    """An engineering recipe is malformed or out of range."""


class NotPureError(GaussForgeError):
    """The operation requires a pure state but the input is mixed.

    Attributes:
        residual: infinity norm of the purity-identity residual.
        tolerance: threshold the residual was compared against.
    """

    def __init__(self, residual: float, tolerance: float):
        self.residual = residual
        self.tolerance = tolerance
        super().__init__(
            f"state is not pure: purity residual {residual:.3e} "
            f"exceeds tolerance {tolerance:.3e}"
        )


class NotInGenericClassError(GaussForgeError):
    """Local normalization left residual position-momentum correlations.

    The class-membership test is heuristic (per-mode rotation plus
    scaling): it refuses states of the class in a generic local frame at
    every N >= 2, as a leftover rotation of a mode whose block is c *
    identity is invisible to it.  See ROADMAP.md, item 2.
    """

    def __init__(self, residual: float, tolerance: float):
        self.residual = residual
        self.tolerance = tolerance
        super().__init__(
            f"residual q-p correlations {residual:.3e} exceed tolerance "
            f"{tolerance:.3e} after local normalization; note this heuristic "
            "check cannot rule out equivalence under more general local unitaries"
        )


class InfeasibleError(GaussForgeError):
    """Diagonal reconstruction failed to converge to a valid matrix.

    Attributes:
        residual: infinity norm of the last condition residual.
        iterations: number of Newton iterations performed.
    """

    def __init__(self, residual: float, iterations: int):
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"diagonal reconstruction did not converge after {iterations} "
            f"iterations (last residual {residual:.3e})"
        )


class InputFormatError(GaussForgeError):
    """A JSON document does not follow the expected schema."""
