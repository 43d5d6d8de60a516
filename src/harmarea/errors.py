"""Exception types and tolerance limits shared across the package.

No numpy here: the CLI's parse stage (entry.py) imports this module alone.
"""

DEFAULT_TOL = 1e-9
MIN_TOL = 1e-12


class DomainError(ValueError):
    """Evaluation point lies outside the closed unit disk."""


class PoleError(ArithmeticError):
    """Mobius denominator vanished (numerically) at the evaluation point."""


class CriticalPointError(ArithmeticError):
    """h' vanished, so the dilatation g'/h' is undefined there."""


class ConstructionError(ValueError):
    """Constructor arguments violate a type invariant."""


class HypothesisError(ValueError):
    """A required hypothesis of a verification operation is violated."""


class NonConvergenceError(ArithmeticError):
    """Refinement hit its cap with the error estimate still too large."""


class BudgetError(ValueError):
    """A configured evaluation budget would be exceeded."""


class ParseError(ValueError):
    """Input file or document does not match the expected schema."""
