"""Exception types shared across the package."""


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
