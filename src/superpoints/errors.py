"""Shared exception types.

The CLI maps these onto exit codes: schema/usage problems are distinct from
mathematical failures, which are distinct from internal invariant breaches.
"""


class StructuralError(ValueError):
    """Operands do not fit together (ring tag, rank, or shape mismatch)."""


class NotInvertible(ArithmeticError):
    """Element or matrix has a singular body over the base field."""


class ClosureViolation(ValueError):
    """A bracket or square left the declared span; carries the offender."""


class SpanViolation(ValueError):
    """A conjugate could not be written in the odd-basis span exactly."""


class MembershipViolation(ValueError):
    """A matrix failed a group membership predicate it was required to pass."""


class InvariantBreach(RuntimeError):
    """An internal invariant of the program failed: a bug, not bad input.
    The CLI maps it, and every subclass, to exit 3."""


class NonTermination(InvariantBreach):
    """Internal rewriting guard tripped; indicates a sign bug, not bad input."""


class SchemaError(ValueError):
    """A fixture file does not match its JSON schema."""
