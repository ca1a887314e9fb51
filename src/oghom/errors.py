"""Error types shared across the package.

Each error kind named by the interchange and operation contracts gets its
own class so callers (and the CLI exit-code mapping) can tell input
problems apart from mathematical failures.
"""


class OghomError(Exception):
    """Base class for all package errors."""


class InputError(OghomError):
    """Bad input documents or arguments (CLI exit code 2)."""


class SchemaViolation(InputError):
    """A document does not match its JSON schema.

    Carries the JSON pointer of the failing location.
    """

    def __init__(self, pointer, message):
        self.pointer = pointer
        self.message = message
        super().__init__("%s: %s" % (pointer or "/", message))


class DanglingReference(InputError):
    """A document references an id that does not resolve."""

    def __init__(self, pointer, ref):
        self.pointer = pointer
        self.ref = ref
        super().__init__("%s: unresolved id %r" % (pointer or "/", ref))


class MathError(OghomError):
    """A mathematical check failed (CLI exit code 1)."""


class StructuralDefect(MathError):
    """A structure that was assumed valid turned out not to be."""


class NotACategory(StructuralDefect):
    """A composition table fails the category axioms; carries every
    problem that `FiniteCategory.check` found, in its order."""

    def __init__(self, problems):
        self.problems = problems
        super().__init__("not a category: %s" % problems[0])


class PreconditionViolation(MathError):
    """An operation was called outside its stated precondition."""


class NotComposable(PreconditionViolation):
    """Composition requested for a non-composable pair."""


class NotPrincipallyDirected(MathError):
    """Quotient construction requested for a groupoid whose beta relation
    is not transitive."""

    def __init__(self, message, counterexample=None):
        self.counterexample = counterexample
        super().__init__(message)


class CompositeNonzero(PreconditionViolation):
    """homology_at called on maps that do not compose to zero."""
