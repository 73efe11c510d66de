"""Exception types shared across the engine.

The CLI maps these onto exit codes: ValidationError and subclasses are
invalid input (2), Unstable/SpanDeficiency are computational instability (3),
VerificationFailure and subclasses are failed cross-checks (4).
"""


class EngineError(Exception):
    """Base class for all engine errors."""


class ValidationError(EngineError):
    """Invalid user input (bad word, bad coordinates, bad file)."""


class NotNef(ValidationError):
    """A nef divisor class was required."""


class NotInterior(ValidationError):
    """The target weight is not interior to the weight polytope."""


class NonIntegralAll(ValidationError):
    """No level k <= K makes the scaled target weight integral."""


class VerificationFailure(EngineError):
    """A derived quantity failed its defining cross-check."""


class NoMatch(VerificationFailure):
    """No divisor class reproduces the requested character."""


class SpanDeficiency(EngineError):
    """Products of slot sections failed to span the section space."""


class Unstable(EngineError):
    """A computation did not stabilize within its configured caps."""
