"""Exception types and process exit codes shared across the package."""

EXIT_CERTIFIED = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT_ERROR = 3
EXIT_INTERNAL_ERROR = 4


class InputError(ValueError):
    """A caller-supplied value violates a documented precondition."""


class RefusedAtPrecision(InputError):
    """A refusal that rounding the certified constants to short witnesses
    may cause: the same table at more bits, or at the exact values, may
    accept the input (see ``params.first_decided``)."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; indicates a bug, not bad input."""


class InconclusiveAtHorizon(Exception):
    """A certificate search exhausted the horizon without a verdict.

    Not a failure: raising this means neither a certificate nor a
    counter-witness was found within the stages available.
    """
